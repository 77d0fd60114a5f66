import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import (
    AlgebraDecomposition,
    DecompositionError,
    NumericalError,
    OperatorSpace,
    ValidationError,
    canonical_decompose,
    verify_decomposition,
)
import ipstruct.algebra
from ipstruct.algebra import Sector, commutant, is_algebra
from ipstruct.spectral import operator_space_from_span

from oracles import unit_span_distance

SECTOR_LAYOUTS = [
    [(1, 1), (1, 1)],
    [(2, 1)],
    [(2, 2), (1, 3)],
    [(3, 1), (1, 2)],
    [(2, 1), (2, 1)],
    [(2, 2), (2, 2), (1, 1)],
    [(3, 2), (2, 3)],
]


def haar_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_units(d):
    out = []
    for a in range(d):
        for b in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = 1.0
            out.append(m)
    return out


def block_algebra_span(ambient, sectors, u):
    """Vectorized basis of U (sum_k M_{d_k} (x) 1_{n_k}) U^dag, zero-padded."""
    cols = []
    offset = 0
    for d, n in sectors:
        for unit in matrix_units(d):
            big = np.zeros((ambient, ambient), dtype=complex)
            big[offset:offset + d * n, offset:offset + d * n] = np.kron(unit, np.eye(n))
            conj = u @ big @ u.conj().T
            cols.append(conj.reshape(-1, order="F"))
        offset += d * n
    return np.column_stack(cols)


def space_of(ambient, sectors, u, seed_dim=None):
    span = block_algebra_span(ambient, sectors, u)
    return operator_space_from_span(span, dim=ambient)


def test_is_algebra_accepts_diagonal():
    space = operator_space_from_span(
        np.column_stack([
            np.diag([1.0, 0.0]).reshape(-1, order="F"),
            np.diag([0.0, 1.0]).reshape(-1, order="F"),
        ]).astype(complex),
        dim=2,
    )
    check = is_algebra(space)
    assert check
    assert check.worst_residual < 1e-12


def test_is_algebra_rejects_non_closed_span():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    space = operator_space_from_span(x.reshape(-1, 1, order="F"), dim=2)
    check = is_algebra(space)
    assert not check  # x @ x = identity, which is outside span{x}
    assert check.worst_residual > 0.1
    assert check.worst_pair == (0, 0)
    # closed under products (x @ x = 0) but not under the adjoint
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    check = is_algebra(operator_space_from_span(x.reshape(-1, 1, order="F"), dim=2))
    assert not check
    assert check.worst_pair == (0, -1)


def test_commutant_extremes():
    full = operator_space_from_span(
        np.column_stack([m.reshape(-1, order="F") for m in matrix_units(3)]),
        dim=3,
    )
    comm = commutant(full)
    assert comm.size == 1  # scalars only

    scalars = operator_space_from_span(
        np.eye(3, dtype=complex).reshape(-1, 1, order="F"), dim=3
    )
    assert commutant(scalars).size == 9


def test_commutant_of_diagonal():
    diag = operator_space_from_span(
        np.column_stack([
            np.diag([1.0, 0.0]).reshape(-1, order="F"),
            np.diag([0.0, 1.0]).reshape(-1, order="F"),
        ]).astype(complex),
        dim=2,
    )
    assert commutant(diag).size == 2


def test_canonical_decompose_known_shape():
    # M_2 (x) 1_3  (+)  M_1, hidden by a random unitary and a zero row
    rng = np.random.default_rng(7)
    u = haar_unitary(8, rng)
    space = space_of(8, [(2, 3), (1, 1)], u)
    dec = canonical_decompose(space)
    assert dec.shape == (2, 1)
    assert dec.cofactors == (3, 1)
    assert dec.support_rank() == 7
    res = verify_decomposition(space, dec)
    assert res["max_residual"] < 1e-8
    # the decomposition verifies itself on the span compressed onto its
    # support; the ambient report agrees to rounding
    assert dec.residuals.keys() == {"algebra_closure", *res}
    assert dec.residuals["algebra_closure"] == dec.residuals["reconstruction_distance"]
    for key, value in res.items():
        assert abs(dec.residuals[key] - value) <= 1e-14, key
    # with full support both read the same coordinates, bit for bit
    full = space_of(7, [(2, 3), (1, 1)], haar_unitary(7, rng))
    full_dec = canonical_decompose(full)
    full_res = verify_decomposition(full, full_dec)
    assert full_dec.residuals == {"algebra_closure": full_res["reconstruction_distance"],
                                  **full_res}
    assert dec.residuals["algebra_closure"] < 1e-8
    # the span is exactly an algebra, so the distance is rounding alone
    assert res["reconstruction_distance"] <= 1e-13
    # one basis element turned by t towards an operator outside the span: the
    # distance reads sin t, down to angles far below tol.subspace
    v = space.vec_matrix()
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x -= v @ (v.conj().T @ x)
    outside = (x / np.linalg.norm(x)).reshape(8, 8, order="F")
    for t in (1e-9, 1e-5, 0.3):
        turned = space.basis.copy()
        turned[0] = np.cos(t) * turned[0] + np.sin(t) * outside
        turned_space = OperatorSpace(dim=8, basis=turned)
        dist = verify_decomposition(turned_space, dec)
        assert abs(dist["reconstruction_distance"] - np.sin(t)) <= 1e-12, t
        # a Frobenius norm, never below the 2-norm reference (to rounding)
        assert dist["reconstruction_distance"] >= unit_span_distance(turned_space, dec) - 1e-15
    # a hand-built basis that is not orthonormal is refused
    with pytest.raises(NumericalError, match="not orthonormal"):
        verify_decomposition(OperatorSpace(dim=8, basis=2.0 * space.basis), dec)


def test_canonical_decompose_reconstructs_elements():
    rng = np.random.default_rng(11)
    u = haar_unitary(6, rng)
    space = space_of(6, [(2, 2), (1, 2)], u)
    dec = canonical_decompose(space)
    assert dec.shape == (2, 1)
    # build an element from block coefficients and check membership in span
    blocks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
              rng.standard_normal((1, 1))]
    elem = dec.element(blocks)
    with pytest.raises(ValidationError, match="1 blocks for 2 sectors"):
        dec.element(blocks[:1])
    v = space.vec_matrix()
    proj = v @ v.conj().T
    x = elem.reshape(-1, order="F")
    assert np.linalg.norm(proj @ x - x) < 1e-8


@pytest.mark.parametrize("sectors", SECTOR_LAYOUTS)
def test_canonical_decompose_random_conjugations(sectors):
    total = sum(d * n for d, n in sectors)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = haar_unitary(total, rng)
        space = space_of(total, sectors, u)
        dec = canonical_decompose(space, seed=seed)
        expected = tuple(sorted((d for d, _ in sectors), reverse=True))
        got_sorted = tuple(sorted(dec.shape, reverse=True))
        assert got_sorted == expected, (sectors, seed)
        assert verify_decomposition(space, dec)["max_residual"] < 1e-8


@pytest.mark.parametrize("sectors", SECTOR_LAYOUTS)
def test_commutant_and_centre_of_sector_layouts(sectors):
    # one dimension outside the support adds M_1 to the commutant
    pad = 1
    total = sum(d * n for d, n in sectors) + pad
    space = space_of(total, sectors, haar_unitary(total, np.random.default_rng(3)))
    assert commutant(space).size == sum(n * n for _, n in sectors) + pad ** 2

    assert is_algebra(space)
    # the sector projectors span the centre: each lies in the span and
    # commutes with every basis element
    dec = canonical_decompose(space)
    assert len(dec.sectors) == len(sectors)
    v = space.vec_matrix()
    for s in dec.sectors:
        z = s.isometry @ s.isometry.conj().T
        x = z.reshape(-1, order="F")
        assert np.linalg.norm(v @ (v.conj().T @ x) - x) < 1e-10
        for b in space.basis:
            assert np.linalg.norm(z @ b - b @ z) < 1e-10


@pytest.mark.parametrize("sectors, seeds", [(layout, 20) for layout in SECTOR_LAYOUTS]
                         + [([(2, 2), (1, 1)], 100)])
def test_seed_invariance_of_decomposition(sectors, seeds):
    """The randomized interior steps must not leak into the answer.

    Every layout over 20 seeds, and M_2 (x) 1_2  (+)  M_1 over 100: identical
    shapes, identical support, and identical sector projectors (the
    isometries themselves are only canonical up to basis rotations, the
    projectors are unique).
    """
    total = sum(d * n for d, n in sectors)
    rng = np.random.default_rng(23)
    u = haar_unitary(total, rng)
    space = space_of(total, sectors, u)
    reference = None
    for seed in range(seeds):
        dec = canonical_decompose(space, seed=seed)
        projs = [s.isometry @ s.isometry.conj().T for s in dec.sectors]
        if reference is None:
            reference = (dec.shape, dec.cofactors, projs)
            continue
        assert dec.shape == reference[0]
        assert dec.cofactors == reference[1]
        for p, q in zip(projs, reference[2]):
            assert np.linalg.norm(p - q) < 1e-7


def test_decompose_rejects_non_algebra():
    x = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)  # nilpotent
    space = operator_space_from_span(x.reshape(-1, 1, order="F"), dim=3)
    with pytest.raises(DecompositionError):
        canonical_decompose(space)


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("ops", [
    [SIGMA_X],
    [np.array([[0, 1], [0, 0]], dtype=complex)],
    [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Z],
], ids=["sigma-x", "nilpotent-2", "one-x-z"])
def test_non_closed_spans_fail_decomposition(ops):
    # no closure check runs first: the rebuilt matrix units or the counts
    # before them must refuse every span that is not a *-algebra (the 3 x 3
    # nilpotent is test_decompose_rejects_non_algebra)
    dim = len(ops[0])
    space = operator_space_from_span(
        np.column_stack([op.reshape(-1, order="F") for op in ops]), dim=dim)
    assert not is_algebra(space)
    with pytest.raises(DecompositionError):
        canonical_decompose(space)
    # against decompositions with one, two or dim^2 units, the Frobenius
    # distance never reads below the 2-norm reference (to rounding)
    u = haar_unitary(dim, np.random.default_rng(1))
    for layout in ([(1, 1)], [(1, dim)], [(1, 1), (1, 1)], [(dim, 1)]):
        columns = np.cumsum([0] + [d * n for d, n in layout])
        dec = AlgebraDecomposition(
            ambient_dim=dim, support_projector=np.eye(dim),
            sectors=tuple(Sector(d=d, n=n, isometry=u[:, lo:hi])
                          for (d, n), lo, hi in zip(layout, columns[:-1], columns[1:])))
        reference = unit_span_distance(space, dec)
        assert 0.1 < reference <= 1.0 + 1e-12
        assert verify_decomposition(space, dec)["reconstruction_distance"] >= reference - 1e-15


def test_degenerate_centre_draw_is_retried(monkeypatch):
    # a scalar first draw puts the whole support of M_2 (x) 1_2 (+) M_1 in
    # one cluster, one sector too few; the next attempt draws afresh and succeeds
    space = space_of(5, [(2, 2), (1, 1)], haar_unitary(5, np.random.default_rng(5)))
    expected = canonical_decompose(space)
    original = ipstruct.algebra._random_element_in
    calls = []

    def degenerate_first(ops, rng):
        calls.append(rng)
        if len(calls) == 1:
            return np.eye(ops.shape[1], dtype=complex)
        return original(ops, rng)

    monkeypatch.setattr(ipstruct.algebra, "_random_element_in", degenerate_first)
    dec = canonical_decompose(space)
    assert len(calls) == 2
    assert (dec.shape, dec.cofactors) == (expected.shape, expected.cofactors)
    for s, t in zip(dec.sectors, expected.sectors):
        p, q = (x.isometry @ x.isometry.conj().T for x in (s, t))
        assert np.linalg.norm(p - q) < 1e-7
    assert dec.residuals["max_residual"] < 1e-8


@pytest.mark.parametrize("w, bounds", [
    # below unit spread the width is an absolute CLUSTER_REL = 1e-7
    ([0.0, 0.6e-7, 1.2e-7, 1.8e-7, 0.5], [0, 4, 5]),  # a chain wider than the width is one cluster
    ([0.0, 1e-7], [0, 2]),  # a step of exactly the width joins
    ([0.0, np.nextafter(1e-7, 1.0)], [0, 1, 2]),  # one just above it splits
    # from unit spread on, the width is CLUSTER_REL times the spread, here 4.0000005e-7
    ([0.0, 4.0, 4.0 + 3e-7, 4.0 + 5e-7], [0, 1, 4]),
    ([3.0], [0, 1]),
    ([2.0, 2.0, 2.0], [0, 3]),
], ids=["chain", "at-width", "above-width", "relative-chain", "one", "all-equal"])
def test_eigen_clusters_compare_each_eigenvalue_with_its_predecessor(w, bounds):
    h = np.diag(w).astype(complex)
    assert np.array_equal(np.linalg.eigh(h)[0], w)  # the eigensolve returns w as given
    v, got = ipstruct.algebra._eigen_clusters(h)
    assert got.tolist() == bounds
    assert v.shape == h.shape


def _decompose_with_draws(monkeypatch, a, h):
    """``canonical_decompose`` of the full matrix algebra on ``len(a)`` dimensions
    with the generic element ``a + i h`` on every attempt, for a diagonal ``a`` and
    a Hermitian ``h``: its Hermitian part is ``a`` exactly, whose eigenbasis is the
    standard one, so its blocks between the clusters of ``a`` are those of ``i h``.
    The error of the last attempt."""
    monkeypatch.setattr(ipstruct.algebra, "_random_element_in", lambda ops, rng: a + 1j * h)
    space = space_of(len(a), [(len(a), 1)], np.eye(len(a)))
    with pytest.raises(DecompositionError) as info:
        canonical_decompose(space)
    return info.value


def test_clusters_of_one_sector_that_differ_in_size_fail(monkeypatch):
    # clusters {0, 1} and {2} of a, coupled by h into one sector
    error = _decompose_with_draws(monkeypatch, np.diag([0.0, 0.0, 1.0]).astype(complex),
                                  np.ones((3, 3), dtype=complex))
    assert str(error) == "eigenvalue clusters of one sector differ in size"
    assert error.residuals == {"clusters": 2.0}


def test_rank_deficient_transport_fails_with_its_least_singular_value(monkeypatch):
    # clusters {0, 1}, {2, 3} and {4, 5} of a, all in one sector: the block of h
    # from the first to the second is the identity, to the third it has singular
    # values 1 and 1e-12, which the error reports
    g = np.zeros((6, 6), dtype=complex)
    g[2:4, :2], g[4:, :2] = np.eye(2), np.diag([1.0, 1e-12])
    a = np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).astype(complex)
    error = _decompose_with_draws(monkeypatch, a, g + g.conj().T)
    assert str(error) == "algebra transport between eigenspaces is rank deficient"
    assert error.residuals.keys() == {"min_singular"}
    assert error.residuals["min_singular"] == pytest.approx(1e-12, rel=1e-6)


def test_matrix_units_follow_the_factor_major_layout():
    rng = np.random.default_rng(9)
    iso = haar_unitary(6, rng)[:, :4]
    sector = ipstruct.algebra.Sector(d=2, n=2, isometry=iso)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for cofactor in (np.eye(2), g @ g.conj().T):
        units = ipstruct.algebra._matrix_units(sector, cofactor)
        for (a, b), unit in zip(np.ndindex(2, 2), units):
            e = np.zeros((2, 2))
            e[a, b] = 1.0
            assert_allclose(unit, iso @ np.kron(e, cofactor) @ iso.conj().T, atol=1e-12)


@pytest.mark.parametrize("layout, ambient", [
    ([(2, 2), (2, 3)], 12), ([(3, 2)], 8), ([(2, 3), (3, 2), (1, 1)], 14),
], ids=["two-sectors", "one-sector", "three-sectors"])
def test_in_sectors_matches_the_flattened_units(layout, ambient):
    # sectors on part of the space, unit-norm Hermitian cofactors and a
    # non-Hermitian stack, read against the dense unit stack
    rng = np.random.default_rng(ambient)
    columns, sectors, cofactors = haar_unitary(ambient, rng), [], []
    for d, n in layout:
        sectors.append(Sector(d=d, n=n, isometry=columns[:, :d * n]))
        columns = columns[:, d * n:]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cofactors.append((g + g.conj().T) / np.linalg.norm(g + g.conj().T))
    assert columns.shape[1] > 0
    parts = rng.standard_normal((2, 5, ambient, ambient))
    x = parts[0] + 1j * parts[1]
    units = np.concatenate([ipstruct.algebra._matrix_units(s, c)
                            for s, c in zip(sectors, cofactors)])
    flat = units.reshape(len(units), -1)
    assert_allclose(flat.conj() @ flat.T, np.eye(len(flat)), atol=1e-13)
    expected = x.reshape(len(x), -1) @ flat.conj().T  # <u_j, x_l>

    coords, distance = ipstruct.algebra._in_sectors(sectors, cofactors, x)
    assert_allclose(coords, expected, rtol=0, atol=1e-13)
    assert_allclose(distance, np.linalg.norm(x.reshape(len(x), -1) - expected @ flat, axis=1),
                    rtol=0, atol=1e-13)
    # a part off the support counts in full
    assert np.all(distance > 1.0)


def test_negative_seed_rejected():
    space = space_of(3, [(1, 1), (1, 2)], np.eye(3))
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        canonical_decompose(space, seed=-1)


def test_empty_span_rejected():
    space = operator_space_from_span(np.zeros((4, 0), dtype=complex), dim=2)
    with pytest.raises(DecompositionError):
        canonical_decompose(space)
