import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import (
    DecompositionError,
    canonical_decompose,
    verify_decomposition,
)
import ipstruct.algebra
from ipstruct.algebra import _centre, commutant, is_algebra
from ipstruct.spectral import operator_space_from_span
from ipstruct.tolerances import DEFAULT_TOL

SECTOR_LAYOUTS = [
    [(1, 1), (1, 1)],
    [(2, 1)],
    [(2, 2), (1, 3)],
    [(3, 1), (1, 2)],
    [(2, 1), (2, 1)],
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
    assert dec.residuals == {"algebra_closure": dec.residuals["algebra_closure"], **res}
    assert dec.residuals["algebra_closure"] < 1e-8


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
    centre = _centre(space, np.random.default_rng(0), DEFAULT_TOL)
    assert len(centre) == len(sectors)
    v = space.vec_matrix()
    for z in centre:
        x = z.reshape(-1, order="F")
        assert np.linalg.norm(v @ (v.conj().T @ x) - x) < 1e-10
        for b in space.basis:
            assert np.linalg.norm(z @ b - b @ z) < 1e-10


def test_seed_invariance_of_decomposition():
    """The randomized interior steps must not leak into the answer.

    100 seeds on M_2 (x) 1_2  (+)  M_1: identical shapes, identical support,
    and identical sector projectors (the isometries themselves are only
    canonical up to basis rotations, the projectors are unique).
    """
    rng = np.random.default_rng(23)
    u = haar_unitary(5, rng)
    space = space_of(5, [(2, 2), (1, 1)], u)
    reference = None
    for seed in range(100):
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


def test_degenerate_centre_draw_is_retried(monkeypatch):
    # a first draw that calls the whole span central splits M_2 (x) 1_2 (+) M_1
    # into too few clusters; the next attempt draws afresh and succeeds
    space = space_of(5, [(2, 2), (1, 1)], haar_unitary(5, np.random.default_rng(5)))
    expected = canonical_decompose(space)
    original = ipstruct.algebra._centre
    calls = []

    def degenerate_first(comp_space, rng, tol):
        calls.append(rng)
        if len(calls) == 1:
            return np.stack(comp_space.basis)
        return original(comp_space, rng, tol)

    monkeypatch.setattr(ipstruct.algebra, "_centre", degenerate_first)
    dec = canonical_decompose(space)
    assert len(calls) == 2
    assert (dec.shape, dec.cofactors) == (expected.shape, expected.cofactors)
    for s, t in zip(dec.sectors, expected.sectors):
        p, q = (x.isometry @ x.isometry.conj().T for x in (s, t))
        assert np.linalg.norm(p - q) < 1e-7
    assert dec.residuals["max_residual"] < 1e-8


def test_matrix_units_follow_the_factor_major_layout():
    rng = np.random.default_rng(9)
    iso = haar_unitary(6, rng)[:, :4]
    sector = ipstruct.algebra.Sector(d=2, n=2, isometry=iso)
    units = ipstruct.algebra._matrix_units(sector)
    for (a, b), unit in zip(np.ndindex(2, 2), units):
        e = np.zeros((2, 2))
        e[a, b] = 1.0
        assert_allclose(unit, iso @ np.kron(e, np.eye(2)) @ iso.conj().T, atol=1e-12)


def test_empty_span_rejected():
    space = operator_space_from_span(np.zeros((4, 0), dtype=complex), dim=2)
    with pytest.raises(DecompositionError):
        canonical_decompose(space)
