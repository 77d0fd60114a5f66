import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.stats import unitary_group

from ipstruct import (
    NumericalError,
    OperatorSpace,
    StochasticChannel,
    Superoperator,
    ValidationError,
    channel_from_kraus,
    compose,
    embed_classical,
    fixed_space,
    rotating_space,
    to_superoperator,
    zoo,
)
from ipstruct import spectral
from ipstruct.algebra import commutant
from ipstruct.spectral import _split, operator_space_from_span
from ipstruct.structures import unconditional_recovery
from ipstruct.tolerances import DEFAULT_TOL, PERIPHERAL, SELF_ADJOINT, SPECTRAL_GAP
from oracles import (apply_superoperator, inverse_certificate, is_unital, numerical_abscissa,
                     schur_split, subspace_distance, superoperator_eigenspace, vec)


def test_unitary_channel_spectrum():
    # eigenvalues of a unitary conjugation are the phase ratios; the qutrit's
    # exp(+-0.7i) and exp(+-1.4i) come in conjugate pairs that the real Schur
    # form must keep together
    def key(z):  # repeated eigenvalues differ in the last bits
        return (round(z.real, 9), round(z.imag, 9))

    for phases in ((0.3, 1.1), (0.0, 0.7, 1.4)):
        u = np.diag(np.exp(1j * np.array(phases)))
        d = len(phases)
        ch = channel_from_kraus([u])
        eigenvalues = np.linalg.eigvals(to_superoperator(ch).matrix)
        expected = sorted((np.exp(1j * (a - b)) for a in phases for b in phases), key=key)
        got = sorted(eigenvalues, key=key)
        assert_allclose(got, expected, atol=1e-10)
        assert rotating_space(ch).size == d * d
        assert fixed_space(ch).size == d
        # the whole spectrum is peripheral, so the projector is the identity
        assert_allclose(rotating_space(ch).projector.matrix, np.eye(d * d), atol=1e-10)


def _assert_stack(space):
    """The one layout of a span: a complex ``(size, dim, dim)`` array."""
    assert isinstance(space.basis, np.ndarray) and space.basis.dtype == complex
    assert space.basis.shape == (space.size, space.dim, space.dim)


def test_fixed_space_dephasing_is_diagonal():
    space = fixed_space(zoo.fixture("dephasing_qubit"))
    assert space.size == 2
    for b in space.basis:
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12


def test_fixed_space_dimensions_on_fixtures():
    assert fixed_space(zoo.fixture("depolarize_B")).size == 4
    assert fixed_space(zoo.fixture("cond_dephase_flip")).size == 4
    assert fixed_space(zoo.fixture("five_qubit_depolarize_one")).size == 1


PLANTED_AND_RANDOM = [
    *(zoo.random_cptp(2 + seed % 3, 1 + seed % 3, seed) for seed in range(8)),
    zoo.random_dfs_channel(6, 3, 1), zoo.random_dfs_channel(5, 2, 2, leak=0.3),
]


@pytest.mark.parametrize("ch", PLANTED_AND_RANDOM,
                         ids=[*map(str, range(8)), "dfs-6-3", "dfs-5-2-leak"])
def test_fixed_space_dim_matches_adjoint(ch):
    space = fixed_space(ch)
    assert space.size == space.dual.size
    _assert_stack(space)
    _assert_stack(space.dual)
    # the dual holds fixed points of the adjoint map
    m = to_superoperator(ch).matrix
    dual = space.dual.vec_matrix()
    assert np.linalg.norm(m.conj().T @ dual - dual) < 1e-9
    # both bases come out of Hermitian coordinates; each element is checked
    for b in np.concatenate([space.basis, space.dual.basis]):
        assert np.max(np.abs(b - b.conj().T)) < 1e-12
    # the right space is the null space of S - 1, found independently
    null = scipy.linalg.null_space(m - np.eye(m.shape[0]))
    assert subspace_distance(space, null) < 1e-8


@pytest.mark.parametrize("split", [fixed_space, rotating_space])
def test_spectral_input_must_be_a_channel(split):
    # only a map in Kraus form is known to preserve Hermiticity, so only a
    # channel has a real matrix in Hermitian coordinates
    for other in (Superoperator(dim_in=2, dim_out=2, matrix=np.eye(4)), np.eye(4, dtype=complex)):
        with pytest.raises(ValidationError, match="QuantumChannel"):
            split(other)
    # the identity channel is all fixed
    assert split(channel_from_kraus([np.eye(2)])).size == 4


def test_rotating_space_contains_fixed_space():
    ch = zoo.fixture("unitary_A_depolarize_B")
    fix = fixed_space(ch)
    rot = rotating_space(ch)
    rot_dual = rot.dual
    assert rot.size == rot_dual.size
    _assert_stack(rot)
    _assert_stack(rot_dual)
    assert rot.size > fix.size  # the rotating coherences are extra
    f = fix.vec_matrix()
    r = rot.vec_matrix()
    # every fixed operator lies inside the rotating span
    proj = r @ r.conj().T
    assert np.linalg.norm(proj @ f - f) < 1e-9


def test_asymptotic_projector_dephasing():
    ch = zoo.fixture("dephasing_qubit")
    avg = fixed_space(ch).projector
    # the time average of dephasing is dephasing itself
    assert_allclose(avg.matrix, to_superoperator(ch).matrix, atol=1e-10)


def test_asymptotic_projector_against_power_and_cesaro():
    """Two independent oracles for the time average of the cyclic-4 shift.

    The interior spectrum contains (1 +/- i)/2 with modulus 0.707, so the
    Cesaro partial sum at N = 2000 still carries ~1e-3 of residual; the
    plain matrix power has converged to machine precision by then.  Both
    must agree with the eigenprojector construction at their own scales.
    """
    ch = embed_classical(zoo.fixture("cyclic_four"))
    m = to_superoperator(ch).matrix
    avg = fixed_space(ch).projector.matrix

    power = np.linalg.matrix_power(m, 2000)
    assert np.max(np.abs(avg - power)) < 1e-6

    cesaro = np.zeros_like(m)
    acc = np.eye(m.shape[0], dtype=complex)
    for _ in range(2000):
        acc = m @ acc
        cesaro += acc
    cesaro /= 2000.0
    assert np.max(np.abs(avg - cesaro)) < 5e-3


def test_asymptotic_projector_is_idempotent_and_absorbing():
    fixtures = [zoo.fixture(name) for name in ("depolarize_B", "cond_dephase_flip", "ucp_d3")]
    for i, ch in enumerate(fixtures + PLANTED_AND_RANDOM):
        avg = fixed_space(ch).projector.matrix
        m = to_superoperator(ch).matrix
        assert np.linalg.norm(avg @ avg - avg) < 1e-9, i
        assert np.linalg.norm(m @ avg - avg) < 1e-9, i
        assert np.linalg.norm(avg @ m - avg) < 1e-9, i


def test_peripheral_projector_commutes_and_projects():
    ch = zoo.fixture("unitary_A_depolarize_B")
    per = rotating_space(ch).projector.matrix
    m = to_superoperator(ch).matrix
    assert np.linalg.norm(per @ per - per) < 1e-9
    assert np.linalg.norm(per @ m - m @ per) < 1e-9
    # four peripheral eigenvalues: 1, 1, exp(+-2i*0.7)
    assert abs(np.trace(per) - 4.0) < 1e-8


def test_peripheral_projector_gap_guard():
    # an interior eigenvalue 1e-7 away from the unit circle is too close to
    # separate reliably, and the guard must refuse
    eps = 1e-7
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    ch = channel_from_kraus([
        np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * p0, np.sqrt(eps) * p1,
    ])
    with pytest.raises(NumericalError):
        rotating_space(ch)
    # the same for the complex pair (1 - 2p) exp(-+0.9i), a 2 x 2 block of
    # the real Schur form, next to the fixed diagonal
    p, u = 5e-8, np.diag([1.0, np.exp(0.9j)])
    ch = channel_from_kraus([np.sqrt(1 - p) * u, np.sqrt(p) * np.diag([1.0, -1.0]) @ u])
    with pytest.raises(NumericalError, match="not separated"):
        rotating_space(ch)


def test_spectral_radius_bound_random():
    for seed in range(50):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 1 + seed % 4, seed)
        eigenvalues = np.linalg.eigvals(to_superoperator(ch).matrix)
        assert np.max(np.abs(eigenvalues)) <= 1 + 1e-9


def test_peripheral_semisimplicity_random():
    # rotating_space raises if the peripheral spectrum is empty or not
    # separated from the interior
    for seed in range(50):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 1 + seed % 4, seed + 1000)
        space = rotating_space(ch)
        assert space.size >= 1


def test_operator_space_from_span_drops_dependent_columns():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    cols = np.column_stack([a[:, 0], a[:, 1], a[:, 0] + a[:, 1]])
    space = operator_space_from_span(cols, dim=2)
    assert space.size == 2
    _assert_stack(space)
    # no columns, or only zero ones, give the empty stack
    for empty in (np.zeros((4, 0)), np.zeros((4, 3))):
        assert operator_space_from_span(empty, dim=2).basis.shape == (0, 2, 2)
    # a tuple of operators, or an empty one, is stacked by the constructor
    coerced = OperatorSpace(dim=2, basis=tuple(space.basis))
    _assert_stack(coerced)
    assert np.array_equal(coerced.basis, space.basis)
    assert OperatorSpace(dim=2, basis=()).basis.shape == (0, 2, 2)


@pytest.mark.parametrize("basis", [np.eye(3)[None].repeat(4, axis=0), np.ones(5), np.eye(2),
                                   np.zeros((0, 3, 3)), np.ones((1, 1, 2, 2))],
                         ids=["four-3x3", "size-5", "one-matrix", "empty-3x3", "4-d"])
def test_operator_space_checks_its_basis(basis):
    # a basis is a (k, dim, dim) stack: it is never reshaped into one
    with pytest.raises(ValidationError, match=r"basis shape \("):
        OperatorSpace(dim=2, basis=basis)


def test_compressed_orthonormalizes_only_a_span_that_shrinks(monkeypatch):
    rng = np.random.default_rng(8)
    ops = np.zeros((5, 4, 4), dtype=complex)  # supported on the first three basis vectors
    ops[:, :3, :3] = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    space = operator_space_from_span(np.column_stack([vec(x) for x in ops]), dim=4)
    v = space.support()
    assert v.shape == (4, 3)

    def no_svd(*args, **kwargs):
        raise AssertionError("an isometric compression needs no SVD")

    # onto the support the compression is isometric: the stack is kept as it is
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", no_svd)
        kept = space.compressed(v)
    assert np.array_equal(kept.basis, v.conj().T @ space.basis @ v)
    _assert_stack(kept)
    # onto two support directions the five elements span at most four
    w = v[:, :2]
    shrunk = space.compressed(w)
    stack = w.conj().T @ space.basis @ w
    reference = operator_space_from_span(np.column_stack([vec(x) for x in stack]), dim=2)
    _assert_stack(shrunk)
    assert shrunk.size == reference.size == 4
    flat = shrunk.basis.reshape(4, -1)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(4))) <= 1e-12
    assert subspace_distance(shrunk, reference) <= 1e-12
    # off the support every element is annihilated; an empty span stays empty
    assert space.compressed(np.eye(4)[:, 3:]).basis.shape == (0, 1, 1)
    assert OperatorSpace(dim=4, basis=()).compressed(v).basis.shape == (0, 3, 3)


def test_subspace_distance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(a)
    # same span expressed in a rotated basis
    mix = np.array([[0.6, -0.8], [0.8, 0.6]])
    assert subspace_distance(q, q @ mix) < 1e-12
    e = np.eye(6)
    assert abs(subspace_distance(e[:, :2], e[:, 2:4]) - 1.0) < 1e-12
    assert subspace_distance(e[:, :2], e[:, :3]) == 1.0
    # a tiny rotation reads its own angle, well below tol.subspace
    t = 1e-9
    turned = np.column_stack([np.cos(t) * e[:, 0] + np.sin(t) * e[:, 2], e[:, 1]])
    assert abs(subspace_distance(e[:, :2], turned) - t) < 1e-12


# ---------------------------------------------------------------------------
# independent oracle: for a unital channel, Fix(E) = {K_i, K_i^dag}'
# ---------------------------------------------------------------------------

def _planted_mixed_unitary(m: int, count: int, seed: int):
    """sum_i p_i (1_2 kron V_i) X (1_2 kron V_i)^dag with random unitaries
    V_i on C^m: unital, with fixed space M_2 kron 1_m."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(count))
    kraus = []
    for p in probs:
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        v, _ = np.linalg.qr(g)
        kraus.append(np.sqrt(p) * np.kron(np.eye(2), v))
    return channel_from_kraus(kraus)


@pytest.mark.parametrize("ch,size", [
    (zoo.fixture("dephasing_qubit"), 2),
    (zoo.fixture("depolarize_B"), 4),
    (zoo.fixture("unitary_A_depolarize_B"), 2),
    (zoo.fixture("measure_then_depolarize"), 1),
    (_planted_mixed_unitary(3, 3, seed=7), 4),
], ids=["dephasing_qubit", "depolarize_B", "unitary_A_depolarize_B",
        "measure_then_depolarize", "planted-mixed-unitary"])
def test_fixed_space_matches_commutant_of_kraus_span(ch, size):
    # Kribs (2003): the fixed points of a unital channel are the operators
    # commuting with every K_i and K_i^dag; no superoperator is built here
    assert is_unital(ch)
    ops = [*ch.kraus, *(k.conj().T for k in ch.kraus)]
    kraus_span = operator_space_from_span(np.column_stack([vec(k) for k in ops]), ch.dim_in)
    reference = commutant(kraus_span)
    space = fixed_space(ch)
    assert space.size == reference.size == size
    assert subspace_distance(space, reference) < 1e-8


# ---------------------------------------------------------------------------
# a self-adjoint map is split by the Cholesky-certified solve from the size
# floor on, and by one symmetric eigensolve below it or when that solve fails;
# the ordered Schur form of every input (oracles.schur_split) is the reference
# ---------------------------------------------------------------------------

def _fixed(re, im):
    return math.hypot(re - 1.0, im) < PERIPHERAL


def _unit_circle(re, im):
    return abs(math.hypot(re, im) - 1.0) < PERIPHERAL


SELECT = {False: _fixed, True: _unit_circle}


def _composite(ch):
    """R o E with R the input-blind recovery: E^dag N E for a self-adjoint N."""
    return compose(unconditional_recovery(ch), ch)


def _count_factorizations(monkeypatch):
    """Record each ordered Schur form (a ``dgees`` call that is not a workspace
    query) as ``"schur"``, each symmetric eigensolve as ``"eigh"``, each LU
    factorization as ``"lu"`` and each Cholesky factorization as ``"cholesky"``."""
    calls = []
    for module, name, label in ((scipy.linalg.lapack, "dgees", "schur"),
                                (scipy.linalg, "eigh", "eigh"),
                                (scipy.linalg.lapack, "dgetrf", "lu"),
                                (scipy.linalg.lapack, "dpotrf", "cholesky")):
        def counted(*args, _label=label, _original=getattr(module, name), **kwargs):
            if kwargs.get("lwork") != -1:
                calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _square_fixture(name):
    """The fixture as a square quantum channel (a classical map embedded), or None."""
    obj = zoo.fixture(name)
    if isinstance(obj, StochasticChannel) and obj.n_in == obj.n_out:
        return embed_classical(obj)
    return obj if getattr(obj, "is_square", False) else None


SQUARE_FIXTURES = [n for n in zoo.fixture_names() if _square_fixture(n) is not None]
SELF_ADJOINT_INPUTS = {
    **{n: (lambda n=n: zoo.fixture(n))
       for n in ("dephasing_qubit", "depolarize_B", "five_qubit_depolarize_one")},
    **{f"composite-{n}": (lambda n=n: _composite(_square_fixture(n))) for n in SQUARE_FIXTURES},
    **{f"composite-cptp-{d}-{s}": (lambda d=d, s=s: _composite(zoo.random_cptp(d, 3, s)))
       for d in (4, 8, 16) for s in (1, 2)},
    # large lambda = 1 clusters whose eigenvectors are no coordinate vectors:
    # k = 17 and 65, and k = 16 for the rotated depolarizer
    **{f"composite-dfs-{d}-{s}": (lambda d=d, s=s: _composite(zoo.random_dfs_channel(d, d // 2, s)))
       for d in (8, 16) for s in (1, 2)},
    "rotated-depolarizer": lambda: _rotated_pauli_depolarizer(0.6, seed=4),
}


def _rotated_pauli_depolarizer(p, seed):
    """Pauli depolarizing noise of strength ``p`` on the first 2 of 4 qubits, conjugated
    by a random unitary on all four: self-adjoint, with the 16 fixed points
    ``U (1_4 (x) M_4) U^dag`` and every other eigenvalue ``1 - 16 p / 15``."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    u = unitary_group.rvs(16, random_state=np.random.default_rng(seed))
    kraus = [np.sqrt(1 - p) * np.eye(16)] + [
        np.sqrt(p / 15) * u @ np.kron(np.kron(a, b), np.eye(4)) @ u.conj().T
        for i, a in enumerate(paulis) for j, b in enumerate(paulis) if i or j]
    return channel_from_kraus(kraus)


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("build", SELF_ADJOINT_INPUTS.values(), ids=SELF_ADJOINT_INPUTS.keys())
def test_symmetric_split_matches_ordered_schur(build, peripheral, monkeypatch):
    ch = build()
    ref, ref_gap, ref_cond = schur_split(ch, SELECT[peripheral])
    calls = _count_factorizations(monkeypatch)
    space, gap, cond = _split(spectral._coordinates(ch), ch.dim_in, peripheral)
    # from the floor on: the Cholesky factor of (1 + delta) - M, then the fixed points'
    # certificate, or the two that bound ||X||_2 for the peripheral gap
    certified = ch.dim_in ** 2 >= spectral._CERTIFIED_FLOOR
    assert calls == (["cholesky"] * (3 if peripheral else 2) if certified else ["eigh"])
    assert space.size == ref.size
    assert subspace_distance(space, ref) <= DEFAULT_TOL.subspace
    assert subspace_distance(space.dual, ref.dual) <= DEFAULT_TOL.subspace
    assert np.max(np.abs(space.projector.matrix - ref.projector.matrix)) <= 1e-10
    assert abs(cond - ref_cond) <= 1e-10 and cond == 1.0
    # no fixed split proves a gap; the Cholesky route proves SPECTRAL_GAP, never
    # above the dense value, and the eigensolve gives that value
    if not peripheral:
        assert gap == -math.inf
    elif certified:
        assert SPECTRAL_GAP <= gap <= ref_gap + 1e-10
    else:
        assert gap == ref_gap or abs(gap - ref_gap) <= 1e-10


def _perturbed(ch, asymmetry):
    """The Hermitian coordinates of ``ch`` with an antisymmetric part added in
    the last rows and columns, so that ``||M_r - M_r^T||_F`` grows by
    ``asymmetry``: a map with no Kraus form, passed to ``_split`` directly."""
    m_r = spectral._coordinates(ch)
    m_r[-1, -2] += asymmetry / (2.0 * math.sqrt(2.0))
    m_r[-2, -1] -= asymmetry / (2.0 * math.sqrt(2.0))
    return m_r


@pytest.mark.parametrize("scale, method", [(0.5, "eigh"), (2.0, "schur")])
@pytest.mark.parametrize("ch", [zoo.fixture("depolarize_B"), _composite(zoo.random_cptp(8, 3, 1))],
                         ids=["depolarize_B", "composite-cptp-8"])
def test_symmetry_cut_picks_the_factorization(ch, scale, method, monkeypatch):
    # Bauer-Fike: the eigenvalues of M = S + K, S symmetric, lie within
    # ||K||_2 <= ||K||_F of S's, far below PERIPHERAL, so both sides of the
    # cut select the same eigenvalues; the composite's 64 rows fill one
    # tile of the asymmetry sum.
    # From the size floor on, the certified solve answers for both: with two
    # Cholesky factorizations of a symmetric map (the "eigh" side), with one LU
    # factorization and the Cholesky factorization of its certificate otherwise
    m_r = _perturbed(ch, scale * SELF_ADJOINT)
    reference = fixed_space(ch)
    calls = _count_factorizations(monkeypatch)
    space = _split(m_r, ch.dim_in, False)[0]
    symmetric, general = ["eigh"], ["schur"]
    if ch.dim_in ** 2 >= spectral._CERTIFIED_FLOOR:
        symmetric, general = ["cholesky", "cholesky"], ["lu", "cholesky"]
    assert calls == (symmetric if method == "eigh" else general)
    assert space.size == reference.size
    assert subspace_distance(space, reference) <= DEFAULT_TOL.subspace


@pytest.mark.parametrize("scale", [0.9, 1.1])
@pytest.mark.parametrize("at", [(-1, -2), (0, -1)], ids=["diagonal-tile", "mirrored-tiles"])
def test_asymmetry_sum_counts_each_mirrored_tile_twice(at, scale):
    # n = 144 spans three rows of 64 x 64 tiles: the pair (0, -1) falls in a tile
    # and its mirror, which the sum reads once and counts twice, and the pair
    # (-1, -2) in one tile on the diagonal; the verdict is that of the whole norm
    m_r = spectral._coordinates(_composite(zoo.random_cptp(12, 3, 1)))
    i, j = at
    m_r[i, j] += scale * SELF_ADJOINT / (2.0 * math.sqrt(2.0))
    m_r[j, i] -= scale * SELF_ADJOINT / (2.0 * math.sqrt(2.0))
    assert spectral._symmetric(m_r) == (np.linalg.norm(m_r - m_r.T) <= SELF_ADJOINT) == (scale < 1)


def test_symmetric_eigensolve_failure_is_numerical(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise scipy.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    with pytest.raises(NumericalError, match="symmetric eigensolve"):
        fixed_space(zoo.fixture("depolarize_B"))


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_split_invariant_under_gauge_and_conjugation(seed, monkeypatch):
    # depolarize_B and the composite of a planted d = 8 map (k = 17, on the
    # Cholesky route) are self-adjoint; a Kraus gauge leaves the map, and a
    # unitary conjugation its self-adjointness, unchanged
    calls = _count_factorizations(monkeypatch)
    for ch, splits, size in (
            (zoo.fixture("depolarize_B"), ((fixed_space, ["eigh"]),), 4),
            (_composite(zoo.random_dfs_channel(8, 4, seed)),
             ((fixed_space, ["cholesky"] * 2), (rotating_space, ["cholesky"] * 3)), 17)):
        rng = np.random.default_rng(seed)
        mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
        u = unitary_group.rvs(ch.dim_in, random_state=rng)
        mixed = channel_from_kraus([sum(m * k for m, k in zip(row, ch.kraus)) for row in mix])
        turned = channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus])
        for split, factorizations in splits:
            calls.clear()
            space, gauged, rotated = split(ch), split(mixed), split(turned)
            assert calls == factorizations * 3
            assert subspace_distance(gauged, space) <= DEFAULT_TOL.subspace
            conjugated = np.column_stack([vec(u @ b @ u.conj().T) for b in space.basis])
            assert subspace_distance(rotated, conjugated) <= DEFAULT_TOL.subspace
            assert rotated.size == gauged.size == space.size == size


def _with_an_eigenvalue_above_one(ch):
    """``ch`` beside the qubit map ``rho -> 1.05 rho + 0.05 Z rho Z``, self-adjoint with
    the eigenvalue 1.1 on the Paulis ``1`` and ``Z`` and 1 on ``X`` and ``Y``: the product
    keeps the fixed points of ``ch`` times ``X`` and ``Y`` and gains an eigenvalue 1.1."""
    qubit = [math.sqrt(1.05) * np.eye(2), math.sqrt(0.05) * np.diag([1.0, -1.0])]
    return channel_from_kraus([np.kron(q, k) for q in qubit for k in ch.kraus])


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("build", [
    lambda: channel_from_kraus([math.sqrt(1.01) * k
                                for k in _composite(zoo.random_cptp(8, 3, 1)).kraus]),
    lambda: _with_an_eigenvalue_above_one(_composite(zoo.random_cptp(4, 3, 1))),
], ids=["scaled-composite-8", "composite-4-beside-a-qubit"])
def test_self_adjoint_split_past_one_takes_the_eigensolve(build, peripheral, monkeypatch):
    # an eigenvalue above 1 + delta: (1 + delta) - M has no Cholesky factor, and the
    # symmetric eigensolve gives the answer, or the error, with nothing else run.  The
    # scaled composite's spectrum tops out at 1.01, so neither split finds an eigenvalue
    # to select; the product keeps 2 fixed points, and its eigenvalue 1.1 fails the gap
    ch = build()
    assert ch.dim_in == 8 and _asymmetry(ch) <= SELF_ADJOINT
    calls = _count_factorizations(monkeypatch)
    dense = _assert_dense_split(ch, peripheral, monkeypatch)
    assert calls == ["cholesky", "eigh", "eigh"]
    ref, ref_gap, _ = schur_split(ch, SELECT[peripheral])
    if isinstance(dense[0], str):
        assert ref.size == 0
        return
    space, gap, _ = dense
    assert space.size == ref.size == 2
    assert subspace_distance(space, ref) <= DEFAULT_TOL.subspace
    assert gap == -math.inf if not peripheral else abs(gap - ref_gap) <= 1e-10 and gap < 0


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
def test_minus_one_fails_the_second_peripheral_factorization(peripheral, monkeypatch):
    # Pauli-X conjugation beside depolarize_B: the eigenvalue 1 on 1 and X, and -1 on
    # Y and Z, each times the 4 fixed points of depolarize_B.  The fixed split is
    # certified; the peripheral one certifies the +1 cluster and (1 - SPECTRAL_GAP) - X,
    # but (1 - SPECTRAL_GAP) + X has no Cholesky factor, and evd keeps all 16
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ch = channel_from_kraus([np.kron(pauli_x, k) for k in zoo.fixture("depolarize_B").kraus])
    ref, ref_gap, _ = schur_split(ch, SELECT[peripheral])
    calls = _count_factorizations(monkeypatch)
    if peripheral:
        space, gap, _ = _assert_dense_split(ch, True, monkeypatch)
        assert calls == ["cholesky"] * 3 + ["eigh", "eigh"]
        assert abs(gap - ref_gap) <= 1e-10
    else:
        space = _split(spectral._coordinates(ch), ch.dim_in, False)[0]
        assert calls == ["cholesky"] * 2
    assert space.size == ref.size == (16 if peripheral else 8)
    assert subspace_distance(space, ref) <= DEFAULT_TOL.subspace


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_half_the_spectrum_at_one_draws_no_block(rotated, peripheral, monkeypatch):
    # the pinching onto two 4-dimensional blocks fixes their 32 operators and
    # kills the other 32, so the symmetric eigensolve answers.  Its M is diagonal,
    # and 32 diagonal entries of (1 + delta) - M at delta bound as many Cholesky
    # pivots: nothing is factored.  Turned by a random unitary, it is factored,
    # and the pivot count says 2k = n: no block is drawn or solved
    blocks = [np.diag([1.0] * 4 + [0.0] * 4), np.diag([0.0] * 4 + [1.0] * 4)]
    u = unitary_group.rvs(8, random_state=np.random.default_rng(3)) if rotated else np.eye(8)
    ch = channel_from_kraus([u @ b @ u.conj().T for b in blocks])
    solves, dpotrs = [], scipy.linalg.lapack.dpotrs
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrs",
                        lambda *args, **kwargs: solves.append(args) or dpotrs(*args, **kwargs))
    calls = _count_factorizations(monkeypatch)
    space, gap, _ = _assert_dense_split(ch, peripheral, monkeypatch)
    assert calls == ["cholesky"] * rotated + ["eigh", "eigh"] and solves == []
    assert space.size == 32
    assert abs(gap - 1.0) <= 1e-10 if peripheral else gap == -math.inf
    assert subspace_distance(space, schur_split(ch, SELECT[peripheral])[0]) <= DEFAULT_TOL.subspace


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
def test_self_adjoint_route_holds_one_square_buffer(peripheral):
    # the Cholesky route only reads M and reuses one n x n buffer for the factor of
    # (1 + delta) - M and every certificate after it: n = 576, M is 2.65 MB
    ch = _composite(zoo.random_cptp(24, 3, 1))
    m_r = spectral._coordinates(ch)
    tracemalloc.start()
    try:
        space, gap, _ = _split(m_r, ch.dim_in, peripheral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.size == 1 and gap == (SPECTRAL_GAP if peripheral else -math.inf)
    assert peak < 1.25 * m_r.nbytes


# ---------------------------------------------------------------------------
# any other map from the size floor on tries the certified solve of the
# lambda = 1 cluster first; the ordered Schur form answers when it cannot prove
# what that form would select
# ---------------------------------------------------------------------------

GENERAL_INPUTS = {
    **{f"cptp-{d}-{s}": (lambda d=d, s=s: zoo.random_cptp(d, 3, s))
       for d in (8, 16) for s in (1, 2)},
    **{f"dfs-{d}-{s}": (lambda d=d, s=s: zoo.random_dfs_channel(d, d // 2, s))
       for d in (8, 16) for s in (1, 2)},
}


def _asymmetry(ch):
    m_r = spectral._coordinates(ch)
    return np.linalg.norm(m_r - m_r.T)


GENERAL_FIXTURES = [n for n in SQUARE_FIXTURES if _asymmetry(_square_fixture(n)) > SELF_ADJOINT]


def _assert_certified_split_matches_ordered_schur(ch, peripheral, monkeypatch,
                                                  fixed_calls=("lu", "cholesky")):
    ref, ref_gap, ref_cond = schur_split(ch, SELECT[peripheral])
    calls = _count_factorizations(monkeypatch)
    space, gap, cond = _split(spectral._coordinates(ch), ch.dim_in, peripheral)
    # the certified solve answered: no Schur form, and the peripheral split's
    # squarings prove what the fixed split's Cholesky factorization, or the
    # inverse after it, does
    assert calls == (["lu"] if peripheral else list(fixed_calls))
    assert space.size == ref.size
    assert subspace_distance(space, ref) <= DEFAULT_TOL.subspace
    assert subspace_distance(space.dual, ref.dual) <= DEFAULT_TOL.subspace
    assert np.max(np.abs(space.projector.matrix - ref.projector.matrix)) <= 1e-10
    assert abs(cond - ref_cond) <= 1e-10
    # a proven lower bound on the gap, never above the dense value; the fixed
    # split proves none
    assert (SPECTRAL_GAP <= gap <= ref_gap + 1e-10) if peripheral else gap == -math.inf


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("build", GENERAL_INPUTS.values(), ids=GENERAL_INPUTS.keys())
def test_certified_split_matches_ordered_schur(build, peripheral, monkeypatch):
    _assert_certified_split_matches_ordered_schur(build(), peripheral, monkeypatch)


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("name", GENERAL_FIXTURES)
def test_certified_split_matches_ordered_schur_on_fixtures(name, peripheral, monkeypatch):
    # below the floor only to test it: each fixture whose selection is the
    # lambda = 1 cluster alone is certified; unitary_A_depolarize_B also keeps
    # the phases exp(+-1.4i) on the unit circle, so its peripheral split is dense.
    # The symmetric part of uncond_classical's M - R L^T reaches 1.195, though its
    # other eigenvalues stay at or below 1/2: the inverse certifies its fixed points
    ch = _square_fixture(name)
    monkeypatch.setattr(spectral, "_CERTIFIED_FLOOR", 0)
    if schur_split(ch, _fixed)[0].size == schur_split(ch, SELECT[peripheral])[0].size:
        fixed_calls = ["lu", "cholesky", "lu"] if name == "uncond_classical" else ["lu", "cholesky"]
        _assert_certified_split_matches_ordered_schur(ch, peripheral, monkeypatch, fixed_calls)
    else:
        calls = _count_factorizations(monkeypatch)
        _assert_dense_split(ch, peripheral, monkeypatch)
        assert calls == ["lu", "schur", "schur"]
        assert (name, peripheral) == ("unitary_A_depolarize_B", True)


@pytest.mark.parametrize("build", [*GENERAL_INPUTS.values(),
                                   *(lambda n=n: _square_fixture(n) for n in GENERAL_FIXTURES)],
                         ids=[*GENERAL_INPUTS.keys(), *GENERAL_FIXTURES])
def test_squarings_imply_the_inverse_certificate(build):
    # the peripheral certified solve skips 1 / ||(M - 1 + R L^T)^-1||_F > PERIPHERAL;
    # wherever its squarings answer, from any size (the floor only guards _split),
    # the dense inverse of the fixed split's certificate must pass too
    ch = build()
    m_r = spectral._coordinates(ch)
    certified = spectral._certified(m_r, True)
    if certified is None:  # a peripheral phase other than 1: the Schur form answers
        assert schur_split(ch, _fixed)[0].size < schur_split(ch, _unit_circle)[0].size
        return
    r, l, gap, _ = certified
    assert gap >= SPECTRAL_GAP
    assert inverse_certificate(m_r, r, l) > PERIPHERAL


@pytest.mark.parametrize("build", [*GENERAL_INPUTS.values(),
                                   *(lambda n=n: _square_fixture(n) for n in GENERAL_FIXTURES)],
                         ids=[*GENERAL_INPUTS.keys(), *GENERAL_FIXTURES])
def test_field_of_values_implies_the_inverse_certificate(build, monkeypatch):
    # the fixed split skips 1 / ||(M - 1 + R L^T)^-1||_F > PERIPHERAL wherever the
    # Cholesky factorization of (1 - PERIPHERAL) - (X + X^T) / 2, X = M - R L^T,
    # answers; there the inverse must pass too, and a dense eigensolve must put the
    # field of values of X left of 1 - PERIPHERAL.  Where it fails, the eigensolve
    # must agree that the field of values crosses that line
    ch = build()
    m_r = spectral._coordinates(ch)
    calls = _count_factorizations(monkeypatch)
    r, l, _, _ = spectral._certified(m_r, False)
    if calls == ["lu", "cholesky"]:
        assert inverse_certificate(m_r, r, l) > PERIPHERAL
        assert numerical_abscissa(m_r, r, l) < 1.0 - PERIPHERAL
    else:
        assert calls == ["lu", "cholesky", "lu"]
        assert numerical_abscissa(m_r, r, l) > 1.0 - PERIPHERAL


def _amplitude_damping_on_three_qubits(gamma):
    qubit = (np.diag([1.0, math.sqrt(1.0 - gamma)]),
             np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]))
    return channel_from_kraus([np.kron(np.kron(a, b), c)
                               for a in qubit for b in qubit for c in qubit])


@pytest.mark.parametrize("build", [lambda: zoo.random_dfs_channel(8, 4, 0, leak=0.3),
                                   lambda: _amplitude_damping_on_three_qubits(0.3),
                                   lambda: zoo.random_cptp(8, 2, 5)],
                         ids=["dfs-8-leak", "amplitude-damping-3", "cptp-8-2-5"])
def test_inverse_certifies_what_the_cholesky_factorization_cannot(build, monkeypatch):
    # non-normal maps whose field of values crosses Re = 1 - PERIPHERAL: the
    # Cholesky factorization fails and the inverse certificate answers, not the
    # ordered Schur form
    _assert_certified_split_matches_ordered_schur(build(), False, monkeypatch,
                                                  ["lu", "cholesky", "lu"])


def test_fixed_certificate_allocates_no_square_temporary():
    # the symmetric part is written into the upper triangle of the one buffer the
    # LU factors used, 32 rows at a time: beside that buffer only small blocks
    ch = zoo.random_cptp(24, 3, 1)
    m_r = spectral._coordinates(ch)
    tracemalloc.start()
    try:
        assert spectral._certified(m_r, False) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * m_r.nbytes


def test_certified_solve_runs_from_the_size_floor(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    fixed_space(zoo.random_cptp(7, 3, 1))  # 49 < 64
    assert calls == ["schur"]
    fixed_space(zoo.random_cptp(8, 3, 1))
    assert calls == ["schur", "lu", "cholesky"]


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("build, k", [(lambda: zoo.random_cptp(8, 3, 1), 1),
                                      (lambda: zoo.random_dfs_channel(8, 4, 1), 17)],
                         ids=["cptp-8", "dfs-8"])
def test_certified_solve_draws_once_and_solves_the_left_side_from_the_right(
        build, k, peripheral, monkeypatch):
    # the growth loop runs for A = M - (1 + delta) I only; L is A^-T A^-T R, two
    # transposed solves with the LU factors already held, each on the k columns of R
    ch = build()
    m_r = spectral._coordinates(ch)
    generators, left_solves = [], []
    default_rng, dgetrs = np.random.default_rng, scipy.linalg.lapack.dgetrs

    def counted_rng(*args, **kwargs):
        generators.append(args)
        return default_rng(*args, **kwargs)

    def counted_getrs(lu, piv, b, *args, **kwargs):
        if kwargs.get("trans", 0) == 1:
            left_solves.append(b.shape[1])
        return dgetrs(lu, piv, b, *args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", counted_getrs)
    r, l, _, _ = spectral._certified(m_r, peripheral)
    assert r.shape == l.shape == (64, k)
    assert len(generators) == 1
    assert left_solves == [k, k]


@pytest.mark.parametrize("d, dfs, seed", [*((10, 5, s) for s in range(3)),
                                          *((12, 4, s) for s in range(3)), (16, 8, 1)])
def test_pivot_count_starts_the_block_at_its_final_size(d, dfs, seed, monkeypatch):
    # the k = dfs^2 + 1 pivots below delta / INVERSE_CUT size the first block at k + 2
    # columns, 2 of which come out unamplified: one solve and one Gram eigensolve decide
    # k, and one more solve on the k directions gives R, where a block grown from 2
    # columns took log2(k) + 1 steps
    ch = zoo.random_dfs_channel(d, dfs, seed, leak=0.0)
    calls, inside = [], []
    for module, name in ((np.linalg, "eigh"), (scipy.linalg.lapack, "dgetrs")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            if inside:
                calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def amplified(lu, piv, _original=spectral._amplified):
        inside.append(True)
        try:
            return _original(lu, piv)
        finally:
            inside.clear()

    monkeypatch.setattr(spectral, "_amplified", amplified)
    _assert_certified_split_matches_ordered_schur(ch, False, monkeypatch)
    assert calls == ["dgetrs", "eigh", "dgetrs"]


def test_pivot_count_only_sizes_the_block(monkeypatch):
    # every pivot of T (1 on the diagonal, -1 above it) is 1, but T has one
    # singular value near 2.7e-12: the count of 1 starts the block at 2 columns,
    # and the Gram count grows it until min(k, 2) come out unamplified, to find
    # one amplified direction per copy of T.  A block whose every column is
    # amplified doubles, so 8 copies take 4 widths, not 5
    widths = []

    def gram_eigh(gram, _original=np.linalg.eigh):
        widths.append(len(gram))
        return _original(gram)

    monkeypatch.setattr(np.linalg, "eigh", gram_eigh)
    t = np.eye(40) - np.triu(np.ones((40, 40)), 1)
    for copies, blocks in ((2, [2, 4]), (8, [2, 4, 8, 16])):
        a = scipy.linalg.block_diag(*[t] * copies)
        assert np.linalg.svd(a, compute_uv=False)[-copies] < 1e-11
        lu, piv, info = scipy.linalg.lapack.dgetrf(a)
        assert info == 0 and np.all(np.abs(np.diagonal(lu)) == 1.0)
        widths.clear()
        assert spectral._amplified(lu, piv).shape == (40 * copies, copies)
        assert widths == blocks


def test_certified_solve_solves_its_block_in_place():
    # the first block has k + 2 columns and is drawn in Fortran order and solved
    # in place, with no hstack onto an empty block.  In units of S + M_r = 24 d^4
    # bytes the peak reads 1.060, in the QR of the k amplified directions beside
    # M_r, its buffer and the block; a first block of 2k columns reads 1.206, and
    # a C-order draw, its solve and the hstack, three n x 2k blocks, 1.374
    d = 24
    ch = zoo.random_dfs_channel(d, d // 2, 1)
    tracemalloc.start()
    try:
        space = fixed_space(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.size == (d // 2) ** 2 + 1
    assert peak <= 1.1 * 24 * d ** 4


def _assert_dense_split(ch, peripheral, monkeypatch):
    """The split, or its error, is the dense one: that of ``_split`` with the
    certified solve out of reach, to the bit."""
    def outcome():
        try:
            return _split(spectral._coordinates(ch), ch.dim_in, peripheral)
        except NumericalError as exc:
            return str(exc), exc.residuals

    got = outcome()
    with monkeypatch.context() as m:
        m.setattr(spectral, "_CERTIFIED_FLOOR", math.inf)
        m.setattr(spectral, "_certified", None)  # never called below the floor
        dense = outcome()
    if isinstance(dense[0], str):
        assert got == dense
        return dense
    (space, gap, cond), (ref, ref_gap, ref_cond) = got, dense
    for a, b in ((space.basis, ref.basis), (space.dual.basis, ref.dual.basis),
                 (space.left, ref.left)):
        assert np.array_equal(a, b)
    assert (gap, cond) == (ref_gap, ref_cond)
    return dense


def _weak_dephasing_on_a_qubit_of(ch, eps=1e-7):
    """The weak dephasing of the CLI's gap test on a qubit, beside ``ch``: its
    eigenvalue 1 - eps is 1e-7 inside the unit circle."""
    qubit = [np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * np.diag([1.0, 0.0]),
             np.sqrt(eps) * np.diag([0.0, 1.0])]
    return channel_from_kraus([np.kron(q, k) for q in qubit for k in ch.kraus])


def test_fallback_keeps_the_complex_peripheral_spectrum(monkeypatch):
    # every eigenvalue of a diagonal unitary channel has modulus 1, so the
    # squarings of M - R L^T cannot shrink: the ordered Schur form answers
    ch = channel_from_kraus([np.diag(np.exp(1j * np.sqrt(np.arange(8))))])
    calls = _count_factorizations(monkeypatch)
    space, gap, _ = _assert_dense_split(ch, True, monkeypatch)
    assert calls == ["lu", "schur", "schur"]
    assert space.size == 64 and gap == math.inf
    assert_allclose(space.projector.matrix, np.eye(64), atol=1e-10)
    # its fixed points, the diagonal operators, are certified
    calls.clear()
    assert fixed_space(ch).size == 8 and calls == ["lu", "cholesky"]


def test_fallback_keeps_the_gap_error(monkeypatch):
    ch = _weak_dephasing_on_a_qubit_of(zoo.random_cptp(4, 2, 1))
    calls = _count_factorizations(monkeypatch)
    _, gap, _ = _assert_dense_split(ch, True, monkeypatch)
    assert calls == ["lu", "schur", "schur"]
    assert gap < SPECTRAL_GAP and abs(gap - schur_split(ch, _unit_circle)[1]) <= 1e-10
    with pytest.raises(NumericalError, match="not separated") as err:
        rotating_space(ch)
    assert err.value.residuals == {"cluster_gap": gap}
    # 1 - 1e-7 is outside the fixed points' disc; the map's symmetric part reaches
    # past 1 - PERIPHERAL, so the inverse proves it after the Cholesky factorization fails
    calls.clear()
    assert fixed_space(ch).size == schur_split(ch, _fixed)[0].size
    assert calls == ["lu", "cholesky", "lu"]


@pytest.mark.parametrize("peripheral, message", [
    (False, "no eigenvalue 1 found"), (True, "no unit-modulus eigenvalues found"),
], ids=["fixed", "peripheral"])
def test_fallback_keeps_the_empty_selection_error(peripheral, message, monkeypatch):
    # a trace-decreasing map, 0.9 times a channel: no direction is amplified,
    # and the dense split finds nothing to select
    ch = channel_from_kraus([math.sqrt(0.9) * k for k in zoo.random_cptp(8, 3, 1).kraus])
    calls = _count_factorizations(monkeypatch)
    assert message in _assert_dense_split(ch, peripheral, monkeypatch)[0]
    assert calls == ["lu", "schur", "schur"]


@pytest.mark.parametrize("seed", range(3))
def test_certified_split_invariant_under_gauge_and_conjugation(seed, monkeypatch):
    ch = zoo.random_dfs_channel(8, 3, 1)
    rng = np.random.default_rng(seed)
    mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
    u = unitary_group.rvs(ch.dim_in, random_state=rng)
    mixed = channel_from_kraus([sum(m * k for m, k in zip(row, ch.kraus)) for row in mix])
    turned = channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus])
    calls = _count_factorizations(monkeypatch)
    for split, factorizations in ((fixed_space, ["lu", "cholesky"]), (rotating_space, ["lu"])):
        calls.clear()
        space, gauged, rotated = split(ch), split(mixed), split(turned)
        assert calls == factorizations * 3
        assert subspace_distance(gauged, space) <= DEFAULT_TOL.subspace
        conjugated = np.column_stack([vec(u @ b @ u.conj().T) for b in space.basis])
        assert subspace_distance(rotated, conjugated) <= DEFAULT_TOL.subspace
        assert rotated.size == gauged.size == space.size == 10


def test_certified_split_under_two_blas_threads():
    # LAPACK evr once failed under two OpenBLAS threads where one thread passed:
    # the certified solve, its Cholesky certificate included, on a map that is
    # not symmetric and on a self-adjoint one, and the symmetric eigensolve that
    # takes over past 1 + delta, run their agreement cases in a child with two
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(p for p in (str(root / "src"),
                                                     os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(Path(__file__)),
         "-k", "(test_certified_split_matches_ordered_schur and cptp-16-1) or "
               "(test_symmetric_split_matches_ordered_schur and composite-cptp-16-1) or "
               "test_self_adjoint_split_past_one_takes_the_eigensolve"],
        capture_output=True, text=True, env=env, cwd=root, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8 passed" in proc.stdout


# ---------------------------------------------------------------------------
# the spectral projector is kept factored
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("split", [fixed_space, rotating_space])
@pytest.mark.parametrize("name", SQUARE_FIXTURES)
def test_project_matches_the_dense_projector(name, split):
    space = split(_square_fixture(name))
    d = space.dim
    rng = np.random.default_rng(len(name))
    stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    dense = space.projector
    assert np.max(np.abs(space.project(stack[0])
                         - apply_superoperator(dense, stack[0]))) <= 1e-12
    expected = np.stack([apply_superoperator(dense, x) for x in stack])
    assert space.project(stack).shape == stack.shape
    assert np.max(np.abs(space.project(stack) - expected)) <= 1e-12


# five-qubit (n = 1024) is left out: its dense complex Schur form takes 3 s a split
BASIS_FREE_INPUTS = {
    **{n: (lambda n=n: _square_fixture(n))
       for n in SQUARE_FIXTURES if n != "five_qubit_depolarize_one"},
    **{f"dfs-8-{s}": (lambda s=s: zoo.random_dfs_channel(8, 4, s)) for s in range(2)},
}


@pytest.mark.parametrize("peripheral", [False, True], ids=["fixed", "peripheral"])
@pytest.mark.parametrize("build", BASIS_FREE_INPUTS.values(), ids=BASIS_FREE_INPUTS.keys())
def test_spaces_match_the_superoperator_eigenspace(build, peripheral):
    # the package's spaces against eigenvectors of S itself, so the Hermitian basis
    # is tested only through its result: on the map, under a Kraus gauge (the same
    # S) and under a unitary conjugation (S turned by conj(u) kron u).  The zoo
    # takes the dense route below the size floor, the planted d = 8 maps the
    # certified one
    ch = build()
    split, select = (rotating_space if peripheral else fixed_space), SELECT[peripheral]
    rng = np.random.default_rng(ch.dim_in)
    mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
    u = unitary_group.rvs(ch.dim_in, random_state=rng)
    gauged = channel_from_kraus([sum(m * k for m, k in zip(row, ch.kraus)) for row in mix])
    turned = channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus])
    oracle = superoperator_eigenspace(ch, select)
    assert oracle.shape[1] > 0
    for variant, expected in ((ch, oracle), (gauged, oracle),
                              (turned, np.kron(u.conj(), u) @ oracle)):
        assert subspace_distance(split(variant), expected) <= DEFAULT_TOL.subspace


def test_project_reads_its_stacks_in_place():
    # the split builds each stack once, C-contiguous, and the symmetric split
    # shares one among basis, dual.basis and left: one call on 32 operators of
    # the d = 32 identity's 1024-element space copies none of the 16 MiB stacks
    space = fixed_space(channel_from_kraus([np.eye(32)]))
    assert space.size == 1024
    assert np.shares_memory(space.basis, space.left)
    assert np.shares_memory(space.basis, space.dual.basis)
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
    tracemalloc.start()
    try:
        projected = space.project(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
    assert_allclose(projected, stack, atol=1e-12)  # the identity fixes every operator


@pytest.mark.parametrize("split", [fixed_space, rotating_space])
def test_non_square_spectral_input_is_a_validation_error(split):
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    ch = channel_from_kraus([v])
    with pytest.raises(ValidationError, match="square channel"):
        split(ch)
