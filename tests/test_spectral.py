import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from ipstruct import (
    NumericalError,
    Superoperator,
    ValidationError,
    asymptotic_projector,
    channel_from_kraus,
    commutant,
    embed_classical,
    fixed_space,
    fixed_space_adjoint,
    is_unital,
    peripheral_projector,
    rotating_space,
    rotating_space_adjoint,
    subspace_distance,
    to_superoperator,
    vec,
    zoo,
)
from ipstruct.spectral import operator_space_from_span


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
        assert_allclose(peripheral_projector(ch).matrix, np.eye(d * d), atol=1e-10)


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
    assert space.size == fixed_space_adjoint(ch).size
    # the dual holds fixed points of the adjoint map
    m = to_superoperator(ch).matrix
    dual = space.dual.vec_matrix()
    assert np.linalg.norm(m.conj().T @ dual - dual) < 1e-9
    # both bases come out of Hermitian coordinates
    for b in space.basis + space.dual.basis:
        assert np.max(np.abs(b - b.conj().T)) < 1e-12
    # the right space is the null space of S - 1, found independently
    null = scipy.linalg.null_space(m - np.eye(m.shape[0]))
    assert subspace_distance(space, null) < 1e-8


def test_spectral_input_must_be_a_channel_or_superoperator():
    with pytest.raises(ValidationError):
        fixed_space(np.eye(4, dtype=complex))
    # X -> A X with A not Hermitian does not preserve Hermiticity, so it has
    # no real matrix in Hermitian coordinates
    a = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    left_multiply = Superoperator(dim_in=2, dim_out=2, matrix=np.kron(np.eye(2), a))
    with pytest.raises(ValidationError, match="Hermiticity"):
        fixed_space(left_multiply)
    # a real identity superoperator is Hermiticity preserving and all fixed
    assert fixed_space(Superoperator(dim_in=2, dim_out=2, matrix=np.eye(4))).size == 4


def test_rotating_space_contains_fixed_space():
    ch = zoo.fixture("unitary_A_depolarize_B")
    fix = fixed_space(ch)
    rot = rotating_space(ch)
    rot_dual = rotating_space_adjoint(ch)
    assert rot.size == rot_dual.size
    assert rot.size > fix.size  # the rotating coherences are extra
    f = fix.vec_matrix()
    r = rot.vec_matrix()
    # every fixed operator lies inside the rotating span
    proj = r @ r.conj().T
    assert np.linalg.norm(proj @ f - f) < 1e-9


def test_asymptotic_projector_dephasing():
    ch = zoo.fixture("dephasing_qubit")
    avg = asymptotic_projector(ch)
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
    avg = asymptotic_projector(ch).matrix

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
        avg = asymptotic_projector(ch).matrix
        m = to_superoperator(ch).matrix
        assert np.linalg.norm(avg @ avg - avg) < 1e-9, i
        assert np.linalg.norm(m @ avg - avg) < 1e-9, i
        assert np.linalg.norm(avg @ m - avg) < 1e-9, i


def test_peripheral_projector_commutes_and_projects():
    ch = zoo.fixture("unitary_A_depolarize_B")
    per = peripheral_projector(ch).matrix
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
        peripheral_projector(ch)
    # the same for the complex pair (1 - 2p) exp(-+0.9i), a 2 x 2 block of
    # the real Schur form, next to the fixed diagonal
    p, u = 5e-8, np.diag([1.0, np.exp(0.9j)])
    ch = channel_from_kraus([np.sqrt(1 - p) * u, np.sqrt(p) * np.diag([1.0, -1.0]) @ u])
    with pytest.raises(NumericalError, match="not separated"):
        peripheral_projector(ch)


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
