import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import (
    NumericalError,
    ValidationError,
    asymptotic_projector,
    channel_from_kraus,
    embed_classical,
    fixed_space,
    fixed_space_adjoint,
    peripheral_projector,
    rotating_space,
    rotating_space_adjoint,
    subspace_distance,
    to_superoperator,
    zoo,
)
from ipstruct.spectral import operator_space_from_span


def test_unitary_channel_spectrum():
    # eigenvalues of a unitary conjugation are the phase ratios
    u = np.diag(np.exp(1j * np.array([0.3, 1.1])))
    ch = channel_from_kraus([u])
    eigenvalues = np.linalg.eigvals(to_superoperator(ch).matrix)
    expected = sorted(
        (np.exp(1j * (a - b)) for a in (0.3, 1.1) for b in (0.3, 1.1)),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(eigenvalues, key=lambda z: (z.real, z.imag))
    assert_allclose(got, expected, atol=1e-10)
    # the whole spectrum is peripheral, so the projector is the identity
    assert_allclose(peripheral_projector(ch).matrix, np.eye(4), atol=1e-10)


def test_fixed_space_dephasing_is_diagonal():
    space = fixed_space(zoo.fixture("dephasing_qubit"))
    assert space.size == 2
    for b in space.basis:
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12


def test_fixed_space_dimensions_on_fixtures():
    assert fixed_space(zoo.fixture("depolarize_B")).size == 4
    assert fixed_space(zoo.fixture("cond_dephase_flip")).size == 4
    assert fixed_space(zoo.fixture("five_qubit_depolarize_one")).size == 1


@pytest.mark.parametrize("seed", range(8))
def test_fixed_space_dim_matches_adjoint(seed):
    d = 2 + seed % 3
    ch = zoo.random_cptp(d, 1 + seed % 3, seed)
    assert fixed_space(ch).size == fixed_space_adjoint(ch).size
    # the dual holds fixed points of the adjoint map
    m = to_superoperator(ch).matrix
    dual = fixed_space(ch).dual.vec_matrix()
    assert np.linalg.norm(m.conj().T @ dual - dual) < 1e-9


def test_spectral_input_must_be_a_channel_or_superoperator():
    with pytest.raises(ValidationError):
        fixed_space(np.eye(4, dtype=complex))


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
    for name in ("depolarize_B", "cond_dephase_flip", "ucp_d3"):
        ch = zoo.fixture(name)
        avg = asymptotic_projector(ch).matrix
        m = to_superoperator(ch).matrix
        assert np.linalg.norm(avg @ avg - avg) < 1e-9, name
        assert np.linalg.norm(m @ avg - avg) < 1e-9, name
        assert np.linalg.norm(avg @ m - avg) < 1e-9, name


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
