import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipstruct import (
    DEFAULT_TOL,
    QuantumChannel,
    StochasticChannel,
    ValidationError,
    adjoint,
    apply_channel,
    apply_superoperator,
    channel_from_kraus,
    choi_matrix,
    compose,
    embed_classical,
    is_cptp,
    is_unital,
    restrict_to_subspace,
    to_superoperator,
    unvec,
    vec,
)
from ipstruct.channels import (
    is_hermitian,
    is_positive_semidefinite,
    is_projector,
    orthonormal_range_basis,
    projector_onto_support,
)
from ipstruct import zoo


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_vec_column_stacking_convention():
    # columns are stacked: vec([[a, b], [c, d]]) = [a, c, b, d]
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(vec(x), [1.0, 3.0, 2.0, 4.0])
    assert_allclose(unvec(vec(x), 2, 2), x)


def test_vec_unvec_roundtrip_rectangular():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert_allclose(unvec(vec(x), 3, 5), x)


def test_superoperator_of_unitary_is_conj_kron():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    ch = channel_from_kraus([u])
    assert_allclose(to_superoperator(ch).matrix, np.kron(u.conj(), u), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_superoperator_matches_direct_action(seed):
    rng = np.random.default_rng(seed)
    ch = zoo.random_cptp(3, 2, seed)
    sup = to_superoperator(ch)
    rho = random_state(3, rng)
    assert_allclose(
        apply_superoperator(sup, rho), apply_channel(ch, rho), atol=1e-12
    )


def test_apply_channel_rectangular():
    # a 2 -> 3 isometry channel
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    ch = channel_from_kraus([v])
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    out = apply_channel(ch, rho)
    assert out.shape == (3, 3)
    assert_allclose(out[:2, :2], rho)
    assert_allclose(out[2, :], 0.0, atol=1e-15)


def test_compose_matches_superoperator_product():
    a = zoo.random_cptp(3, 2, 11)
    b = zoo.random_cptp(3, 3, 12)
    comp = compose(a, b)
    assert_allclose(
        to_superoperator(comp).matrix,
        to_superoperator(a).matrix @ to_superoperator(b).matrix,
        atol=1e-12,
    )


def test_compose_dimension_mismatch():
    a = zoo.random_cptp(3, 2, 0)
    b = zoo.random_cptp(2, 2, 0)
    with pytest.raises(ValidationError):
        compose(a, b)


def test_adjoint_is_hilbert_schmidt_dual():
    rng = np.random.default_rng(4)
    ch = zoo.random_cptp(3, 3, 4)
    dag = adjoint(ch)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.trace(a.conj().T @ apply_channel(ch, b))
    rhs = np.trace(apply_channel(dag, a).conj().T @ b)
    assert abs(lhs - rhs) < 1e-12


def test_choi_matrix_positive_and_trace_condition():
    ch = zoo.random_cptp(3, 4, 5)
    j = choi_matrix(ch)
    w = np.linalg.eigvalsh((j + j.conj().T) / 2)
    assert w.min() > -1e-12
    # tracing out the output factor leaves the identity for a TP map
    t = j.reshape(3, 3, 3, 3)
    assert_allclose(np.einsum("iaja->ij", t), np.eye(3), atol=1e-12)


def test_is_cptp_on_zoo_fixtures():
    for name in zoo.fixture_names():
        d = zoo.descriptor(name)
        if d.kind == "channel":
            rep = is_cptp(d.build())
            assert rep.cptp, f"{name}: {rep}"


def test_is_cptp_flags_non_tp():
    ch = QuantumChannel(kraus=(np.eye(2, dtype=complex) * 0.5,),
                        dim_in=2, dim_out=2, trace_preserving=False)
    rep = is_cptp(ch)
    assert not rep.trace_preserving
    assert rep.tp_residual > 0.1
    assert rep.completely_positive


def test_user_tolerance_is_the_applied_one():
    tol = DEFAULT_TOL.with_user_tolerance(1e-12)
    ks = [np.sqrt(1 + 1e-10) * np.eye(2, dtype=complex)]
    assert not channel_from_kraus(ks, tol=tol).trace_preserving
    assert not is_cptp(channel_from_kraus(ks), tol=tol).trace_preserving
    assert not is_unital(channel_from_kraus(ks), tol=tol)
    assert channel_from_kraus(ks).trace_preserving


def test_channel_from_kraus_validation():
    with pytest.raises(ValidationError):
        channel_from_kraus([])
    with pytest.raises(ValidationError):
        channel_from_kraus([np.eye(2), np.eye(3)])


def test_is_unital():
    assert is_unital(zoo.fixture("dephasing_qubit"))
    assert is_unital(zoo.fixture("depolarize_B"))
    assert not is_unital(zoo.fixture("ucp_d3"))


def test_restrict_to_subspace_identity_plane():
    ch = zoo.fixture("ucp_d3")
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    sub, iso = restrict_to_subspace(ch, p)
    assert sub.dim_in == 2
    assert iso.shape == (3, 2)
    rng = np.random.default_rng(9)
    rho = random_state(2, rng)
    # the channel acts as the identity there
    assert_allclose(apply_channel(sub, rho), rho, atol=1e-12)


def test_restrict_to_subspace_rejects_non_projector():
    ch = zoo.fixture("ucp_d3")
    with pytest.raises(ValidationError):
        restrict_to_subspace(ch, np.diag([1.0, 0.5, 0.0]))


def test_embed_classical_matches_stochastic_action():
    sc = zoo.fixture("cyclic_four")
    ch = embed_classical(sc)
    assert is_cptp(ch).cptp
    for i in range(4):
        basis = np.zeros((4, 4), dtype=complex)
        basis[i, i] = 1.0
        out = apply_channel(ch, basis)
        assert_allclose(np.diag(out).real, sc.matrix[:, i], atol=1e-12)
        assert_allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-12)


def test_embed_classical_kills_coherences():
    ch = embed_classical(zoo.fixture("cyclic_four"))
    off = np.zeros((4, 4), dtype=complex)
    off[0, 1] = 1.0
    assert_allclose(apply_channel(ch, off), 0.0, atol=1e-12)


def test_stochastic_validation():
    with pytest.raises(ValidationError):
        StochasticChannel(matrix=np.array([[0.5, 0.2], [0.4, 0.8]]))
    with pytest.raises(ValidationError):
        StochasticChannel(matrix=np.array([[-0.1, 0.0], [1.1, 1.0]]))


def test_predicates():
    x = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
    assert is_hermitian(x)
    assert not is_hermitian(x + 1j * np.array([[0, 1], [0, 0]]))
    assert is_positive_semidefinite(np.diag([0.0, 1.0]).astype(complex))
    assert not is_positive_semidefinite(np.diag([-0.1, 1.0]).astype(complex))
    assert is_projector(np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert not is_projector(np.diag([1.0, 0.5, 0.0]).astype(complex))


def test_projector_onto_support():
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    p = projector_onto_support(rho)
    assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    basis = orthonormal_range_basis(p)
    assert basis.shape == (3, 2)
    assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
