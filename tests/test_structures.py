import numpy as np
import pytest
from numpy.testing import assert_allclose

import ipstruct
from ipstruct import (
    NumericalError,
    ValidationError,
    adjoint,
    apply_channel,
    channel_from_kraus,
    compose,
    embed_classical,
    fixed_point_structure,
    fixed_space,
    initialization_free_check,
    is_cptp,
    noiseless_structure,
    to_superoperator,
    transpose_channel,
    unconditional_recovery,
    unconditional_structure,
    unitarily_noiseless_structure,
    zoo,
)


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# transpose channel
# ---------------------------------------------------------------------------

def test_transpose_full_of_unitary_is_inverse():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    ch = channel_from_kraus([u])
    rec = transpose_channel(ch, np.eye(3, dtype=complex))
    # single Kraus, equal to U^dag up to a global phase
    assert len(rec.kraus) == 1
    k = rec.kraus[0]
    phase = k[0, :] @ u[:, 0]
    assert_allclose(k, u.conj().T * np.exp(-1j * np.angle(phase)) * abs(phase), atol=1e-9)
    comp = compose(rec, ch)
    rho = random_state(3, rng)
    assert_allclose(apply_channel(comp, rho), rho, atol=1e-10)


def test_transpose_full_of_dephasing_is_dephasing():
    ch = zoo.fixture("dephasing_qubit")
    rec = transpose_channel(ch, np.eye(2, dtype=complex))
    assert_allclose(
        to_superoperator(rec).matrix, to_superoperator(ch).matrix, atol=1e-10
    )


def test_transpose_restores_support_projector():
    # composite acts unitally on the support: P comes back to P
    cases = [
        (embed_classical(zoo.fixture("cyclic_four")), np.diag([1.0, 0, 1.0, 0])),
        (zoo.fixture("ucp_d3"), np.diag([1.0, 1.0, 0.0])),
        (zoo.fixture("depolarize_B"), np.eye(4) / 1.0),
    ]
    for ch, p in cases:
        p = p.astype(complex)
        rec = transpose_channel(ch, p)
        comp = compose(rec, ch)
        assert np.linalg.norm(apply_channel(comp, p) - p) < 1e-9


def test_transpose_sub_trace_preserving_when_image_not_full():
    # E(|2><2|) for this channel is supported on a plane, so the recovery
    # loses trace outside that plane
    ch = zoo.fixture("qutrit_half_fail")
    p = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rec = transpose_channel(ch, p)
    assert not rec.trace_preserving
    rep = is_cptp(rec)
    assert rep.completely_positive and not rep.trace_preserving


def test_transpose_validation_and_numerical_errors():
    ch = zoo.fixture("dephasing_qubit")
    with pytest.raises(ValidationError):
        transpose_channel(ch, np.diag([1.0, 0.5]))
    with pytest.raises(ValidationError):
        transpose_channel(ch, np.eye(3, dtype=complex))
    with pytest.raises(NumericalError):
        transpose_channel(ch, np.zeros((2, 2), dtype=complex))


def test_unconditional_recovery_is_adjoint_for_unital():
    for name in ("dephasing_qubit", "depolarize_B", "unitary_A_depolarize_B"):
        ch = zoo.fixture(name)
        rec = unconditional_recovery(ch)
        assert_allclose(
            to_superoperator(rec).matrix,
            to_superoperator(adjoint(ch)).matrix,
            atol=1e-9,
        )


@pytest.mark.parametrize("seed", range(10))
def test_unconditional_composition_unital(seed):
    d = 2 + seed % 3
    ch = zoo.random_cptp(d, 1 + seed % 3, seed)
    comp = compose(unconditional_recovery(ch), ch)
    eye = np.eye(d, dtype=complex)
    assert np.linalg.norm(apply_channel(comp, eye) - eye) < 1e-9


# ---------------------------------------------------------------------------
# structure pipelines
# ---------------------------------------------------------------------------

def test_noiseless_structure_fixtures():
    assert noiseless_structure(zoo.fixture("dephasing_qubit")).shape == (1, 1)
    s = noiseless_structure(zoo.fixture("depolarize_B"))
    assert s.shape == (2,) and s.cofactors == (2,)
    assert_allclose(s.distortion_states[0], np.eye(2) / 2, atol=1e-9)
    assert noiseless_structure(zoo.fixture("cond_dephase_flip")).shape == (2,)
    assert noiseless_structure(zoo.fixture("ucp_d3")).shape == (2,)


def test_noiseless_structure_residuals_small():
    for name in ("dephasing_qubit", "depolarize_B", "cond_dephase_flip"):
        s = noiseless_structure(zoo.fixture(name))
        assert max(s.residuals.values()) < 1e-8, name


def test_noiseless_structure_dimension_bookkeeping():
    for seed in range(10):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 2 + seed % 2, seed)
        s = noiseless_structure(ch, seed=seed)
        assert sum(dk * dk for dk in s.shape) == fixed_space(ch).size
        assert s.support_rank <= d


def test_sample_state_is_fixed():
    ch = zoo.fixture("depolarize_B")
    s = noiseless_structure(ch)
    rng = np.random.default_rng(0)
    blocks = [random_state(dk, rng) for dk in s.shape]
    rho = s.sample_state(blocks)
    assert np.linalg.norm(apply_channel(ch, rho) - rho) < 1e-9


def test_unitarily_noiseless_vs_noiseless_rotation():
    ch = zoo.fixture("unitary_A_depolarize_B")
    assert noiseless_structure(ch).shape == (1, 1)
    s = unitarily_noiseless_structure(ch)
    assert s.shape == (2,)
    assert s.kind == "unitarily-noiseless"


def test_unitarily_noiseless_equals_noiseless_without_rotation():
    for name in ("dephasing_qubit", "depolarize_B"):
        a = noiseless_structure(zoo.fixture(name))
        b = unitarily_noiseless_structure(zoo.fixture(name))
        assert a.shape == b.shape and a.cofactors == b.cofactors


def test_unconditional_structures():
    assert unconditional_structure(zoo.fixture("ucp_d3")).shape == (1,)
    ch = embed_classical(zoo.fixture("uncond_classical"))
    assert unconditional_structure(ch).shape == (1, 1)
    # unconditional never exceeds noiseless: here noiseless keeps a qubit
    assert noiseless_structure(zoo.fixture("ucp_d3")).shape == (2,)


@pytest.mark.parametrize("name", ["unitary_A_depolarize_B", "depolarize_B"])
def test_unital_adjoint_composite_matches_unconditional(name):
    # for a unital channel the input-blind recovery is the adjoint, so the
    # fixed points of E^dag o E carry the unconditional structure
    ch = zoo.fixture(name)
    a = noiseless_structure(compose(adjoint(ch), ch))
    b = unconditional_structure(ch)
    assert sorted(zip(a.shape, a.cofactors)) == sorted(zip(b.shape, b.cofactors))


@pytest.mark.parametrize("analyze", [
    noiseless_structure, unitarily_noiseless_structure, unconditional_structure,
])
def test_one_superoperator_per_analysis(analyze, monkeypatch):
    calls = []
    original = ipstruct.channels.to_superoperator

    def counted(ch):
        calls.append(ch)
        return original(ch)

    for module in (ipstruct, ipstruct.channels, ipstruct.spectral,
                   ipstruct.structures, ipstruct.codes):
        if hasattr(module, "to_superoperator"):
            monkeypatch.setattr(module, "to_superoperator", counted)
    analyze(zoo.random_cptp(8, 3, 1))
    assert len(calls) == 1


def test_near_degenerate_spectrum_verdicts():
    # interior eigenvalue 1 - eps: outside the eigenvalue-1 band
    # (tol.peripheral) but closer to the unit circle than tol.spectral_gap
    eps = 1e-7
    ch = channel_from_kraus([
        np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * np.diag([1.0, 0.0]),
        np.sqrt(eps) * np.diag([0.0, 1.0]),
    ])
    assert noiseless_structure(ch).shape == (1, 1)
    assert unconditional_structure(ch).shape == (1, 1)
    with pytest.raises(NumericalError) as info:
        unitarily_noiseless_structure(ch)
    assert "cluster_gap" in info.value.residuals


def test_structures_reject_non_square():
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = v[1, 1] = 1.0
    ch = channel_from_kraus([v])
    with pytest.raises(ValidationError):
        noiseless_structure(ch)


# ---------------------------------------------------------------------------
# block certificates and initialization freedom
# ---------------------------------------------------------------------------

def test_fixed_point_structure_certificates():
    for name in ("dephasing_qubit", "depolarize_B", "ucp_d3"):
        s = fixed_point_structure(zoo.fixture(name))
        assert s.residuals["kraus_invariance"] < 1e-8, name
        assert s.residuals["kraus_commutation"] < 1e-8, name


def test_fixed_point_structure_on_planted_dfs():
    for seed in (0, 1, 2):
        ch = zoo.random_dfs_channel(5, 2, seed)
        s = fixed_point_structure(ch, seed=seed)
        assert 2 in s.shape
        assert s.residuals["kraus_invariance"] < 1e-8
        assert s.residuals["kraus_commutation"] < 1e-7


def test_initialization_free_planted():
    ch = zoo.random_dfs_channel(5, 2, 3, leak=0.0)
    s = fixed_point_structure(ch)
    idx = next(k for k, sec in enumerate(s.algebra.sectors) if sec.d == 2)
    rep = initialization_free_check(ch, s, idx)
    assert rep.initialization_free
    assert max(rep.kraus_residuals) < 1e-9


def test_initialization_free_fails_with_leak():
    ch = zoo.random_dfs_channel(5, 2, 3, leak=0.3)
    s = fixed_point_structure(ch)
    idx = next(k for k, sec in enumerate(s.algebra.sectors) if sec.d == 2)
    rep = initialization_free_check(ch, s, idx)
    assert not rep.initialization_free
    assert max(rep.kraus_residuals) > 1e-3


def test_initialization_free_on_decaying_plane():
    # amplitude from |2> flows into the protected plane, so preparing
    # garbage outside the support corrupts the stored qubit
    ch = zoo.fixture("qutrit_half_fail")
    s = fixed_point_structure(ch)
    assert s.shape == (2,)
    rep = initialization_free_check(ch, s, 0)
    assert not rep.initialization_free


def test_initialization_free_trivial_when_support_is_everything():
    ch = zoo.fixture("dephasing_qubit")
    s = fixed_point_structure(ch)
    for k in range(len(s.algebra.sectors)):
        assert initialization_free_check(ch, s, k).initialization_free
