import contextlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import unitary_group

from ipstruct import (
    Code,
    NumericalError,
    PreservationReport,
    ValidationError,
    apply_channel,
    build_fixing_recovery,
    channel_from_kraus,
    embed_classical,
    is_correctable_via_transpose,
    is_fixed,
    is_noiseless,
    is_preserved,
    sampled_preservation_check,
    zoo,
)
from ipstruct import codes
from ipstruct.channels import compose, to_superoperator
from ipstruct.cli import main
from ipstruct.codes import P_GRID, _mixtures, code_support
from ipstruct.spectral import _joint_support, fixed_space
from ipstruct.structures import transpose_channel
from ipstruct.tolerances import DEFAULT_TOL
from oracles import apply_superoperator, helstrom_probability, trace_norm, unvec, vec


def test_trace_norm_known_values():
    assert abs(trace_norm(np.diag([1.0, -2.0, 3.0])) - 6.0) < 1e-12
    # two orthogonal pure states at equal weight: distance 1 each way
    assert abs(trace_norm(0.5 * np.diag([1.0, -1.0])) - 1.0) < 1e-12


def test_helstrom_probability():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert abs(helstrom_probability(rho, sigma, 0.5) - 1.0) < 1e-12
    # identical states: guessing the prior is optimal
    assert abs(helstrom_probability(rho, rho, 0.7) - 0.7) < 1e-12
    with pytest.raises(ValidationError):
        helstrom_probability(rho, sigma, 1.3)


def test_code_validation():
    with pytest.raises(ValidationError):
        Code.from_states([])
    with pytest.raises(ValidationError):
        Code.from_states([np.diag([0.6, 0.6])])  # trace != 1
    with pytest.raises(ValidationError):
        Code.from_states([np.array([[0.5, 1.0], [0.0, 0.5]])])  # not hermitian
    with pytest.raises(ValidationError):
        Code.from_states([np.diag([1.5, -0.5])])  # negative eigenvalue
    with pytest.raises(ValidationError, match="non-finite"):
        Code.from_states([np.diag([np.nan, 1.0])])
    with pytest.raises(ValidationError, match="must be matrices"):
        Code.from_states([np.array(1.0)])
    with pytest.raises(ValidationError, match=r"state 1 has shape \(3, 3\), expected \(2, 2\)"):
        Code.from_states([np.eye(2) / 2, np.eye(3) / 3])


@pytest.mark.parametrize("states,message", [
    (np.array(0.5), "must be matrices"),
    (np.zeros((0, 2, 2)), "no states given"),
    (np.zeros((1, 0, 0)), r"of shape \(0, 0\) have no entries"),
    ([np.eye(2) / 2, np.diag([np.nan, 1.0])], "state 1 has non-finite entries"),
    ([np.eye(2) / 2, np.eye(3) / 3], r"state 1 has shape \(3, 3\), expected \(2, 2\)"),
    ([np.ones((2, 3)) / 2], r"states of shape \(2, 3\) are not square"),
    ([np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]])], "state 1 is not Hermitian"),
    ([np.eye(2) / 2, np.diag([1.5, -0.5])], "state 1 has negative eigenvalue -5.000e-01"),
    ([np.eye(2) / 2, np.diag([0.6, 0.6])], "state 1 has trace 1.200000000000"),
], ids=["0-d", "empty-stack", "zero-size", "nan", "ragged", "not-square", "not-hermitian",
        "negative", "trace"])
def test_direct_construction_checks_the_stack(states, message):
    # Code(states) takes the stack alone; the first failing state is named
    with pytest.raises(ValidationError, match=message):
        Code(states)


def test_first_failing_state_is_named_by_its_first_failing_check():
    # state 1 fails Hermiticity and trace; state 2 fails positivity: state 1, Hermiticity
    states = [np.eye(2) / 2, np.array([[0.6, 1.0], [0.0, 0.6]]), np.diag([1.5, -0.5])]
    with pytest.raises(ValidationError, match="state 1 is not Hermitian"):
        Code(states)
    with pytest.raises(ValidationError, match="state 0 has negative eigenvalue"):
        Code(states[::-1])


def test_code_states_are_one_complex_stack():
    # a list, tuple or generator of states is stored as one complex C-order
    # stack whatever their layout; a stack is kept as given
    code = zoo.code_fixture("qutrit_half_pair")
    fortran = [np.asfortranarray(s) for s in code.states]
    for given in (fortran, tuple(fortran), (s for s in fortran)):
        stored = Code.from_states(given).states
        assert stored.dtype == complex and stored.flags.c_contiguous
        assert np.array_equal(stored, code.states)
    assert Code.from_states(code.states).states is code.states
    assert Code(code.states).states is code.states and Code(code.states).dim == 3
    with pytest.raises(TypeError):
        Code(code.states, 3)  # the dimension is read, never given
    assert Code.from_states([np.diag([1.0, 0.0])]).states.dtype == complex


def test_code_support():
    code = zoo.code_fixture("cyclic_four_02")
    assert_allclose(code_support(code), np.diag([1.0, 0, 1.0, 0]), atol=1e-12)


def test_mixture_grid_contents():
    code = zoo.code_fixture("qutrit_half_pair")  # 3 states
    labels = _mixtures(code)
    singles = [lab for lab in labels if len(lab) == 1]
    pairs = [lab for lab in labels if len(lab) == 2]
    triples = [lab for lab in labels if len(lab) == 3]
    assert len(singles) == 3
    # per pair: (1/4, 3/4), (1/2, 1/2), (3/4, 1/4); per triple: (1/4, 1/4, 1/2)
    # in its three arrangements
    assert len(pairs) == 3 * 3 and len(triples) == 3
    assert ((0, 0.5), (1, 0.5)) in pairs
    assert ((0, 0.25), (1, 0.75)) in pairs
    assert ((0, 0.25), (1, 0.25), (2, 0.5)) in triples
    assert len(set(labels)) == len(labels)
    for lab in labels:
        assert abs(sum(w for _, w in lab) - 1.0) < 1e-12
    # a single listed state has no mixtures
    assert len(_mixtures(Code.from_states(code.states[:1]))) == 1


def test_sampled_check_catches_collapse():
    # collapse everything to |0><0|: every pair becomes indistinguishable
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    collapse = channel_from_kraus([k0, k1])
    rep = sampled_preservation_check(zoo.code_fixture("cbit"), collapse)
    assert not rep.verdict
    assert rep.distance_before > rep.distance_after


def test_annihilated_code_fails_with_a_witness():
    # K = |2><2| maps every state on span{|0>, |1>} to zero: the after stack
    # has an empty joint range and is measured as given
    kill = channel_from_kraus([np.diag([0.0, 0.0, 1.0]).astype(complex)])
    code = Code.from_states([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])
    for check in (sampled_preservation_check, is_noiseless, is_preserved):
        rep = check(code, kill)
        assert not rep.verdict
        assert rep.worst_pair == (((0, 1.0),), ((1, 1.0),), 0.0)
        assert (rep.distance_before, rep.distance_after) == (1.0, 0.0)


def test_sampled_check_passes_identity():
    ident = channel_from_kraus([np.eye(2)])
    rep = sampled_preservation_check(zoo.code_fixture("qubit_full"), ident)
    assert rep.verdict
    assert rep.worst_pair is None


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        sampled_preservation_check(zoo.code_fixture("cbit"),
                                   zoo.fixture("ucp_d3"))


# ---------------------------------------------------------------------------
# regression: weighted / mixture checks are strictly stronger
# ---------------------------------------------------------------------------

def _listed_pair_drop(code, ch, priors):
    """The largest drop of ``|| p rho - (1-p) sigma ||_1`` under ``ch`` over
    pairs of listed states (no mixtures) and the given priors."""
    return max(trace_norm(x) - trace_norm(apply_channel(ch, x))
               for a, b in itertools.combinations(code.states, 2) for p in priors
               for x in [p * a - (1.0 - p) * b])


def test_segment_code_caught_only_by_mixtures():
    """Two classical states each pairwise-survive the squash map, but a
    midpoint mixture against an endpoint loses distinguishability."""
    ch = embed_classical(zoo.fixture("squash_three"))
    code = zoo.code_fixture("squash_segment")
    # the deliberately weakened pairwise check passes
    assert _listed_pair_drop(code, ch, P_GRID) <= DEFAULT_TOL.subspace
    full = sampled_preservation_check(code, ch)
    assert not full.verdict
    assert not is_preserved(code, ch)
    la, lb, _p = full.worst_pair
    assert max(len(la), len(lb)) >= 2  # the witness involves a mixture


def test_weighted_pair_beats_unweighted():
    """States that tie at equal priors but separate under a skewed prior."""
    ch = zoo.fixture("qutrit_half_fail")
    code = zoo.code_fixture("qutrit_half_pair")
    assert _listed_pair_drop(code, ch, [0.5]) <= DEFAULT_TOL.subspace
    assert _listed_pair_drop(code, ch, P_GRID) > DEFAULT_TOL.subspace
    full = sampled_preservation_check(code, ch)
    assert not full.verdict
    assert full.worst_pair[2] != 0.5  # the witness needs a skewed prior
    assert not is_preserved(code, ch)


# ---------------------------------------------------------------------------
# hierarchy checks
# ---------------------------------------------------------------------------

def test_fixed_codes():
    assert is_fixed(zoo.code_fixture("cbit"), zoo.fixture("dephasing_qubit"))
    assert not is_fixed(zoo.code_fixture("plus_minus"), zoo.fixture("dephasing_qubit"))
    # preserved yet not fixed: the B factor relaxes to I/2
    ch = zoo.fixture("depolarize_B")
    code = zoo.code_fixture("product_a_ground")
    assert not is_fixed(code, ch)
    assert is_preserved(code, ch)


def test_noiseless_codes():
    ch = zoo.fixture("depolarize_B")
    assert is_noiseless(zoo.code_fixture("unitary_a_half"), ch).verdict
    rep = is_noiseless(zoo.fixture("ns_vs_code"), ch)
    assert not rep.verdict


def test_preserved_but_not_noiseless():
    ch = embed_classical(zoo.fixture("cyclic_four"))
    code = zoo.code_fixture("cyclic_four_02")
    assert is_preserved(code, ch).verdict
    rep = is_noiseless(code, ch)
    assert isinstance(rep, PreservationReport)
    assert not rep.verdict
    assert rep.distance_before > rep.distance_after

    mtd = zoo.fixture("measure_then_depolarize")
    ground = zoo.code_fixture("product_a_ground")
    assert is_preserved(ground, mtd).verdict
    assert not is_noiseless(ground, mtd).verdict


def test_correctable_equals_preserved():
    cases = [
        (zoo.code_fixture("cbit"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("plus_minus"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("cyclic_four_02"), embed_classical(zoo.fixture("cyclic_four"))),
        (zoo.code_fixture("ucp_sub"), zoo.fixture("ucp_d3")),
        (zoo.code_fixture("qutrit_half_pair"), zoo.fixture("qutrit_half_fail")),
    ]
    for code, ch in cases:
        assert is_preserved(code, ch).verdict == \
            is_correctable_via_transpose(code, ch).verdict


def test_hierarchy_implications():
    """fixed => noiseless => preserved, on a spread of (code, channel) pairs."""
    cases = [
        (zoo.code_fixture("cbit"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("plus_minus"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("qubit_full"), channel_from_kraus([np.eye(2)])),
        (zoo.code_fixture("unitary_a_half"), zoo.fixture("depolarize_B")),
        (zoo.code_fixture("product_a_ground"), zoo.fixture("measure_then_depolarize")),
        (zoo.code_fixture("cyclic_four_02"), embed_classical(zoo.fixture("cyclic_four"))),
        (zoo.code_fixture("ucp_sub"), zoo.fixture("ucp_d3")),
    ]
    for code, ch in cases:
        fixed = is_fixed(code, ch)
        noiseless = bool(is_noiseless(code, ch))
        preserved = bool(is_preserved(code, ch))
        if fixed:
            assert noiseless
        if noiseless:
            assert preserved


# ---------------------------------------------------------------------------
# recovery construction
# ---------------------------------------------------------------------------

def _assert_recovery_fixes(code: Code, ch) -> None:
    rec = build_fixing_recovery(code, ch)
    for s in code.states:
        restored = apply_channel(rec, apply_channel(ch, s))
        assert trace_norm(restored - s) < 1e-7


@pytest.mark.parametrize("code_name,fixture_name,embed", [
    ("cyclic_four_02", "cyclic_four", True),
    ("ucp_sub", "ucp_d3", False),
    ("cbit", "dephasing_qubit", False),
    ("product_a_ground", "measure_then_depolarize", False),
])
def test_build_fixing_recovery(code_name, fixture_name, embed):
    ch = zoo.fixture(fixture_name)
    if embed:
        ch = embed_classical(ch)
    _assert_recovery_fixes(zoo.code_fixture(code_name), ch)


@pytest.mark.parametrize("code_name,fixture_name", [
    ("cbit", "dephasing_qubit"),
    ("ucp_sub", "ucp_d3"),
])
def test_build_fixing_recovery_in_a_turned_basis(code_name, fixture_name):
    # turned by a unitary, a full support (cbit) leaves 1 - P at rounding
    # level rather than zero, and a relative cut of it would keep that noise
    code, ch = zoo.code_fixture(code_name), zoo.fixture(fixture_name)
    u = unitary_group.rvs(code.dim, random_state=np.random.default_rng(6))
    _assert_recovery_fixes(Code.from_states([u @ s @ u.conj().T for s in code.states]),
                           channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus]))


@pytest.mark.parametrize("check", [
    build_fixing_recovery, is_correctable_via_transpose, is_preserved,
], ids=lambda f: f.__name__)
def test_build_fixing_recovery_splits_one_composite(check, monkeypatch):
    # R o E is built once, and its one spectral split serves both the noiseless
    # check and the structure whose cofactors the reset reinstalls; the other
    # transpose-stage checks split R o E alone too, never E
    import ipstruct.spectral

    calls = []
    original = ipstruct.spectral.to_superoperator

    def counted(ch):
        calls.append(ch)
        return original(ch)

    monkeypatch.setattr(ipstruct.spectral, "to_superoperator", counted)
    code, ch = zoo.code_fixture("ucp_sub"), zoo.fixture("ucp_d3")
    if check is build_fixing_recovery:
        _assert_recovery_fixes(code, ch)
    else:
        assert check(code, ch).verdict
    assert len(calls) == 1


def test_is_preserved_reaches_the_checks_in_order(monkeypatch, fixtures_dir):
    # the per-layer metrics read this call graph: is_preserved ends at the
    # sampled refutation, or goes on to the transpose stage and is_noiseless
    calls = []

    def counting(name):
        original = getattr(codes, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(codes, name, wrapper)

    for name in ("sampled_preservation_check", "is_correctable_via_transpose", "is_noiseless"):
        counting(name)
    ch = zoo.fixture("dephasing_qubit")
    assert codes.is_preserved(zoo.code_fixture("cbit"), ch).verdict
    assert calls == ["sampled_preservation_check", "is_correctable_via_transpose",
                     "is_noiseless"]
    calls.clear()
    assert not codes.is_preserved(zoo.code_fixture("plus_minus"), ch).verdict
    assert calls == ["sampled_preservation_check"]
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify-code", "--channel", str(fixtures_dir / "dephasing_qubit.json"),
                     "--code", str(fixtures_dir / "code_cbit.json"),
                     "--level", "correctable", "--json"]) == 0
    assert "is_noiseless" in calls


def test_build_fixing_recovery_rejects_unpreserved():
    with pytest.raises(ValidationError):
        build_fixing_recovery(zoo.code_fixture("plus_minus"),
                              zoo.fixture("dephasing_qubit"))


# ---------------------------------------------------------------------------
# the sampled sweep: Hermitian trace norms, witness choice, shared before side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 9))
def test_hermitian_trace_norm_matches_nuclear_norm(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((20, d, d)) + 1j * rng.standard_normal((20, d, d))
    stack = g + g.conj().swapaxes(-1, -2)
    got = codes._batched_trace_norm(stack)
    assert_allclose(got, [trace_norm(x) for x in stack], rtol=0, atol=1e-12)
    # an empty stack takes the general path, the 2x2 closed form at d = 2
    assert codes._batched_trace_norm(stack[:0]).shape == (0,)


@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 1e8])
def test_two_by_two_trace_norm_matches_nuclear_norm(scale):
    # the closed form serves 2x2 stacks; rank-1, zero and multiple-of-identity
    # members sit where its two branches meet
    rng = np.random.default_rng(11)
    g = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    v = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    rank_one = np.einsum("ni,nj->nij", v, v.conj()) * rng.choice([-1.0, 1.0], (10, 1, 1))
    identity = np.eye(2) * np.array([1.0, -2.0, 0.5])[:, None, None]
    stack = scale * np.concatenate([g + g.conj().swapaxes(-1, -2), rank_one,
                                    np.zeros((3, 2, 2)), identity])
    got = codes._batched_trace_norm(stack)
    want = np.array([trace_norm(x) for x in stack])
    largest = np.abs(stack).max(axis=(1, 2))
    assert np.all(np.abs(got - want) <= 1e-14 * largest)


@pytest.mark.parametrize("code_name,channel", [
    ("qutrit_half_pair", zoo.fixture("qutrit_half_fail")),
    ("squash_segment", embed_classical(zoo.fixture("squash_three"))),
    ("plus_minus", zoo.fixture("dephasing_qubit")),
], ids=["qutrit_half", "squash_segment", "plus_minus"])
def test_witness_is_first_largest_drop_in_sweep_order(code_name, channel):
    # on qutrit_half, (s0, s1) at prior 0.2 and (s1, 1/4 s0 + 3/4 s2) at
    # prior 0.7 both drop by 0.2 up to rounding; the first in sweep order wins
    code = zoo.code_fixture(code_name)
    rep = sampled_preservation_check(code, channel)
    assert not rep.verdict
    # every (pair, prior) in sweep order: pairs i < j row by row, then priors
    labels, states = _mixtures(code), _swept_states(code)
    sweep = []
    for i, j in zip(*np.triu_indices(len(labels), k=1)):
        la, lb, a, b = labels[i], labels[j], states[i], states[j]
        for p in P_GRID:
            diff = p * a - (1.0 - p) * b
            drop = trace_norm(diff) - trace_norm(apply_channel(channel, diff))
            sweep.append(((la, lb, p), drop))
    best = max(drop for _, drop in sweep)
    k = [key for key, _ in sweep].index(rep.worst_pair)
    assert abs(sweep[k][1] - best) < 1e-12
    assert all(drop < best - 1e-12 for _, drop in sweep[:k])
    assert abs(rep.distance_before - rep.distance_after - sweep[k][1]) < 1e-12


@pytest.fixture
def sweep_calls(monkeypatch):
    """Shapes of the stacks passed to ``_batched_trace_norm``, one per sweep
    chunk."""
    calls = []
    norm = codes._batched_trace_norm

    def counting(stack):
        calls.append(stack.shape)
        return norm(stack)

    monkeypatch.setattr(codes, "_batched_trace_norm", counting)
    return calls


@pytest.fixture
def sweep_sides(monkeypatch):
    """Lengths of the stacks passed to ``_weighted_norms``: one per side of
    each sweep, both sides read through one weight matrix."""
    calls = []
    weighted = codes._weighted_norms

    def counting(states):
        calls.append(len(states))
        return weighted(states)

    monkeypatch.setattr(codes, "_weighted_norms", counting)
    return calls


def test_noiseless_certifies_a_fixed_code_without_a_sweep(sweep_calls, sweep_sides):
    # the time average fixes the four states of the code: one certificate over
    # the listed states decides, and the pair sweep is never built
    code = zoo.code_fixture("unitary_a_half")
    rep = is_noiseless(code, zoo.fixture("depolarize_B"))
    assert rep == PreservationReport(True, None, 0.0, 0.0)
    assert sweep_calls == [(4, 4, 4)]
    assert sweep_sides == []


def test_preserved_certifies_a_fixed_code_at_each_stage(sweep_calls, sweep_sides):
    # E and the transpose composite's time average both fix the code: one
    # certificate per stage, on every call, and no sweep
    code = zoo.code_fixture("unitary_a_half")
    for _ in range(2):
        sweep_calls.clear()
        assert is_preserved(code, zoo.fixture("depolarize_B")).verdict
        assert sweep_calls == [(4, 4, 4)] * 2
    assert sweep_sides == []


# the E sweep of product_a_ground under measure_then_depolarize: its 34 states
# lie on a 2-dim range, so 561 pairs at 9 interior priors run in chunks of
# 455 pairs of 2 x 2; their images have full rank, so chunks of 113 pairs of 4 x 4
_BEFORE_SIDE = [(34, 4, 4), (34, 2, 2), (455 * 9, 2, 2), (106 * 9, 2, 2)]
_AFTER_SIDE = [(34, 4, 4)] + [(113 * 9, 4, 4)] * 4 + [(109 * 9, 4, 4)]


def test_moved_code_sweeps_both_sides_in_chunks(sweep_calls, sweep_sides):
    # E moves the code, so its stage sweeps after the certificate; the
    # composite's time average fixes it, so that stage stops at its certificate
    code = zoo.code_fixture("product_a_ground")
    ch = zoo.fixture("measure_then_depolarize")
    assert sampled_preservation_check(code, ch).verdict
    assert sweep_calls == [(4, 4, 4)] + _BEFORE_SIDE + _AFTER_SIDE
    assert sweep_sides == [34, 34]
    # nothing is kept on the code: a second call sweeps both sides again
    sweep_calls.clear()
    assert is_preserved(code, ch).verdict
    assert sweep_calls == [(4, 4, 4)] + _BEFORE_SIDE + _AFTER_SIDE + [(4, 4, 4)]
    assert sweep_sides == [34, 34] * 2
    assert max(n * m * m for n, m, _ in sweep_calls) <= codes._SWEEP_CHUNK


def test_five_qubit_sweeps_run_on_the_code_plane(sweep_calls, sweep_sides):
    # the channel moves the logical code, so E is swept: its 34 states lie on
    # the 2-dim code space (a 32-dim certificate, then 2 x 2 stacks), and
    # their images have full rank.  The transpose composite's time average
    # fixes the code: one 32-dim certificate over the four listed states.
    code = zoo.code_fixture("five_qubit_logical")
    rep = is_preserved(code, zoo.fixture("five_qubit_depolarize_one"))
    assert rep.verdict
    assert sweep_calls[:5] == [(4, 32, 32), (34, 32, 32), (34, 2, 2),
                               (455 * 9, 2, 2), (106 * 9, 2, 2)]
    assert sweep_calls[-1] == (4, 32, 32)
    assert all(shape[1:] == (32, 32) for shape in sweep_calls[5:])
    assert sweep_sides == [34, 34]  # the E stage alone sweeps


def test_non_hermiticity_preserving_map_is_refused():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match="not Hermitian"):
        codes._compare(zoo.code_fixture("cbit"), lambda x: a @ x, DEFAULT_TOL)


def test_non_hermitian_code_state_is_refused_where_its_image_is_hermitian():
    # a 1e-10 anti-Hermitian part passes Code's own check; complete dephasing
    # erases it from the image, so only the code-state check sees it
    tilted = np.array([[0.5, 1e-10], [-1e-10, 0.5]], dtype=complex)
    code = Code.from_states([tilted, np.diag([1.0, 0.0])])
    dephase = channel_from_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    tight = DEFAULT_TOL.with_user_tolerance(1e-12)
    for check in (sampled_preservation_check, is_noiseless, is_preserved):
        with pytest.raises(ValidationError, match="code state is not Hermitian"):
            check(code, dephase, tight)
    # at the default tolerance the part is accepted, and dephasing fixes the rest
    assert sampled_preservation_check(code, dephase).verdict is True


@pytest.mark.parametrize("check", [
    is_fixed, sampled_preservation_check, is_noiseless, is_correctable_via_transpose,
    is_preserved, build_fixing_recovery,
], ids=lambda f: f.__name__)
def test_is_fixed_dimension_rules(check):
    cbit = zoo.code_fixture("cbit")
    with pytest.raises(ValidationError, match="code dimension does not match channel input"):
        check(cbit, zoo.fixture("depolarize_B"))
    # the input dimension matches but the output space differs: not fixed
    assert not is_fixed(cbit, channel_from_kraus([np.eye(3)[:, :2]]))


def test_trace_increasing_map_is_refused():
    with pytest.raises(ValidationError, match="trace non-increasing"):
        is_noiseless(zoo.code_fixture("cbit"), channel_from_kraus([np.sqrt(2.0) * np.eye(2)]))
    # the rounding allowance is len(kraus) * dim * eps, far below a 1e-6 gain
    with pytest.raises(ValidationError, match="trace non-increasing"):
        is_noiseless(zoo.code_fixture("cbit"),
                     channel_from_kraus([np.sqrt(1.0 + 1e-6) * np.eye(2)]))


# ---------------------------------------------------------------------------
# the time average dominates every mixture of powers of the channel
# ---------------------------------------------------------------------------

def _swept_states(code: Code) -> np.ndarray:
    """The listed states and their quarter-grid mixtures, in sweep order,
    each summed by hand from its label."""
    return np.stack([sum(w * code.states[i] for i, w in lab) for lab in _mixtures(code)])


def _seeded_code(d: int, seed: int, inside: int | None = None) -> Code:
    """Three pure states on a random plane, within the first ``inside``
    coordinates when given."""
    rng = np.random.default_rng(seed)
    span = d if inside is None else inside
    g = np.zeros((d, 2), dtype=complex)
    g[:span] = rng.standard_normal((span, 2)) + 1j * rng.standard_normal((span, 2))
    plane = np.linalg.qr(g)[0]
    states = []
    for _ in range(3):
        psi = plane @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        states.append(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    return Code.from_states(states)


# the listed fixture codes with the channels they are written for
_LISTED_PAIRS = [("cbit", "dephasing_qubit"), ("plus_minus", "dephasing_qubit"),
                 ("unitary_a_half", "depolarize_B"), ("ns_vs_code", "depolarize_B"),
                 ("product_a_ground", "measure_then_depolarize"),
                 ("cyclic_four_02", "cyclic_four"), ("ucp_sub", "ucp_d3"),
                 ("qutrit_half_pair", "qutrit_half_fail"), ("squash_segment", "squash_three")]


def _dominance_cases():
    for name in zoo.fixture_names():
        ch = zoo.fixture(name)
        if isinstance(ch, Code):
            continue
        ch = ch if hasattr(ch, "kraus") else embed_classical(ch)
        yield name, ch, _seeded_code(ch.dim_in, 7)
    for code_name, name in _LISTED_PAIRS:
        ch = zoo.fixture(name)
        ch = ch if hasattr(ch, "kraus") else embed_classical(ch)
        code = zoo.fixture(code_name) if code_name == "ns_vs_code" else zoo.code_fixture(code_name)
        yield f"{code_name}-{name}", ch, code
    for d in (3, 5):
        for seed in (0, 1):
            yield f"cptp-d{d}-s{seed}", zoo.random_cptp(d, 3, seed), _seeded_code(d, seed)
    for d, k in ((4, 2), (6, 3)):
        ch = zoo.random_dfs_channel(d, k, d)
        yield f"dfs-d{d}-outside", ch, _seeded_code(d, d)
        yield f"dfs-d{d}-inside", ch, _seeded_code(d, d, inside=k)


_DOMINANCE = list(_dominance_cases())


@pytest.mark.parametrize("ch,code", [c[1:] for c in _DOMINANCE],
                         ids=[c[0] for c in _DOMINANCE])
def test_time_average_dominates_the_deleted_maps(ch, code):
    """The single step E, the half mix (1 + E)/2 and the square E^2 never
    drop a sweep distance by more than the time average P does, on the
    channel and on its transpose composite R o E."""
    composite = compose(transpose_channel(ch, code_support(code)), ch)
    states = _swept_states(code)
    for f in (ch, composite):
        # the premise of the argument: sum K^dag K <= 1
        gram = sum(k.conj().T @ k for k in f.kraus)
        assert np.linalg.eigvalsh(gram).max() <= 1.0 + DEFAULT_TOL.equality
        d = f.dim_in
        e = to_superoperator(f).matrix

        def after(m):
            mapped = np.stack([unvec(m @ vec(s), d, d) for s in states])
            return codes._weighted_norms(mapped)

        # drop_F - drop_P = ||P X||_1 - ||F X||_1 at every sweep point X
        average = after(fixed_space(f).projector.matrix)
        for m in (e, 0.5 * (np.eye(d * d) + e), e @ e):
            assert np.max(average - after(m)) <= 1e-12


_STRUCTURAL_CASES = [c for c in _DOMINANCE if c[0] not in zoo.fixture_names()]


@pytest.mark.parametrize("ch,code", [c[1:] for c in _STRUCTURAL_CASES],
                         ids=[c[0] for c in _STRUCTURAL_CASES])
def test_sampled_stage_never_decides_is_preserved(ch, code):
    """The drop under E is at most the drop under the time average P of the
    transpose composite R o E at every sweep point, so the structural stage
    alone decides the verdict of ``is_preserved``."""
    states = _swept_states(code)
    average = fixed_space(compose(transpose_channel(ch, code_support(code)), ch)).projector

    def after(apply):
        mapped = np.stack([apply(s) for s in states])
        return codes._weighted_norms(mapped)

    # drop_E - drop_P = ||P X||_1 - ||E X||_1
    excess = (after(lambda s: apply_superoperator(average, s))
              - after(lambda s: apply_channel(ch, s)))
    assert np.max(excess) <= 1e-12
    assert is_preserved(code, ch).verdict == is_correctable_via_transpose(code, ch).verdict


# ---------------------------------------------------------------------------
# the sweep on its joint range: compression is certified, never assumed
# ---------------------------------------------------------------------------

def _ambient_norms(states: np.ndarray) -> np.ndarray:
    """Every sweep value as a nuclear norm at the ambient dimension, one row
    per pair and one column per prior, in chunks of pairs."""
    ii, jj = np.triu_indices(len(states), k=1)
    w = np.asarray(P_GRID)[None, :, None, None]
    rows = []
    for start in range(0, ii.size, 64):
        a, b = states[ii[start:start + 64]], states[jj[start:start + 64]]
        diff = w * a[:, None] - (1.0 - w) * b[:, None]
        rows.append(np.linalg.norm(diff, "nuc", axis=(-2, -1)))
    return np.concatenate(rows) if rows else np.zeros((0, len(P_GRID)))


def _sweep_stacks(code: Code, ch):
    """The before side and the after sides of E, of its time average P and of
    the time average of the transpose composite R o E."""
    states = _swept_states(code)
    average = fixed_space(ch).projector
    composite = fixed_space(compose(transpose_channel(ch, code_support(code)), ch)).projector
    return {"before": states,
            "E": np.stack([apply_channel(ch, s) for s in states]),
            "P": np.stack([apply_superoperator(average, s) for s in states]),
            "RE": np.stack([apply_superoperator(composite, s) for s in states])}


def _rank(stack: np.ndarray) -> int:
    return _joint_support(stack).shape[1]


def test_compressed_sweep_matches_the_ambient_sweep_on_listed_pairs():
    ranks = {}
    for code_name, name in _LISTED_PAIRS:
        ch = zoo.fixture(name)
        ch = ch if hasattr(ch, "kraus") else embed_classical(ch)
        code = zoo.fixture(code_name) if code_name == "ns_vs_code" else zoo.code_fixture(code_name)
        for side, stack in _sweep_stacks(code, ch).items():
            ranks[code_name, side] = (_rank(stack), stack.shape[1])
            assert np.max(np.abs(codes._weighted_norms(stack) - _ambient_norms(stack))) <= 1e-12
    # the comparison is not vacuous: these before sides run compressed
    assert ranks["product_a_ground", "before"] == (2, 4)
    assert ranks["ucp_sub", "before"] == (2, 3)
    assert ranks["ns_vs_code", "before"] == (3, 4)
    assert sum(r < d for r, d in ranks.values()) >= 10


def test_compressed_sweep_matches_the_ambient_sweep_on_five_qubit():
    stacks = _sweep_stacks(zoo.code_fixture("five_qubit_logical"),
                           zoo.fixture("five_qubit_depolarize_one"))
    for side in ("before", "RE"):
        assert _rank(stacks[side]) == 2
        assert np.max(np.abs(codes._weighted_norms(stacks[side])
                             - _ambient_norms(stacks[side]))) <= 1e-12


def test_small_eigenvalue_direction_is_measured_uncompressed(sweep_calls, monkeypatch):
    # the 1e-7 direction squares to 1e-14 in sum X X^dag, below the rank cut:
    # the joint range drops it, and the certificate r = 1e-7 refuses the cut
    eps = 1e-7
    stack = np.stack([np.diag([1.0 - eps, eps, 0.0]), np.diag([0.0, 0.0, 1.0])]).astype(complex)
    assert _rank(stack) == 2
    exact = _ambient_norms(stack)
    got = codes._weighted_norms(stack)
    assert np.max(np.abs(got - exact)) <= 1e-12
    # a certificate, then the state norms and the pairs, all at dimension 3
    assert sweep_calls == [(2, 3, 3), (2, 3, 3), (9, 3, 3)]
    # compressing anyway would move the p = 1 column by the dropped weight
    monkeypatch.setattr(codes, "SWEEP_COMPRESSION", 1.0)
    assert abs(np.max(np.abs(codes._weighted_norms(stack) - exact)) - eps) <= 1e-12


# ---------------------------------------------------------------------------
# code verdicts are invariant under unitary conjugation and Kraus gauge
# ---------------------------------------------------------------------------

def _verdicts(code: Code, ch) -> list:
    return [is_fixed(code, ch), is_preserved(code, ch), is_noiseless(code, ch),
            is_correctable_via_transpose(code, ch)]


@pytest.mark.parametrize("ch,code", [c[1:] for c in _DOMINANCE],
                         ids=[c[0] for c in _DOMINANCE])
def test_code_verdicts_invariant_under_conjugation_and_gauge(ch, code):
    rng = np.random.default_rng(11)
    u = unitary_group.rvs(code.dim, random_state=rng)
    mix = unitary_group.rvs(len(ch.kraus), random_state=rng)
    turned = (Code.from_states([u @ s @ u.conj().T for s in code.states]),
              channel_from_kraus([u @ k @ u.conj().T for k in ch.kraus]))
    mixed = (code, channel_from_kraus([sum(m * k for m, k in zip(row, ch.kraus))
                                       for row in mix]))
    expected = _verdicts(code, ch)
    for variant in (turned, mixed):
        got = _verdicts(*variant)
        assert got[0] == expected[0]
        for rep, want in zip(got[1:], expected[1:]):
            assert (rep.verdict, rep.worst_pair) == (want.verdict, want.worst_pair)
            assert abs(rep.distance_before - want.distance_before) <= 1e-10
            assert abs(rep.distance_after - want.distance_after) <= 1e-10


def test_five_qubit_sweep_stays_below_the_superoperator():
    # the sweep's difference stacks are chunked in bytes: they once reached
    # 6 times the 32 x 32 superoperator (16 * 32^4 bytes)
    ch = zoo.fixture("five_qubit_depolarize_one")
    w, v = np.linalg.eigh(zoo.five_qubit_code_projector())
    iso = v[:, w > 0.5]
    rng = np.random.default_rng(1)
    code = Code.from_states([iso @ zoo.random_density(2, rng) @ iso.conj().T
                             for _ in range(4)])
    tracemalloc.start()
    try:
        report = sampled_preservation_check(code, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    assert peak < 16 * 32**4


# ---------------------------------------------------------------------------
# a map that moves no listed state further than tol.subspace passes unswept
# ---------------------------------------------------------------------------

def _reference_report(code: Code, apply_map, tol) -> PreservationReport:
    """The sweep with no certificate: map every swept state and measure both
    sides with ``_weighted_norms``, witness chosen as in ``codes._compare``."""
    labels = _mixtures(code)
    states = _swept_states(code)
    before = codes._weighted_norms(states)
    after = codes._weighted_norms(np.stack([apply_map(s) for s in states]))
    drops = before - after
    if drops.size == 0 or drops.max() <= tol.subspace:
        return PreservationReport(True, None, 0.0, 0.0)
    k, p_k = np.unravel_index(int(np.argmax(np.round(drops, 12))), drops.shape)
    ii, jj = np.triu_indices(len(labels), k=1)
    return PreservationReport(False, (labels[ii[k]], labels[jj[k]], P_GRID[p_k]),
                              float(before[k, p_k]), float(after[k, p_k]))


def _zoo_pairs():
    channels = {}
    for name in zoo.fixture_names():
        ch = zoo.fixture(name)
        if not isinstance(ch, Code):
            channels[name] = ch if hasattr(ch, "kraus") else embed_classical(ch)
    codes_ = {name: zoo.code_fixture(name) for name in zoo.code_fixture_names()}
    codes_["ns_vs_code"] = zoo.fixture("ns_vs_code")
    return [(f"{cn}-{name}", ch, code) for name, ch in channels.items()
            for cn, code in codes_.items() if code.dim == ch.dim_in]


_ZOO_PAIRS = _zoo_pairs()


@pytest.mark.parametrize("ch,code", [c[1:] for c in _ZOO_PAIRS], ids=[c[0] for c in _ZOO_PAIRS])
def test_every_sweep_level_matches_the_uncertified_sweep(ch, code):
    for tol in (DEFAULT_TOL, DEFAULT_TOL.with_user_tolerance(1e-12)):
        composite = compose(transpose_channel(ch, code_support(code), tol=tol), ch)
        want = {"E": _reference_report(code, lambda x: apply_channel(ch, x), tol),
                "noiseless": _reference_report(code, fixed_space(ch).project, tol),
                "correctable": _reference_report(code, fixed_space(composite).project, tol)}
        want["preserved"] = want["E"] if not want["E"].verdict else want["correctable"]
        got = {"E": sampled_preservation_check(code, ch, tol),
               "noiseless": is_noiseless(code, ch, tol),
               "correctable": is_correctable_via_transpose(code, ch, tol),
               "preserved": is_preserved(code, ch, tol)}
        for level, rep in got.items():
            assert (rep.verdict, rep.worst_pair) == (want[level].verdict, want[level].worst_pair)
            assert abs(rep.distance_before - want[level].distance_before) <= 1e-12
            assert abs(rep.distance_after - want[level].distance_after) <= 1e-12
    # the suite reaches both routes: some pairs are fixed, some are swept
    assert len(_ZOO_PAIRS) == 41


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("code_name,name,level", [
    ("unitary_a_half", "depolarize_B", "E"), ("unitary_a_half", "depolarize_B", "noiseless"),
    ("cbit", "dephasing_qubit", "E"), ("cbit", "dephasing_qubit", "noiseless"),
])
def test_sweep_runs_exactly_when_the_code_moves(code_name, name, level, factor, seed,
                                                sweep_sides):
    """Each listed state of a fixed code is moved toward a seeded state until
    the map moves the code by r = factor * tol.subspace: the sweep runs exactly
    when r > tol.subspace, and no sweep point drops further than r."""
    ch = zoo.fixture(name)
    ch = ch if hasattr(ch, "kraus") else embed_classical(ch)
    apply_map = (lambda x: apply_channel(ch, x)) if level == "E" else fixed_space(ch).project
    check = sampled_preservation_check if level == "E" else is_noiseless
    fixed = zoo.code_fixture(code_name)
    assert max(trace_norm(apply_map(s) - s) for s in fixed.states) <= 1e-14
    rng = np.random.default_rng(seed)
    sigmas = [zoo.random_density(fixed.dim, rng) for _ in fixed.states]
    moved = max(trace_norm(apply_map(s) - s) for s in sigmas)
    t = factor * DEFAULT_TOL.subspace / moved
    code = Code.from_states([(1 - t) * s + t * g for s, g in zip(fixed.states, sigmas)])
    r = max(trace_norm(apply_map(s) - s) for s in code.states)
    assert abs(r - factor * DEFAULT_TOL.subspace) <= 1e-3 * r
    rep = check(code, ch)
    assert sweep_sides == ([len(_mixtures(code))] * 2 if r > DEFAULT_TOL.subspace else [])
    assert rep == _reference_report(code, apply_map, DEFAULT_TOL)
    states = _swept_states(code)
    drops = (codes._weighted_norms(states)
             - codes._weighted_norms(np.stack([apply_map(s) for s in states])))
    assert drops.max() <= r + 1e-12


def test_non_square_map_is_always_swept(sweep_calls, sweep_sides):
    # F(rho) - rho is undefined when the output space differs, so no
    # certificate: an isometric embedding keeps every distance and a
    # measurement of the 1/0 basis into three outcomes loses the |+>/|-> one
    iso = np.eye(3)[:, :2]
    measure = [np.outer(np.eye(3)[:, k], np.eye(2)[k]) for k in range(2)]
    for kraus, verdict in (([iso], True), (measure, False)):
        code, ch = zoo.code_fixture("plus_minus"), channel_from_kraus(kraus)
        sweep_calls.clear()
        sweep_sides.clear()
        rep = sampled_preservation_check(code, ch)
        assert sweep_sides == [5, 5]
        assert rep == _reference_report(code, lambda x: apply_channel(ch, x), DEFAULT_TOL)
        assert rep.verdict is verdict
        # no (2, d, d) certificate stack: the sweep's stacks hold 5 states or 90 points
        assert all(shape[0] != len(code.states) for shape in sweep_calls)
