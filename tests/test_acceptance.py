"""End-to-end acceptance checks.

Four groups: reproduction of the worked examples with exact structural
answers, regression pinning of the two counterexample codes, randomized
property suites, and byte-level determinism of reports.  Each check is one
test so the pass/fail ledger reads off the pytest output directly.
"""

import itertools
import json
import time

import numpy as np
from numpy.testing import assert_allclose

from ipstruct import (
    Code,
    adjacency_graph,
    apply_channel,
    channel_from_kraus,
    compose,
    embed_classical,
    fixed_space,
    graph_to_channel,
    is_correctable_via_transpose,
    is_fixed,
    is_noiseless,
    is_preserved,
    max_zero_error_code,
    maximum_independent_sets,
    noiseless_structure,
    rotating_space,
    sampled_preservation_check,
    to_superoperator,
    transpose_channel,
    unconditional_recovery,
    unconditional_structure,
    unitarily_noiseless_structure,
    zoo,
)
from ipstruct.algebra import is_algebra
from ipstruct.channels import projector_onto_support
from ipstruct.cli import main
from ipstruct.codes import P_GRID
from ipstruct.spectral import operator_space_from_span
from ipstruct.tolerances import DEFAULT_TOL
from oracles import orthonormal_range_basis, trace_norm


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# group 1: example reproduction
# ---------------------------------------------------------------------------

def test_example_dephasing_qubit_classical_bit():
    s, dt = timed(noiseless_structure, zoo.fixture("dephasing_qubit"))
    assert s.shape == (1, 1)
    assert s.cofactors == (1, 1)
    assert max(s.residuals.values()) < 1e-8
    assert dt < 1.0


def test_example_depolarize_b_noiseless_qubit():
    s, dt = timed(noiseless_structure, zoo.fixture("depolarize_B"))
    assert s.shape == (2,)
    assert s.cofactors == (2,)
    assert_allclose(s.distortion_states[0], np.eye(2) / 2, atol=1e-8)
    assert max(s.residuals.values()) < 1e-8
    assert dt < 1.0


def test_example_rotating_qubit_two_grades():
    ch = zoo.fixture("unitary_A_depolarize_B")
    t0 = time.perf_counter()
    rotating = unitarily_noiseless_structure(ch)
    static = noiseless_structure(ch)
    dt = time.perf_counter() - t0
    assert rotating.shape == (2,)
    # the 0.7 z-rotation is incommensurate with pi, so only the diagonal
    # (rotation-invariant) part survives as strictly noiseless
    assert static.shape == (1, 1)
    assert dt < 1.0


def test_example_classical_merge_unconditional_bit():
    ch = embed_classical(zoo.fixture("uncond_classical"))
    s, dt = timed(unconditional_structure, ch)
    assert s.shape == (1, 1)
    assert dt < 1.0


def test_example_decaying_plane_preserved_code():
    ch = zoo.fixture("ucp_d3")
    code = zoo.code_fixture("ucp_sub")
    t0 = time.perf_counter()
    assert is_preserved(code, ch).verdict
    assert unconditional_structure(ch).shape == (1,)
    assert time.perf_counter() - t0 < 1.0


def test_example_cyclic_four_code():
    t0 = time.perf_counter()
    sc = zoo.fixture("cyclic_four")
    assert max_zero_error_code(sc) == (0, 2)
    ch = embed_classical(sc)
    code = zoo.code_fixture("cyclic_four_02")
    assert is_preserved(code, ch).verdict
    assert not is_noiseless(code, ch).verdict
    assert time.perf_counter() - t0 < 1.0


def test_example_two_maximum_codes():
    t0 = time.perf_counter()
    g = adjacency_graph(zoo.fixture("two_code_classical"))
    sets = maximum_independent_sets(g)
    assert sets == [(0, 1), (2, 3)]
    assert time.perf_counter() - t0 < 1.0


def test_example_five_qubit_random_depolarization():
    t0 = time.perf_counter()
    ch = zoo.fixture("five_qubit_depolarize_one")
    s = noiseless_structure(ch)
    assert s.shape == (1,)

    proj = zoo.five_qubit_code_projector()
    recovery = transpose_channel(ch, proj)
    composite = compose(recovery, ch)
    sup = to_superoperator(composite).matrix

    w, v = np.linalg.eigh(proj)
    basis = v[:, w > 0.5]
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        rho = basis @ random_state(2, rng) @ basis.conj().T
        sigma = basis @ random_state(2, rng) @ basis.conj().T
        p = float(rng.uniform(0.05, 0.95))
        delta = p * rho - (1 - p) * sigma
        mapped = (sup @ delta.reshape(-1, order="F")).reshape(32, 32, order="F")
        worst = max(worst, abs(trace_norm(delta) - trace_norm(mapped)))
    assert worst < 1e-7
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# group 2: regression pinning of the counterexample codes
# ---------------------------------------------------------------------------

def _listed_pair_drop(code, ch, priors):
    """The largest drop of ``|| p rho - (1-p) sigma ||_1`` under ``ch`` over
    pairs of listed states (no mixtures) and the given priors."""
    return max(trace_norm(x) - trace_norm(apply_channel(ch, x))
               for a, b in itertools.combinations(code.states, 2) for p in priors
               for x in [p * a - (1.0 - p) * b])


def test_regression_segment_code_needs_mixtures():
    ch = embed_classical(zoo.fixture("squash_three"))
    code = zoo.code_fixture("squash_segment")
    # pairs of listed states alone, at every prior of the sweep, survive
    assert _listed_pair_drop(code, ch, P_GRID) <= DEFAULT_TOL.subspace
    full = sampled_preservation_check(code, ch)
    assert not full.verdict
    la, lb, _p = full.worst_pair
    assert max(len(la), len(lb)) >= 2  # the witness involves a mixture
    assert not is_preserved(code, ch).verdict


def test_regression_half_failure_code_needs_weights():
    ch = zoo.fixture("qutrit_half_fail")
    code = zoo.code_fixture("qutrit_half_pair")
    # pairs of listed states at equal priors survive
    assert _listed_pair_drop(code, ch, [0.5]) <= DEFAULT_TOL.subspace
    full = sampled_preservation_check(code, ch)
    assert not full.verdict
    assert full.worst_pair[2] != 0.5  # the witness needs a skewed prior
    assert not is_preserved(code, ch).verdict


# ---------------------------------------------------------------------------
# group 3: randomized property suites
# ---------------------------------------------------------------------------

def _random_channel_pool():
    pool = []
    for seed in range(50):
        d = 2 + seed % 3
        if seed % 2:
            pool.append(zoo.random_cptp(d, 1 + seed % 4, seed))
        else:
            pool.append(zoo.random_dfs_channel(d + 2, 2, seed,
                                               leak=0.0 if seed % 4 else 0.2))
    return pool


def test_property_spectral_radius_and_semisimplicity():
    for seed in range(50):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 1 + seed % 4, seed)
        eigenvalues = np.linalg.eigvals(to_superoperator(ch).matrix)
        assert np.max(np.abs(eigenvalues)) <= 1 + 1e-9
        # rotating_space raises if the peripheral spectrum is not separated
        assert rotating_space(ch).size >= 1


def test_property_fixed_spaces_and_distortion():
    for ch in _random_channel_pool():
        d = ch.dim_in
        fix = fixed_space(ch)
        dual = fix.dual
        assert fix.size == dual.size

        acc = np.zeros((d, d), dtype=complex)
        for b in fix.basis:
            acc += b @ b.conj().T + b.conj().T @ b
        p0 = projector_onto_support(acc)
        vs = orthonormal_range_basis(p0)
        cols = np.column_stack([
            (vs.conj().T @ b @ vs).reshape(-1, order="F") for b in dual.basis
        ])
        projected = operator_space_from_span(cols, dim=vs.shape[1])
        assert is_algebra(projected)

        s = noiseless_structure(ch)
        assert sum(dk * dk for dk in s.shape) == fix.size
        rng = np.random.default_rng(0)
        rho = s.sample_state([random_state(dk, rng) for dk in s.shape])
        assert np.linalg.norm(apply_channel(ch, rho) - rho) < 1e-8


def test_property_commutant_residual():
    for ch in _random_channel_pool():
        d = ch.dim_in
        fix = fixed_space(ch)
        dual = fix.dual
        acc = np.zeros((d, d), dtype=complex)
        for b in fix.basis:
            acc += b @ b.conj().T + b.conj().T @ b
        vs = orthonormal_range_basis(projector_onto_support(acc))
        for b in dual.basis:
            x = vs.conj().T @ b @ vs
            for k in ch.kraus:
                k_r = vs.conj().T @ k @ vs
                assert np.linalg.norm(x @ k_r - k_r @ x) < 1e-8


def test_property_recovery_unitality_and_exactness():
    for seed in range(25):
        d = 2 + seed % 3
        ch = zoo.random_cptp(d, 1 + seed % 3, seed)
        comp = compose(unconditional_recovery(ch), ch)
        eye = np.eye(d, dtype=complex)
        assert np.linalg.norm(apply_channel(comp, eye) - eye) < 1e-9
    # planted-subspace channels: the transpose recovery over the plant
    # restores code states exactly and preserves weighted distances
    rng = np.random.default_rng(77)
    for seed in range(25):
        ch = zoo.random_dfs_channel(4 + seed % 2, 2, seed)
        p = np.zeros((ch.dim_in,) * 2, dtype=complex)
        p[0, 0] = p[1, 1] = 1.0
        comp = compose(transpose_channel(ch, p), ch)
        for _ in range(3):
            rho = np.zeros_like(p)
            rho[:2, :2] = random_state(2, rng)
            assert trace_norm(apply_channel(comp, rho) - rho) < 1e-8
        a, b = np.zeros_like(p), np.zeros_like(p)
        a[:2, :2] = random_state(2, rng)
        b[:2, :2] = random_state(2, rng)
        w = float(rng.uniform(0.1, 0.9))
        delta = w * a - (1 - w) * b
        assert abs(trace_norm(apply_channel(comp, delta)) - trace_norm(delta)) < 1e-8


def test_property_hierarchy_never_violated():
    cases = [
        (zoo.code_fixture("cbit"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("plus_minus"), zoo.fixture("dephasing_qubit")),
        (zoo.code_fixture("unitary_a_half"), zoo.fixture("depolarize_B")),
        (zoo.fixture("ns_vs_code"), zoo.fixture("depolarize_B")),
        (zoo.code_fixture("product_a_ground"), zoo.fixture("measure_then_depolarize")),
        (zoo.code_fixture("cyclic_four_02"), embed_classical(zoo.fixture("cyclic_four"))),
        (zoo.code_fixture("ucp_sub"), zoo.fixture("ucp_d3")),
        (zoo.code_fixture("qutrit_half_pair"), zoo.fixture("qutrit_half_fail")),
        (zoo.code_fixture("squash_segment"), embed_classical(zoo.fixture("squash_three"))),
    ]
    rng = np.random.default_rng(5)
    for seed in range(6):
        ch = zoo.random_dfs_channel(5, 2, seed)
        states = []
        for _ in range(3):
            s = np.zeros((5, 5), dtype=complex)
            s[:2, :2] = random_state(2, rng)
            states.append(s)
        cases.append((Code.from_states(states), ch))

    for code, ch in cases:
        fixed = is_fixed(code, ch)
        noiseless = bool(is_noiseless(code, ch))
        preserved = bool(is_preserved(code, ch))
        correctable = bool(is_correctable_via_transpose(code, ch))
        if fixed:
            assert noiseless
        if noiseless:
            assert preserved
        assert preserved == correctable


def test_property_qubit_structure_census():
    # a qubit channel's noiseless part is the whole qubit, a classical
    # bit, or a single state -- nothing in between
    allowed = {(2,), (1, 1), (1,)}
    count = 0
    for seed in range(200):
        ch = zoo.random_cptp(2, 1 + seed % 4, seed)
        s = noiseless_structure(ch, seed=seed)
        assert s.shape in allowed, (seed, s.shape)
        count += 1
    assert count == 200


def test_property_classical_graph_roundtrip():
    # exhaustive on up to 4 vertices
    for n in (1, 2, 3, 4):
        possible = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(possible)):
            edges = [possible[k] for k in range(len(possible)) if bits >> k & 1]
            from ipstruct import Graph
            g = Graph.from_edges(n, edges)
            assert adjacency_graph(graph_to_channel(g)).edges == g.edges
    # random graphs on up to 8 vertices
    rng = np.random.default_rng(13)
    from ipstruct import Graph
    for _ in range(50):
        n = int(rng.integers(2, 9))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        assert adjacency_graph(graph_to_channel(g)).edges == g.edges


# ---------------------------------------------------------------------------
# group 4: determinism
# ---------------------------------------------------------------------------

def test_determinism_byte_identical_reports(fixtures_dir, capsys):
    argv = ["analyze", "--channel", str(fixtures_dir / "depolarize_B.json"),
            "--mode", "noiseless", "--seed", "7", "--json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second and first

    argv = ["verify-code", "--channel", str(fixtures_dir / "cyclic_four.json"),
            "--code", str(fixtures_dir / "code_cyclic_four_02.json"),
            "--level", "preserved", "--json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # stays parseable
