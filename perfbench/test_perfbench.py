"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import reference
import spans
import worker  # puts the checkout's src/ on sys.path
import workloads

import ipstruct
import ipstruct.cli
from ipstruct import zoo


# ---------------------------------------------------------------------------
# op_s.tail: the highest percentile with at least ten samples beyond it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (250, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_ladder(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    p, value = worker.tail_percentile(samples)
    assert p == percentile
    assert sum(1 for x in samples if x > value) >= 10
    assert value == sorted(samples)[int(np.ceil(n * p / 100)) - 1]


def test_tail_percentile_needs_twenty_samples():
    assert worker.tail_percentile([1.0] * 19) is None


# ---------------------------------------------------------------------------
# reference units and the typical op
# ---------------------------------------------------------------------------

def test_in_units_divides_by_the_samples_around_each_op():
    # samples 1.0 | op 0, op 1 | 3.0 | op 2 | 2.0
    units = reference.in_units([4.0, 2.0, 5.0], [1, 1, 2], [1.0, 3.0, 2.0])
    assert units == [2.0, 1.0, 2.0]


@pytest.mark.parametrize("marks", [[0, 1], [1, 2], [1]])
def test_in_units_needs_a_sample_on_each_side(marks):
    with pytest.raises(ValueError):
        reference.in_units([1.0, 1.0], marks, [1.0, 1.0])


def test_reference_marks_and_samples_bracket_every_op():
    ref = reference.Reference("compute")
    ref.sample()
    for _ in range(3):
        ref.mark_op()
        ref.maybe_sample()
    ref.sample()
    assert len(ref.in_units([1.0, 1.0, 1.0])) == 3
    assert all(s > 0 for s in ref.samples)


def test_typical_op_is_the_mean_of_per_op_medians():
    # two passes of [cheap, dear]: per-op medians 1.0 and 10.0
    assert worker.typical_op([1.0, 10.0, 1.0, 10.0], 2) == 5.5
    # three passes: the outlier of op 0 does not move its median
    assert worker.typical_op([1.0, 10.0, 9.0, 12.0, 1.5, 11.0], 2) == (1.5 + 11.0) / 2
    with pytest.raises(ValueError):
        worker.typical_op([1.0, 2.0, 3.0], 2)


# ---------------------------------------------------------------------------
# self time with nested spans
# ---------------------------------------------------------------------------

def _tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9] (raises, caught by root)
    return [
        spans.Span("structures.noiseless_structure", "structures", -1, 0, 0.0, 10.0),
        spans.Span("spectral.fixed_space", "spectral", 0, 0, 1.0, 4.0),
        spans.Span("channels.to_superoperator", "channels", 1, 0, 2.0, 3.0),
        spans.Span("structures.transpose_channel", "structures", 0, 0, 5.0, 9.0, failed=True),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_span_metrics_per_op_and_errors_leaving_a_layer():
    tree = _tree()
    tree.append(spans.Span("spectral.fixed_space", "spectral", -1, 1, 20.0, 21.0, failed=True))
    m = spans.span_metrics(tree, n_ops=2)
    assert m["structures.self_s"] == pytest.approx((3.0 + 4.0) / 2)
    assert m["spectral.self_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert m["spectral.fixed_space.calls"] == 1.0
    # the structures failure stayed inside its layer; the spectral one left it
    assert m["structures.errors"] == 0.0
    assert m["spectral.errors"] == 0.5
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) * 2 == pytest.approx(10.0 + 1.0)


def test_refuted_ratio_and_attempts():
    tree = [
        spans.Span("codes.is_preserved", "codes", -1, 0),
        spans.Span("codes.sampled_preservation_check", "codes", 0, 0),
        spans.Span("codes.is_preserved", "codes", -1, 1),
        spans.Span("codes.sampled_preservation_check", "codes", 2, 1),
        spans.Span("codes.is_correctable_via_transpose", "codes", 2, 1),
        spans.Span("algebra.canonical_decompose", "algebra", -1, 2),
        spans.Span("algebra.verify_decomposition", "algebra", 5, 2),
        spans.Span("algebra.verify_decomposition", "algebra", 5, 2),
    ]
    m = spans.span_metrics(tree, n_ops=3)
    assert m["codes.refuted_ratio"] == 0.5
    assert m["algebra.attempts_per_decompose"] == 2.0


# ---------------------------------------------------------------------------
# the recorder on the real package
# ---------------------------------------------------------------------------

def test_recorder_wraps_every_binding_and_restores_them():
    original = ipstruct.structures.noiseless_structure
    ch = zoo.fixture("depolarize_B")
    rec = spans.Recorder()
    with rec.installed():
        assert ipstruct.noiseless_structure is not original
        assert ipstruct.cli._MODES["noiseless"] is ipstruct.structures.noiseless_structure
        plain = ipstruct.structures.noiseless_structure(ch)
        rc, _ = workloads.run_cli(["analyze", "--channel",
                                   str(workloads.FIXTURES / "depolarize_B.json"), "--json"])
    assert rc == 0
    assert ipstruct.structures.noiseless_structure is original
    assert ipstruct.cli._MODES["noiseless"] is original
    assert workloads.structure_digest(plain) == workloads.structure_digest(original(ch))

    roots = [s for s in rec.spans if s.parent < 0]
    assert [s.name for s in roots] == ["structures.noiseless_structure", "cli.main"]
    under_cli = {s.name for s in rec.spans if s.parent >= 0 and rec.spans[s.parent].name == "cli.main"}
    assert "structures.noiseless_structure" in under_cli  # reached through _MODES
    assert "spectral.fixed_space" in {s.name for s in rec.spans}
    own = spans.self_times(rec.spans)
    total = sum(s.end - s.start for s in roots)
    assert sum(own) == pytest.approx(total, rel=1e-9)


def test_memory_recorder_sees_the_superoperator():
    import tracemalloc

    ch = zoo.random_cptp(8, 2, 0)
    rec = spans.Recorder(memory=True)
    tracemalloc.start()
    try:
        with rec.installed():
            ipstruct.spectral.fixed_space(ch)
    finally:
        tracemalloc.stop()
    peaks = spans.peak_metrics(rec.spans)
    superop_mb = 16 * 8**4 / 1e6
    assert peaks["channels.to_superoperator.peak_mb"] >= superop_mb
    assert peaks["spectral.peak_mb"] >= peaks["channels.to_superoperator.peak_mb"]


# ---------------------------------------------------------------------------
# inputs and the metric list
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_bit_identical_per_seed(name, tmp_path):
    def digest(seed, subdir):
        (tmp_path / subdir).mkdir()
        return workloads.input_digest(workloads.build(name, seed, tmp_path / subdir))

    first, again, other = digest(7, "a"), digest(7, "b"), digest(8, "c")
    assert first == again
    assert first != other
    (tmp_path / "d").mkdir()
    assert workloads.build(name, 7, tmp_path / "d").reference in reference.KERNELS


def test_golden_tables_agree_with_the_zoo():
    keys = {"noiseless_shape": 0, "unitarily_noiseless_shape": 1, "unconditional_shape": 2}
    for doc, rows in workloads.ANALYZE_EXPECTED.items():
        for key, (want, _) in zoo.descriptor(doc).expected.items():
            if key in keys:
                assert rows[keys[key]][0] == want, (doc, key)
            if key == "noiseless_cofactors":
                assert rows[0][1] == want, doc


def test_every_listed_metric_names_a_layer_or_function():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if parts == ["trace_overhead"]:
            continue
        assert parts[0] in spans.LAYERS, metric
        if len(parts) == 3:
            module = getattr(ipstruct, parts[0])
            assert callable(getattr(module, parts[1], None)), metric
