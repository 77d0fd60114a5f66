"""One measuring process of one benchmark run.

``run.py`` starts this script with the BLAS thread count already in the
environment, so numpy reads it on import.  The script imports the program,
builds the workload's inputs from the seed, warms up, prints
``READY <monotonic time>`` and, unless ``--probe`` is given, measures:

* ``--trace 0``: a timed window with tracing off, with the reference kernel
  of ``reference.py`` sampled between ops, then an untimed ``tracemalloc``
  pass over the first pass of ops;
* ``--trace 1``: a window in which every pass runs untraced and then traced
  on the same ops, and a traced ``tracemalloc`` pass for the per-layer
  memory peaks.

It prints a readable report and, as its last line, a JSON object with the
attempted and failed op counts and every metric value it computed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "ipstruct").is_dir():
    sys.exit(f"no ipstruct sources under {ROOT / 'src'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import BLAS_ENV_VARS  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# glibc sysconf names for the L2 and L3 data cache sizes
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples above it
    (nearest-rank), as ``(percentile, value)``; ``None`` below 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1]
    return None


def typical_op(units: list[float], pass_size: int) -> float:
    """Each op's median over the passes of a window, averaged over the ops of
    one pass.  Unlike the median of all op times, it does not jump between
    op kinds of different cost when the mix is even."""
    if not units or len(units) % pass_size:
        raise ValueError("a window holds whole passes")
    return statistics.fmean(statistics.median(units[j::pass_size]) for j in range(pass_size))


def run_op(op: workloads.Op) -> tuple[float, object]:
    """Time one op from call to return; an exception becomes its answer."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an op failure is counted, not fatal
        return time.perf_counter() - t0, ("raised", type(exc).__name__, str(exc))
    elapsed = time.perf_counter() - t0
    return elapsed, op.digest(out)


def problem(op: workloads.Op, dig) -> str | None:
    if isinstance(dig, tuple) and dig and dig[0] == "raised":
        return f"raised {dig[1]}: {dig[2]}"
    try:
        return op.check(dig)
    except Exception as exc:  # a malformed answer is a wrong answer
        return f"unreadable answer ({type(exc).__name__}: {exc})"


def run_pass(wl: workloads.Workload, first: int, times: list, digests: list,
             recorder=None, ref: reference.Reference | None = None) -> None:
    """Run the ``pass_size`` ops from index ``first`` on, appending each op's
    time and answer; around each op, mark it in ``ref`` and take a reference
    sample if one is due."""
    for i in range(first, first + wl.pass_size):
        if recorder is not None:
            recorder.op = i
        if ref is not None:
            ref.mark_op()
        dt, dig = run_op(wl.ops[i % len(wl.ops)])
        times.append(dt)
        digests.append(dig)
        if ref is not None:
            ref.maybe_sample()


def timed_window(wl: workloads.Workload, seconds: float, ref: reference.Reference):
    """Closed loop, one caller: run whole passes until ``seconds`` of op time
    have passed, sampling ``ref`` between ops and at both ends.  Returns op
    times and answers."""
    times, digests = [], []
    ref.sample()
    while True:
        run_pass(wl, len(times), times, digests, ref=ref)
        if sum(times) >= seconds:
            ref.sample()
            return times, digests


def paired_window(wl: workloads.Workload, seconds: float, recorder):
    """Run each pass untraced and then, on the same ops, traced, until
    ``seconds`` have passed.  Pairing the passes exposes both sides to the
    same drift in machine speed, which would otherwise swamp the overhead."""
    plain_times, plain_digests, times, digests = [], [], [], []
    start = time.perf_counter()
    while True:
        first = len(times)
        run_pass(wl, first, plain_times, plain_digests)
        with recorder.installed():
            run_pass(wl, first, times, digests, recorder)
        if time.perf_counter() - start >= seconds:
            return plain_times, plain_digests, times, digests


def memory_pass(wl: workloads.Workload, recorder=None):
    """Untimed pass over the first ``pass_size`` ops under ``tracemalloc``.

    Returns each op's answer and its peak traced memory above the traced
    memory at its start.  A memory recorder resets the peak at every span
    boundary, so the op peaks are only meaningful without one.
    """
    digests, peaks = [], []
    tracemalloc.start()
    try:
        for i in range(wl.pass_size):
            if recorder is not None:
                recorder.op = i
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            digests.append(run_op(wl.ops[i])[1])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return digests, peaks


class Tally:
    """Checks answers and counts attempted and failed ops."""

    def __init__(self, wl: workloads.Workload):
        self.wl, self.attempted, self.failures = wl, 0, []

    def check(self, digests, what: str, reference=None) -> None:
        for i, dig in enumerate(digests):
            op = self.wl.ops[i % len(self.wl.ops)]
            self.attempted += 1
            why = problem(op, dig)
            if why is None and reference is not None and i < len(reference) \
                    and dig != reference[i]:
                why = "answer differs from another run of the same op"
            if why is not None:
                self.failures.append(f"{what} op {i} ({op.label}): {why}")


def environment(wl: workloads.Workload) -> str:
    libc = ctypes.CDLL(None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ",".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_ENV_VARS)
    return (f"env: {threads} nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"l2_bytes={libc.sysconf(_SC_LEVEL2_CACHE_SIZE)} "
            f"l3_bytes={libc.sysconf(_SC_LEVEL3_CACHE_SIZE)} "
            f"inputs=sha256:{workloads.input_digest(wl)[:16]}")


def untraced_run(wl, seconds, tally):
    ref = reference.Reference(wl.reference)
    times, digests = timed_window(wl, seconds, ref)
    tally.check(digests, "timed")
    mem_digests, peaks = memory_pass(wl)
    tally.check(mem_digests, "memory-pass", reference=digests)
    n, busy, units = len(times), sum(times), ref.in_units(times)
    values = {
        "ops_per_ref": n / sum(units),
        "op_ref.typical": typical_op(units, wl.pass_size),
        "peak_mem_mb": max(peaks) / 1e6,
    }
    print(f"ref_s        {statistics.median(ref.samples):.6g} s  "
          f"(median of {len(ref.samples)} reference-kernel samples)")
    print(f"ops_per_ref  {values['ops_per_ref']:.6g} 1/ref  ({n} ops in {sum(units):.1f} ref)")
    print(f"op_ref.typical {values['op_ref.typical']:.6g} ref  "
          f"({wl.pass_size} ops a pass, {n // wl.pass_size} passes)")
    print(f"ops_per_s    {n / busy:.6g} 1/s  (wall clock: {n} ops in {busy:.3f} s)")
    print(f"op_s.p50     {statistics.median(times):.6g} s  (wall clock, n={n})")
    tail = tail_percentile(times)
    if tail is None:
        print(f"op_s.tail    not emitted: {n} ops, the rule needs at least 20")
    else:
        print(f"op_s.tail    p{tail[0]:g} = {tail[1]:.6g} s  (n={n})")
    print(f"peak_mem_mb  {values['peak_mem_mb']:.6g} MB  (max over {len(peaks)} ops)")
    return values


def traced_run(wl, seconds, tally, spans_path: Path):
    recorder = spans.Recorder()
    plain_times, plain_digests, times, digests = paired_window(wl, seconds, recorder)
    tally.check(plain_digests, "untraced")
    tally.check(digests, "traced", reference=plain_digests)
    n = len(times)
    values = spans.span_metrics(recorder.spans, n)
    values["trace_overhead"] = sum(times) / sum(plain_times)
    values["serialization.bytes_in"] = sum(
        wl.ops[i % len(wl.ops)].bytes_in for i in range(n)) / n

    mem_recorder = spans.Recorder(memory=True)
    with mem_recorder.installed():
        mem_digests, _ = memory_pass(wl, mem_recorder)
    tally.check(mem_digests, "traced memory-pass", reference=plain_digests)
    values.update(spans.peak_metrics(mem_recorder.spans))

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([s.as_dict() for s in recorder.spans]))

    op_time = sum(times) / n
    print(f"traced ops: {n}; mean op {op_time:.6g} s; trace_overhead "
           f"{values['trace_overhead']:.4f}; spans in {spans_path.name}")
    print(f"{'layer':<14}{'self_s/op':>12}{'share':>8}{'calls/op':>11}"
           f"{'errors/op':>11}{'peak_mb':>10}")
    for layer in spans.LAYERS:
        self_s = values[f"{layer}.self_s"]
        print(f"{layer:<14}{self_s:>12.5g}{self_s / op_time:>8.1%}"
               f"{values[f'{layer}.calls']:>11.5g}{values[f'{layer}.errors']:>11.3g}"
               f"{values[f'{layer}.peak_mb']:>10.4g}")
    for root, shares in sorted(spans.root_shares(recorder.spans).items()):
        parts = ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        print(f"within {root}: {parts}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (used to time set-up)")
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.work_dir)
    wl.warmup()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.probe:
        return 0

    print(environment(wl))
    tally = Tally(wl)
    if args.trace:
        values = traced_run(wl, args.seconds, tally, args.spans_out)
    else:
        values = untraced_run(wl, args.seconds, tally)
    failed = len(tally.failures)
    print(f"fail_ratio   {failed / tally.attempted:.6g}  ({failed} of {tally.attempted} ops)")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"attempted": tally.attempted, "failed": failed, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
