"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run of a workload starts its measuring
process, ``worker.py``, with the BLAS thread count fixed in the environment
(``BLAS_THREADS``), so both sides of any comparison use the same count.  With
``--trace 0`` it first starts ``SETUP_SAMPLES - 1`` probe processes that only
set up; ``setup_s`` is the median, over those and the measuring process, of
the time from process start to the first timed op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` ones of ``BENCHMARK.json`` with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``.  ``--workload all`` runs every workload
of ``BENCHMARK.json`` in turn and ends with one JSON object keyed by workload.
Any error exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"

# One BLAS thread: generic-d16 runs about 1.7x faster and planted-dfs about
# 1.4x slower than with two, and a single thread is the least disturbed by
# other load on a small shared machine.
BLAS_THREADS = "1"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(argv: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run ``worker.py``; return its set-up time and its stdout lines."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} passed the deadline") from None
    finally:
        if proc.poll() is None:  # deadline, interrupt or SIGTERM: end the worker too
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return float(lines[0].split()[1]) - started, lines[1:]


def run_workload(spec: dict, name: str, seed: int, seconds: int,
                 trace: int) -> tuple[list[str], dict]:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{v: BLAS_THREADS for v in BLAS_ENV_VARS})
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--work-dir", str(work),
                "--spans-out", str(SPANS_DIR / f"spans-{name}-seed{seed}.json")]
        probes = [] if trace else [
            _worker(argv + ["--probe"], env, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, lines = _worker(argv, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    try:
        measured = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("worker printed no result") from None
    values = dict(measured["values"])
    report = lines[:-1]
    if not trace:
        samples = probes + [setup]
        values["setup_s"] = statistics.median(samples)
        report.append(f"setup_s      {values['setup_s']:.6g} s  (median of {len(samples)}: "
                      + ", ".join(f"{s:.3f}" for s in samples) + ")")
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [] if trace else [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        # a per-layer metric without spans (a layer the workload never calls) is 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ipstruct benchmark")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every one in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exit that runs the clean-up that kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        spec = json.loads(SPEC.read_text())
        names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
        results = {}
        for name in names:
            report, results[name] = run_workload(spec, name, args.seed, args.seconds,
                                                 args.trace)
            print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
            print("\n".join(report))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
