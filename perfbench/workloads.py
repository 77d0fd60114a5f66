"""Benchmark workloads: seeded inputs, the op each one times, and the checks
that decide whether an op's answer is right.

Every op calls the program through a module attribute looked up at call time
(``ipstruct.structures.noiseless_structure``, ``ipstruct.cli.main``), so the
wrappers that ``spans.Recorder`` installs see each call.  Inputs are built here,
before any timed window; the program receives only the built inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ipstruct
import ipstruct.cli
from ipstruct import Code, Graph, zoo
from ipstruct.serialization import dumps, stochastic_to_json
from ipstruct.tolerances import DEFAULT_TOL

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Ops whose inputs are fresh per op draw them from a pool this large.  A pool
# is reused cyclically only if a run outlasts it, which at seed-commit speed
# needs a >10x speed-up; cross-call caching would then start to show.
GENERIC_POOL = 240
PLANTED_POOL = 64
FIVE_QUBIT_POOL = 8


@dataclass
class Op:
    """One unit of user work.

    ``call`` performs it and returns the raw output; ``digest`` reduces that
    output to a comparable answer; ``check`` returns ``None`` for a right
    answer, else the reason it is wrong.
    """

    label: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], str | None]
    inputs: tuple = ()
    bytes_in: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # a timed window ends on a pass boundary, so every run sees the same mix
    pass_size: int
    warmup: Callable[[], None]
    # the reference kernel (reference.KERNELS) whose work is most like the ops'
    reference: str = "compute"


def _op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


# ---------------------------------------------------------------------------
# structure ops (generic-d16, planted-dfs)
# ---------------------------------------------------------------------------

def structure_digest(s) -> tuple:
    return (tuple(int(d) for d in s.shape), tuple(int(n) for n in s.cofactors),
            int(s.support_rank), tuple(sorted((k, float(v)) for k, v in s.residuals.items())))


def _residual_problem(residuals) -> str | None:
    worst = max((v for _, v in residuals), default=0.0)
    if not worst <= DEFAULT_TOL.subspace:
        return f"residual {worst:.3e} above tolerance {DEFAULT_TOL.subspace:g}"
    return None


def _structure_check(shape, cofactors, rank):
    def check(dig) -> str | None:
        got = dig[:3]
        if got != (shape, cofactors, rank):
            return f"got shape/cofactors/rank {got}, expected {(shape, cofactors, rank)}"
        return _residual_problem(dig[3])
    return check


def _structure_op(label, mode, ch, shape, cofactors, rank) -> Op:
    return Op(
        label=label,
        call=lambda: getattr(ipstruct.structures, mode)(ch),
        digest=structure_digest,
        check=_structure_check(shape, cofactors, rank),
        inputs=tuple(ch.kraus),
    )


def _structure_warmup() -> None:
    ipstruct.structures.noiseless_structure(zoo.random_cptp(3, 2, 0))


GENERIC_MODES = ("noiseless_structure", "unitarily_noiseless_structure",
                 "unconditional_structure")


def generic_d16(seed: int, work_dir: Path) -> Workload:
    ops = []
    for i, s in enumerate(_op_seeds(seed, GENERIC_POOL)):
        mode = GENERIC_MODES[i % 3]
        ops.append(_structure_op(f"{mode}(random_cptp(16,3,{s}))", mode,
                                 zoo.random_cptp(16, 3, s), (1,), (16,), 16))
    return Workload("generic-d16", ops, pass_size=3, warmup=_structure_warmup)


PLANTED_SIZES = ((10, 5), (12, 4))
PLANTED_MODES = ("noiseless_structure", "fixed_point_structure")


def planted_dfs(seed: int, work_dir: Path) -> Workload:
    ops = []
    for i, s in enumerate(_op_seeds(seed, PLANTED_POOL)):
        d, dfs = PLANTED_SIZES[i % 2]
        mode = PLANTED_MODES[(i // 2) % 2]
        ch = zoo.random_dfs_channel(d, dfs, s, leak=0.0)
        ops.append(_structure_op(f"{mode}(random_dfs_channel({d},{dfs},{s}))", mode,
                                 ch, (dfs, 1), (1, d - dfs), d))
    return Workload("planted-dfs", ops, pass_size=4, warmup=_structure_warmup,
                    reference="memory")


# ---------------------------------------------------------------------------
# five-qubit (too long for a timed run; see README.md)
# ---------------------------------------------------------------------------

def five_qubit(seed: int, work_dir: Path) -> Workload:
    ch = zoo.fixture("five_qubit_depolarize_one")
    w, v = np.linalg.eigh(zoo.five_qubit_code_projector())
    iso = v[:, w > 0.5]
    rng = np.random.default_rng(seed)

    def op(code: Code) -> Op:
        def call():
            s = ipstruct.structures.noiseless_structure(ch)
            return s, ipstruct.codes.is_preserved(code, ch)

        def check(dig):
            if dig[1] is not True:
                return "code on the five-qubit code space reported not preserved"
            if dig[0][0] != (1,):
                return f"shape {dig[0][0]}, expected (1,)"
            return _residual_problem(dig[0][3])

        return Op(label="noiseless_structure + is_preserved(five-qubit)", call=call,
                  digest=lambda out: (structure_digest(out[0]), bool(out[1])),
                  check=check, inputs=code.states)

    ops = [op(Code.from_states([iso @ zoo.random_density(2, rng) @ iso.conj().T
                                for _ in range(4)]))
           for _ in range(FIVE_QUBIT_POOL)]
    return Workload("five-qubit", ops, pass_size=1, warmup=_structure_warmup,
                    reference="memory")


# ---------------------------------------------------------------------------
# small-cli
# ---------------------------------------------------------------------------

CLI_MODES = ("noiseless", "unitarily-noiseless", "unconditional", "fixed-structure")

# (shape, cofactors) per analyze mode, in CLI_MODES order.  Entries the zoo's
# `expected` tables or tests/test_cli.py pin agree with these; the rest are the
# seed commit's answers.
_A, _B, _C, _D = ((1,), (4,)), ((2,), (1,)), ((1, 1), (2, 2)), ((1,), (3,))
ANALYZE_EXPECTED = {
    "dephasing_qubit": (((1, 1), (1, 1)),) * 4,
    "depolarize_B": (((2,), (2,)),) * 4,
    "cond_dephase_flip": (_B, _B, _C, _B),
    "unitary_A_depolarize_B": (_C, ((2,), (2,)), ((2,), (2,)), _C),
    "measure_then_depolarize": (_A,) * 4,
    "ucp_d3": (_B, _B, _D, _B),
    "qutrit_half_fail": (_B, _B, _D, _B),
    "cyclic_four": (_A,) * 4,
    "squash_three": (((1, 1), (1, 1)),) * 2 + (((1, 1), (2, 1)), ((1, 1), (1, 1))),
    "two_code_classical": (_A,) * 4,
    "uncond_classical": (((1,), (1,)),) * 2 + (_C, ((1,), (1,))),
}

VERIFY_LEVELS = ("fixed", "preserved", "noiseless", "correctable")

# Verdicts per level in VERIFY_LEVELS order (T = pass, exit 0; F = fail, exit 1)
# for the channel/code pairs of tests/test_acceptance.py.  The tests pin the
# preserved and noiseless verdicts they name; the hierarchy fixed => noiseless
# => preserved == correctable holds on every row.
VERIFY_EXPECTED = {
    ("dephasing_qubit", "code_cbit"): "TTTT",
    ("dephasing_qubit", "code_plus_minus"): "FFFF",
    ("depolarize_B", "code_unitary_a_half"): "TTTT",
    ("depolarize_B", "ns_vs_code"): "FFFF",
    ("measure_then_depolarize", "code_product_a_ground"): "FTFT",
    ("cyclic_four", "code_cyclic_four_02"): "FTFT",
    ("ucp_d3", "code_ucp_sub"): "TTTT",
    ("qutrit_half_fail", "code_qutrit_half_pair"): "FFFF",
    ("squash_three", "code_squash_segment"): "FFFF",
}

STOCHASTIC_DOCS = ("cyclic_four", "squash_three", "two_code_classical", "uncond_classical")
RANDOM_MAP_SIZES = (16, 18, 20, 22, 24, 26, 28, 30)
RANDOM_MAP_EDGE_P = 0.3
ENUMERATE_MAX_N = 20


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = ipstruct.cli.main(argv)
    return rc, out.getvalue()


def _cli_op(label, argv, check) -> Op:
    paths = [Path(a) for a in argv if a.endswith(".json")]
    return Op(label=label, call=lambda: run_cli(argv), digest=tuple, check=check,
              inputs=tuple(p.read_bytes() for p in paths),
              bytes_in=sum(p.stat().st_size for p in paths))


def _report(dig, want_rc: int) -> tuple[dict | None, str | None]:
    rc, out = dig
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}"
    return json.loads(out), None


def _analyze_check(shape, cofactors):
    def check(dig):
        doc, err = _report(dig, 0)
        if err:
            return err
        got = (tuple(doc["shape"]), tuple(doc["cofactors"]))
        if got != (shape, cofactors):
            return f"got shape/cofactors {got}, expected {(shape, cofactors)}"
        rank = sum(d * n for d, n in zip(shape, cofactors))
        if doc["support_rank"] != rank:
            return f"support rank {doc['support_rank']}, expected {rank}"
        return _residual_problem(doc["residuals"].items())
    return check


def _verify_check(verdict: bool):
    def check(dig):
        doc, err = _report(dig, 0 if verdict else 1)
        if err:
            return err
        return None if doc["verdict"] is verdict else f"verdict {doc['verdict']}"
    return check


def confusable(matrix: np.ndarray) -> np.ndarray:
    """Inputs ``i != j`` are confusable when some output is reachable from both."""
    reach = (np.asarray(matrix) > 0).astype(int)
    adj = (reach.T @ reach) > 0
    np.fill_diagonal(adj, False)
    return adj


def _is_independent(adj, code) -> bool:
    return not adj[np.ix_(code, code)].any()


def _maxcode_check(adj: np.ndarray, enumerate_all: bool, expected: dict):
    n = adj.shape[0]

    def check(dig):
        doc, err = _report(dig, 0)
        if err:
            return err
        code = doc["code"]
        if not _is_independent(adj, code):
            return f"code {code} is not independent"
        outside = [v for v in range(n) if v not in code]
        if any(not adj[v, code].any() for v in outside):
            return f"code {code} is not maximal"
        if enumerate_all:
            sets = doc["all_maximum_codes"]
            if code not in sets or any(len(s) != len(code) or not _is_independent(adj, s)
                                       for s in sets):
                return f"code {code} disagrees with the enumeration {sets}"
        for key, want in expected.items():
            got = {"max_code": tuple(code), "max_code_size": len(code),
                   "max_codes": tuple(tuple(s) for s in doc.get("all_maximum_codes", ()))}[key]
            if got != want:
                return f"{key} {got}, expected {want}"
        return None
    return check


def random_confusability_graph(n: int, rng: np.random.Generator) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < RANDOM_MAP_EDGE_P]
    return Graph.from_edges(n, edges)


def small_cli(seed: int, work_dir: Path) -> Workload:
    fx = lambda name: str(FIXTURES / f"{name}.json")
    ops = []
    for doc, expected in ANALYZE_EXPECTED.items():
        for mode, (shape, cofactors) in zip(CLI_MODES, expected):
            ops.append(_cli_op(f"analyze {doc} --mode {mode}",
                               ["analyze", "--channel", fx(doc), "--mode", mode, "--json"],
                               _analyze_check(shape, cofactors)))
    for (channel, code), verdicts in VERIFY_EXPECTED.items():
        for level, v in zip(VERIFY_LEVELS, verdicts):
            ops.append(_cli_op(f"verify-code {channel} {code} --level {level}",
                               ["verify-code", "--channel", fx(channel), "--code", fx(code),
                                "--level", level, "--json"],
                               _verify_check(v == "T")))

    maps = [(name, fx(name), json.loads(Path(fx(name)).read_text())["matrix"],
             {k: v for k, (v, _) in zoo.descriptor(name).expected.items()
              if k in ("max_code", "max_code_size", "max_codes")})
            for name in STOCHASTIC_DOCS]
    rng = np.random.default_rng(seed)
    for n in RANDOM_MAP_SIZES:
        sc = ipstruct.graph_to_channel(random_confusability_graph(n, rng))
        path = work_dir / f"random_map_{n}.json"
        path.write_text(dumps(stochastic_to_json(sc)))
        maps.append((f"random_map_{n}", str(path), sc.matrix, {}))
    for name, path, matrix, expected in maps:
        adj = confusable(np.array(matrix))
        enum = adj.shape[0] <= ENUMERATE_MAX_N
        argv = ["classical-maxcode", "--stochastic", path, "--json"] + (["--all"] if enum else [])
        ops.append(_cli_op(f"classical-maxcode {name}{' --all' if enum else ''}", argv,
                           _maxcode_check(adj, enum, expected)))

    def warmup():
        run_cli(["analyze", "--channel", fx("dephasing_qubit"), "--json"])

    return Workload("small-cli", ops, pass_size=len(ops), warmup=warmup)


WORKLOADS = {
    "small-cli": small_cli,
    "generic-d16": generic_d16,
    "planted-dfs": planted_dfs,
    "five-qubit": five_qubit,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, work_dir)


def input_digest(wl: Workload) -> str:
    """SHA-256 over every op's inputs, in op order."""
    h = hashlib.sha256()
    for op in wl.ops:
        h.update(op.label.encode())
        for x in op.inputs:
            h.update(x if isinstance(x, bytes) else np.ascontiguousarray(x).tobytes())
    return h.hexdigest()
