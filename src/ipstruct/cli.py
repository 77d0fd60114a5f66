"""Command-line front end.

Verbs: ``analyze``, ``verify-code``, ``transpose``, ``classical-maxcode``,
``fixtures``.  Exit codes: 0 success / affirmative verdict, 1 negative
verdict, 2 input or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .channels import (
    QuantumChannel,
    StochasticChannel,
    apply_channel,
    compose,
    embed_classical,
    is_cptp,
)
from .classical import adjacency_graph, max_zero_error_code, maximum_independent_sets
from .codes import (
    Code,
    is_correctable_via_transpose,
    is_fixed,
    is_noiseless,
    is_preserved,
)
from .errors import NumericalError, ValidationError
from .serialization import (
    channel_to_json,
    code_states_from_json,
    code_states_to_json,
    dumps,
    graph_to_json,
    projector_from_json,
    sniff_and_load_channel,
    stochastic_to_json,
)
from .structures import (
    fixed_point_structure,
    initialization_free_check,
    noiseless_structure,
    transpose_channel,
    unconditional_structure,
    unitarily_noiseless_structure,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from . import zoo

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _read_json_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_channel(path: str) -> tuple[QuantumChannel, dict]:
    """Load a channel file; stochastic maps are embedded as quantum channels."""
    loaded = sniff_and_load_channel(_read_json_file(path))
    if isinstance(loaded, StochasticChannel):
        ch = embed_classical(loaded)
        info = {"kind": "stochastic", "symbols_in": loaded.n_in,
                "symbols_out": loaded.n_out}
    else:
        ch = loaded
        info = {"kind": "channel", "dim_in": ch.dim_in, "dim_out": ch.dim_out,
                "kraus_count": len(ch.kraus)}
    return ch, info


def _tolerance(args) -> ToleranceConfig:
    if args.tol is None:
        return DEFAULT_TOL
    try:
        return DEFAULT_TOL.with_user_tolerance(float(args.tol))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _tolerance_record(tol: ToleranceConfig) -> dict:
    return {"equality": tol.equality, "subspace": tol.subspace}


def _emit(args, report: dict, text_lines) -> None:
    if args.json:
        sys.stdout.write(dumps(report))
    else:
        for line in text_lines:
            print(line)


def _fmt_residuals(res) -> str:
    return "  ".join(f"{k}={v:.3e}" for k, v in sorted(res.items()))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_MODES = {
    "noiseless": noiseless_structure,
    "unitarily-noiseless": unitarily_noiseless_structure,
    "unconditional": unconditional_structure,
    "fixed-structure": fixed_point_structure,
}


def _cmd_analyze(args) -> int:
    tol = _tolerance(args)
    ch, info = _load_channel(args.channel)
    structure = _MODES[args.mode](ch, seed=args.seed, tol=tol)

    report = {
        "verb": "analyze",
        "mode": args.mode,
        "seed": args.seed,
        "tolerance": _tolerance_record(tol),
        "input": info,
        "shape": [int(d) for d in structure.shape],
        "cofactors": [int(n) for n in structure.cofactors],
        "support_rank": int(structure.support_rank),
        "sectors": [{"d": int(s.d), "n": int(s.n)} for s in structure.algebra.sectors],
        "residuals": {k: float(v) for k, v in structure.residuals.items()},
    }
    lines = [
        f"mode:          {args.mode}",
        f"input:         {info['kind']}",
        f"shape:         {report['shape']}",
        f"cofactors:     {report['cofactors']}",
        f"support rank:  {report['support_rank']}",
        f"residuals:     {_fmt_residuals(report['residuals'])}",
    ]
    if args.mode == "fixed-structure":
        flags = [
            bool(initialization_free_check(ch, structure, k, tol=tol))
            for k in range(len(structure.algebra.sectors))
        ]
        report["initialization_free"] = flags
        lines.append(f"init-free:     {flags}")
    lines.append(f"seed: {args.seed}   tolerance: {tol.equality:g}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# verify-code
# ---------------------------------------------------------------------------

def _label_to_json(label):
    return [[int(i), float(w)] for i, w in label]


def _preservation_detail(rep) -> dict:
    detail = {
        "distance_before": float(rep.distance_before),
        "distance_after": float(rep.distance_after),
    }
    if rep.worst_pair is None:
        detail["worst_pair"] = None
    else:
        la, lb, p = rep.worst_pair
        detail["worst_pair"] = {
            "first": _label_to_json(la),
            "second": _label_to_json(lb),
            "prior": float(p),
        }
    return detail


def _witness_line(rep) -> str:
    la, lb, p = rep.worst_pair
    fmt = lambda lab: "+".join(f"{w:.3g}*s{i}" for i, w in lab)
    return (f"  witness: ({fmt(la)}) vs ({fmt(lb)}) at prior {p:g}: "
            f"{rep.distance_before:.6f} -> {rep.distance_after:.6f}")


# the sweep levels, each answered by one PreservationReport; the checks are
# looked up when called, so a rebinding of this module's names reaches them
_SWEEP_LEVELS = {
    "preserved": lambda code, ch, tol: is_preserved(code, ch, tol=tol),
    "noiseless": lambda code, ch, tol: is_noiseless(code, ch, tol=tol),
    "correctable": lambda code, ch, tol: is_correctable_via_transpose(code, ch, tol=tol).noiseless,
}


def _cmd_verify_code(args) -> int:
    tol = _tolerance(args)
    ch, info = _load_channel(args.channel)
    states = code_states_from_json(_read_json_file(args.code))
    code = Code.from_states(states)

    detail: dict = {}
    rep = None
    if args.level == "fixed":
        verdict = is_fixed(code, ch, tol=tol)
    else:
        rep = _SWEEP_LEVELS[args.level](code, ch, tol)
        verdict = rep.verdict
        detail = _preservation_detail(rep)
        if args.level != "preserved":
            # both levels sweep the time average of the (composite) map
            detail["failing_map"] = None if verdict else "time-average"

    report = {
        "verb": "verify-code",
        "level": args.level,
        "verdict": bool(verdict),
        "tolerance": _tolerance_record(tol),
        "input": info,
        "code": {"dim": code.dim, "state_count": len(code.states)},
        "detail": detail,
    }
    word = "PASS" if verdict else "FAIL"
    lines = [f"{word}: code is{'' if verdict else ' not'} {args.level} "
             f"({len(code.states)} states, dim {code.dim})"]
    if not verdict:
        if detail.get("failing_map"):
            lines.append(f"  failing map: {detail['failing_map']}")
        if rep is not None:
            lines.append(_witness_line(rep))
    _emit(args, report, lines)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# transpose
# ---------------------------------------------------------------------------

def _cmd_transpose(args) -> int:
    tol = _tolerance(args)
    ch, _info = _load_channel(args.channel)
    if args.full:
        proj = np.eye(ch.dim_in, dtype=complex)
    else:
        proj = projector_from_json(_read_json_file(args.projector))
    recovery = transpose_channel(ch, proj, tol=tol)
    sys.stdout.write(dumps(channel_to_json(recovery)))

    # self-check: CPTP-ness, and the composite returning the support to itself
    rep = is_cptp(recovery, tol=tol)
    # a zero projector has already failed in transpose_channel (exit 3)
    rank = float(np.real(np.trace(proj)))
    back = apply_channel(compose(recovery, ch, tol=tol), proj / rank)
    restored = float(np.linalg.norm(back - proj / rank))
    print(
        "self-check: "
        f"tp_residual={rep.tp_residual:.3e} "
        f"choi_min_eigenvalue={rep.choi_min_eigenvalue:.3e} "
        f"support_restored={restored:.3e}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# classical-maxcode
# ---------------------------------------------------------------------------

def _cmd_classical_maxcode(args) -> int:
    tol = _tolerance(args)
    loaded = sniff_and_load_channel(_read_json_file(args.stochastic))
    if not isinstance(loaded, StochasticChannel):
        raise ValidationError("classical-maxcode needs a stochastic-map document")
    graph = adjacency_graph(loaded)
    code = max_zero_error_code(loaded)
    report = {
        "verb": "classical-maxcode",
        "tolerance": _tolerance_record(tol),
        "symbols": loaded.n_in,
        "graph": graph_to_json(graph.n, graph.edges),
        "code": [int(v) for v in code],
        "size": len(code),
    }
    lines = [
        f"confusability graph: {graph.n} vertices, {len(graph.edges)} edges",
        f"maximum zero-error code: {list(code)} (size {len(code)})",
    ]
    if args.all:
        sets = maximum_independent_sets(graph)
        report["all_maximum_codes"] = [[int(v) for v in s] for s in sets]
        lines.append(f"all maximum codes: {[list(s) for s in sets]}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _dump_fixture(name: str) -> str:
    if name in zoo.fixture_names():
        obj = zoo.fixture(name)
    elif name in zoo.code_fixture_names():
        obj = zoo.code_fixture(name)
    else:
        raise ValidationError(
            f"unknown fixture {name!r}; run 'ipstruct fixtures' for the list"
        )
    if isinstance(obj, QuantumChannel):
        return dumps(channel_to_json(obj))
    if isinstance(obj, StochasticChannel):
        return dumps(stochastic_to_json(obj))
    if isinstance(obj, Code):
        return dumps(code_states_to_json(obj.states))
    raise NumericalError(f"fixture {name!r} produced an unserializable object")


def _cmd_fixtures(args) -> int:
    if args.name:
        sys.stdout.write(_dump_fixture(args.name))
        return 0
    entries = [
        {"name": d.name, "kind": d.kind, "summary": d.summary}
        for d in (zoo.descriptor(n) for n in zoo.fixture_names())
    ]
    entries += [
        {"name": n, "kind": "code", "summary": "code fixture"}
        for n in zoo.code_fixture_names()
    ]
    report = {"verb": "fixtures", "fixtures": entries}
    width = max(len(e["name"]) for e in entries)
    lines = [f"{e['name']:<{width}}  {e['kind']:<10}  {e['summary']}" for e in entries]
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report on stdout")
    fmt.add_argument("--text", action="store_true", help="plain-text report (default)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the verdict tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipstruct",
        description="zero-error preserved-structure analysis of channels",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="decompose a channel's preserved structure")
    p.add_argument("--channel", required=True, help="channel or stochastic JSON file")
    p.add_argument("--mode", default="noiseless", choices=sorted(_MODES),
                   help="which structure to compute")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized decomposition steps")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify-code", help="test a code against the hierarchy")
    p.add_argument("--channel", required=True)
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--level", required=True,
                   choices=["fixed", "preserved", "noiseless", "correctable"])
    _add_common(p)
    p.set_defaults(func=_cmd_verify_code)

    p = sub.add_parser("transpose", help="emit the transpose recovery channel")
    p.add_argument("--channel", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--projector", help="projector JSON file for the code support")
    grp.add_argument("--full", action="store_true",
                     help="use the identity projector (input-blind recovery)")
    _add_common(p)
    p.set_defaults(func=_cmd_transpose)

    p = sub.add_parser("classical-maxcode",
                       help="maximum zero-error code of a stochastic map")
    p.add_argument("--stochastic", required=True, help="stochastic JSON file")
    p.add_argument("--all", action="store_true",
                   help="also enumerate every maximum code")
    _add_common(p)
    p.set_defaults(func=_cmd_classical_maxcode)

    p = sub.add_parser("fixtures", help="list built-in examples or dump one")
    p.add_argument("--name", default=None, help="dump this fixture as JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        detail = ""
        if getattr(exc, "residuals", None):
            detail = "  [" + _fmt_residuals(exc.residuals) + "]"
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
