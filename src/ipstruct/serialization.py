"""JSON (de)serialization for channels, stochastic maps and codes; graphs are only written.

Formats
-------
channel:    {"dim_in": n, "dim_out": m, "kraus": [matrix, ...]}
stochastic: {"n_in": n, "n_out": m, "matrix": [[p, ...], ...]}
code:       {"states": [matrix, ...]}
graph:      {"n": n, "edges": [[i, j], ...]}        (i < j, sorted)
projector:  {"matrix": matrix}

Complex matrices are encoded row-major with each entry as a ``[re, im]``
pair.  Floats pass through Python's ``json`` module unchanged, so a
parse -> serialize round trip is bit-exact.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import QuantumChannel, StochasticChannel, channel_from_kraus
from .errors import ValidationError

__all__ = [
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "stochastic_to_json",
    "stochastic_from_json",
    "code_states_to_json",
    "code_states_from_json",
    "graph_to_json",
    "projector_from_json",
    "dumps",
    "sniff_and_load_channel",
]


def dumps(obj: Any) -> str:
    """Canonical JSON encoding used for all emitted documents."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def complex_matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def complex_matrix_from_json(data: Any) -> np.ndarray:
    try:
        rows = [
            [complex(float(entry[0]), float(entry[1])) for entry in row]
            for row in data
        ]
    except (TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed complex matrix: {exc}") from exc
    if not rows:
        raise ValidationError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("ragged matrix rows")
    return np.array(rows, dtype=complex)


def channel_to_json(ch: QuantumChannel) -> dict:
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [complex_matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(data: Any) -> QuantumChannel:
    try:
        dim_in = int(data["dim_in"])
        dim_out = int(data["dim_out"])
        kraus_data = data["kraus"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed channel document: {exc}") from exc
    ks = [complex_matrix_from_json(k) for k in kraus_data]
    ch = channel_from_kraus(ks)
    if ch.dim_in != dim_in or ch.dim_out != dim_out:
        raise ValidationError(
            f"declared dims ({dim_in}, {dim_out}) do not match Kraus shapes "
            f"({ch.dim_in}, {ch.dim_out})"
        )
    return ch


def stochastic_to_json(sc: StochasticChannel) -> dict:
    return {
        "n_in": sc.n_in,
        "n_out": sc.n_out,
        "matrix": [[float(x) for x in row] for row in sc.matrix],
    }


def stochastic_from_json(data: Any) -> StochasticChannel:
    try:
        n_in = int(data["n_in"])
        n_out = int(data["n_out"])
        m = np.array(data["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed stochastic document: {exc}") from exc
    sc = StochasticChannel(matrix=m)
    if sc.n_in != n_in or sc.n_out != n_out:
        raise ValidationError("declared sizes do not match matrix shape")
    return sc


def code_states_to_json(states) -> dict:
    return {"states": [complex_matrix_to_json(s) for s in states]}


def code_states_from_json(data: Any) -> list[np.ndarray]:
    try:
        raw = data["states"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"code document missing 'states': {exc}") from exc
    return [complex_matrix_from_json(s) for s in raw]


def graph_to_json(n: int, edges) -> dict:
    norm = sorted(tuple(sorted(map(int, e))) for e in edges)
    return {"n": int(n), "edges": [list(e) for e in norm]}


def projector_from_json(data: Any) -> np.ndarray:
    try:
        m = data["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"projector document missing 'matrix': {exc}") from exc
    return complex_matrix_from_json(m)


def sniff_and_load_channel(data: Any) -> QuantumChannel | StochasticChannel:
    """Load either a channel or a stochastic document, by inspecting keys."""
    if isinstance(data, dict) and "kraus" in data:
        return channel_from_json(data)
    if isinstance(data, dict) and "matrix" in data and "n_in" in data:
        return stochastic_from_json(data)
    raise ValidationError("document is neither a channel nor a stochastic map")
