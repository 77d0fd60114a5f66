"""Spans recorded from outside the package, and the per-layer metrics computed
from them.

A layer is an ``ipstruct`` module.  ``Recorder.installed()`` replaces each
public function of a layer module in every ``ipstruct`` namespace that binds
it, and in ``ipstruct.cli._MODES`` (the CLI dispatches ``analyze`` through that
dict, so rebinding module attributes alone would miss it).  Each call then
records a span: name, layer, parent span, start, end, whether an exception left
it, and the op it belongs to.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
import types

LAYERS = ("channels", "spectral", "algebra", "structures", "codes", "classical",
          "serialization", "cli")


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "failed",
                 "mem_entry", "mem_peak", "result_bytes")

    def __init__(self, name, layer, parent, op, start=0.0, end=0.0, failed=False):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.start, self.end, self.failed = start, end, failed
        self.mem_entry = self.mem_peak = self.result_bytes = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _layer_of(obj) -> str | None:
    if not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_"):
        return None
    module, _, layer = obj.__module__.rpartition(".")
    return layer if module == "ipstruct" and layer in LAYERS else None


class Recorder:
    """Collects spans while installed.  With ``memory=True`` it also tracks,
    through ``tracemalloc``, each span's peak traced memory above the traced
    memory at its entry; the caller starts and stops ``tracemalloc``."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []  # indices of the open spans

    def _raise_open_peaks(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for i in self._stack:
            self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
        tracemalloc.reset_peak()

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        memory = self.memory
        sizes_result = name == "channels.to_superoperator"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self.op)
            if memory:
                self._raise_open_peaks()
                span.mem_entry = span.mem_peak = tracemalloc.get_traced_memory()[0]
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                if memory:
                    self._raise_open_peaks()
                stack.pop()
            if sizes_result:
                span.result_bytes = out.matrix.nbytes
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the ``with`` block."""
        import ipstruct.cli

        wrappers: dict[int, object] = {}
        undo: list[tuple[object, object, str, object]] = []

        def replace(setter, target, key, fn):
            layer = _layer_of(fn)
            if layer is None:
                return
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(layer, fn)
            setter(target, key, wrappers[id(fn)])
            undo.append((setter, target, key, fn))

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "ipstruct" or n.startswith("ipstruct.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if not attr.startswith("_"):
                    replace(setattr, ns, attr, obj)
        for key, fn in list(ipstruct.cli._MODES.items()):
            replace(dict.__setitem__, ipstruct.cli._MODES, key, fn)
        try:
            yield self
        finally:
            for setter, target, key, fn in reversed(undo):
                setter(target, key, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded, so children of one span never overlap and
    their durations add up to the covered part of the parent's interval.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def span_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op totals by layer and by function, plus the derived ratios."""
    own = self_times(spans)
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for layer in LAYERS:
        for kind in ("self_s", "calls", "errors"):
            totals[f"{layer}.{kind}"] = 0.0
    child_names: dict[int, set[str]] = {}
    for i, s in enumerate(spans):
        add(f"{s.layer}.self_s", own[i])
        add(f"{s.layer}.calls", 1)
        add(f"{s.name}.self_s", own[i])
        add(f"{s.name}.calls", 1)
        escaped = s.parent < 0 or spans[s.parent].layer != s.layer
        add(f"{s.layer}.errors", int(s.failed and escaped))
        if s.result_bytes:
            add(f"{s.layer}.superop_mb", s.result_bytes / 1e6)
        if s.parent >= 0:
            child_names.setdefault(s.parent, set()).add(s.name)
    out = {k: v / n_ops for k, v in totals.items()}

    decompose = totals.get("algebra.canonical_decompose.calls", 0.0)
    out["algebra.attempts_per_decompose"] = (
        totals.get("algebra.verify_decomposition.calls", 0.0) / decompose if decompose else 0.0)
    verifications = [i for i, s in enumerate(spans)
                     if s.name == "codes.is_preserved" and not s.failed]
    refuted = [i for i in verifications
               if "codes.is_correctable_via_transpose" not in child_names.get(i, ())]
    out["codes.refuted_ratio"] = len(refuted) / len(verifications) if verifications else 0.0
    return out


def peak_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest per-span memory peak above entry, in MB, by layer and function."""
    out: dict[str, float] = {f"{layer}.peak_mb": 0.0 for layer in LAYERS}
    for s in spans:
        mb = (s.mem_peak - s.mem_entry) / 1e6
        for key in (f"{s.layer}.peak_mb", f"{s.name}.peak_mb"):
            out[key] = max(out.get(key, 0.0), mb)
    return out


def root_shares(spans: list[Span]) -> dict[str, dict[str, float]]:
    """For each function the benchmark called directly (a root span), the
    share of its total duration that each layer's self time takes."""
    own = self_times(spans)
    root = [0] * len(spans)
    durations: dict[str, float] = {}
    by_layer: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        root[i] = i if s.parent < 0 else root[s.parent]
        name = spans[root[i]].name
        if s.parent < 0:
            durations[name] = durations.get(name, 0.0) + s.end - s.start
        layers = by_layer.setdefault(name, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + own[i]
    return {name: {layer: t / durations[name] for layer, t in layers.items()}
            for name, layers in by_layer.items() if durations[name] > 0}
