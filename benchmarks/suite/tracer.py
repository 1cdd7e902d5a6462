"""Tracing that lives outside the program: suite-side spans plus a profile
split into layers.

Nothing in ``src/repro`` is instrumented. The suite brackets its own calls
into the simulator (pass -> cell -> build / run / verify, pass -> gc) with
:class:`SpanRecorder`, and runs a pass's cells under one
``cProfile.Profile`` that :func:`layer_ledger` folds into per-layer self
time and call counts. Layers are module names of ``repro``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager

#: Longest-prefix map from a ``repro`` module to the layer that owns it. A
#: module not named here belongs to the nearest listed ancestor, so every
#: function defined under ``src/repro`` lands in exactly one layer.
LAYER_OF_MODULE = {
    "repro": "core.system",
    "repro.sim": "sim.engine",
    "repro.sim.resources": "sim.resources",
    "repro.interconnect": "interconnect",
    "repro.memory": "memory.cache",
    "repro.memory.diff": "memory.diff",
    "repro.memory.backing": "memory.backing",
    "repro.memory.directory": "memory.directory",
    "repro.core": "core.system",
    "repro.core.memory_server": "core.memory_server",
    "repro.core.manager": "core.manager",
    "repro.core.control_plane": "core.manager",
    "repro.core.consistency": "core.consistency",
    "repro.core.compute_server": "core.compute_server",
    "repro.core.rtbatch": "core.rtbatch",
    "repro.core.prefetcher": "core.prefetcher",
    "repro.runtime": "runtime",
    "repro.kernels": "kernels",
    "repro.experiments": "experiments",
    "repro.faults": "faults",
    "repro.hardware": "hardware",
}

#: The suite's own frames (cell loop, verification, its data-free kernel)
#: and anything nothing profiled called. Reported so the layers sum to the
#: traced total.
SUITE_LAYER = "suite"
_SUITE_DIR = os.path.dirname(os.path.abspath(__file__))

LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values())) + (SUITE_LAYER,)


class SpanRecorder:
    """In-memory spans: id, parent, name, start, end (host seconds)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "args": args}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def chrome_trace(self, pid: int = 0, tid: str = "suite") -> list[dict]:
        """Complete ("X") events for chrome://tracing / Perfetto."""
        return [{"name": s["name"], "ph": "X", "pid": pid, "tid": tid,
                 "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                 "args": {"id": s["id"], "parent": s["parent"], **s["args"]}}
                for s in self.spans]


@contextmanager
def maybe_span(recorder: SpanRecorder | None, name: str, **args):
    """A span when tracing is on, nothing at all when it is off."""
    if recorder is None:
        yield None
    else:
        with recorder.span(name, **args) as record:
            yield record


def _module_of(filename: str) -> str | None:
    """``.../src/repro/memory/cache.py`` -> ``repro.memory.cache``."""
    parts = filename.split("/")
    if "repro" not in parts:
        return None
    # The last "repro" component is the package (a checkout may itself sit
    # in a directory called repro).
    start = len(parts) - 1 - parts[::-1].index("repro")
    dotted = ".".join(parts[start:])
    return dotted[:-3] if dotted.endswith(".py") else dotted


def _layer_of(func: tuple) -> str | None:
    """The layer owning a pstats function key, or None for code that belongs
    to whoever called it (builtins, numpy, the stdlib)."""
    filename = func[0]
    if filename.startswith(_SUITE_DIR):
        return SUITE_LAYER
    module = _module_of(filename)
    while module:
        layer = LAYER_OF_MODULE.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return None


def code_key(function) -> tuple:
    """The pstats key of a Python function (for exact call counts)."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_ledger(profile: cProfile.Profile) -> dict:
    """Fold a finished profile into ``{layer: {"host_self_s", "calls"}}``
    plus the totals and the raw per-function call counts.

    Self time of a function defined in a repro module goes to that module's
    layer, and ``calls`` counts calls of those functions. Self time of
    anything else (a builtin, numpy, the stdlib) is charged to whoever
    called it, split by the per-caller time pstats keeps and following
    non-repro callers upwards until a layer is reached; what nothing
    profiled called stays with the suite. Every profiled second is thus
    charged exactly once and the layers sum to the traced total.
    """
    stats = pstats.Stats(profile).stats
    shares: dict[tuple, dict[str, float]] = {}

    def shares_of(func: tuple) -> dict[str, float]:
        """Fractions (summing to 1) of ``func``'s self time per layer."""
        known = shares.get(func)
        if known is not None:
            return known
        layer = _layer_of(func)
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        shares[func] = {}  # a call cycle back to here contributes nothing
        result: dict[str, float] = {}
        for caller, (_cc, _nc, tt, _ct) in stats[func][4].items():
            if tt > 0 and caller in stats:
                for lay, frac in shares_of(caller).items():
                    result[lay] = result.get(lay, 0.0) + frac * tt
        weight = sum(result.values())
        shares[func] = ({lay: v / weight for lay, v in result.items()}
                        if weight > 0 else {SUITE_LAYER: 1.0})
        return shares[func]

    layers = {layer: {"host_self_s": 0.0, "calls": 0} for layer in LAYERS}
    calls_by_func: dict[tuple, int] = {}
    total_s, total_calls = 0.0, 0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        calls_by_func[func] = nc
        total_s += tt
        total_calls += nc
        own = _layer_of(func)
        if own is not None:
            layers[own]["calls"] += nc
        for layer, frac in shares_of(func).items():
            layers[layer]["host_self_s"] += tt * frac
    return {"layers": layers, "total_s": total_s, "total_calls": total_calls,
            "calls_by_func": calls_by_func}
