"""Parallel campaign runner: fan sweep cells over a process pool.

Every figure is a sweep over perfectly independent (backend, cores,
workload, config) cells -- each cell builds its own :class:`Runtime` and
event engine, shares no state with its neighbours, and is deterministic.
That independence is exploited twice:

* a :class:`PoolExecutor` fans cells over a ``multiprocessing`` pool and
  collects results in submission order, so figure output is byte-identical
  to a serial run regardless of worker scheduling;
* a content-hash :class:`ResultCache` (keyed on the workload parameters and
  the full :class:`SamhitaConfig`) makes the duplicate cells inside one
  run free (every normalized figure re-runs its 1-thread Pthreads
  baseline). It lives in memory only: the key does not hash the code, so
  a cache kept across runs would serve an older model's cells.

The executor is installed process-globally (:func:`activate`); the harness
routes ``run_workload``/``sweep`` through it when one is active, so the
figure functions themselves stay untouched.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.params import SamhitaConfig
from repro.runtime.results import RunResult


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell, fully described and picklable.

    ``spawn_fn`` must be a module-level callable (the ``spawn_*`` kernel
    entry points are), so it pickles by reference into pool workers.
    """

    backend: str
    cores: int
    spawn_fn: Callable
    params: object
    functional: bool = False
    config: SamhitaConfig | None = None


def cell_key(spec: CellSpec) -> str:
    """Content hash identifying a cell's complete input.

    Workload parameter dataclasses and :class:`SamhitaConfig` are frozen
    value types whose ``repr`` lists every field deterministically, so the
    repr is a faithful canonical encoding. A ``None`` config hashes
    differently from an explicit default config -- conservative, never
    wrong.
    """
    payload = "\n".join((
        spec.backend,
        str(spec.cores),
        f"{spec.spawn_fn.__module__}.{spec.spawn_fn.__qualname__}",
        repr(spec.params),
        str(spec.functional),
        repr(spec.config),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """In-memory, content-addressed store of :class:`RunResult` objects,
    for the length of one run."""

    def __init__(self):
        self._mem: dict[str, RunResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> RunResult | None:
        result = self._mem.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        self._mem[key] = result

    def __len__(self) -> int:
        return len(self._mem)


def _run_cell(spec: CellSpec) -> RunResult:
    """Execute one cell directly (pool worker entry point)."""
    # Imported lazily: the harness imports this module for get_active().
    from repro.experiments.harness import run_workload_direct

    return run_workload_direct(spec.backend, spec.cores, spec.spawn_fn,
                               spec.params, functional=spec.functional,
                               config=spec.config)


class Executor:
    """Runs cells with caching; ``workers > 1`` adds a process pool.

    Results always come back in submission order (``pool.map`` preserves
    it), and duplicate specs inside one batch are computed once.
    """

    def __init__(self, workers: int = 0, cache: ResultCache | None = None):
        self.workers = max(0, int(workers))
        self.cache = cache
        self._pool = None

    # -- pool lifecycle --------------------------------------------------
    def _get_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -------------------------------------------------------
    def run(self, spec: CellSpec) -> RunResult:
        return self.map([spec])[0]

    def map(self, specs: Sequence[CellSpec]) -> list[RunResult]:
        out: list[RunResult | None] = [None] * len(specs)
        #: key -> (spec, [indices]) for cells that must actually run.
        pending: dict[str, tuple[CellSpec, list[int]]] = {}
        for i, spec in enumerate(specs):
            key = cell_key(spec)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                out[i] = hit
                continue
            entry = pending.get(key)
            if entry is None:
                pending[key] = (spec, [i])
            else:
                entry[1].append(i)
        if pending:
            todo = [spec for spec, _ in pending.values()]
            if self.workers > 1 and len(todo) > 1:
                computed = self._get_pool().map(_run_cell, todo)
            else:
                computed = [_run_cell(spec) for spec in todo]
            for (key, (_, indices)), result in zip(pending.items(), computed):
                if self.cache is not None:
                    self.cache.put(key, result)
                for i in indices:
                    out[i] = result
        return out  # type: ignore[return-value]


#: The process-global executor the harness consults. ``None`` preserves the
#: plain serial, uncached behaviour exactly.
_ACTIVE: Executor | None = None


def get_active() -> Executor | None:
    return _ACTIVE


@contextmanager
def activate(executor: Executor | None):
    """Install ``executor`` for the duration of the block.

    While active, ``harness.run_workload`` and ``harness.sweep`` route
    through it, so existing figure code gains workers + caching unchanged.
    Pool workers never see an active executor (the global is not inherited
    usefully there), so cells never recursively re-enter the pool.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = executor
    try:
        yield executor
    finally:
        _ACTIVE = previous
        if executor is not None and executor is not previous:
            executor.close()


def make_executor(workers: int = 0) -> Executor:
    """Executor factory used by the CLI: always caches, pools if asked."""
    return Executor(workers=workers, cache=ResultCache())
