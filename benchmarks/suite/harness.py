"""Executing workloads: passes, the traced pass, cold subprocesses.

A *pass* is one execution of all of a workload's cells followed by
``gc.collect()``, both inside the timed region: garbage a run leaves behind
is a cost the user pays (README, known baseline fact (a)). Everything here
is single-process, single-thread and closed-loop -- the next cell starts
when the previous one returns.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from repro.core.params import SamhitaConfig
from repro.experiments.parallel import Executor
from repro.runtime import Runtime
from repro.runtime.results import RunResult

from benchmarks.suite.tracer import SpanRecorder, layer_ledger, maybe_span
from benchmarks.suite.workloads import WORKLOADS

_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py")

#: A cold subprocess runs import + build + one pass (~3 s); past this it is
#: hung, and the contract allows a whole run 180 s.
COLD_TIMEOUT_S = 120


def _canonical(value):
    """Stats as a structure whose ``repr`` is stable: dicts become sorted
    ``(str(key), value)`` lists (stats mix int and str keys)."""
    if isinstance(value, dict):
        return sorted((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def fingerprint(results: list[RunResult]) -> str:
    """Hash of every cell's simulated outcome (``stats`` + ``elapsed``)."""
    payload = repr([(r.elapsed, _canonical(r.stats)) for r in results])
    return hashlib.sha256(payload.encode()).hexdigest()


class _PassExecutor(Executor):
    """Serial, cache-less executor that runs each figure cell through the
    pass, so campaign cells are bracketed and recorded like any other."""

    def __init__(self, owner: "Pass"):
        super().__init__(workers=0, cache=None)
        self._owner = owner

    def map(self, specs):
        return [self._owner.cell(s.backend, s.cores, s.spawn_fn, s.params,
                                 functional=s.functional, config=s.config)
                for s in specs]


class Pass:
    """What a workload's ``run_pass`` talks to: runs cells, counts checks."""

    def __init__(self, spans: SpanRecorder | None = None):
        self.spans = spans
        self.results: list[RunResult] = []
        self.attempted = 0
        self.failures: list[str] = []

    def executor(self) -> Executor:
        return _PassExecutor(self)

    def cell(self, backend: str, cores: int, spawn_fn, params,
             functional: bool = False, config: SamhitaConfig | None = None,
             verify=None) -> RunResult:
        """Build, run and dispose one cell; ``verify(result)`` is its
        reference comparison (one check).

        The body of ``harness.run_workload_direct``, split here so build
        and run are separate spans.
        """
        label = f"{backend}-{cores}-{spawn_fn.__name__}"
        with maybe_span(self.spans, "cell", cell=label):
            with maybe_span(self.spans, "build"):
                if backend == "samhita":
                    cfg = config or SamhitaConfig()
                    if cfg.functional != functional:
                        cfg = cfg.with_(functional=functional)
                    rt = Runtime("samhita", n_threads=cores, config=cfg)
                else:
                    rt = Runtime("pthreads", n_threads=cores,
                                 functional=functional)
                spawn_fn(rt, params)
            try:
                with maybe_span(self.spans, "run"):
                    result = rt.run()
            finally:
                rt.backend.dispose()
            self.results.append(result)
            if verify is not None:
                self.check(label, lambda: verify(result))
        return result

    def check(self, name: str, fn) -> None:
        """One counted check; it fails by raising."""
        self.attempted += 1
        with maybe_span(self.spans, "verify", check=name):
            try:
                fn()
            except Exception:  # a failed check is a result, not a crash
                self.failures.append(f"{name}: {traceback.format_exc()}")


@dataclass
class PassRecord:
    wall_s: float              # cells + gc.collect()
    gc_s: float
    gc_objects: int
    results: list[RunResult]
    spans: SpanRecorder | None = None
    ledger: dict | None = None  # layer_ledger() of the traced cells


class Session:
    """One workload, built for one seed, executed pass after pass in this
    process. Counts every check of every pass, and holds pass 1's
    fingerprint: any later pass, traced pass or cold run that simulates
    something else fails the determinism check."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.built = self.workload.build(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_fingerprint: str | None = None

    def run_pass(self, traced: bool = False) -> PassRecord:
        spans = SpanRecorder() if traced else None
        profile = cProfile.Profile() if traced else None
        p = Pass(spans)
        t0 = time.perf_counter()
        with maybe_span(spans, "pass", workload=self.name):
            if profile is not None:
                profile.enable()
            try:
                self.workload.run_pass(self.built, p)
            except Exception:  # a cell that raises is a failed check
                p.attempted += 1
                p.failures.append(f"cell raised: {traceback.format_exc()}")
            finally:
                if profile is not None:
                    profile.disable()
            t1 = time.perf_counter()
            with maybe_span(spans, "gc"):
                gc_objects = gc.collect()
        t2 = time.perf_counter()
        self.attempted += p.attempted
        self.failures += p.failures
        self.check_fingerprint(fingerprint(p.results),
                               "traced pass" if traced else "pass")
        return PassRecord(
            wall_s=t2 - t0, gc_s=t2 - t1, gc_objects=gc_objects,
            results=p.results, spans=spans,
            ledger=layer_ledger(profile) if profile is not None else None)

    def check_fingerprint(self, value: str, what: str) -> None:
        if self.reference_fingerprint is None:
            self.reference_fingerprint = value
            return
        self.attempted += 1
        if value != self.reference_fingerprint:
            self.failures.append(
                f"{self.name}: {what} simulated {value[:12]}, "
                f"pass 1 simulated {self.reference_fingerprint[:12]}")

    def cold_launch(self, run_pass: bool = True) -> dict | None:
        """A fresh interpreter doing import -> build (-> one pass, whose
        checks and fingerprint count here). None when the launch itself
        failed (counted as one failed check)."""
        started = time.time()
        command = [sys.executable, _MAIN, "cold", "--workload", self.name,
                   "--seed", str(self.seed), "--started", repr(started)]
        if not run_pass:
            command.append("--setup-only")
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=COLD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            self.attempted += 1
            self.failures.append(
                f"{self.name}: cold launch failed: "
                + ("timeout" if proc is None else proc.stderr[-2000:]))
            return None
        cold = json.loads(proc.stdout.strip().splitlines()[-1])
        if run_pass:
            self.attempted += cold["attempted"]
            self.failures += cold["failures"]
            self.check_fingerprint(cold["fingerprint"], "cold run")
        return cold


def _peak_rss_mb() -> float:
    """This process's own high-water RSS. Not ``ru_maxrss``: across a
    vfork + exec that starts from the launching process's peak, so a cold
    child would report its parent's memory."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cold_main(name: str, seed: int, started: float, run_pass: bool) -> dict:
    """Body of the cold subprocess (imports are already paid by now)."""
    session = Session(name, seed)
    cold = {"setup_s": time.time() - started}
    if run_pass:
        record = session.run_pass()
        cold.update(
            first_pass_s=record.wall_s,
            peak_rss_mb=_peak_rss_mb(),
            fingerprint=session.reference_fingerprint,
            attempted=session.attempted,
            failures=session.failures)
    return cold
