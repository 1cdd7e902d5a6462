"""Counter/accumulator bundle used by every simulated component.

A :class:`StatSet` is a named bag of integer counters and float accumulators.
Components expose theirs (cache misses, bytes over a link, manager requests),
and the experiment harness merges them into per-run reports.
"""

from __future__ import annotations

from collections import defaultdict


class StatSet:
    """Named counters (ints) and accumulators (floats) with merge support."""

    def __init__(self, name: str = ""):
        self.name = name
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.accumulators: defaultdict[str, float] = defaultdict(float)

    def incr(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def add(self, key: str, amount: float) -> None:
        self.accumulators[key] += amount

    def get(self, key: str) -> float:
        if key in self.counters:
            return self.counters[key]
        return self.accumulators.get(key, 0.0)

    def merge(self, other: "StatSet") -> "StatSet":
        for key, val in other.counters.items():
            self.counters[key] += val
        for key, val in other.accumulators.items():
            self.accumulators[key] += val
        return self

    def snapshot(self) -> dict:
        out: dict = dict(self.counters)
        out.update(self.accumulators)
        return out

    def reset(self) -> None:
        self.counters.clear()
        self.accumulators.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatSet {self.name} {self.snapshot()!r}>"
