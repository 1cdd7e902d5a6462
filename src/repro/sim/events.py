"""One-shot simulation events.

A :class:`SimEvent` is the synchronization primitive the engine understands:
it triggers exactly once (with a value or an exception), and any process that
yields it resumes with that outcome. Triggering an already-triggered event is
an error -- it almost always indicates a protocol bug in a component.
"""

from __future__ import annotations

from repro.errors import SimulationError

_PENDING = object()


class SimEvent:
    """A one-shot event that processes can wait on.

    Events may trigger before or after a process yields them; both orders
    deliver the value exactly once.
    """

    __slots__ = ("engine", "name", "_value", "_exc", "_waiters")

    def __init__(self, engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._value = _PENDING
        self._exc = None
        self._waiters: list = []

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING or self._exc is not None

    @property
    def value(self):
        if self._value is _PENDING:
            raise SimulationError(f"event {self.name!r} has not triggered")
        return self._value

    def succeed(self, value=None) -> "SimEvent":
        # `triggered` is inlined here and below: these run once per protocol
        # handshake and the property descriptor showed up in profiles.
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._value = value
        self._flush()
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._flush()
        return self

    def _flush(self) -> None:
        waiters = self._waiters
        if waiters:
            self._waiters = []
            self.engine._resume_waiters(waiters, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"
