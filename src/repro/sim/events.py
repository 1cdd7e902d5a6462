"""One-shot simulation events and composite events.

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
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._value is not _PENDING

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


class _Composite(SimEvent):
    """Base for AllOf/AnyOf: an event derived from a set of child events."""

    __slots__ = ("children",)

    def __init__(self, engine, children, name=""):
        super().__init__(engine, name)
        self.children = tuple(children)
        for child in self.children:
            if not isinstance(child, SimEvent):
                raise TypeError(f"composite events take SimEvents, got {child!r}")
        self._arm()

    def _arm(self) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Triggers once every child has triggered; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_remaining",)

    def _arm(self) -> None:
        self._remaining = len(self.children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self.children:
            self._watch(child)

    def _watch(self, child: SimEvent) -> None:
        if child.triggered:
            self._on_child(child)
        else:
            child._waiters.append(_Callback(self._on_child, child))

    def _on_child(self, child: SimEvent) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self.children])


class AnyOf(_Composite):
    """Triggers with (index, value) of the first child to trigger."""

    __slots__ = ()

    def _arm(self) -> None:
        if not self.children:
            raise SimulationError("AnyOf requires at least one child event")
        for child in self.children:
            if child.triggered:
                self._on_child(child)
                return
        for child in self.children:
            child._waiters.append(_Callback(self._on_child, child))

    def _on_child(self, child: SimEvent) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._exc)
            return
        self.succeed((self.children.index(child), child.value))


class _Callback:
    """Adapter letting composite events sit in a child's waiter list.

    The engine resumes ordinary processes via ``_resume_with_outcome``; a
    composite instead needs a plain function call, which this shim provides
    through duck-typing (the engine calls ``_resume_with_outcome`` on us).
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg

    def _deliver(self, event: SimEvent) -> None:
        self.fn(self.arg)
