"""SCL -- the Samhita Communication Layer.

The paper abstracts all communication behind SCL, which "presents Samhita
with a direct memory access communication model instead of a serial
protocol", mapping naturally onto InfiniBand RDMA (and prospectively onto
SCIF). We reproduce that interface: one-sided ``rdma_get``/``rdma_put`` for
bulk data and small ``send``/``request_response`` control messages, all
priced through the fabric.

Reliability: every SCL operation funnels through
``Fabric.transfer_inline``, which is also the fault-injection boundary
(:mod:`repro.faults`). When a :class:`FaultPlan` is armed, the fabric runs
a reliable-transport retry loop under each transfer -- timeout, capped
exponential backoff, retransmit -- so SCL callers see at-least-once
delivery with unchanged data, exactly like verbs RC. With faults disabled
these methods are byte-for-byte the clean hot path.
"""

from __future__ import annotations

from repro.interconnect.routing import _CATEGORY_KEYS, Fabric, _category_keys
from repro.sim.stats import StatSet

#: Size of an SCL control/work-request message on the wire.
CONTROL_BYTES = 64


class SCL:
    """One-sided communication endpoint factory over a fabric."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.stats = StatSet("scl")
        self._counters = self.stats.counters

    def rdma_get(self, local: str, remote: str, nbytes: int, category: str = "page"):
        """Generator: one-sided read of ``nbytes`` from remote memory.

        Costed as a control round-trip carrying the work request followed by
        the data flowing back -- the standard RDMA-read shape.
        """
        self._counters["rdma_get"] += 1
        t = self.fabric.transfer_inline(local, remote, CONTROL_BYTES,
                                        category="control")
        if t is not None:
            yield from t
        t = self.fabric.transfer_inline(remote, local, nbytes,
                                        category=category)
        if t is not None:
            yield from t

    def rdma_put(self, local: str, remote: str, nbytes: int, category: str = "diff",
                 lead: float = 0.0, tail: float = 0.0):
        """One-sided write of ``nbytes`` into remote memory.

        Plain function over :meth:`Fabric.transfer_inline`: returns ``None``
        when the transfer completed inline (clock already advanced), else a
        generator the caller must ``yield from`` -- skipping a wrapper
        generator layer on this very hot path.

        ``lead``/``tail`` fuse an adjacent fixed local delay into the
        transfer's suspension (see :meth:`Fabric.transfer_inline`).
        """
        self._counters["rdma_put"] += 1
        return self.fabric.transfer_inline(local, remote, nbytes,
                                           category=category,
                                           lead=lead, tail=tail)

    def send(self, src: str, dst: str, nbytes: int = CONTROL_BYTES, category: str = "control",
             timeout_floor: float = 0.0):
        """Small eager message (work request / notification); returns
        ``None`` or a generator -- see :meth:`rdma_put`.

        ``timeout_floor`` sizes the sender's retransmit timer for requests
        whose legitimate reply exceeds the single-message law (bulk fetch
        requests awaiting alpha + beta*lines replies); ignored on the clean
        fault-free path, which has no retransmit timer.
        """
        self._counters["send"] += 1
        return self.fabric.transfer_inline(src, dst, nbytes, category=category,
                                           timeout_floor=timeout_floor)

    def flight(self, src: str, dst: str, nbytes: int = CONTROL_BYTES,
               category: str = "control", op: str = "send") -> float | None:
        """A :meth:`send` (or, with ``op="rdma_put"``, a lead-less
        :meth:`rdma_put`) that is a pure delay: charged, and its absolute
        arrival instant returned *without moving the clock*, for the
        receiver to handle as an engine callback (``Resource.serve``).
        ``None``, with nothing charged, for anything else (local delivery,
        a contended bottleneck, an armed injector, a route/size
        ``Fabric.transfer_inline`` has not priced yet): send it the
        ordinary way. Counters, traffic and arrival are that send's."""
        fabric = self.fabric
        delay = fabric._flights.get((src, dst, nbytes))
        if delay is None:
            return None
        try:
            msg_key, bytes_key = _CATEGORY_KEYS[category]
        except KeyError:
            msg_key, bytes_key = _category_keys(category)
        counters = fabric.stats.counters
        counters[msg_key] += 1
        counters["messages"] += 1
        counters["bytes"] += nbytes
        counters[bytes_key] += nbytes
        fabric.traffic[(src, dst)] += nbytes
        self._counters[op] += 1
        return fabric.engine.now + delay

    def request_response(self, src: str, dst: str,
                         request_bytes: int = CONTROL_BYTES,
                         response_bytes: int = CONTROL_BYTES,
                         category: str = "rpc"):
        """Generator: synchronous RPC-shaped exchange."""
        self._counters["rpc"] += 1
        t = self.fabric.transfer_inline(src, dst, request_bytes,
                                        category=category)
        if t is not None:
            yield from t
        t = self.fabric.transfer_inline(dst, src, response_bytes,
                                        category=category)
        if t is not None:
            yield from t
