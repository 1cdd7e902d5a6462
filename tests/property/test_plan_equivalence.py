"""Property tests: the batched plan path is equivalent to per-access ops.

An :class:`AccessPlan` is a *description* of accesses, never a change in
their meaning: for any random operation sequence, submitting one plan must
leave the thread in exactly the state that issuing each operation
individually would -- same cache contents and dirty ranges, same pending
diffs, same per-thread clock (bit-for-bit), same read results. Checked in
both functional mode (real data plane) and timing mode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.params import SamhitaConfig
from repro.runtime import Runtime
from repro.runtime.plan import AccessPlan

#: Spans four pages of the default 4 KiB layout, so sequences hit page
#: boundaries, multi-page accesses, and partial tail pages.
REGION = 3 * 4096 + 512

operations = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, REGION - 1),
                  st.integers(1, 600)),
        st.tuples(st.just("write"), st.integers(0, REGION - 1),
                  st.integers(1, 600), st.integers(0, 255)),
        st.tuples(st.just("compute"), st.integers(1, 2000)),
    ),
    min_size=1, max_size=24,
)


def _payload(op, functional):
    """Deterministic write bytes for a ("write", off, n, fill) op."""
    if not functional:
        return None
    _, _, nbytes, fill = op
    return ((np.arange(nbytes) + fill) % 256).astype(np.uint8)


def _clamp(off, nbytes):
    return off, min(nbytes, REGION - off)


def _run(ops, functional, use_plan, config=None):
    """Execute the op sequence one way; return all observable state.

    ``config`` overrides the runtime configuration (it must keep
    ``functional`` consistent with the flag); the faults-off equivalence
    test reuses this to compare an armed-but-silent injector build against
    the injector-absent one.
    """
    rt = Runtime("samhita", n_threads=1,
                 config=config or SamhitaConfig(functional=functional))
    captured = {}

    def program(ctx):
        base = yield from ctx.malloc(REGION)
        if use_plan:
            plan = AccessPlan()
            for op in ops:
                if op[0] == "read":
                    off, n = _clamp(op[1], op[2])
                    plan.read(base + off, n)
                elif op[0] == "write":
                    off, n = _clamp(op[1], op[2])
                    plan.write(base + off, n, _payload(op, functional)[:n]
                               if functional else None)
                else:
                    plan.compute(op[1])
            results = yield from ctx.submit(plan)
        else:
            results = []
            for op in ops:
                if op[0] == "read":
                    off, n = _clamp(op[1], op[2])
                    results.append((yield from ctx.read(base + off, n)))
                elif op[0] == "write":
                    off, n = _clamp(op[1], op[2])
                    data = _payload(op, functional)
                    yield from ctx.write(base + off, n,
                                         data[:n] if functional else None)
                else:
                    yield from ctx.compute(op[1])
        captured["results"] = [
            None if r is None else bytes(r) for r in results]
        captured["base"] = base
        return 0

    rt.spawn(program)
    result = rt.run()

    backend = rt.backend
    assert backend.plans_supported, "plan path must actually engage"
    cache = backend.system.cache_of(0)
    dirty_pages = sorted(p for p, e in cache.entries.items() if e.is_dirty)
    diffs = []
    for page in dirty_pages:
        diff = cache.take_diff(page)
        spans = [(off, len(data) if data is not None else size,
                  None if data is None else bytes(data))
                 for (off, data), size in zip(diff.spans, diff.sizes.tolist())]
        diffs.append((diff.page, diff.payload_bytes, spans))
    clock = result.threads[0].clock
    return {
        "results": captured["results"],
        "resident": sorted(cache.entries),
        "diffs": diffs,
        "clock_compute": clock.compute,
        "clock_sync": clock.sync,
        "clock_detail": dict(clock.detail),
        "cache_counters": dict(cache.stats.counters),
        "elapsed": result.elapsed,
    }


@given(operations)
@settings(max_examples=50, deadline=None)
def test_plan_equivalent_functional(ops):
    plan_state = _run(ops, functional=True, use_plan=True)
    legacy_state = _run(ops, functional=True, use_plan=False)
    assert plan_state == legacy_state


@given(operations)
@settings(max_examples=50, deadline=None)
def test_plan_equivalent_timing(ops):
    plan_state = _run(ops, functional=False, use_plan=True)
    legacy_state = _run(ops, functional=False, use_plan=False)
    assert plan_state == legacy_state
