"""Property tests: the batched plan path is equivalent to per-access ops.

An :class:`AccessPlan` is a *description* of accesses, never a change in
their meaning: for any random operation sequence, submitting one plan must
leave the thread in exactly the state that issuing each operation
individually would -- same cache contents and dirty ranges, same pending
diffs, same per-thread clock (bit-for-bit), same read results. Checked in
both functional mode (real data plane) and timing mode.

The second half drives plans long enough to reach the executor's bulk hit
path (``SamhitaBackend.run_plan`` past ``HIT_STREAK`` / ``MIN_RUN``,
DESIGN.md S17): repeated sweeps over rows that straddle pages, compared
with ``ThreadCtx._submit_compat`` down to every page's LRU tick.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.params import SamhitaConfig
from repro.memory.cache import WIDE, SoftwareCache
from repro.runtime import Runtime
from repro.runtime.plan import AccessPlan
from repro.runtime.samhita import MIN_RUN

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


# ---------------------------------------------------------------------------
# long plans: the bulk hit path against the per-op reference
# ---------------------------------------------------------------------------

PAGE = 4096
#: Rows live in the first SWEEP_PAGES pages of the allocation; "far"
#: accesses (the misses in the middle of a plan) land beyond them.
SWEEP_PAGES = 12
FAR_PAGES = 24
BIG_REGION = (SWEEP_PAGES + FAR_PAGES) * PAGE

sweep_specs = st.fixed_dictionaries({
    # 2 KB rows at a 64-byte misalignment are the Figure 2 kernel; the
    # others straddle one or two page boundaries per row.
    "row_bytes": st.sampled_from([1000, 2048, 3000, 5000, 9000]),
    "misalign": st.integers(0, PAGE - 1),
    "rows": st.lists(st.integers(0, 3), min_size=2, max_size=4),
    # Extra ops spliced in after a sweep: (sweep, kind, far page, nbytes).
    "far": st.lists(st.tuples(st.integers(0, 30),
                              st.sampled_from(["read", "write"]),
                              st.integers(0, FAR_PAGES - 3),
                              st.integers(1, 2 * PAGE)),
                    max_size=3),
    # Pages of the sweep area flagged "prefetched" before the plan runs.
    "prefetched": st.sets(st.integers(0, SWEEP_PAGES - 1), max_size=5),
    # 16 pages: the sweep area fits, a far access or two evicts.
    "capacity": st.sampled_from([16, 20, 1 << 18]),
})


def _sweep_plan(base, spec, min_ops=200, plan=None):
    """Repeated read / write / compute sweeps over the spec's rows, at
    least ``min_ops`` operations, with the far ops spliced in (appended to
    ``plan`` if one is given)."""
    plan = AccessPlan() if plan is None else plan
    row_bytes = spec["row_bytes"]
    sweep = 0
    while len(plan) < min_ops:
        for row in spec["rows"]:
            addr = base + spec["misalign"] + row * row_bytes
            plan.read(addr, row_bytes)
            plan.write(addr, row_bytes, None)
            plan.compute(row_bytes // 8)
        for at, kind, page, nbytes in spec["far"]:
            if at == sweep:
                addr = base + (SWEEP_PAGES + page) * PAGE + 17
                if kind == "read":
                    plan.read(addr, nbytes)
                else:
                    plan.write(addr, nbytes, None)
        sweep += 1
    return plan


def _cache_state(cache):
    """Everything a later access, eviction or flush could observe."""
    pages = {}
    for page, entry in cache.entries.items():
        pages[page] = (entry.last_access, entry.prefetched,
                       tuple(cache.dirty_ranges(page)),
                       page in cache._spill)
    k = min(4, cache.resident_pages)
    return {
        "pages": pages,
        "tick": cache._tick,
        "epoch_written": sorted(cache.epoch_written),
        "counters": dict(cache.stats.counters),
        "victims": cache.choose_victims(k),
    }


def _run_long(spec, mode, times=1, hold_lock=False, build=_sweep_plan,
              functional=False, grow=None):
    """Run a long plan through ``ctx.submit`` (mode "plan") or the per-op
    reference ``ctx._submit_compat`` (mode "compat"), ``times`` times,
    calling ``grow(plan, base)`` between submissions if given; returns
    ``(state, bulk_runs)``."""
    rt = Runtime("samhita", n_threads=1, config=SamhitaConfig(
        functional=functional, cache_capacity_pages=spec["capacity"]))
    lock = rt.create_lock()
    system = rt.backend.system
    captured = {}

    def program(ctx):
        base = yield from ctx.malloc(BIG_REGION)
        cache = system.cache_of(0)
        # Warm the sweep area so the plan starts on hits, then flag some of
        # its (clean) pages as prefetched.
        yield from ctx.read(base, SWEEP_PAGES * PAGE)
        entries = cache.entries
        for page in sorted(spec["prefetched"]):
            cache.install(base // PAGE + page,
                          entries[base // PAGE + page].data, prefetched=True)
        plan = build(base, spec)
        submit = ctx.submit if mode == "plan" else ctx._submit_compat
        if hold_lock:
            yield from ctx.lock(lock)
        results = []
        for k in range(times):
            if k and grow is not None:
                grow(plan, base)
            results.append((yield from submit(plan)))
        if hold_lock:
            yield from ctx.unlock(lock)
        captured["results"] = [[None if r is None else bytes(r) for r in rs]
                               for rs in results]
        captured["cache"] = _cache_state(cache)
        captured["now"] = ctx.now
        return 0

    bulk_runs = []
    apply_hit_run = SoftwareCache.apply_hit_run

    def counting(self, *args):
        bulk_runs.append(args[0])
        return apply_hit_run(self, *args)

    rt.spawn(program)
    SoftwareCache.apply_hit_run = counting
    try:
        result = rt.run()
    finally:
        SoftwareCache.apply_hit_run = apply_hit_run
    cache = system.cache_of(0)
    diffs = []
    for page in cache.dirty_page_ids():
        diff = cache.take_diff(page)
        diffs.append((page, diff.payload_bytes, diff.starts.tolist(),
                      diff.sizes.tolist(),
                      None if diff.payload is None else bytes(diff.payload)))
    clock = result.threads[0].clock
    state = {
        **captured,
        "diffs": diffs,
        "clock": (clock.compute, clock.sync, dict(clock.detail)),
        "regions": dict(system.region_tracker_of(0).stats.counters),
        "elapsed": result.elapsed,
    }
    return state, bulk_runs


@given(sweep_specs)
@settings(max_examples=150, deadline=None)
def test_long_plan_matches_per_op_reference(spec):
    plan_state, bulk_runs = _run_long(spec, "plan")
    compat_state, none = _run_long(spec, "compat")
    assert plan_state == compat_state
    assert not none
    if not spec["far"] or spec["capacity"] > SWEEP_PAGES + FAR_PAGES:
        # (Far accesses into a full cache may evict the sweep's own dirty
        # pages and keep it faulting for the whole plan.)
        assert bulk_runs, "the bulk path must actually engage"


@given(sweep_specs)
@settings(max_examples=50, deadline=None)
def test_plan_submitted_twice_matches_two_per_op_passes(spec):
    """The vectors cached on a plan by its first execution serve the second
    one, which starts from a different cache state."""
    plan_state, bulk_runs = _run_long({**spec, "far": []}, "plan", times=2)
    compat_state, _ = _run_long({**spec, "far": []}, "compat", times=2)
    assert plan_state == compat_state
    assert len(bulk_runs) >= 2


@given(sweep_specs)
@settings(max_examples=50, deadline=None)
def test_plan_grown_after_a_submission_matches_per_op_passes(spec):
    """Sweeps appended after a submission reach the bulk path on the next
    one: the vectors cached on the plan are derived again for its new
    length, not reused (a stale set would end every run at the old end)."""
    spec = {**spec, "far": []}

    def grow(plan, base):
        _sweep_plan(base, spec, min_ops=len(plan) + 100, plan=plan)

    plan_state, bulk_runs = _run_long(spec, "plan", times=2, grow=grow)
    compat_state, _ = _run_long(spec, "compat", times=2, grow=grow)
    assert plan_state == compat_state
    assert len(bulk_runs) == 2 and bulk_runs[1] > bulk_runs[0]


_FIG2 = {"row_bytes": 2048, "misalign": 64, "rows": [0, 1, 2, 3], "far": [],
         "prefetched": {0, 1, 5}, "capacity": 16}


def test_miss_mid_plan_cuts_the_run_and_resumes_it():
    """An otherwise all-hit plan with one miss in the middle: a bulk run
    up to the miss, the fault (with an eviction: the cache is full), a
    second bulk run after it."""
    spec = {**_FIG2, "far": [(9, "write", 3, 6000)]}
    plan_state, bulk_runs = _run_long(spec, "plan")
    compat_state, _ = _run_long(spec, "compat")
    assert plan_state == compat_state
    assert len(bulk_runs) == 2
    assert plan_state["cache"]["counters"]["evictions"] > 0


def test_plan_inside_a_consistency_region_stays_per_op():
    """Consistency-region stores are logged one by one: no bulk runs."""
    plan_state, bulk_runs = _run_long(_FIG2, "plan", hold_lock=True)
    compat_state, _ = _run_long(_FIG2, "compat", hold_lock=True)
    assert plan_state == compat_state
    assert not bulk_runs
    assert plan_state["regions"]["cr_stores"] > 0


def test_wide_op_inside_a_run_takes_the_per_op_path():
    """An op spanning >= WIDE pages ends a run (``_touch`` is column
    operations for it already); the hits after it form the next run."""
    def build(base, spec):
        plan = _sweep_plan(base, spec, min_ops=120)
        plan.write(base + 100, WIDE * PAGE, None)   # WIDE + 1 pages
        for _ in range(4):
            plan.read(base + 8, 0)                  # empty spans cut too
            for row in spec["rows"] * 3:
                plan.read(base + spec["misalign"] + row * 2048, 2048)
                plan.compute(100)
        return plan

    plan_state, bulk_runs = _run_long(_FIG2, "plan", build=build)
    compat_state, _ = _run_long(_FIG2, "compat", build=build)
    assert plan_state == compat_state
    # Sweeps, then the wide write alone, then the four read blocks.
    assert len(bulk_runs) == 5
    assert sum(bulk_runs) < plan_state["cache"]["counters"]["page_touches"]


def test_multi_page_write_over_a_spilled_page_inside_a_run():
    """The page in the middle of a multi-page write ends up one whole
    extent even if it held disjoint ranges (spilled) until then -- unlike
    a first or last page, whose ranges merge where they are."""
    def build(base, spec):
        plan = AccessPlan()
        for _ in range(8):
            plan.read(base + 3 * PAGE, 64)
        for _ in range(10):
            plan.write(base + PAGE, 100, None)
            plan.write(base + PAGE + 200, 100, None)        # page 1 spills
            plan.write(base + 50, 2 * PAGE + 100, None)     # pages 0, 1, 2
            plan.write(base + 2 * PAGE + 3000, 10, None)    # page 2 spills
        return plan

    plan_state, bulk_runs = _run_long(_FIG2, "plan", build=build)
    compat_state, _ = _run_long(_FIG2, "compat", build=build)
    assert plan_state == compat_state
    assert len(bulk_runs) == 1
    dirty = [(ranges, spilled) for _, _, ranges, spilled
             in plan_state["cache"]["pages"].values() if ranges]
    assert dirty == [(((50, PAGE),), False), (((0, PAGE),), False),
                     (((0, 150), (3000, 3010)), True)]


def test_functional_mode_never_takes_the_bulk_path():
    def build(base, spec):
        plan = AccessPlan()
        for k in range(80):
            addr = base + 64 + (k % 4) * 2048
            r = plan.read(addr, 2048)
            plan.write(addr, 2048, lambda results, _r=r: results[_r] + 1)
            plan.compute(256)
        return plan

    plan_state, bulk_runs = _run_long(_FIG2, "plan", build=build,
                                      functional=True)
    compat_state, _ = _run_long(_FIG2, "compat", build=build,
                                functional=True)
    assert plan_state == compat_state
    assert not bulk_runs
    assert plan_state["results"][0][-1] is not None


def test_timing_mode_hit_stall_is_what_write_resident_returns():
    """The bulk path charges a timing-mode hit no simulated time because
    ``SamhitaSystem.write_resident`` returns no stall for one (timing mode
    creates no twins: DESIGN.md, known model gaps). A model that starts
    charging there must fail here first, then teach the bulk path."""
    rt = Runtime("samhita", n_threads=1,
                 config=SamhitaConfig(functional=False))
    system = rt.backend.system
    stalls = []

    def program(ctx):
        base = yield from ctx.malloc(4 * PAGE)
        yield from ctx.read(base, 4 * PAGE)
        # First write to a clean page (where functional mode twins), a
        # rewrite, a page-straddling write.
        for addr, nbytes in ((base, 64), (base, 64), (base + PAGE - 8, 4000)):
            stalls.append(system.write_resident(0, addr, nbytes, None))
        before = (ctx.clock.compute, ctx.now)
        plan = AccessPlan()
        for _ in range(MIN_RUN):
            plan.write(base + 2 * PAGE, 128, None)
        yield from ctx.submit(plan)
        assert (ctx.clock.compute, ctx.now) == before
        return 0

    rt.spawn(program)
    rt.run()
    assert stalls == [0.0, 0.0, 0.0]

