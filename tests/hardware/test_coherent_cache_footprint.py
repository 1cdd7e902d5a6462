"""Footprint gate of the Pthreads baseline's memory model.

The coherence model keeps line state as runs, so a block access costs
memory in the number of distinct-state stretches, not in the lines it
covers; and a timing-mode Pthreads backend keeps no DRAM model at all
(nothing reads its frames or versions).
"""

import tracemalloc

import numpy as np

from repro.hardware import CoherentCacheModel
from repro.memory.backing import BackingStore
from repro.runtime.pthreads import PthreadsBackend

BLOCK = 64 << 20


def test_streaming_blocks_hold_no_per_line_state():
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        model = CoherentCacheModel()
        for _ in range(3):
            for core in range(4):
                model.access(core, core * BLOCK, BLOCK, False)
                model.access(core, core * BLOCK, BLOCK, True)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.tracked_lines == 4 * BLOCK // 64
    assert current - base < 64 << 10
    assert peak - base < 1 << 20


def test_piecewise_writes_merge_into_one_run():
    # A block written in page-sized pieces (a row sweep) is one state: its
    # runs must merge as they are written, or the map grows per piece.
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        model = CoherentCacheModel()
        for core in range(2):
            for addr in range(core * BLOCK, core * BLOCK + (16 << 20), 4096):
                model.access(core, addr, 4096, True)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.stats.get("cold_misses") == 2 * (16 << 20) // 64
    assert current - base < 64 << 10


def test_timing_mode_backend_holds_no_dram_store():
    backend = PthreadsBackend(4, functional=False)
    assert not any(isinstance(value, BackingStore)
                   for value in vars(backend).values())


def test_functional_backend_reads_back_what_it_wrote():
    backend = PthreadsBackend(2)
    data = np.arange(10_000, dtype=np.uint8) ^ 0x5A
    addr = 4096 - 100    # spans three pages

    got = []

    def program():
        yield from backend.mem_write(1, addr, len(data), data)
        got.append((yield from backend.mem_read(0, addr, len(data))))

    backend.engine.process(program())
    backend.engine.run()
    assert np.array_equal(got[0], data)
