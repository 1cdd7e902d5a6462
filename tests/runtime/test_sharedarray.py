"""Tests for the SharedArray helper on both backends."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.runtime import Runtime, SharedArray
from repro.runtime.plan import AccessPlan

BACKENDS = ["pthreads", "samhita"]


def run_single(backend, body, **rt_kwargs):
    rt = Runtime(backend, n_threads=1, **rt_kwargs)
    rt.spawn(body)
    return rt.run().value_of(0)


class TestSharedArray:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_write_read_roundtrip(self, backend):
        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=8, cols=256)
            values = np.arange(256, dtype=np.float64)
            yield from arr.write_rows(3, values)
            row = yield from arr.read_rows(3)
            return row.copy()

        out = run_single(backend, body)
        assert np.array_equal(out[0], np.arange(256, dtype=np.float64))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_row_block(self, backend):
        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=8, cols=16)
            block = np.arange(48, dtype=np.float64).reshape(3, 16)
            yield from arr.write_rows(2, block)
            back = yield from arr.read_rows(2, 3)
            return back.copy()

        out = run_single(backend, body)
        assert np.array_equal(out, np.arange(48, dtype=np.float64).reshape(3, 16))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fill_and_read_all(self, backend):
        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=4, cols=8)
            yield from arr.fill(2.5)
            whole = yield from arr.read_all()
            return float(whole.sum())

        assert run_single(backend, body) == pytest.approx(4 * 8 * 2.5)

    def test_timing_mode_returns_none(self):
        from repro.core import SamhitaConfig

        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=4, cols=8)
            yield from arr.write_rows(0, None, nrows=4)
            data = yield from arr.read_rows(0, 4)
            return data

        out = run_single("samhita", body, config=SamhitaConfig(functional=False))
        assert out is None

    def test_row_addressing(self):
        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=4, cols=256)
            assert arr.row_bytes == 2048
            out_of_range = r"block \[3, 5\) out of range \[0, 4\)"
            with pytest.raises(MemoryError_, match=out_of_range):
                yield from arr.read_rows(3, 2)
            with pytest.raises(MemoryError_, match=out_of_range):
                yield from arr.write_rows(3, np.ones((2, 256)))
            with pytest.raises(MemoryError_, match=out_of_range):
                yield from arr.write_rows(3, None, nrows=2)
            with pytest.raises(MemoryError_, match=r"block \[-1, 0\)"):
                yield from arr.read_rows(-1)
            # In range, row r starts r * row_bytes past the base.
            yield from arr.write_rows(2, np.full((2, 256), 3.0))
            back = yield from arr.read_rows(3)
            return float(back.sum())

        for backend in BACKENDS:
            assert run_single(backend, body) == pytest.approx(256 * 3.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_declared_nrows_must_match_the_block(self, backend):
        def body(ctx):
            arr = yield from SharedArray.allocate(ctx, rows=4, cols=8)
            with pytest.raises(MemoryError_, match="3 rows, declared 1"):
                yield from arr.write_rows(0, np.ones((3, 8)), nrows=1)
            plan = AccessPlan()
            with pytest.raises(MemoryError_, match="2 rows, declared 1"):
                arr.write_rows_op(plan, 0, np.full((2, 8), 7.0), nrows=1)
            assert len(plan) == 0
            arr.write_rows_op(plan, 0, lambda results: np.ones((2, 8)),
                              nrows=1)
            with pytest.raises(MemoryError_, match="2 rows, declared 1"):
                yield from ctx.submit(plan)
            # Agreeing counts write as before.
            yield from arr.write_rows(0, np.full((2, 8), 5.0), nrows=2)
            back = yield from arr.read_rows(0, 2)
            return float(back.sum())

        assert run_single(backend, body) == pytest.approx(2 * 8 * 5.0)

    def test_view_shares_storage_between_threads(self):
        rt = Runtime("pthreads", n_threads=2)
        bar = rt.create_barrier()
        shared = {}

        def body(ctx):
            if ctx.tid == 0:
                shared["arr"] = yield from SharedArray.allocate(ctx, 2, 8)
                yield from shared["arr"].write_rows(
                    0, np.full(8, 7.0, dtype=np.float64))
            yield from ctx.barrier(bar)
            mine = shared["arr"].view(ctx)
            row = yield from mine.read_rows(0)
            return float(row.sum())

        rt.spawn_all(body)
        result = rt.run()
        assert result.value_of(1) == pytest.approx(56.0)

    def test_bad_dimensions_rejected(self):
        def body(ctx):
            with pytest.raises(MemoryError_):
                SharedArray(ctx, 0, rows=0, cols=4)
            yield from ctx.compute(0)
            return True

        rt = Runtime("pthreads", n_threads=1)
        rt.spawn(body)
        assert rt.run().value_of(0)
