"""SharedArray: a typed 2-D view over the shared global address space.

Kernels in the paper work on "S rows of doubles, each of length B"; this
helper handles the dtype/byte conversions and row addressing so kernels stay
readable. All accessors are generators (they may fault pages in).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryError_
from repro.runtime.context import ThreadCtx
from repro.runtime.plan import AccessPlan


class SharedArray:
    """Row-major (rows x cols) array of ``dtype`` in shared memory."""

    def __init__(self, ctx: ThreadCtx, addr: int, rows: int, cols: int,
                 dtype=np.float64):
        if rows < 1 or cols < 1:
            raise MemoryError_("SharedArray needs positive dimensions")
        self.ctx = ctx
        self.addr = addr
        self.rows = rows
        self.cols = cols
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.cols * self.dtype.itemsize

    @classmethod
    def allocate(cls, ctx: ThreadCtx, rows: int, cols: int, dtype=np.float64):
        """Generator: allocate and wrap (size decides allocator strategy)."""
        dtype = np.dtype(dtype)
        addr = yield from ctx.malloc(rows * cols * dtype.itemsize)
        return cls(ctx, addr, rows, cols, dtype)

    def view(self, other_ctx: ThreadCtx) -> "SharedArray":
        """The same array as seen by a different thread."""
        return SharedArray(other_ctx, self.addr, self.rows, self.cols, self.dtype)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes

    # ------------------------------------------------------------------
    # block accessors (generators)
    # ------------------------------------------------------------------
    def read_rows(self, row0: int, nrows: int = 1):
        """Generator: read ``nrows`` contiguous rows.

        Returns an ``(nrows, cols)`` ndarray in functional mode, else None.
        """
        if nrows < 1 or row0 < 0 or row0 + nrows > self.rows:
            self._check_block(row0, nrows)
        raw = yield from self.ctx.read(self.addr + row0 * self.row_bytes,
                                       nrows * self.row_bytes)
        if raw is None:
            return None
        return np.ascontiguousarray(raw).view(self.dtype).reshape(nrows, self.cols)

    def _encode(self, values: np.ndarray,
                nrows: int | None = None) -> tuple[int, np.ndarray]:
        """Validate a row block (of ``nrows`` rows, when given) and flatten
        it to raw bytes."""
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.ndim == 1:
            values = values.reshape(1, -1)
        if values.shape[1] != self.cols:
            raise MemoryError_("row length mismatch")
        got = values.shape[0]
        if nrows is not None and got != nrows:
            raise MemoryError_(f"block of {got} rows, declared {nrows}")
        return got, values.reshape(-1).view(np.uint8)

    def decode(self, raw: np.ndarray, nrows: int) -> np.ndarray:
        """View raw read bytes as an ``(nrows, cols)`` block of ``dtype``."""
        return np.ascontiguousarray(raw).view(self.dtype).reshape(nrows, self.cols)

    def write_rows(self, row0: int, values: np.ndarray | None, nrows: int | None = None):
        """Generator: write contiguous rows (values=None in timing mode)."""
        if values is not None:
            nrows, raw = self._encode(values, nrows)
        else:
            if nrows is None:
                raise MemoryError_("timing-mode write needs an explicit nrows")
            raw = None
        if nrows < 1 or row0 < 0 or row0 + nrows > self.rows:
            self._check_block(row0, nrows)
        yield from self.ctx.write(self.addr + row0 * self.row_bytes,
                                  nrows * self.row_bytes, raw)

    # ------------------------------------------------------------------
    # batched access-plan builders
    # ------------------------------------------------------------------
    def read_rows_op(self, plan: AccessPlan, row0: int, nrows: int = 1) -> int:
        """Append a block read to ``plan``; returns its results index.
        Decode the raw result with :meth:`decode`."""
        if nrows < 1 or row0 < 0 or row0 + nrows > self.rows:
            self._check_block(row0, nrows)
        return plan.read(self.addr + row0 * self.row_bytes,
                         nrows * self.row_bytes)

    def write_rows_op(self, plan: AccessPlan, row0: int, values=None,
                      nrows: int | None = None) -> None:
        """Append a block write to ``plan``.

        ``values`` may be an ndarray, ``None`` (timing mode, give ``nrows``)
        or a callable over the plan's read results returning the block --
        evaluated at execution time, i.e. after every earlier plan op.
        """
        if callable(values):
            if nrows is None:
                raise MemoryError_("callable plan write needs an explicit nrows")

            def payload(results, _fn=values, _nrows=nrows):
                return self._encode(_fn(results), _nrows)[1]
        elif values is not None:
            nrows, payload = self._encode(values, nrows)
        else:
            if nrows is None:
                raise MemoryError_("timing-mode write needs an explicit nrows")
            payload = None
        if nrows < 1 or row0 < 0 or row0 + nrows > self.rows:
            self._check_block(row0, nrows)
        plan.write(self.addr + row0 * self.row_bytes, nrows * self.row_bytes,
                   payload)

    def read_all(self):
        """Generator: the whole array (use sparingly -- it faults everything)."""
        return (yield from self.read_rows(0, self.rows))

    def fill(self, value: float):
        """Generator: set every element (functional) / touch all rows (timing)."""
        if self.ctx.functional:
            block = np.full((self.rows, self.cols), value, dtype=self.dtype)
            yield from self.write_rows(0, block)
        else:
            yield from self.write_rows(0, None, nrows=self.rows)

    def _check_block(self, row0: int, nrows: int) -> None:
        if nrows < 1 or row0 < 0 or row0 + nrows > self.rows:
            raise MemoryError_(
                f"block [{row0}, {row0 + nrows}) out of range [0, {self.rows})")
