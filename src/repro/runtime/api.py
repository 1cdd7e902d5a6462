"""Top-level convenience API.

Typical use::

    from repro.runtime import Runtime

    rt = Runtime("samhita", n_threads=8)
    bar = rt.create_barrier()

    def kernel(ctx, bar):
        addr = yield from ctx.malloc(4096)
        yield from ctx.write(addr, 8, some_bytes)
        yield from ctx.barrier(bar)
        return (yield from ctx.read(addr, 8))

    rt.spawn_all(kernel, bar)
    result = rt.run()
"""

from __future__ import annotations

from repro.errors import BackendError
from repro.runtime.backend import BaseBackend
from repro.runtime.pthreads import PthreadsBackend
from repro.runtime.samhita import SamhitaBackend


def make_backend(kind: str, n_threads: int, **kwargs) -> BaseBackend:
    """Instantiate a backend by name: ``"samhita"`` or ``"pthreads"``."""
    if kind == "samhita":
        return SamhitaBackend(n_threads, **kwargs)
    if kind == "pthreads":
        return PthreadsBackend(n_threads, **kwargs)
    raise BackendError(f"unknown backend {kind!r}")


class Runtime:
    """Thin facade over a backend, mirroring a Pthreads-style program."""

    def __init__(self, backend: str | BaseBackend, n_threads: int | None = None,
                 **kwargs):
        if isinstance(backend, BaseBackend):
            if n_threads is not None and n_threads != backend.n_threads:
                raise BackendError("n_threads conflicts with prebuilt backend")
            self.backend = backend
        else:
            if n_threads is None:
                raise BackendError("n_threads required when naming a backend")
            self.backend = make_backend(backend, n_threads, **kwargs)

    @property
    def n_threads(self) -> int:
        return self.backend.n_threads

    @property
    def functional(self) -> bool:
        return self.backend.functional

    def create_lock(self):
        return self.backend.create_lock()

    def create_barrier(self, parties: int | None = None):
        return self.backend.create_barrier(parties)

    def create_cond(self):
        return self.backend.create_cond()

    def spawn(self, program, *args) -> int:
        return self.backend.spawn(program, *args)

    def spawn_all(self, program, *args) -> list[int]:
        return self.backend.spawn_all(program, *args)

    def run(self):
        return self.backend.run()
