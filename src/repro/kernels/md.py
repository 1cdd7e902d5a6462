"""Molecular dynamics n-body simulation (Figure 13 workload).

"A simple n-body simulation using the velocity Verlet time integration
method ... the computation per particle is O(n)". Particles interact through
a soft harmonic all-pairs potential (V = k/2 * |ri - rj|^2), which keeps the
dynamics analytically well-behaved so energy conservation is a meaningful
functional check. Both implementations "use a mutex variable to protect
variables that accumulate the kinetic and potential energies" and three
barriers per step.

The per-thread compute *cost* is charged as O(count * n) pairwise work even
though NumPy evaluates the harmonic force in closed form -- the timing model
reflects the algorithm, not the vectorization shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.common import block_partition
from repro.runtime.context import ThreadCtx
from repro.runtime.handles import Barrier, Lock
from repro.runtime.plan import AccessPlan
from repro.runtime.sharedarray import SharedArray


@dataclass(frozen=True)
class MDParams:
    n_particles: int = 128
    steps: int = 10
    dt: float = 1e-3
    k: float = 1.0          # spring constant of the pairwise potential
    mass: float = 1.0
    seed: int = 42
    collect_energy: bool = True
    #: Thread 0 additionally returns the final (pos, vel) arrays. Unlike the
    #: mutex-ordered energy accumulation (whose float sum depends on lock
    #: handoff order), the particle state is partitioned per thread and
    #: therefore independent of timing -- it is what the chaos harness
    #: compares bit-for-bit against a fault-free run.
    collect_state: bool = False

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.steps < 1 or self.dt <= 0:
            raise ValueError("invalid integration parameters")


def _initial_state(params: MDParams) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(params.seed)
    pos = rng.uniform(-1.0, 1.0, size=(params.n_particles, 3))
    vel = rng.uniform(-0.1, 0.1, size=(params.n_particles, 3))
    return pos, vel


def _forces(pos: np.ndarray, k: float) -> np.ndarray:
    """All-pairs harmonic force: F_i = -k * sum_j (r_i - r_j)."""
    n = pos.shape[0]
    return -k * (n * pos - pos.sum(axis=0))


def _potential_share(pos_block: np.ndarray, all_pos: np.ndarray, k: float) -> float:
    """This block's share of PE = k/2 * sum_{i<j} |ri - rj|^2 (split as
    k/4 * sum_i sum_j |ri - rj|^2 over the block's i)."""
    n = all_pos.shape[0]
    R = all_pos.sum(axis=0)
    Q = float((all_pos ** 2).sum())
    sq = (pos_block ** 2).sum(axis=1)
    cross = pos_block @ R
    return float(0.25 * k * (n * sq - 2.0 * cross + Q).sum())


def md_thread(ctx: ThreadCtx, shared: dict, lock: Lock, bar: Barrier,
              params: MDParams):
    """Generator: one MD worker thread. Returns per-step total energies."""
    P = ctx.nthreads
    n = params.n_particles
    dt, k, mass = params.dt, params.k, params.mass

    if ctx.tid == 0:
        shared["pos"] = yield from SharedArray.allocate(ctx, n, 3)
        shared["vel"] = yield from SharedArray.allocate(ctx, n, 3)
        shared["acc"] = yield from SharedArray.allocate(ctx, n, 3)
        shared["energy"] = yield from ctx.malloc_shared(64)
        if ctx.functional:
            pos0, vel0 = _initial_state(params)
            yield from shared["pos"].write_rows(0, pos0)
            yield from shared["vel"].write_rows(0, vel0)
            yield from shared["acc"].write_rows(0, _forces(pos0, k) / mass)
        else:
            for key in ("pos", "vel", "acc"):
                yield from shared[key].write_rows(0, None, nrows=n)
    yield from ctx.barrier(bar)

    pos = shared["pos"].view(ctx)
    vel = shared["vel"].view(ctx)
    acc = shared["acc"].view(ctx)
    energy_addr = shared["energy"]
    start, count = block_partition(n, P, ctx.tid)

    # Warm-up: first-touch the state this thread streams every step, so the
    # timed region measures steady-state integration.
    yield from ctx.read(energy_addr, 8)
    if count:
        yield from pos.read_rows(0, n)
        yield from vel.read_rows(start, count)
        yield from acc.read_rows(start, count)
    yield from ctx.barrier(bar)
    ctx.reset_clock()  # time only the integration loop

    # The step's two access plans, built once and submitted every step: the
    # position half-step (write my block) and the force + velocity update
    # (reads ALL positions). The velocity-write callable does the force
    # evaluation and energy bookkeeping (between the reads and the writes,
    # as the per-access loop did) into ``state``, cleared before each
    # submission; the acceleration write reuses its force result.
    state: list = []
    if count:
        position_plan = AccessPlan()
        if ctx.functional:
            ip = pos.read_rows_op(position_plan, start, count)
            iv = vel.read_rows_op(position_plan, start, count)
            ia = acc.read_rows_op(position_plan, start, count)

            def half_step(results, _ip=ip, _iv=iv, _ia=ia):
                p = pos.decode(results[_ip], count)
                v = vel.decode(results[_iv], count)
                a = acc.decode(results[_ia], count)
                return p + v * dt + 0.5 * a * dt * dt

            pos.write_rows_op(position_plan, start, half_step, nrows=count)
        else:
            pos.write_rows_op(position_plan, start, None, nrows=count)
        position_plan.compute(count * 3, flops_per_element=4.0)

        force_plan = AccessPlan()
        iall = pos.read_rows_op(force_plan, 0, n)
        if ctx.functional:
            iv = vel.read_rows_op(force_plan, start, count)
            ia = acc.read_rows_op(force_plan, start, count)

            def new_vel(results, _iall=iall, _iv=iv, _ia=ia):
                all_pos = pos.decode(results[_iall], n)
                new_a = _forces(all_pos, k)[start:start + count] / mass
                v = vel.decode(results[_iv], count)
                a = acc.decode(results[_ia], count)
                v = v + 0.5 * (a + new_a) * dt
                ke = float(0.5 * mass * (v ** 2).sum())
                pe = _potential_share(all_pos[start:start + count],
                                      all_pos, k)
                state.append((new_a, ke, pe))
                return v

            vel.write_rows_op(force_plan, start, new_vel, nrows=count)
            acc.write_rows_op(force_plan, start,
                              lambda results: state[0][0], nrows=count)
        else:
            vel.write_rows_op(force_plan, start, None, nrows=count)
            acc.write_rows_op(force_plan, start, None, nrows=count)
        # O(n) pairwise interactions per particle.
        force_plan.compute(count * n, flops_per_element=8.0)

    energies: list[float] = []
    for _ in range(params.steps):
        # -- position half-step (write my block) --------------------------
        if ctx.tid == 0:
            # Energy reset stays inside a consistency region (fine-grain).
            yield from ctx.lock(lock)
            yield from ctx.write(energy_addr, 8,
                                 np.zeros(8, np.uint8) if ctx.functional else None)
            yield from ctx.unlock(lock)
        if count:
            yield from ctx.submit(position_plan)
        yield from ctx.barrier(bar)                              # barrier 1

        # -- force + velocity update (reads ALL positions) -----------------
        local_ke = local_pe = 0.0
        if count:
            state.clear()
            yield from ctx.submit(force_plan)
            if ctx.functional:
                _, local_ke, local_pe = state[0]
        yield from ctx.barrier(bar)                              # barrier 2

        # -- energy accumulation under the mutex ---------------------------
        yield from ctx.lock(lock)
        cur = yield from ctx.read(energy_addr, 8)
        if ctx.functional:
            total = float(cur.view(np.float64)[0]) + local_ke + local_pe
            yield from ctx.write(
                energy_addr, 8,
                np.frombuffer(np.float64(total).tobytes(), np.uint8))
        else:
            yield from ctx.write(energy_addr, 8, None)
        yield from ctx.unlock(lock)
        yield from ctx.barrier(bar)                              # barrier 3

        if params.collect_energy and ctx.functional:
            data = yield from ctx.read(energy_addr, 8)
            energies.append(float(data.view(np.float64)[0]))

    if params.collect_state and ctx.functional and ctx.tid == 0:
        final_pos = yield from pos.read_rows(0, n)
        final_vel = yield from vel.read_rows(0, n)
        return energies, final_pos.copy(), final_vel.copy()
    return energies


def spawn_md(rt, params: MDParams) -> dict:
    shared: dict = {}
    lock = rt.create_lock()
    bar = rt.create_barrier()
    rt.spawn_all(md_thread, shared, lock, bar, params)
    return shared


def md_reference(params: MDParams) -> list[float]:
    """Sequential velocity-Verlet reference: per-step total energies."""
    pos, vel = _initial_state(params)
    acc = _forces(pos, params.k) / params.mass
    energies = []
    for _ in range(params.steps):
        pos = pos + vel * params.dt + 0.5 * acc * params.dt ** 2
        new_acc = _forces(pos, params.k) / params.mass
        vel = vel + 0.5 * (acc + new_acc) * params.dt
        acc = new_acc
        ke = float(0.5 * params.mass * (vel ** 2).sum())
        n = params.n_particles
        R = pos.sum(axis=0)
        Q = float((pos ** 2).sum())
        pe = float(0.25 * params.k *
                   ((n * (pos ** 2).sum(axis=1) - 2.0 * pos @ R + Q)).sum())
        energies.append(ke + pe)
    return energies
