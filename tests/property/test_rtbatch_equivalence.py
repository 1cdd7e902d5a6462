"""Batched round trips: data identity with the per-operation protocol.

``rtbatch_pr8_digests.json`` holds the final-data digest of every cell of a
workload x config matrix, recorded at the PR 8 tree -- before the batched
layer existed, so by the per-line / per-page protocol. The batched protocol
may change timing and event counts, but the bytes every thread computes
must not move: each cell, run today, must reproduce its recorded digest.

Each distinct configuration runs once per session (results are memoized).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.core.params import SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md

PINS = json.loads(
    (pathlib.Path(__file__).parent / "rtbatch_pr8_digests.json").read_text())

#: The matrix's configurations. "compat" was the per-line preset of the PR 8
#: tree; with batching on it is the default configuration, so the two names
#: share one run.
CONFIGS = {
    "default": SamhitaConfig(),
    "compat": SamhitaConfig(),
    "sharded": SamhitaConfig(manager_shards=2, n_memory_servers=2),
    "replicated": SamhitaConfig(n_memory_servers=2, replication_factor=2),
    "ivy": SamhitaConfig(coherence="ivy"),
}

WORKLOADS = {
    ("jacobi", 0): (spawn_jacobi, JacobiParams(
        rows=32, cols=128, iterations=2, collect_result=True)),
    ("md", 11): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=11, collect_state=True)),
    ("md", 23): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=23, collect_state=True)),
    ("md", 47): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=47, collect_state=True)),
}

_run_cache: dict[tuple[str, int, SamhitaConfig], tuple[str, dict]] = {}


def _run(wname: str, seed: int, cname: str) -> tuple[str, dict]:
    """``(data digest, round_trips stats)`` of one matrix cell (memoized)."""
    key = (wname, seed, CONFIGS[cname])
    if key in _run_cache:
        return _run_cache[key]
    spawn_fn, params = WORKLOADS[(wname, seed)]
    result = run_workload_direct("samhita", 4, spawn_fn, params,
                                 functional=True, config=CONFIGS[cname])
    h = hashlib.sha256()
    if wname == "jacobi":
        gdiff, grid = result.threads[0].value
        h.update(grid.tobytes())
        h.update(repr(gdiff).encode())
    else:
        energies, pos, vel = result.threads[0].value
        h.update(pos.tobytes())
        h.update(vel.tobytes())
        h.update(repr(energies).encode())
    _run_cache[key] = h.hexdigest(), result.stats["round_trips"]
    return _run_cache[key]


def _split(cell: str) -> tuple[str, int, str]:
    wname, seed, cname = cell.split("-")
    return wname, int(seed), cname


def test_pin_matrix_shape() -> None:
    """The pin file covers exactly the declared matrix."""
    expected = {f"{w}-{s}-{c}"
                for (w, s) in WORKLOADS for c in CONFIGS}
    assert set(PINS) == expected
    for cell, pin in PINS.items():
        assert set(pin) == {"data_sha256"}, cell


def test_batched_on_data_identical_to_off() -> None:
    """Every cell reproduces the bytes the per-operation protocol computed.
    Timing and event counts differ -- that is the point of batching -- so
    only the data digest is pinned."""
    diverged = [cell for cell in sorted(PINS)
                if _run(*_split(cell))[0] != PINS[cell]["data_sha256"]]
    assert not diverged, f"data diverged from the PR 8 pins: {diverged}"


def test_batched_on_actually_batches() -> None:
    """Sanity: on the default config a trip carries more than one line on
    average (otherwise the data-identity test above could pass trivially
    with the batching wired to nothing)."""
    _, trips = _run("jacobi", 0, "default")
    assert trips["lines"] > trips["trips"] > 0
