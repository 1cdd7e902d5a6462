"""Application kernels from the paper's evaluation (§III).

* :mod:`repro.kernels.microbench` -- the Figure 2 micro-benchmark with its
  three allocation / work-distribution strategies (local, global, global
  strided);
* :mod:`repro.kernels.jacobi` -- the Jacobi iteration for the discrete
  Laplacian (nearest-neighbour communication pattern, Figure 12);
* :mod:`repro.kernels.md` -- the OmpSCR-style molecular dynamics n-body
  simulation with velocity Verlet integration (Figure 13).

Each kernel is one generator function usable on both backends, plus a
sequential NumPy reference for functional verification.
"""

from repro.kernels.common import block_partition, strided_rows
from repro.kernels.microbench import (
    Allocation,
    MicrobenchParams,
    microbench_reference,
    microbench_thread,
    spawn_microbench,
)
from repro.kernels.jacobi import JacobiParams, jacobi_reference, jacobi_thread, spawn_jacobi
from repro.kernels.md import MDParams, md_reference, md_thread, spawn_md
from repro.kernels.pipeline import PipelineParams, pipeline_thread, spawn_pipeline
from repro.kernels.sor import SORParams, sor_reference, sor_thread, spawn_sor
from repro.kernels.taskfarm import TaskFarmParams, spawn_taskfarm, taskfarm_thread

__all__ = [
    "Allocation",
    "JacobiParams",
    "MDParams",
    "MicrobenchParams",
    "PipelineParams",
    "SORParams",
    "TaskFarmParams",
    "block_partition",
    "jacobi_reference",
    "jacobi_thread",
    "md_reference",
    "md_thread",
    "microbench_reference",
    "microbench_thread",
    "pipeline_thread",
    "sor_reference",
    "sor_thread",
    "spawn_jacobi",
    "spawn_md",
    "spawn_microbench",
    "spawn_pipeline",
    "spawn_sor",
    "spawn_taskfarm",
    "strided_rows",
    "taskfarm_thread",
]
