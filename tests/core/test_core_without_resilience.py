"""The paper's core stands without the fault plane.

PAPER.md §II's Samhita -- memory servers, a manager, compute servers and
RegC -- has no fault tolerance; replication, the WAL and the failure
detector live in :mod:`repro.resilience`, which a system composes in only
where something can fail over (``replication_factor > 1``, or a fault plan
on ``manager_shards > 1``). Two guards:

* a fault-free run imports no part of the fault plane at all;
* ``src/repro/core`` names it only where it calls the package's hooks.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

CORE = Path(repro.__file__).parent / "core"

#: The fault plane's vocabulary (ROADMAP item 6's grep); ``crc`` as a word,
#: so ``CrClock`` is not counted.
FAULT_PLANE = re.compile(
    r"replica|\bwal\b|fence|checkpoint|bitrot|membership|detector|\bcrc\b",
    re.IGNORECASE)

_PROBE = """
import sys
from repro.experiments.harness import run_workload_direct
from repro.kernels import JacobiParams, spawn_jacobi

result = run_workload_direct("samhita", 4, spawn_jacobi,
                             JacobiParams(rows=16, cols=64, iterations=2),
                             functional=True)
assert result.elapsed > 0
fault_plane = ("ReplicationLog", "FailureDetector")
for name, module in sorted(sys.modules.items()):
    if not name.startswith("repro"):
        continue
    defined = [cls for cls in fault_plane
               if getattr(getattr(module, cls, None), "__module__", None)
               == name]
    print(name, *defined)
"""


def test_a_fault_free_jacobi_cell_imports_no_fault_plane():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(CORE.parent.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    loaded = {row[0] for row in rows}
    assert "repro.core.system" in loaded
    assert not [m for m in loaded if m.startswith("repro.resilience")]
    # No module the run loaded defines a fault-plane class.
    assert [row for row in rows if len(row) > 1] == []


def _fault_plane_lines(path: Path) -> list[str]:
    return [f"{path.name}:{n}: {line.strip()}"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if FAULT_PLANE.search(line)]


def test_core_names_the_fault_plane_only_at_its_hooks():
    """One line of ``core/`` outside ``params.py`` (the config knobs) and
    ``control_plane.py`` (shard failover, which stays there) names the
    fault plane -- ``system.py``'s attach trigger; 213 did before it became
    one package -- and seven lines of the control plane do. A new line
    fails the gate: move it behind a hook, or raise the bound on purpose."""
    lines = [line for path in sorted(CORE.glob("*.py"))
             if path.name not in ("params.py", "control_plane.py")
             for line in _fault_plane_lines(path)]
    assert len(lines) <= 1, "\n".join(lines)
    control = _fault_plane_lines(CORE / "control_plane.py")
    assert len(control) <= 7, "\n".join(control)
