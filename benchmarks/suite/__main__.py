"""``python -m benchmarks.suite`` and ``python benchmarks/suite/__main__.py``.

The second form is what BENCHMARK.json names, so the checkout root and its
``src`` are put on the path here rather than through PYTHONPATH.
"""

import pathlib
import sys

if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parents[2]
    here = str(pathlib.Path(__file__).resolve().parent)
    # Run as a script, this directory leads sys.path and would let the
    # suite's modules shadow top-level names; the package path replaces it.
    sys.path[:] = [p for p in sys.path if p != here]
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.suite.cli import main

    raise SystemExit(main())
