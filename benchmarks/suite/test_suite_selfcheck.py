"""Self-check of the benchmark suite against its own contract.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite`` (about a
minute). Tier-1 (``testpaths = ["tests"]``) does not collect this file.
"""

import json
import re

import pytest

from benchmarks.suite import cli, metrics
from benchmarks.suite.tracer import LAYERS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: The cheapest workload; metric names do not depend on the workload.
WORKLOAD = "strided_share"


@pytest.fixture(scope="module")
def contract():
    return metrics.load_contract()


def _measure(capsys, trace: int) -> dict:
    assert cli.main(["measure", "--workload", WORKLOAD, "--seed", "11",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_contract_names_are_well_formed_and_unique(contract):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in contract["workloads"]] == list(cli.WORKLOADS)
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert max(m["bound"] for m in contract["end_to_end"]) == next(
        m["bound"] for m in contract["end_to_end"] if m["name"] == "setup_s")


def test_every_end_to_end_metric_is_emitted(contract, capsys):
    emitted = _measure(capsys, trace=0)["metrics"]
    assert list(emitted) == [m["name"] for m in contract["end_to_end"]]
    for spec in contract["end_to_end"]:
        assert emitted[spec["name"]]["unit"] == spec["unit"]
        assert emitted[spec["name"]]["value"] > 0


def test_every_per_layer_metric_is_emitted_and_layers_sum(contract, capsys):
    emitted = _measure(capsys, trace=1)["metrics"]
    assert list(emitted) == [m["name"] for m in contract["per_layer"]]
    for layer in LAYERS:
        assert f"{layer}.host_self_s" in emitted
        assert f"{layer}.calls" in emitted
    layered = sum(emitted[f"{layer}.host_self_s"]["value"] for layer in LAYERS)
    total = emitted["trace.host_total_s"]["value"]
    assert abs(layered - total) <= 0.02 * total, (layered, total)


def test_check_mode_passes_on_every_workload(capsys):
    assert cli.main(["run", "--check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == list(cli.WORKLOADS)
