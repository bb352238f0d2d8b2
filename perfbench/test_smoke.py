"""Smoke test of the benchmark harness.

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json comes out with its unit. Run from the
repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set up by run)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "onmf-small-verified": dict(m=12, n=15, r=3, sweeps=4),
    "onmf-large": dict(m=20, n=30, r=3, sweeps=3),
    "mc-large-bt": dict(m=30, n=25, r=2, obs_fraction=0.3, steps=3),
}


def test_benchmark_json_matches_harness():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert set(workloads.load_references()) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_present_with_unit(name, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    monkeypatch.setattr(workloads, "load_references", lambda: {
        name: {"target_objective": math.inf, "checks": {}}})
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onmf-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
