"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

It is outside the package's test suite (pytest collects only ``tests/`` by
default). At tiny sizes the slope criteria are not expected to hold, so it
checks that the checks run, not that they pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, runner: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    done = _run(ROOT, HERE / "run.py", workload, trace)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    assert result["attempted"] >= 1
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert any("records digest" in line for line in checks)
    assert len(checks) >= 4
    assert done.returncode == (0 if result["correct"] else 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, tmp_path / HERE.name / "run.py", "probes", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
