"""Self-test of the benchmark: every workload at toy size, and a planted defect.

Run by path (it is not collected by the tier-1 suite)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == run.LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", ["check", "check_wide"])
def test_planted_wrong_count_fails_the_gate(workload, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # restored after main() repoints it
    checks = dict(workloads.WORKLOADS)
    wrong = dataclasses.replace(
        checks[workload].sizes["toy"], states=checks[workload].sizes["toy"].states + 1
    )
    checks[workload] = dataclasses.replace(
        checks[workload], sizes=dict(checks[workload].sizes, toy=wrong)
    )
    monkeypatch.setattr(run, "WORKLOADS", checks)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--scale", "toy"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_planted_wrong_run_count_fails_the_campaign_gate(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    sweep = workloads.WORKLOADS["sweep"]

    def gate(records, report, expected_runs):
        workloads._sweep_gate(records, report, expected_runs + 1)

    monkeypatch.setattr(
        run, "WORKLOADS", dict(workloads.WORKLOADS, sweep=dataclasses.replace(sweep, gate=gate))
    )
    code = run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0.5", "--scale", "toy"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["metrics"] == {}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
