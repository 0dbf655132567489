"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    for line in ("setup_s", "wall_s", "job_s_p50", "job_s_tail", "peak_rss_mb",
                 "error_frac", "outputs sha256"):
        assert f"  {line} = " in proc.stdout


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.make_jobs(workload, 5, 1.0, tmp_path / "a")
        b = workloads.make_jobs(workload, 5, 1.0, tmp_path / "b")
        assert [j["work"] for j in a] == [j["work"] for j in b]
    assert workloads.tree_digest(tmp_path / "a") == workloads.tree_digest(tmp_path / "b")


def test_tampered_output_trips_the_checks(tmp_path):
    jobs = workloads.make_jobs("surrogate_sweep", 0, 0.02, tmp_path / "inputs")
    result = run.spawn(tmp_path, "pass", jobs, trace=False)
    out = tmp_path / "pass"
    digests, errors, _ = run.check_pass(out, jobs, result["exit_codes"])
    assert errors == {}

    steps = out / jobs[0]["name"] / jobs[0]["runs"][0] / "steps.csv"
    text = steps.read_text()
    rows = text.splitlines()
    cells = rows[-1].split(",")
    cells[7] = repr(float(cells[7]) + 1e-9)  # kf_x: still finite, same shape
    steps.write_text("\n".join(rows[:-1] + [",".join(cells)]) + "\n")
    tampered, errors, _ = run.check_pass(out, jobs, result["exit_codes"], digests)
    assert tampered[jobs[0]["name"]] != digests[jobs[0]["name"]]
    assert errors == {jobs[0]["name"]: "outputs differ from the first pass"}

    steps.write_text(text[: len(text) // 2])
    _, errors, _ = run.check_pass(out, jobs, result["exit_codes"])
    assert "step rows" in errors[jobs[0]["name"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "deploy_grid", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
