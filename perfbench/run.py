#!/usr/bin/env python3
"""rssiloc benchmark: end-to-end and per-layer metrics of the real CLI.

    python3 perfbench/run.py --workload surrogate_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The seed generates the workload's
inputs (see workloads.py). Each pass runs every job of the workload
through `rssiloc.cli.main` in one fresh process (worker.py) with the
BLAS/OpenMP thread pools pinned to one thread. Passes repeat until
`--seconds` have elapsed; timings are medians over passes and jobs.
Every pass's outputs are checked and digested, and every pass must
reproduce the first pass's digests.

With `--trace 0` the last line of standard output is one JSON object
with the end-to-end metrics. With `--trace 1` untraced and traced passes
alternate and the object carries the per-layer metrics of the traced
passes plus the tracing overhead. The lines before it are a report with
the machine stamp, output quality figures and digests; the full result
is also written to `.perfbench/results/`. The exit code is 1 when an
output check fails and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
EXACT_METRICS = (
    "cli.parse_calls", "cli.write_bytes", "simulate.runs", "simulate.steps",
    "simulate.verify_points", "channel.scans", "channel.rescans", "spectrum.packets",
    "kernels.ekf_calls", "kernels.lateration_calls", "kernels.coverage_calls",
    "kernels.coverage_pairs", "spectrum.packet_fail_frac", "kernels.ekf_skip_frac",
    "kernels.lateration_fail_frac",
)


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(work: Path, name: str, jobs: list[dict], trace: bool) -> dict:
    """Run one fresh worker process and return its result."""
    spec = work / f"{name}.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "out": str(work / name),
        "trace": trace,
        "jobs": [{"name": j["name"], "args": j["args"]} for j in jobs],
    }))
    with (work / f"{name}.log").open("w") as log:
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec), str(spawned)],
                cwd=ROOT, env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=PASS_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker did not finish within {PASS_TIMEOUT_S} s") from None
    result = spec.with_suffix(".result.json")
    if proc.returncode != 0 or not result.is_file():
        tail = (work / f"{name}.log").read_text()[-2000:]
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{tail}")
    return json.loads(result.read_text())


def check_pass(out: Path, jobs: list[dict], exit_codes: list[int],
               expected: dict | None = None) -> tuple[dict, dict, list]:
    """Check every job's outputs and, given `expected`, that each job's
    digest reproduces it. Returns per-job digests, per-job errors and the
    quality figures of the runs that passed."""
    digests, errors, runs = {}, {}, []
    for job, code in zip(jobs, exit_codes):
        name = job["name"]
        job_dir = out / name
        digests[name] = workloads.tree_digest(job_dir) if job_dir.is_dir() else ""
        if code != 0:
            errors[name] = f"exit code {code}"
            continue
        try:
            runs.extend(workloads.check_job(job_dir, job))
        except workloads.OutputError as exc:
            errors[name] = str(exc)
            continue
        if expected is not None and digests[name] != expected[name]:
            errors[name] = "outputs differ from the first pass"
    return digests, errors, runs


def quality(workload: str, runs: list[dict]) -> dict:
    if workload == "deploy_grid" or not runs:
        return {}
    figures = {
        "kf_rmse_m": sum(r["kf_rmse_m"] for r in runs) / len(runs),
        "resolved_frac": sum(r["resolved"] for r in runs) / sum(r["steps"] for r in runs),
    }
    if workload == "surrogate_sweep":
        figures["tail_pass_frac"] = sum(r["tail_pass"] for r in runs) / len(runs)
    return figures


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: its value,
    the percentile and the sample count (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    if not (ROOT / "src" / "rssiloc" / "cli.py").is_file():
        raise BenchError(f"program source not found under {ROOT / 'src'}")
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.make_jobs(workload, seed, scale, work / "inputs")
    work_per_pass = sum(j["work"] for j in jobs)

    started = time.monotonic()
    spawn(work, "warmup", [], False)  # compiles bytecode, warms the page cache
    setups = [spawn(work, f"setup_{i}", [], False)["setup_s"] for i in range(SETUP_PROBES)]

    passes = []
    first_digests = None
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        name = f"pass_{len(passes):02d}"
        pass_start = time.monotonic()
        result = spawn(work, name, jobs, traced)
        digests, errors, runs = check_pass(work / name, jobs, result["exit_codes"], first_digests)
        if first_digests is None:
            first_digests = digests
        shutil.rmtree(work / name)
        setups.append(result["setup_s"])
        passes.append({"traced": traced, "wall_s": sum(result["job_s"]), "errors": errors,
                       "quality": quality(workload, runs), **result})
        now = time.monotonic()
        untraced = sum(not p["traced"] for p in passes)
        enough = untraced >= MIN_PASSES and (not trace or untraced < len(passes))
        if enough and (now >= deadline or now + (now - pass_start) - started > RUN_BUDGET_S):
            break

    plain = [p for p in passes if not p["traced"]]
    job_times = [t for p in plain for t in p["job_s"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    tail_value, tail_pct, tail_n = tail(job_times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": tail_value,
        "work_per_s": work_per_pass / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    attempted = len(jobs) * len(passes)
    failed = sum(len(p["errors"]) for p in passes)
    correct = failed == 0 and all(p["quality"] == passes[0]["quality"] for p in passes)

    layers = {}
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        for key in traced_passes[0]["layers"]:
            values = [p["layers"][key] for p in traced_passes]
            if key in EXACT_METRICS:
                correct &= all(v == values[0] for v in values)
                layers[key] = values[0]
            else:
                layers[key] = statistics.median(values)
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layers["trace.wall_ms"] = traced_wall * 1e3
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "machine": passes[0]["machine"],
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [sum(p["job_cpu_s"]) for p in passes],
        "jobs_per_pass": len(jobs),
        "work_per_pass": work_per_pass,
        "work_unit": "points" if workload == "deploy_grid" else "steps",
        "setup_samples": len(setups),
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_samples": tail_n,
        "error_frac": failed / attempted,
        "errors": {f"pass_{i:02d}/{job}": msg
                   for i, p in enumerate(passes) for job, msg in p["errors"].items()},
        "quality": passes[0]["quality"],
        "digest": workloads.combine_digests(first_digests),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "per_layer": layers,
    }


def report(res: dict) -> None:
    m = res["machine"]
    print(f"workload {res['workload']} seed {res['seed']} scale {res['scale']}: "
          f"{res['passes']} passes x {res['jobs_per_pass']} jobs, "
          f"{res['work_per_pass']} {res['work_unit']} per pass")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} kernels.BACKEND={m['kernels_backend']} "
          f"numba_importable={m['numba_importable']}")
    e = res["end_to_end"]
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {e[name]:.6g} {unit}")
    rate = "points_per_s" if res["work_unit"] == "points" else "steps_per_s"
    print(f"  {rate} = {e['work_per_s']:.6g} {res['work_unit']}/s")
    print(f"  job_s_tail is p{res['job_s_tail_percentile']:.1f} of "
          f"{res['job_s_tail_samples']} jobs; setup_s is the median of "
          f"{res['setup_samples']} fresh processes")
    print(f"  error_frac = {res['error_frac']:.6g} ratio")
    for name, value in res["quality"].items():
        unit = "m" if name.endswith("_m") else "ratio"
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  outputs sha256 = {res['digest']}")
    for where, msg in res["errors"].items():
        print(f"  FAILED {where}: {msg}")
    if res["per_layer"]:
        layers = res["per_layer"]
        wall = layers["trace.wall_ms"]
        shares = {
            "channel.scan_ms + spectrum.packet_ms":
                layers["channel.scan_ms"] + layers["spectrum.packet_ms"],
            "kernels.coverage_ms": layers["kernels.coverage_ms"],
            "kernels.ekf_ms + kernels.lateration_ms + simulate.step_self_ms":
                layers["kernels.ekf_ms"] + layers["kernels.lateration_ms"]
                + layers["simulate.step_self_ms"],
        }
        for name, value in layers.items():
            print(f"  {name} = {value:.6g} {layer_unit(name)}")
        for name, value in shares.items():
            print(f"  share of traced wall: {name} = {value / wall:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the workload's jobs to run (smoke tests)")
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be in (0, 1]")
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=2, sort_keys=True) + "\n")
    report(res)
    selected = res["per_layer"] if args.trace else res["end_to_end"]
    units = {k: layer_unit(k) for k in selected} if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in selected.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
