"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py PASS_JSON SPAWNED_NS

PASS_JSON names the jobs, the output directory and whether to trace.
SPAWNED_NS is the parent's CLOCK_MONOTONIC reading just before it
started this process; every process on the host shares that clock. The worker imports the program from the checkout's `src/`,
reports set-up time as spawn-to-ready, runs each job through
`rssiloc.cli.main` in this one process and writes its timings next to
PASS_JSON as `<name>.result.json`.

A traced pass wraps, from outside the program, the module-level
functions each layer is reached through. Callers look these names up at
call time, so the wrappers see every call. Each span records its name,
start, end, parent and a count taken from the arguments or the return
value. Spans stay in memory and are written when the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

clock = time.monotonic_ns

# (owner module, attribute, span name, count taken from (args, result))
TRACED = (
    ("cli", "load_scenario", "cli.parse", None),
    ("cli", "write_run_outputs", "cli.write",
     lambda a, r: sum(p.stat().st_size for p in Path(a[2]).iterdir() if p.is_file())),
    ("cli", "run_scenario", "simulate.run", lambda a, r: len(a[0].trajectory)),
    ("cli", "compute_metrics", "simulate.metrics", None),
    ("cli", "plan_square_grid_deployment", "simulate.plan", None),
    ("cli", "verify_three_coverage", "simulate.verify", None),
    ("simulate", "scan_all_channels", "channel.scan", None),
    ("simulate", "select_channel", "channel.select", None),
    ("simulate", "packet_success", "spectrum.packet", lambda a, r: int(not r)),
    ("kernels", "lateration_solve", "kernels.lateration", lambda a, r: int(r[0] != 0)),
    ("kernels", "ekf_step", "kernels.ekf", lambda a, r: int(r[0] != 0)),
    ("kernels", "coverage_counts", "kernels.coverage", lambda a, r: (len(a[0]), len(a[2]))),
)


class Tracer:
    """In-memory span recorder. A span is [name, start_ns, end_ns, parent, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, count]) + "\n")


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer busy time (ms), call counts and outcome ratios of one pass."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[str, int] = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, count in spans:
        ms[name] = ms.get(name, 0.0) + (end - start) / 1e6
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_ns[parent] += end - start
        if isinstance(count, int):
            counted[name] = counted.get(name, 0) + count
    step_self = sum(end - start - child_ns[i]
                    for i, (name, start, end, _, _) in enumerate(spans) if name == "simulate.run")
    coverage = [s for s in spans if s[0] == "kernels.coverage"]
    pairs = sum(points * beacons for *_, (points, beacons) in coverage)
    verify_points = sum(s[4][0] for s in coverage
                        if s[3] >= 0 and spans[s[3]][0] == "simulate.verify")

    def frac(name):
        return counted.get(name, 0) / calls[name] if calls.get(name) else 0.0

    return {
        "cli.parse_ms": ms.get("cli.parse", 0.0),
        "cli.parse_calls": calls.get("cli.parse", 0),
        "cli.write_ms": ms.get("cli.write", 0.0),
        "cli.write_bytes": counted.get("cli.write", 0),
        "simulate.run_ms": ms.get("simulate.run", 0.0),
        "simulate.runs": calls.get("simulate.run", 0),
        "simulate.steps": counted.get("simulate.run", 0),
        "simulate.step_self_ms": step_self / 1e6,
        "simulate.metrics_ms": ms.get("simulate.metrics", 0.0),
        "simulate.plan_ms": ms.get("simulate.plan", 0.0),
        "simulate.verify_ms": ms.get("simulate.verify", 0.0),
        "simulate.verify_points": verify_points,
        "channel.scan_ms": ms.get("channel.scan", 0.0) + ms.get("channel.select", 0.0),
        "channel.scans": calls.get("channel.scan", 0),
        "channel.rescans": calls.get("channel.scan", 0) - calls.get("simulate.run", 0),
        "spectrum.packet_ms": ms.get("spectrum.packet", 0.0),
        "spectrum.packets": calls.get("spectrum.packet", 0),
        "spectrum.packet_fail_frac": frac("spectrum.packet"),
        "kernels.ekf_ms": ms.get("kernels.ekf", 0.0),
        "kernels.ekf_calls": calls.get("kernels.ekf", 0),
        "kernels.ekf_skip_frac": frac("kernels.ekf"),
        "kernels.lateration_ms": ms.get("kernels.lateration", 0.0),
        "kernels.lateration_calls": calls.get("kernels.lateration", 0),
        "kernels.lateration_fail_frac": frac("kernels.lateration"),
        "kernels.coverage_ms": ms.get("kernels.coverage", 0.0),
        "kernels.coverage_calls": calls.get("kernels.coverage", 0),
        "kernels.coverage_pairs": pairs,
    }


def machine_stamp(kernels) -> dict:
    import importlib.util

    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": getattr(kernels, "BACKEND", "numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def main(pass_path: str, spawned_ns: int) -> int:
    spec = json.loads(Path(pass_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from rssiloc import cli, kernels, simulate

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rssiloc imported from {cli.__file__}, not from {src}")
    warmup = getattr(kernels, "warmup", None)
    if warmup is not None:
        warmup()
    setup_s = (clock() - spawned_ns) / 1e9

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        owners = {"cli": cli, "simulate": simulate, "kernels": kernels}
        for owner, attr, name, count in TRACED:
            tracer.wrap(owners[owner], attr, name, count)

    out_root = Path(spec["out"])
    job_s, job_cpu_s, codes = [], [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in spec["jobs"]:
            argv = job["args"] + ["--out", str(out_root / job["name"])]
            start, cpu_start = clock(), time.process_time_ns()
            code = cli.main(argv)
            job_s.append((clock() - start) / 1e9)
            job_cpu_s.append((time.process_time_ns() - cpu_start) / 1e9)
            codes.append(code)

    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_stamp(kernels),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        tracer.dump(Path(pass_path).with_suffix(".spans.jsonl"))
    Path(pass_path).with_suffix(".result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
