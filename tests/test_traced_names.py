"""The benchmark's traced names exist in the program and its counts read.

perfbench/worker.py wraps module-level functions of the program by name
to time each layer, and takes a count from each call's arguments or
result; a name that is gone, or a signature its count no longer reads,
makes every traced pass crash or miscount. The worker module is loaded by
path and only read here.
"""

import importlib.util
from pathlib import Path

import pytest

from rssiloc import cli, kernels, simulate

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
DESK = WORKER.parent.parent / "scenarios" / "desk.json"
OWNERS = {"cli": cli, "simulate": simulate, "kernels": kernels}


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_program(worker):
    assert worker.TRACED
    for owner, attr, *_ in worker.TRACED:
        assert callable(getattr(OWNERS[owner], attr, None)), f"{owner}.{attr}"


def test_traced_runs_count_what_they_did(worker, tmp_path, monkeypatch, capsys):
    tracer = worker.Tracer()
    for owner, attr, name, count in worker.TRACED:
        # the monkeypatch restores each original function afterwards
        monkeypatch.setattr(OWNERS[owner], attr, getattr(OWNERS[owner], attr))
        tracer.wrap(OWNERS[owner], attr, name, count)
    sweep = tmp_path / "sweep"
    jobs = [
        ["simulate", "--scenario", str(DESK), "--seeds", "2", "--out", str(sweep)],
        ["scan", "--scenario", str(DESK), "--out", str(tmp_path / "scan")],
        ["deploy", "--roi", "10x8", "--range-m", "12", "--out", str(tmp_path / "deploy")],
        ["compare", "--scenario", str(DESK), "--out", str(tmp_path / "compare")],
    ]
    for argv in jobs:
        # a count that cannot read its call fails the job as an internal error
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err

    counted = {name for _, _, name, count in worker.TRACED if count is not None}
    called = {span[0] for span in tracer.spans}
    assert {"cli.parse", "cli.write", "simulate.metrics", "simulate.plan", "simulate.verify",
            "channel.scan", "simulate.run"} <= called
    for name, _, _, _, count in tracer.spans:
        assert name not in counted or count is not None, name
    layers = worker.layer_metrics(tracer.spans)
    written = sum(p.stat().st_size for p in sweep.rglob("*") if p.is_file())
    assert layers["cli.write_bytes"] == written > 0
    assert layers["cli.parse_calls"] == 3
