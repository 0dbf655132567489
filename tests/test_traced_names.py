"""The benchmark's traced names exist in the program.

perfbench/worker.py wraps module-level functions of the program by name
to time each layer; a name that is gone makes every traced pass crash.
The worker module is loaded by path and only read here.
"""

import importlib.util
from pathlib import Path

from rssiloc import cli, kernels, simulate

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def test_every_traced_name_is_a_callable_of_the_program():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    owners = {"cli": cli, "simulate": simulate, "kernels": kernels}
    assert worker.TRACED
    for owner, attr, *_ in worker.TRACED:
        assert callable(getattr(owners[owner], attr, None)), f"{owner}.{attr}"
