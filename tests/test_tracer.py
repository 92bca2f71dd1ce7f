"""The benchmark's span tracer wraps qlvsim names by string; a refactor that
renames or moves one breaks ``bench/run.py --trace 1``.  The tracer is
read and executed here without importing it, so no bytecode is written
next to it."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qlvsim

BENCH = Path(__file__).parents[1] / "bench"
TRACER = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_function_target_exists(tracer):
    missing = [(mod, attr) for _, mod, attr, _ in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert tracer.FUNCTIONS and not missing


def test_every_method_target_is_in_its_class_dict(tracer):
    missing = [(mod, cls, attr) for _, mod, cls, attr in tracer.METHODS
               if attr not in vars(getattr(importlib.import_module(mod), cls))]
    assert tracer.METHODS and not missing


def test_from_kernel_is_still_a_classmethod(tracer):
    from qlvsim.qlv import QlvModel
    assert ("qlv.from_kernel", "qlvsim.qlv", "QlvModel",
            "from_kernel") in tracer.METHODS
    assert isinstance(vars(QlvModel)["from_kernel"], classmethod)


def test_cold_op_script_runs_a_command(tmp_path):
    """bench/run.py's cold op times set-up by replacing ``cli.load_config``
    with a wrapper that takes the path alone, so a command given no
    --dt/--duration must call it with the path alone."""
    script, = (node.value.value for node in ast.parse(
        (BENCH / "run.py").read_text()).body if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "COLD_SCRIPT")
    ready = tmp_path / "ready"
    config = Path(__file__).parents[1] / "configs" / "qlv_relaxation.yaml"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ready), str(BENCH), "relax",
         "--config", str(config), "--out", str(tmp_path / "out.csv")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPATH": str(Path(qlvsim.__file__).parents[1])},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(ready.read_text())["setup_end"] is not None
