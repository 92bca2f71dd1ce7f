"""The benchmark's span tracer wraps qlvsim names by string; a refactor that
renames or moves one breaks ``bench/run.py --trace 1``.  The tracer is
read and executed here without importing it, so no bytecode is written
next to it."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


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
