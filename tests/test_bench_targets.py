"""The benchmark's tracer wraps library functions by module and name.

``perfbench/tracer.py`` lists them in ``FUNCTION_TARGETS`` and
``METHOD_TARGETS``; every one must still resolve in the library, or a
traced benchmark run fails.  The lists are read as they are, never
edited here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def library(name):
    return importlib.import_module("motivic_power." + name)


@pytest.mark.parametrize("module,attr,span", tracer.FUNCTION_TARGETS)
def test_function_targets_resolve(module, attr, span):
    assert callable(getattr(library(module), attr))


@pytest.mark.parametrize("module,cls,attr,span", tracer.METHOD_TARGETS)
def test_method_targets_resolve(module, cls, attr, span):
    assert attr in vars(getattr(library(module), cls))


@pytest.mark.parametrize("name", ["_abs_bound_max", "_conv_arrays"])
def test_grid_helpers_take_two_arrays(name):
    fn = getattr(library("gridops"), name)
    assert len(inspect.signature(fn).parameters) == 2
