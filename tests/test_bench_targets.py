"""The benchmark's tracer and set-up probe use library names.

``perfbench/tracer.py`` lists the functions it wraps in
``FUNCTION_TARGETS`` and ``METHOD_TARGETS``, and ``perfbench/probe.py``
calls ``power``, ``localdata`` and ``rings`` attributes before any
workload runs; every one must still resolve in the library, or every
benchmark run fails.  Both files are read as they are, never edited
here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PROBE = TRACER.with_name("probe.py")
PROBED = ("power", "localdata", "rings")


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


def probed(node):
    """``(module, attr)`` when ``node`` reads ``module.attr`` of ``PROBED``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in PROBED):
        return node.value.id, node.attr
    return None


def probe_uses():
    """Each ``module.attr`` of ``PROBED`` that probe.py reads, with the
    keywords of every call made to it."""
    uses = {}
    for node in ast.walk(ast.parse(PROBE.read_text(encoding="utf-8"))):
        if probed(node):
            uses.setdefault(probed(node), set())
        if isinstance(node, ast.Call) and probed(node.func):
            uses.setdefault(probed(node.func), set()).update(
                k.arg for k in node.keywords)
    return uses


PROBE_USES = probe_uses()


def test_the_probe_builds_a_kernel_over_sample_rings():
    assert "sample_rings" in PROBE_USES[("power", "Kernel")]
    assert ("localdata", "load_surface_series") in PROBE_USES
    assert {("rings", "INTEGERS"), ("rings", "RingDescriptor")} <= set(PROBE_USES)


@pytest.mark.parametrize("module,attr", sorted(PROBE_USES))
def test_probe_names_resolve(module, attr):
    value = getattr(library(module), attr)
    keywords = PROBE_USES[(module, attr)]
    if keywords:
        assert keywords <= set(inspect.signature(value).parameters)
