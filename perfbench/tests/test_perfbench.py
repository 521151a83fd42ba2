"""Tests of the benchmark itself: tiny smoke runs and negative checks.

Run from the root of the checkout with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"hilbert-motivic": 12, "hodge-surfaces": 8, "axioms-small": 4}


def solved_round(name, seed=7):
    w = workloads.WORKLOADS[name]
    cases = w.round(seed, 0, TINY[name])
    return w, [(case, w.solve(case)) for case in cases]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_verifies(name):
    w, solved = solved_round(name)
    refs = {}
    assert all(w.check(case, result, refs) for case, result in solved)


def bump(series):
    """The series with one coefficient of its top term off by one."""
    terms = dict(series.coefficients[-1].terms)
    exps = next(iter(terms), (0,) * series.ring.nvars)
    terms[exps] = terms.get(exps, 0) + 1
    top = workloads.Polynomial(series.ring, terms)
    return workloads.Series(series.ring, series.order,
                            list(series.coefficients[:-1]) + [top])


def corruptions(name, result):
    """Every way the tests spoil one coefficient of a workload's result."""
    if name == "axioms-small":
        for i, (law, left, right) in enumerate(result):
            spoilt = list(result)
            spoilt[i] = (law, bump(left), right)
            yield spoilt
    else:
        series, euler = result
        yield bump(series), euler
        yield series, bump(euler)


@pytest.mark.parametrize("name", sorted(TINY))
def test_coefficient_off_by_one_fails(name):
    w, solved = solved_round(name)
    refs = {}
    for case, result in solved:
        for spoilt in corruptions(name, result):
            assert not w.check(case, spoilt, refs), case.label


def test_rounds_repeat_for_a_seed():
    w = workloads.WORKLOADS["axioms-small"]
    first = [(c.label, c.data["A"], c.data["m"]) for c in w.round(3, 1, 4)]
    again = [(c.label, c.data["A"], c.data["m"]) for c in w.round(3, 1, 4)]
    assert first == again


def test_euler_product_counts_partitions():
    assert reference.euler_product(1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_goettsche_signed_class():
    # (1 - u t)^1 (1 - v t)^1 at k = 1 gives 1 - (u + v) t + u v t^2 + ...
    series = reference.goettsche_series({(1, 0): -1, (0, 1): -1}, (1, 1), 2)
    assert series[1] == {(1, 0): -1, (0, 1): -1}
    assert series[2] == {(1, 1): 1, (1, 2): -1, (2, 1): -1}


def test_tracer_restores_library():
    import motivic_power
    from motivic_power import gridops, power, series

    before = (power.pow_series, motivic_power.pow_series, series.Series.__mul__,
              gridops.Slot.__dict__["wrap"], gridops._conv_arrays)
    w, _ = solved_round("hilbert-motivic")
    tracer = Tracer()
    with tracer.installed():
        assert power.pow_series is not before[0]
        with tracer.solve_span(0):
            w.solve(w.round(1, 0, TINY["hilbert-motivic"])[0])
    after = (power.pow_series, motivic_power.pow_series, series.Series.__mul__,
             gridops.Slot.__dict__["wrap"], gridops._conv_arrays)
    assert after == before
    summary = tracer.summary()
    assert summary["power.pow_series"]["calls"] == 1
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(summary["bench.solve"]["busy_s"])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name,trace", [(n, 0) for n in sorted(TINY)]
                         + [("hilbert-motivic", 1)])
def test_smoke_run_prints_result(name, trace):
    out = bench("--workload", name, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--order", str(TINY[name]))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "axioms-small", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
