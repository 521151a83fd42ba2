"""``scripts/bench_pairs.py``'s statistics, on synthetic runs only.

Nothing here launches the benchmark: ``quartiles`` and ``report`` are
fed made-up metrics, and ``main`` is stopped at its argument check.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script()


def test_quartiles():
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_report_counts_wins_in_each_metric_direction(capsys):
    better = {"solves_per_s": "higher", "solve_s_p50": "lower"}
    runs = []
    for i in range(10):
        # the change is faster in pairs 0-6, equal in pair 7, slower after
        rate = 2.0 if i < 7 else (1.0 if i == 7 else 0.5)
        parent = {"solves_per_s": 1.0, "solve_s_p50": 1.0, "failed": 0}
        change = {"solves_per_s": rate, "solve_s_p50": 1.0 / rate,
                  "failed": 1 if i == 9 else 0}
        runs.append((parent, change))
    bench_pairs.report("synthetic", runs, better,
                       {"solves_per_s": 0.24, "solve_s_p50": 0.24})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== synthetic"
    assert len([line for line in out if line.startswith("pair ")]) == 10
    assert out[10].endswith("failed 0/1")
    summary = {line.split()[0]: line for line in out[11:]}
    assert summary.keys() == better.keys()
    for name in better:
        assert summary[name].endswith("change won 7/10")
    assert "parent 1 [1, 1]" in summary["solves_per_s"]
    assert "change 2 [1.25, 2]" in summary["solves_per_s"]
    assert "x2.000" in summary["solves_per_s"]
    # seven pairs faster, the parent's runs all equal: no spread to hide in
    assert "within bound" in summary["solves_per_s"]


def runs_of(parent, change):
    return [({"solves_per_s": p, "failed": 0}, {"solves_per_s": c, "failed": 0})
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent,change,want", [
    # medians 10 and 9.5: 5% worse, inside a 24% bound
    ([9.8, 10.0, 10.2, 10.0, 9.9], [9.5, 9.4, 9.6, 9.5, 9.5], "within bound"),
    # medians 10 and 7: 30% worse, past the bound, with a tight parent
    ([9.8, 10.0, 10.2, 10.0, 9.9], [7.0, 6.9, 7.1, 7.0, 7.0],
     "worse by 30.0% (bound 24%)"),
    # the parent's quartiles 6..14 span 80% of its median: a 30% drop
    # cannot be told from its noise
    ([4.0, 6.0, 10.0, 14.0, 16.0], [7.0, 6.0, 8.0, 7.0, 7.0], "unresolved"),
    # as wide, but every change run beats every parent run
    ([4.0, 6.0, 10.0, 14.0, 16.0], [17.0, 18.0, 19.0, 20.0, 21.0],
     "within bound"),
])
def test_report_gives_a_verdict_per_metric(capsys, parent, change, want):
    bench_pairs.report("synthetic", runs_of(parent, change),
                       {"solves_per_s": "higher"}, {"solves_per_s": 0.24})
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("solves_per_s")
    assert "  %s  change won" % want in summary


def test_unknown_workload_is_refused_before_any_run(capsys, monkeypatch):
    root = str(SCRIPT.parents[1]).encode()
    monkeypatch.setattr(bench_pairs, "git", lambda *args: root)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail(
        "a benchmark run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--workloads", "no-such-load"])
    assert exc.value.code == 2
    assert "unknown workload(s) no-such-load" in capsys.readouterr().err


@pytest.mark.parametrize("parent,change,want", [
    # nine pairs won and one tied out of ten; the medians 10 and 12
    # differ by more than the parent's quartile distance 9.5..10.5
    ([9.0, 9.5, 10.0, 10.0, 10.5, 10.5, 11.0, 9.5, 10.0, 10.0],
     [12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 10.0],
     "gain met"),
    # the same medians, but the change wins only eight pairs
    ([9.0, 9.5, 10.0, 10.0, 10.5, 10.5, 11.0, 9.5, 12.5, 12.5],
     [12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0, 12.0],
     "gain not met"),
    # every pair won, but the median gain of 1 is within the parent's
    # quartile distance 8..12
    ([4.0, 6.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 14.0, 16.0],
     [5.0, 7.0, 9.0, 9.0, 11.0, 11.0, 13.0, 13.0, 15.0, 17.0],
     "gain not met"),
])
def test_report_says_whether_a_gain_meets_the_rule(capsys, parent, change,
                                                   want):
    for name, better, flip in (("solves_per_s", "higher", 1),
                               ("solve_s_p50", "lower", -1)):
        runs = [({name: flip * p, "failed": 0}, {name: flip * c, "failed": 0})
                for p, c in zip(parent, change)]
        bench_pairs.report("synthetic", runs, {name: better}, {name: 0.24})
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith(name)
        assert "  %s  " % want in summary


@pytest.mark.parametrize("args,seeds", [
    ([], [1, 2, 3]),
    (["--first-seed", "11"], [11, 12, 13]),
])
def test_first_seed_sets_every_pair_seed(capsys, monkeypatch, args, seeds):
    root = SCRIPT.parents[1]
    monkeypatch.setattr(bench_pairs, "git", lambda *a: str(root).encode())
    monkeypatch.setattr(bench_pairs, "export", lambda root, rev, into: into)
    ran = []

    def run_once(tree, bench, workload, seed):
        ran.append(("change" if tree == root else "parent", seed))
        return {"solves_per_s": 1.0, "solve_s_p50": 1.0, "peak_rss_mb": 1.0,
                "verified_frac": 1.0, "setup_s": 1.0, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD", "--pairs", "3",
                             "--workloads", "hodge-surfaces"] + args) == 0
    # one run per side and seed; the side that runs first alternates
    assert ran == [("parent", seeds[0]), ("change", seeds[0]),
                   ("change", seeds[1]), ("parent", seeds[1]),
                   ("parent", seeds[2]), ("change", seeds[2])]
    out = capsys.readouterr()
    assert "seeds %d..%d" % (seeds[0], seeds[-1]) in out.out
    assert "hodge-surfaces pair 3 (seed %d) done" % seeds[2] in out.err


def test_no_pairs_is_refused_before_any_run(capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail(
        "a benchmark run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--pairs", "0"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
