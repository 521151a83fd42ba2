"""Alternating parent/change pairs of the end-to-end benchmark.

Usage (from anywhere inside a checkout):

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 \
        [--first-seed S] [--workloads hilbert-motivic ...]

The parent revision is exported with ``git archive`` into a temporary
directory, so the run sees only its committed files, as a fresh clone
would, and the repository's worktree list is never touched.  The change
side is this checkout's working tree.  For every workload of
``BENCHMARK.json`` (or only those named by ``--workloads``) the script
runs its command,

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with S its ``run_seconds``, on both sides for pair i = 1..N with seed
i + F - 1, F the ``--first-seed`` (1 by default), one run at a time: a
gain found on seeds 1..N can be rechecked on seeds not looked at while
the change was made.  The side that runs first alternates from pair to
pair, so a drift of the machine's speed does not favour either side.  It prints every pair, then, per metric,
both sides' medians and quartiles, a verdict against the metric's
``bound`` and the number of pairs the change won, taking "better" and
"bound" from ``BENCHMARK.json``.  The verdict is

* ``unresolved`` when the parent's quartile spread, relative to its
  median, is wider than the bound and not every change run reads better
  than every parent run: the runs cannot tell a move within the bound;
* ``worse by x% (bound y%)`` when the change's median is worse than the
  parent's by more than the bound;
* ``within bound`` otherwise.

Just before the verdict, ``gain met`` or ``gain not met`` says whether
the change shows a gain by the claim rule: it won at least nine tenths
of the pairs, ties counting for neither side, and its median is better
than the parent's by more than the parent's quartile distance.

The temporary directory is removed at the end, also when a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def export(root: Path, revision: str, into: Path) -> Path:
    """The committed files of ``revision`` under ``into``."""
    data = git(root, "archive", "--format=tar", revision)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    """One benchmark run; its metrics as name -> value."""
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]),
                            "--trace", "0"],
        cwd=str(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed in %s (exit %d):\n%s"
                           % (workload, seed, tree, proc.returncode,
                              proc.stderr[-2000:]))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    metrics["failed"] = last["failed"]
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict on its runs, against its relative ``bound``."""
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    if better == "higher":
        worse, clear = pm - cm, min(change) > max(parent)
    else:
        worse, clear = cm - pm, max(change) < min(parent)
    if p3 - p1 > bound * abs(pm) and not clear:
        return "unresolved"
    if worse > bound * abs(pm):
        return "worse by %.1f%% (bound %.0f%%)" % (
            100 * worse / abs(pm) if pm else float("inf"), 100 * bound)
    return "within bound"


def wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (y - x) > 0 for x, y in zip(parent, change))


def gain(parent: list, change: list, better: str) -> str:
    """Whether the runs show a gain: the change wins 9/10 of the pairs and
    its median beats the parent's by more than the parent's quartile
    distance."""
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    ahead = cm - pm if better == "higher" else pm - cm
    met = 10 * wins(parent, change, better) >= 9 * len(parent) \
        and ahead > p3 - p1
    return "gain met" if met else "gain not met"


def report(workload: str, runs: list, better: dict, bounds: dict) -> None:
    print("== %s" % workload)
    names = [k for k in runs[0][0] if k in better]
    for i, (parent, change) in enumerate(runs, start=1):
        print("pair %d: " % i + ", ".join(
            "%s %.4g/%.4g" % (k, parent[k], change[k]) for k in names)
            + ", failed %d/%d" % (parent["failed"], change["failed"]))
    for k in names:
        p = [pair[0][k] for pair in runs]
        c = [pair[1][k] for pair in runs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        ratio = cm / pm if pm else float("nan")
        print("%-14s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
              "x%.3f  %s  %s  change won %d/%d"
              % (k, pm, p1, p3, cm, c1, c3, ratio, gain(p, c, better[k]),
                 verdict(p, c, better[k], bounds[k]),
                 wins(p, c, better[k]), len(runs)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare with")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1, metavar="S",
                   help="the seed of the first pair; pair i runs seed "
                        "S + i - 1 (default 1)")
    p.add_argument("--workloads", nargs="+", metavar="NAME",
                   help="run only these workloads (default: all of them)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel")
                .decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = sorted(set(args.workloads) - set(workloads))
        if unknown:
            p.error("unknown workload(s) %s; BENCHMARK.json has %s"
                    % (", ".join(unknown), ", ".join(workloads)))
        workloads = [w for w in workloads if w in args.workloads]

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent = export(root, args.parent, scratch / "parent")
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        print("parent %s, change: the working tree, seeds %d..%d"
              % (git(root, "rev-parse", args.parent).decode().strip(),
                 seeds[0], seeds[-1]), flush=True)
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds, start=1):
                order = [(0, parent), (1, root)]
                if i % 2 == 0:
                    order.reverse()
                pair = [None, None]
                for side, tree in order:
                    pair[side] = run_once(tree, bench, workload, seed)
                runs.append(pair)
                print("%s pair %d (seed %d) done" % (workload, i, seed),
                      file=sys.stderr, flush=True)
            report(workload, runs, better, bounds)
            sys.stdout.flush()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
