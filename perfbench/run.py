"""Benchmark of motivic-power: one workload per process, results checked.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload hilbert-motivic --seed 1 \
        --seconds 25 --trace 0

The library is imported from ``src/`` of the same checkout.  The run

1. starts fresh interpreters that import the library and load its data,
   and reports the median time they took to become ready (``setup_s``);
2. warms up on one round of small inputs;
3. solves whole rounds of seeded inputs until ``--seconds`` have passed,
   timing each solve and, at least once a second, a fixed calibration
   kernel (``calibrate.py``);
4. checks every result exactly against an independent reference,
   outside the timed region;
5. prints the metrics as the last line of standard output, and writes
   the full record (and, with ``--trace 1``, the spans) to
   ``perfbench/out/``.

Every time in the metrics is in seconds at reference speed: wall time
scaled by the ratio of the calibration kernel's reference time to its
time measured next to the work (around a solve, or inside a set-up
probe), so that the machine's changes of speed cancel.  Raw wall times
stay in the descriptors and the record.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` rounds alternate between traced and untraced, and the
metrics are the per-layer ones, per traced solve, plus the traced and
untraced solve rates.  ``--order`` overrides the workload's order, for
smoke runs and one-off investigations.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("hilbert-motivic", "hodge-surfaces", "axioms-small")

CALIBRATE_EVERY_S = 1.0

END_TO_END = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
    "setup_s": "s",
}

# per-layer metric -> unit; values are per traced solve unless a ratio
PER_LAYER = {
    "setup.import_s": "s",
    "power.kernel_validate_s": "s",
    "localdata.load_s": "s",
    "hilbert.local_series.busy_s": "s/solve",
    "hilbert.global_series.busy_s": "s/solve",
    "hilbert.hodge_deligne_series.busy_s": "s/solve",
    "hilbert.euler_specialization.busy_s": "s/solve",
    "power.pow_series.calls": "count/solve",
    "power.pow_series.busy_s": "s/solve",
    "power.pow_series.self_s": "s/solve",
    "power.factor.calls": "count/solve",
    "power.factor.busy_s": "s/solve",
    "power.factor.self_s": "s/solve",
    "power.factor.cache_hit_frac": "ratio",
    "power.assemble.busy_s": "s/solve",
    "power.assemble.self_s": "s/solve",
    "power.fallback.calls": "count/solve",
    "series.mul.calls": "count/solve",
    "series.mul.busy_s": "s/solve",
    "series.inverse.calls": "count/solve",
    "series.inverse.busy_s": "s/solve",
    "rings.poly_mul.calls": "count/solve",
    "rings.poly_mul.busy_s": "s/solve",
    "gridops.add_pair.calls": "count/solve",
    "gridops.add_pair.self_s": "s/solve",
    "gridops.limb_conv.calls": "count/solve",
    "gridops.limb_conv.self_s": "s/solve",
    "gridops.certify.calls": "count/solve",
    "gridops.certify.self_s": "s/solve",
    "gridops.certify.hit_frac": "ratio",
    "gridops.int64_conv.calls": "count/solve",
    "gridops.int64_conv.self_s": "s/solve",
    "gridops.int64_conv.ops": "count/solve",
    "gridops.int64_conv.useful_frac": "ratio",
    "gridops.wrap.calls": "count/solve",
    "gridops.wrap.self_s": "s/solve",
    "gridops.slot_linear.calls": "count/solve",
    "gridops.slot_linear.self_s": "s/solve",
    "bench.glue.self_s": "s/solve",
    "trace.attributed_frac": "ratio",
    "trace.spans": "count/solve",
    "trace.solves_per_s_traced": "1/s",
    "trace.solves_per_s_untraced": "1/s",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The checkout does not hold a library this benchmark can run."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--order", type=int, default=None,
                   help="override the workload's series order")
    return p.parse_args(argv)


def pinned_environment() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARIABLES:
        env[var] = "1"
    return env


def load_library():
    """Import motivic_power from this checkout's src/, and nothing else."""
    if not (SRC / "motivic_power" / "__init__.py").is_file():
        raise SetupError("no library source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import motivic_power
    if SRC not in Path(motivic_power.__file__).resolve().parents:
        raise SetupError("motivic_power was imported from %s, not from %s"
                         % (motivic_power.__file__, SRC))
    return motivic_power


def probe_setup(env: dict, reference_s: float) -> dict:
    """Median readiness time of fresh interpreters, and its phases.

    Each probe's times are scaled to reference speed by the calibration
    kernel it timed itself.
    """
    walls, phases = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC)],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True)
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise SetupError("set-up probe failed (exit %s)" % proc.returncode)
        walls.append(ready - start)
        phases.append(json.loads(rest.strip().splitlines()[-1]))
    scales = [reference_s / p["calibration_s"] for p in phases]

    def scaled(key):
        return statistics.median(p[key] * k for p, k in zip(phases, scales))

    return {
        "setup_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "wall_setup_s": statistics.median(walls),
        "setup_walls_s": walls,
        "setup_calibration_s": [p["calibration_s"] for p in phases],
        "setup.import_s": scaled("import_s"),
        "power.kernel_validate_s": scaled("kernel_validate_s"),
        "localdata.load_s": scaled("load_s"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "motivic_power").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_rounds(workload, seed, order, seconds, tracer, calibration):
    """Solve whole rounds until ``seconds`` of solving have passed.

    Returns one record per solve.  The ``calibration`` module's kernel
    runs first, before a solve once ``CALIBRATE_EVERY_S`` of solving
    have passed since it last ran, and last; each solve's
    ``calibration_s`` is the mean of the two runs around it, and its
    ``ref_s`` is its wall time scaled to reference speed.  Each round's
    results are checked
    once the round is over, outside the timed region and with the
    tracer removed, and then dropped, so that held results do not
    inflate the peak memory.  At least one round runs.  With a tracer,
    even rounds run traced and odd rounds untraced, and at least one
    round of each runs.
    """
    records = []
    refs = {}
    calibrate = calibration.calibrate
    calibrations = [calibrate()]
    since = 0.0
    elapsed = 0.0
    index = 0
    while index < (1 if tracer is None else 2) or elapsed < seconds:
        traced = tracer is not None and index % 2 == 0
        scope = tracer.installed() if traced else nullcontext()
        cases = workload.round(seed, index, order)
        done = []
        with scope:
            for case in cases:
                record = {"round": index, "label": case.label, "traced": traced,
                          "error": None, "ok": False}
                result = None
                gc.collect()
                if since >= CALIBRATE_EVERY_S:
                    calibrations.append(calibrate())
                    since = 0.0
                record["calibration"] = len(calibrations) - 1
                span = tracer.solve_span(len(records)) if traced else nullcontext()
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    with span:
                        result = workload.solve(case)
                except Exception:
                    record["error"] = traceback.format_exc()
                t1 = time.perf_counter()
                record["wall_s"] = t1 - t0
                record["cpu_s"] = time.process_time() - c0
                elapsed += t1 - t0
                since += t1 - t0
                records.append(record)
                done.append((record, case, result))
        for record, case, result in done:
            check(workload, record, case, result, refs)
        index += 1
    calibrations.append(calibrate())
    for r in records:
        k = r["calibration"]
        r["calibration_s"] = (calibrations[k] + calibrations[k + 1]) / 2
        r["scale"] = calibration.REFERENCE_S / r["calibration_s"]
        r["ref_s"] = r["wall_s"] * r["scale"]
    return records


def check(workload, record, case, result, refs):
    """Verify one result exactly; a solve that raised fails."""
    if record["error"] is None:
        try:
            record["ok"] = bool(workload.check(case, result, refs))
            record["max_bits"], record["top_terms"] = workload.describe(result)
        except Exception:
            record["error"] = traceback.format_exc()
    if record["error"] is not None:
        print(record["error"], file=sys.stderr)
    if not record["ok"]:
        print("error: %s solve %r failed verification"
              % (workload.name, record["label"]), file=sys.stderr)


def rate(records, key="ref_s"):
    """Verified solves per second of solving (reference speed or wall)."""
    total = sum(r[key] for r in records)
    return sum(r["ok"] for r in records) / total if total > 0 else 0.0


def per_layer(tracer, records, setup):
    traced = [r for r in records if r["traced"]]
    solves = len(traced)
    summary = tracer.summary({i: r["scale"] for i, r in enumerate(records)
                              if r["traced"]})
    counts = tracer.counts

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def frac(num, den):
        return num / den if den else 0.0

    m = {k: setup[k] for k in ("setup.import_s", "power.kernel_validate_s",
                                "localdata.load_s")}
    for name in ("hilbert.local_series", "hilbert.global_series",
                 "hilbert.hodge_deligne_series", "hilbert.euler_specialization",
                 "power.pow_series", "power.factor", "power.assemble",
                 "power.fallback", "series.mul", "series.inverse",
                 "rings.poly_mul", "gridops.add_pair", "gridops.limb_conv",
                 "gridops.certify", "gridops.int64_conv", "gridops.wrap",
                 "gridops.slot_linear"):
        for field in ("calls", "busy_s", "self_s"):
            key = "%s.%s" % (name, field)
            if key in PER_LAYER:
                m[key] = get(name, field) / solves
    m["power.factor.cache_hit_frac"] = frac(
        counts["power.factor.cache_hits"], get("power.factor", "calls"))
    m["gridops.certify.hit_frac"] = frac(
        counts["gridops.certify.hits"], get("gridops.certify", "calls"))
    m["gridops.int64_conv.ops"] = counts["gridops.int64_conv.ops"] / solves
    m["gridops.int64_conv.useful_frac"] = frac(
        counts["gridops.int64_conv.useful"], counts["gridops.int64_conv.ops"])
    solve_wall = get("bench.solve", "busy_s")
    m["bench.glue.self_s"] = get("bench.solve", "self_s") / solves
    m["trace.attributed_frac"] = frac(solve_wall - get("bench.solve", "self_s"),
                                      solve_wall)
    m["trace.spans"] = sum(v["calls"] for v in summary.values()) / solves
    m["trace.solves_per_s_traced"] = rate(traced)
    m["trace.solves_per_s_untraced"] = rate([r for r in records if not r["traced"]])
    m["trace.overhead_frac"] = frac(m["trace.solves_per_s_untraced"],
                                    m["trace.solves_per_s_traced"]) - 1.0
    return m, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pinned_environment()
    os.environ.update({k: env[k] for k in THREAD_VARIABLES})
    try:
        mp = load_library()
    except (SetupError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import numpy
    import workloads
    import calibrate
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    order = args.order if args.order is not None else workload.order
    try:
        setup = probe_setup(env, calibrate.REFERENCE_S)
    except (SetupError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    warm_order = min(order, workload.warm_order)
    for case in workload.round(args.seed, -1, warm_order):
        workload.solve(case)

    tracer = Tracer() if args.trace else None
    records = run_rounds(workload, args.seed, order, args.seconds, tracer,
                         calibrate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    walls = [r["wall_s"] for r in records]
    ref_walls = [r["ref_s"] for r in records]
    if args.trace:
        metrics, spans = per_layer(tracer, records, setup)
        units = PER_LAYER
    else:
        spans = None
        metrics = {
            "solves_per_s": rate(records),
            "solve_s_p50": statistics.median(ref_walls),
            "peak_rss_mb": peak_rss_mb,
            "verified_frac": (attempted - failed) / attempted,
            "setup_s": setup["setup_s"],
        }
        units = END_TO_END

    descriptors = {
        "workload": workload.name,
        "seed": args.seed,
        "order": order,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": records[-1]["round"] + 1,
        "classes": [r["label"] for r in records],
        "max_coefficient_bits": max(r.get("max_bits", 0) for r in records),
        "top_coefficient_terms": max(r.get("top_terms", 0) for r in records),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "library": mp.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "reference_s": calibrate.REFERENCE_S,
        "calibration_s_p50": statistics.median(r["calibration_s"] for r in records),
        "setup_calibration_s": setup["setup_calibration_s"],
        "setup_walls_s": setup["setup_walls_s"],
        "wall_setup_s": setup["wall_setup_s"],
        "wall_solves_per_s": rate(records, "wall_s"),
        "wall_solve_s_p50": statistics.median(walls),
    }
    if len(walls) >= 100:
        descriptors["solve_s_p90"] = statistics.quantiles(ref_walls, n=10)[-1]
        descriptors["wall_solve_s_p90"] = statistics.quantiles(walls, n=10)[-1]

    OUT.mkdir(exist_ok=True)
    stem = "%s-order%d-seed%d-trace%d" % (workload.name, order, args.seed,
                                         args.trace)
    record = {
        "descriptors": descriptors,
        "metrics": metrics,
        "solves": [{k: r.get(k) for k in ("round", "label", "traced", "wall_s",
                                          "cpu_s", "calibration_s", "ref_s", "ok",
                                          "max_bits", "top_terms", "error")}
                   for r in records],
        "spans": spans,
    }
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / (stem + "-spans.npz"))

    print(json.dumps({"descriptors": descriptors}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
