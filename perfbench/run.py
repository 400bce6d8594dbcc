"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload is set up and run repeatedly,
untraced, until its timed bodies' CPU time adds up to ``--seconds``, and
the end-to-end metrics are reported, host times normalised for the
host's speed during each body (``hostspeed.py``).  With ``--trace 1`` one
untraced and one traced repetition alternate for the same time; the
traced one wraps the program's public entry points (``layers.py``) and
the per-layer metrics come from its spans, which are written to
``perfbench/out/``.

Every repetition's outputs are checked outside the timed regions, and
every seed-determined result must repeat exactly across repetitions and
between traced and untraced runs.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import gzip
import json
import os
import resource
import sys
import time
from pathlib import Path

from catalog import BUSY_LAYERS, PER_LAYER, WORKLOADS, by_name
from layers import layer_targets, traced
from spans import SpanRecorder, layer_totals, median, root_wall, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPETITIONS = 3
MAX_REPETITIONS = 200
# Set-up is short next to the body, so each repetition sets up this many
# times (keeping the last) to give its median enough samples.
SETUPS_PER_REPETITION = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """Counts, checks and the determinism guard of one invocation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None  # what guard() saw in the first repetition

    def add_checks(self, rep, checks):
        for check in checks:
            self.attempted += 1
            if not check.ok:
                self.failed += 1
                self.failures.append(f"rep {rep} [{check.name}] {check.detail}")

    def add_outcome(self, outcome):
        self.attempted += outcome.items
        self.failed += outcome.failed_items

    def guard(self, rep, label, outcome):
        """Seed-determined numbers must equal the first repetition's."""
        wl = self.workload
        seen = (wl.results(outcome), wl.stats(outcome),
                wl.sim_items_per_s(outcome), outcome.failed_items)
        self.attempted += 1
        if self.reference is None:
            self.reference = seen
            return seen
        if seen != self.reference:
            self.failed += 1
            self.failures.append(
                f"rep {rep} ({label}) determinism guard: seed-determined "
                f"results differ from repetition 0"
            )
        return seen


def _timed(fn, *args):
    """``fn(*args)`` with the process CPU time and the wall time it took.

    The process is single-threaded, so its CPU time is its wall time less
    the time the host gave its CPU to other guests."""
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    value = fn(*args)
    return value, time.process_time() - c0, time.perf_counter() - t0


def _timed_sampled(fn, *args):
    """``fn(*args)``, its CPU time less the host-speed probes' and the
    ``HostSpeed`` that sampled the host while it ran."""
    from hostspeed import HostSpeed

    gc.collect()
    speed = HostSpeed()
    c0 = time.process_time()
    with speed:
        value = fn(*args)
    return value, time.process_time() - c0 - speed.spent_s, speed


def run_untraced(wl, seconds):
    """Repeat set-up and body until the bodies' CPU time fills ``seconds``.

    Host metrics are medians over the repetitions of normalised CPU
    seconds (``hostspeed.py``): a repetition's set-up and body CPU times
    divided by the host's slowdown sampled all through its body."""
    run = Run(wl)
    setups, bodies, cpus, slowdowns = [], [], [], []
    rep = 0
    while rep < MAX_REPETITIONS and (rep < MIN_REPETITIONS or sum(cpus) < seconds):
        rep_setups = []
        for _ in range(SETUPS_PER_REPETITION):
            state, setup_s, _ = _timed(wl.setup)
            rep_setups.append(setup_s)
        outcome, cpu_s, speed = _timed_sampled(wl.body, state)
        slowdown = speed.slowdown()
        setups.extend(v / slowdown for v in rep_setups)
        bodies.append(cpu_s / slowdown)
        cpus.append(cpu_s)
        slowdowns.append(slowdown)
        items = outcome.items
        run.add_outcome(outcome)
        run.add_checks(rep, wl.check(state, outcome))
        results, stats, sim_rate, _ = run.guard(rep, "untraced", outcome)
        del state, outcome
        rep += 1
    metrics = {
        "setup_s": median(setups),
        "norm_body_s": median(bodies),
        "norm_items_per_s": items / median(bodies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_share": 1.0 - run.failed / run.attempted,
        "sim_items_per_s": sim_rate,
    }
    info = {"repetitions": rep, "cpus": cpus, "slowdowns": slowdowns,
            "results": results, "stats": stats}
    return run, metrics, info


def run_traced(wl, seconds, seed):
    """Alternate untraced and traced repetitions.  Per-layer metrics and
    the written spans come from the first traced repetition; later ones
    only add to the overhead ratio, and their spans are dropped to bound
    memory."""
    run = Run(wl)
    targets = layer_targets()
    ratios, first, rates = [], None, {}
    spent = 0.0
    rep = 0
    while rep < MAX_REPETITIONS and (first is None or spent < seconds):
        state, _, _ = _timed(wl.setup)
        # Spans are timed on the wall clock, so the overhead ratio is too.
        outcome, _, untraced_s = _timed(wl.body, state)
        run.add_outcome(outcome)
        run.add_checks(rep, wl.check(state, outcome))
        run.guard(rep, "untraced", outcome)
        if not rates:
            rates = wl.stage_rates(outcome)
        del state, outcome
        rep += 1

        rec = SpanRecorder(wl.name, rep)
        gc.collect()
        with traced(rec, targets, callers=("repro", "workloads")):
            idx = rec.open("bench.setup", "bench")
            state = wl.setup()
            rec.close(idx)
            idx = rec.open("bench.body", "bench")
            outcome = wl.body(state)
            rec.close(idx)
        traced_s = rec.ends[idx] - rec.starts[idx]
        run.add_outcome(outcome)
        run.add_checks(rep, wl.check(state, outcome))
        results, stats, _, _ = run.guard(rep, "traced", outcome)
        del state, outcome
        rep += 1

        ratios.append(traced_s / untraced_s)
        if first is None:
            first = rec
        del rec
        spent += untraced_s + traced_s

    layer_metrics, reconstruct_error = per_layer(first)
    run.attempted += 1
    if reconstruct_error > 1e-6 * max(1.0, layer_metrics["trace.wall_s"]):
        run.failed += 1
        run.failures.append(
            f"self times miss the traced wall time by {reconstruct_error:.3g} s"
        )
    values = dict(layer_metrics)
    values["trace.overhead"] = median(ratios)
    values.update(stats)
    values.update(results)
    values.update(rates)
    values["failed_share"] = run.failed / run.attempted
    metrics = {m.name: values.get(m.name, 0.0) for m in PER_LAYER}
    path = write_spans(first, seed)
    info = {"repetitions": rep, "spans_file": path, "results": results,
            "stats": stats}
    return run, metrics, info


def per_layer(rec):
    """Per-layer metrics of one traced repetition, and how far the sum of
    all self times is from the traced wall time."""
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    totals = layer_totals(rec, selfs)
    out = {}
    for layer in BUSY_LAYERS:
        row = totals.get(layer, {})
        out[f"{layer}.busy_s"] = row.get("self_s", 0.0)
        out[f"{layer}.calls"] = row.get("entries", 0)
    out["obs.events"] = totals.get("obs", {}).get("spans", 0)
    core = totals.get("core", {})
    out["core.us_per_call"] = (
        1e6 * core["entry_s"] / core["entries"] if core.get("entries") else 0.0
    )
    out["core.macs"] = rec.counters.get("core.macs", 0.0)

    # Pricing during a run versus the cross-check that report() makes.
    in_report = _under(rec, "report")
    pricing_s = crosscheck_s = 0.0
    pricing_calls = 0
    for i, layer in enumerate(rec.layers):
        if layer != "arch":
            continue
        if in_report[i]:
            crosscheck_s += selfs[i]
        else:
            pricing_s += selfs[i]
            parent = rec.parents[i]
            pricing_calls += parent < 0 or rec.layers[parent] != "arch"
    out["arch.pricing_s"] = pricing_s
    out["arch.pricing_calls"] = pricing_calls
    out["arch.crosscheck_s"] = crosscheck_s
    out["arch.fig8_s"] = totals.get("arch.fig8", {}).get("self_s", 0.0)
    for layer in ("engine", "runtime", "report"):
        out[f"{layer}.self_s"] = totals.get(layer, {}).get("self_s", 0.0)
    out["bench.unspanned_s"] = totals.get("bench", {}).get("self_s", 0.0)
    wall = root_wall(rec)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(rec)
    return out, abs(sum(selfs) - wall)


def _under(rec, layer):
    """For each span, whether some ancestor belongs to ``layer``."""
    flags = []
    for i, parent in enumerate(rec.parents):
        flags.append(parent >= 0 and (rec.layers[parent] == layer or flags[parent]))
    return flags


def write_spans(rec, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{rec.workload}-seed{seed}.csv.gz"
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "layer", "start_s", "end_s", "parent",
                         "workload", "repetition"])
        writer.writerows(rec.rows())
    return str(path.relative_to(ROOT))


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(wl, args, run, metrics, info):
    from workloads import HELD_OUT_SEED, PAPER_TRAIN_EDP_GAIN, PAPER_TRAIN_SPEEDUP

    specs = by_name()
    print(f"workload {wl.name}  seed {args.seed}  (held-out seed for claims: "
          f"{HELD_OUT_SEED})  trace {args.trace}  repetitions {info['repetitions']}")
    print(f"  items: {wl.item}")
    if "slowdowns" in info:
        print("  body per repetition, CPU: "
              + " ".join(f"{v:.4g}" for v in info["cpus"]) + " s")
        print("  host slowdown per repetition: "
              + " ".join(f"{v:.3g}" for v in info["slowdowns"]))
    if "spans_file" in info:
        print(f"  spans written to {info['spans_file']}")
    for name, value in metrics.items():
        spec = specs[name]
        print(f"  {name} = {_fmt(value)} {spec.unit} ({spec.better} is better)")
    results = info["results"]
    if "sim_train_speedup" in results:
        print(f"  sim_train_speedup {results['sim_train_speedup']:.3g}x "
              f"(paper {PAPER_TRAIN_SPEEDUP}x); sim_train_edp_gain "
              f"{results['sim_train_edp_gain']:.3g}x (paper {PAPER_TRAIN_EDP_GAIN}x)")
    if "sim_latency_p50_s" in results:
        print("  served simulated latency has no reference in the repository: "
              "the figures are unvalidated")
    if args.trace == 0:
        for name, value in results.items():
            unit = specs[name].unit if name in specs else ""
            print(f"  result {name} = {_fmt(value)} {unit}")
    for failure in run.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'}); "
              "run from the root of a full source checkout", file=sys.stderr)
        return 2
    # One single-threaded process per workload: BLAS thread pools would
    # add threads and run-to-run noise.  Must precede importing numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOAD_CLASSES

    wl = WORKLOAD_CLASSES[args.workload](args.seed)
    if args.trace:
        run, metrics, info = run_traced(wl, args.seconds, args.seed)
    else:
        run, metrics, info = run_untraced(wl, args.seconds)
    report(wl, args, run, metrics, info)
    correct = run.failed == 0
    specs = by_name()
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": specs[name].unit}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
