"""Every metric the benchmark reports: name, unit, direction, and for a
per-layer metric the end-to-end metric and workload it should move.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds; ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from spans import check_metric_name


# Each workload with the reason it was chosen.
WORKLOADS: Dict[str, str] = {
    "train-deploy": (
        "The paper's own use: train in the Mirage format, deploy on the "
        "ideal and a noisy photonic core, run Fig. 8; quant and nn dominate "
        "and only here is photonic reached."
    ),
    "decode-exec": (
        "Continuous-batching decode with functional GEMMs and unshared "
        "prompts: decode-shape GEMM overhead and the scheduler dominate, "
        "the prefix cache is bypassed."
    ),
    "prefix-storm": (
        "Analytic engine with program tracing, 90% shared prompts and a "
        "fault storm: no GEMM runs, so scheduler, KV, prefix, recovery, "
        "telemetry and tracing carry the cost."
    ),
    "diurnal-runtime": (
        "Request-level runtime over four diurnal cycles with micro-batching, "
        "autoscaling and cache-affinity workers: the only workload on the "
        "event heap, batcher and autoscaler."
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    # For a per-layer metric: "<end-to-end metric> on <workloads>".
    moves: str = ""


# End to end, on every workload.  Host metrics are medians over the
# repetitions of one run, in process CPU seconds divided by the host's
# slowdown sampled during the body (``hostspeed.py``);
# ``completed_share`` and ``sim_items_per_s`` depend only on the seed.
# The host-time bounds are the widest allowed: a shared host's speed
# changes faster than the samples can follow it exactly.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("norm_body_s", "s", "lower", 0.25),
    Metric("norm_items_per_s", "items/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("completed_share", "fraction", "higher", 0.01),
    Metric("sim_items_per_s", "items/s", "higher", 0.1),
]

_SERVING = "decode-exec, prefix-storm, diurnal-runtime"
_ENGINES = "decode-exec, prefix-storm"


def _layer(name, unit, better, moves):
    return Metric(name, unit, better, None, moves)


PER_LAYER: List[Metric] = [
    # Host time and work per layer (traced run).
    _layer("quant.calls", "count", "lower", "norm_items_per_s on train-deploy"),
    _layer("quant.busy_s", "s", "lower", "norm_items_per_s on train-deploy"),
    _layer("nn.calls", "count", "lower", "norm_items_per_s on train-deploy"),
    _layer("nn.busy_s", "s", "lower", "norm_items_per_s on train-deploy"),
    _layer("core.calls", "count", "lower",
           "norm_items_per_s on train-deploy, decode-exec, diurnal-runtime"),
    _layer("core.busy_s", "s", "lower",
           "norm_items_per_s on train-deploy, decode-exec, diurnal-runtime"),
    _layer("core.us_per_call", "us", "lower", "norm_items_per_s on decode-exec"),
    _layer("core.macs", "count", "lower",
           "none: the GEMM work is fixed by the inputs"),
    _layer("core.cache_hit_ratio", "fraction", "higher",
           "norm_items_per_s on decode-exec, diurnal-runtime"),
    _layer("bfp.calls", "count", "lower", "norm_items_per_s where core runs"),
    _layer("bfp.busy_s", "s", "lower", "norm_items_per_s where core runs"),
    _layer("rns.calls", "count", "lower", "norm_items_per_s where core runs"),
    _layer("rns.busy_s", "s", "lower", "norm_items_per_s where core runs"),
    _layer("photonic.calls", "count", "lower", "norm_body_s on train-deploy"),
    _layer("photonic.busy_s", "s", "lower", "norm_body_s on train-deploy"),
    _layer("arch.pricing_calls", "count", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("arch.pricing_s", "s", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("arch.crosscheck_s", "s", "lower", "norm_items_per_s on prefix-storm"),
    _layer("arch.fig8_s", "s", "lower", "norm_body_s on train-deploy"),
    _layer("engine.self_s", "s", "lower",
           "norm_items_per_s on prefix-storm, then decode-exec"),
    _layer("report.self_s", "s", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("kv.calls", "count", "lower", "norm_items_per_s on prefix-storm"),
    _layer("kv.busy_s", "s", "lower", "norm_items_per_s on prefix-storm"),
    _layer("prefix.calls", "count", "lower", "norm_items_per_s on prefix-storm"),
    _layer("prefix.busy_s", "s", "lower",
           "norm_items_per_s on prefix-storm; no change on decode-exec"),
    _layer("pool.calls", "count", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("pool.busy_s", "s", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("faults.calls", "count", "lower", "norm_items_per_s on prefix-storm"),
    _layer("faults.busy_s", "s", "lower", "norm_items_per_s on prefix-storm"),
    _layer("telemetry.calls", "count", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("telemetry.busy_s", "s", "lower", f"norm_items_per_s on {_SERVING}"),
    _layer("obs.events", "count", "lower",
           "norm_items_per_s and peak_rss_mb on prefix-storm; 0 elsewhere"),
    _layer("obs.busy_s", "s", "lower", "norm_items_per_s on prefix-storm"),
    _layer("runtime.self_s", "s", "lower", "norm_items_per_s on diurnal-runtime"),
    _layer("batcher.calls", "count", "lower", "norm_items_per_s on diurnal-runtime"),
    _layer("batcher.busy_s", "s", "lower", "norm_items_per_s on diurnal-runtime"),
    _layer("autoscaler.calls", "count", "lower", "norm_items_per_s on diurnal-runtime"),
    _layer("autoscaler.busy_s", "s", "lower", "norm_items_per_s on diurnal-runtime"),
    _layer("traffic.busy_s", "s", "lower", "setup_s on every workload"),
    _layer("bench.unspanned_s", "s", "lower",
           "none: the benchmark's own code between layer calls"),
    _layer("trace.wall_s", "s", "lower",
           "none: traced set-up plus body, the sum of every self time above"),
    _layer("trace.spans", "count", "lower", "none: spans recorded"),
    _layer("trace.overhead", "x", "lower",
           "none: traced over untraced body time"),
    # Host throughput of the body's stages (untraced repetition).
    _layer("train_samples_per_s", "samples/s", "higher",
           "norm_items_per_s on train-deploy"),
    _layer("deploy_images_per_s", "images/s", "higher",
           "norm_items_per_s on train-deploy"),
    _layer("sessions_per_s", "sessions/s", "higher", f"norm_items_per_s on {_ENGINES}"),
    _layer("requests_per_s", "req/s", "higher", "norm_items_per_s on diurnal-runtime"),
    # Simulated per-layer statistics; they repeat exactly for one seed.
    _layer("engine.steps", "count", "lower", f"sim_items_per_s on {_ENGINES}"),
    _layer("engine.preemptions", "count", "lower", f"sim_items_per_s on {_ENGINES}"),
    _layer("engine.sim_mean_batch", "sessions", "higher",
           f"sim_items_per_s on {_ENGINES}"),
    _layer("engine.sim_queue_wait_p50_s", "s", "lower",
           f"sim_latency_p50_s on {_ENGINES}"),
    _layer("kv.peak_occupancy", "fraction", "lower", "sim_items_per_s on prefix-storm"),
    _layer("prefix.block_hit_rate", "fraction", "higher",
           "sim_items_per_s on prefix-storm"),
    _layer("faults.injected", "count", "lower", "completed_share on prefix-storm"),
    _layer("faults.retried_tokens", "count", "lower",
           "sim_items_per_s on prefix-storm"),
    _layer("batcher.sim_mean_batch", "requests", "higher",
           "sim_items_per_s on diurnal-runtime"),
    _layer("autoscaler.sim_replica_seconds", "s", "lower",
           "none: cost of the simulated fleet on diurnal-runtime"),
    # User-visible results of single workloads; they repeat exactly for
    # one seed.  Served-latency figures have no reference in the
    # repository and are unvalidated.
    _layer("train_accuracy", "fraction", "higher", "quality on train-deploy"),
    _layer("noisy_agreement", "fraction", "higher", "quality on train-deploy"),
    _layer("sim_train_speedup", "x", "higher",
           "Fig. 8 on train-deploy (paper: 23.8x)"),
    _layer("sim_train_edp_gain", "x", "higher",
           "Fig. 8 on train-deploy (paper: 32.1x)"),
    _layer("sim_tokens_per_s", "tokens/s", "higher", f"sim_items_per_s on {_ENGINES}"),
    _layer("sim_latency_p50_s", "s", "lower", f"served latency on {_SERVING}"),
    _layer("sim_latency_p99_s", "s", "lower", f"served latency on {_SERVING}"),
    _layer("sim_latency_samples", "count", "higher",
           f"sample count behind the latency percentiles on {_SERVING}"),
    _layer("slo_attainment", "fraction", "higher", f"served quality on {_SERVING}"),
    _layer("failed_share", "fraction", "lower", "1 - completed_share"),
]

# Layers whose self time and entries are reported as ``<layer>.busy_s``
# and ``<layer>.calls``.
BUSY_LAYERS = (
    "quant", "nn", "core", "bfp", "rns", "photonic", "kv", "prefix", "pool",
    "faults", "telemetry", "obs", "batcher", "autoscaler", "traffic",
)


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The repository's ``BENCHMARK.json`` document."""

    def entry(m: Metric, with_bound: bool) -> dict:
        out = {"name": check_metric_name(m.name), "unit": m.unit, "better": m.better}
        if with_bound:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": check_metric_name(n), "why": w} for n, w in WORKLOADS.items()
        ],
        "end_to_end": [entry(m, True) for m in END_TO_END],
        "per_layer": [entry(m, False) for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json
    import sys

    json.dump(benchmark_json(int(sys.argv[1])), sys.stdout, indent=2)
    sys.stdout.write("\n")
