"""Observability benchmark — the tracing plane on a replayed fault storm.

Replays the resilience storm (same traffic, fault plan and health policy
as ``bench_resilience.py``) through the token serving engine with the
full observability plane attached — span tracer, metrics registry,
hardware-attribution profiler and SLO burn-rate monitors — and writes
``BENCH_observability.json`` at the repo root.

Gates (the ISSUE bar):

* **gap-free timelines** — every completed session's phase spans
  (queue_wait / prefill / decode / stall / dispatch_wait) tile
  ``[arrival, retire]`` with *exact float boundaries*: no simulated
  nanosecond of a session's life is unaccounted for, even through
  preemption, replica death, stalls and recovery;
* **exact attribution** — the :class:`HardwareAttributionProfiler`
  re-derives every recorded step from ``arch.inference`` component
  pricing; the reconstruction must equal the recorded busy time
  **bit-for-bit** (``max_abs_error_s == 0.0`` and the attributed sum
  identical to the recorded sum);
* **lossless metrics export** — ``parse_prometheus_text(render())``
  recovers exactly ``registry.samples()``;
* **byte-identical replays** — two fresh traced runs of the same seeded
  storm dump byte-identical Chrome trace JSON and Prometheus text;
* **bounded overhead** — best-of-3 wall-clock of the fully traced run
  is <= 1.25x the untraced (``Observability(tracing=False)``) run, and
  tracing does not perturb the simulation (identical makespan and
  session count);
* **bit-exact critical path** — every completed session's per-phase
  latency breakdown (:func:`~repro.serve.session_breakdown`) sums
  *bit-exactly* to its enqueue→retire interval (``residual_s == 0.0``),
  and the fleet rollup reports every session exact;
* **replay diff is empty** — :func:`~repro.serve.export_run` of two
  seeded replays serializes byte-identically, ``diff_runs`` reports
  zero changes, and the ``python -m repro.serve.observability.diff``
  CLI exits 0 on the pair — while a perturbed-config run (half the
  batch size) makes the CLI exit 1;
* **bounded analysis overhead** — building every analysis artifact
  (both exports, the diff and the flight report with its per-session
  breakdowns and fleet rollup) costs <= 0.10x the traced run, both
  sides timed best-of-3 on the process CPU clock (``time.process_time``)
  so that load on the box skews neither side alone.

``REPRO_SMOKE=1`` (the default test tier, see the root conftest) runs a
tiny-trace fast pass of every gate except the wall-clock ratios (too
noisy at micro scale) without touching the committed JSON.

Run:  REPRO_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_observability.py -s
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import FaultTolerantCore, rrns_fault_rates
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultPlan,
    HealthPolicy,
    Observability,
    SLOSpec,
    SLOTracker,
    TokenServingEngine,
    decode_scenario,
    default_windows,
    diff_runs,
    fleet_rollup,
    parse_prometheus_text,
    report_to_markdown,
    session_breakdown,
)
from repro.serve.observability.diff import run_to_json

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"
pytestmark = [] if SMOKE else [pytest.mark.slow]

# Identical knobs to bench_resilience.py: the storm this plane observes
# is the storm the resilience gate already proves survivable.
RATE = 4e8 if SMOKE else 1.2e9
DURATION = 1e-7 if SMOKE else 4e-7
MAX_BATCH = 4 if SMOKE else 16
PROMPT_MEDIAN = 8 if SMOKE else 24
PROMPT_MAX = 24 if SMOKE else 96
DECODE_MEAN = 5 if SMOKE else 16
DECODE_MAX = 16 if SMOKE else 96
CLASS_MIX = {0: 4, 2: 1}
KV_FRACTION = 0.25
BLOCK_TOKENS = 16
TTFT_SLO_S = 2e-3
REPLICAS = 3
P_CHANNEL = 1e-3
SEED_TRAFFIC = 11
SEED_RUN = 5
SEED_STORM = 23
OVERHEAD_BUDGET = 1.25
ANALYSIS_BUDGET = 0.10
SLO_OBJECTIVE = 0.95


def _profile():
    rng = np.random.default_rng(0)
    dims = (16, 32, 16) if SMOKE else (48, 96, 48)
    model = Sequential(
        Linear(dims[0], dims[1], rng=rng), Tanh(), Linear(dims[1], dims[2], rng=rng)
    )
    kv = KVCacheSpec(num_layers=4, num_heads=8, head_dim=16)
    return DecodeModelProfile(
        "chat", model, kv, replicas=REPLICAS, ttft_slo_s=TTFT_SLO_S
    )


def _engine(observability=None, health=None, max_batch=MAX_BATCH):
    config = EngineConfig(
        max_batch_size=max_batch,
        block_tokens=BLOCK_TOKENS,
        kv_fraction=KV_FRACTION,
        recovery=True,
    )
    return TokenServingEngine(
        ExecutorPool(REPLICAS),
        _profile(),
        config,
        health=health,
        observability=observability,
    )


def _scenario():
    return decode_scenario(
        "chat",
        rate=RATE,
        duration=DURATION,
        prompt_median=PROMPT_MEDIAN,
        prompt_sigma=0.6,
        decode_mean=DECODE_MEAN,
        class_mix=CLASS_MIX,
        prompt_max=PROMPT_MAX,
        decode_max=DECODE_MAX,
        seed=SEED_TRAFFIC,
    )


def _storm(makespan):
    kills = FaultPlan.replica_kills(
        [(0.25 * makespan, 0), (0.40 * makespan, 1)]
    )
    rates = rrns_fault_rates(FaultTolerantCore().codec, P_CHANNEL)
    op_rate = 20.0 / max(rates["detected"], 1e-12) / makespan
    burst = FaultPlan.from_rrns_rates(
        rates,
        op_rate_per_s=op_rate,
        start=0.45 * makespan,
        stop=0.75 * makespan,
        seed=SEED_STORM,
        kv_loss_share=0.15,
    )
    return kills.merge(burst)


def _observability(makespan):
    slo = SLOTracker(
        SLOSpec("ttft", SLO_OBJECTIVE, default_windows(makespan))
    )
    return Observability(tracing=True, slo=slo)


def _traced_run(scenario, plan, health, makespan, tracing=True,
                max_batch=MAX_BATCH):
    obs = (
        _observability(makespan)
        if tracing
        else Observability(tracing=False)
    )
    engine = _engine(observability=obs, health=health, max_batch=max_batch)
    start, cpu_start = time.perf_counter(), time.process_time()
    telemetry = engine.run(scenario, seed=SEED_RUN, faults=plan)
    cpu_s = time.process_time() - cpu_start
    return obs, engine, telemetry, time.perf_counter() - start, cpu_s


def _analysis(obs, obs2, telemetry, telemetry2, engine, export_config):
    """Every analysis artifact of a traced replay pair: both run
    exports and their JSON, the replay diff, and the flight report."""
    export_a = obs.export(config=export_config, sessions=telemetry.sessions)
    export_b = obs2.export(config=export_config, sessions=telemetry2.sessions)
    json_a, json_b = run_to_json(export_a), run_to_json(export_b)
    replay_diff = diff_runs(export_a, export_b)
    report = obs.flight_report(
        name="observability bench storm",
        config=export_config,
        telemetry=telemetry,
        profile=engine.profile,
        accelerator=engine.service.accelerator,
        now=telemetry.makespan(),
    )
    return export_a, json_a, json_b, replay_diff, report_to_markdown(report)


def test_observability_storm():
    scenario = _scenario()

    # Fault-free pass just to size the storm and the burn windows.
    base = _engine()
    makespan = base.run(scenario, seed=SEED_RUN).makespan()
    plan = _storm(makespan)
    health = HealthPolicy(
        suspect_after_s=makespan / 200.0, dead_after_s=makespan / 60.0
    )

    obs, engine, telemetry, traced_s, traced_cpu = _traced_run(
        scenario, plan, health, makespan
    )
    tracer = obs.tracer
    assert telemetry.sessions, "storm run completed nothing to observe"

    # Gate (a): gap-free span timelines enqueue -> retire, exact floats.
    for s in telemetry.sessions:
        gaps = tracer.gaps(
            s.session_id, start=s.arrival_time, end=s.finish_time
        )
        assert not gaps, (
            f"session {s.session_id} timeline has uncovered intervals: "
            f"{gaps[:3]}"
        )

    # Gate (b): hardware attribution reconstructs every recorded step
    # bit-for-bit and the rollup sums exactly to recorded busy time.
    attribution = obs.profiler(engine.service.accelerator).attribute_engine(
        engine.profile, telemetry
    )
    assert attribution["checked_spans"] == len(telemetry.steps)
    assert attribution["max_abs_error_s"] == 0.0
    assert attribution["attributed_s"] == attribution["total_busy_s"]
    share = sum(r["share"] for r in attribution["components"])
    assert abs(share - 1.0) < 1e-9

    # Gate (c): the Prometheus text dump round-trips every sample exactly.
    prom_text = obs.registry.prometheus_text()
    assert parse_prometheus_text(prom_text) == obs.registry.samples()

    # Gate (e): byte-identical exports on a fresh replay of the same storm.
    obs2, _, telemetry2, *_ = _traced_run(scenario, plan, health, makespan)
    assert tracer.chrome_trace() == obs2.tracer.chrome_trace()
    assert prom_text == obs2.registry.prometheus_text()
    assert telemetry2.makespan() == telemetry.makespan()

    # Tracing must observe, never perturb: the untraced run is identical.
    _, _, untraced_tel, untraced_s, _ = _traced_run(
        scenario, plan, health, makespan, tracing=False
    )
    assert untraced_tel.makespan() == telemetry.makespan()
    assert len(untraced_tel.sessions) == len(telemetry.sessions)

    # The burn monitors saw every terminal event the telemetry recorded.
    slo_events = sum(m.total for m in obs.slo.monitors.values())
    terminal = (
        len(telemetry.sessions)
        + telemetry.sessions_failed
        + telemetry.sessions_shed
        + len(telemetry.rejected)
    )
    assert slo_events == terminal

    summary = tracer.summary()
    print("\nobservability (traced fault storm):")
    print(
        f"  sessions={len(telemetry.sessions)} steps={len(telemetry.steps)} "
        f"spans={summary['spans']} instants={summary['instants']}"
    )
    print(
        f"  attribution: {attribution['checked_spans']} spans, max_err="
        f"{attribution['max_abs_error_s']:.1e}, busy="
        f"{attribution['total_busy_s']:.3e}s "
        f"(stall {attribution['stall_s']:.3e}s)"
    )
    for row in attribution["components"][:5]:
        print(f"    {row['path']:28s} {row['share']:6.1%} ({row['spans']} spans)")
    print(
        f"  metrics: {len(obs.registry.samples())} samples round-trip exact; "
        f"slo events={slo_events} alerts={len(obs.slo.alerts_fired)}"
    )

    # Gate (f): every completed session's phase decomposition sums
    # bit-exactly to its enqueue->retire interval — the exact-rational
    # critical-path property, end to end through the storm.
    for s in telemetry.sessions:
        breakdown = session_breakdown(tracer, s)
        assert breakdown["exact"], (
            f"session {s.session_id} phase sums leave residual "
            f"{breakdown['residual_s']!r} s"
        )
        assert breakdown["residual_s"] == 0.0
    rollup = fleet_rollup(tracer, telemetry.sessions)
    assert rollup["exact_sessions"] == rollup["sessions"] == len(
        telemetry.sessions
    )

    # Gate (g): export/diff replay determinism.  The two replays export
    # byte-identically, diff to zero changes, and the CLI agrees (exit
    # 0); a perturbed-config run must flip the CLI to exit 1.  The
    # analysis pass (exports, diff, flight report) is timed for gate (h).
    export_config = {
        "scenario": scenario.name,
        "seed": SEED_RUN,
        "max_batch_size": MAX_BATCH,
    }
    analysis_args = (obs, obs2, telemetry, telemetry2, engine, export_config)
    analysis_start = time.process_time()
    export_a, json_a, json_b, replay_diff, report_md = _analysis(*analysis_args)
    analysis_cpu = time.process_time() - analysis_start
    assert json_a == json_b, (
        "seeded replays exported different run documents"
    )
    assert replay_diff["changes"] == []
    assert not replay_diff["regression"]

    perturbed_batch = max(1, MAX_BATCH // 2)
    obs3, _, telemetry3, *_ = _traced_run(
        scenario, plan, health, makespan, max_batch=perturbed_batch
    )
    export_c = obs3.export(
        config=dict(export_config, max_batch_size=perturbed_batch),
        sessions=telemetry3.sessions,
    )
    perturbed_diff = diff_runs(export_a, export_c)
    assert perturbed_diff["regression"], (
        "halving max_batch_size must not diff clean"
    )

    with tempfile.TemporaryDirectory(prefix="repro_bench_obs_") as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "a.json").write_text(json_a)
        (tmp_path / "b.json").write_text(json_b)
        (tmp_path / "c.json").write_text(run_to_json(export_c))
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))

        def _diff_cli(run_x, run_y):
            return subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.serve.observability.diff",
                    str(tmp_path / run_x),
                    str(tmp_path / run_y),
                ],
                capture_output=True,
                text=True,
                env=env,
            )

        clean = _diff_cli("a.json", "b.json")
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "0 regression(s)" in clean.stdout
        dirty = _diff_cli("a.json", "c.json")
        assert dirty.returncode == 1, dirty.stdout + dirty.stderr

    print(
        f"  critical path: {rollup['exact_sessions']}/{rollup['sessions']} "
        f"sessions bit-exact; replay diff clean over "
        f"{replay_diff['compared']} leaves; perturbed diff flags "
        f"{len(perturbed_diff['regressions'])} regression(s) "
        f"+ config drift (CLI exits 0/1)"
    )

    if SMOKE:
        # Wall-clock ratios are meaningless at smoke scale; the full
        # tier owns gates (d) and (h).
        return

    # Gate (d): tracing overhead bounded.  Best-of-3 on each side — the
    # minimum is the least noisy wall-clock estimator for a fixed
    # deterministic workload.
    traced_best = traced_s
    untraced_best = untraced_s
    for _ in range(2):
        *_, t_s, t_cpu = _traced_run(scenario, plan, health, makespan)
        traced_best = min(traced_best, t_s)
        traced_cpu = min(traced_cpu, t_cpu)
        *_, u_s, _ = _traced_run(
            scenario, plan, health, makespan, tracing=False
        )
        untraced_best = min(untraced_best, u_s)
    overhead = traced_best / untraced_best
    print(
        f"  overhead: traced {traced_best * 1e3:.1f} ms vs untraced "
        f"{untraced_best * 1e3:.1f} ms -> {overhead:.3f}x "
        f"(budget {OVERHEAD_BUDGET}x)"
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.3f}x exceeds {OVERHEAD_BUDGET}x"
    )

    # Gate (h): the whole analysis layer (breakdowns, rollup, exports,
    # diff, flight report) stays a small fraction of the traced run.
    # Both sides are best-of-3 CPU time, the same estimator on one clock.
    for _ in range(2):
        start = time.process_time()
        _analysis(*analysis_args)
        analysis_cpu = min(analysis_cpu, time.process_time() - start)
    analysis_ratio = analysis_cpu / traced_cpu
    print(
        f"  analysis: {analysis_cpu * 1e3:.1f} ms CPU on a "
        f"{traced_cpu * 1e3:.1f} ms CPU traced run -> {analysis_ratio:.3f}x "
        f"(budget {ANALYSIS_BUDGET}x)"
    )
    assert analysis_ratio <= ANALYSIS_BUDGET, (
        f"analysis overhead {analysis_ratio:.3f}x exceeds {ANALYSIS_BUDGET}x"
    )

    repo_root = Path(__file__).resolve().parents[1]
    (repo_root / "BENCH_observability_flight.md").write_text(report_md)

    payload = {
        "config": {
            "replicas": REPLICAS,
            "max_batch_size": MAX_BATCH,
            "offered_rate_rps": RATE,
            "duration_s": DURATION,
            "ttft_slo_s": TTFT_SLO_S,
            "slo_objective": SLO_OBJECTIVE,
            "storm_signature": plan.signature(),
            "overhead_budget": OVERHEAD_BUDGET,
        },
        "trace": summary,
        "sessions_completed": len(telemetry.sessions),
        "gap_free_sessions": len(telemetry.sessions),
        "attribution": {
            "checked_spans": attribution["checked_spans"],
            "max_abs_error_s": attribution["max_abs_error_s"],
            "total_busy_s": attribution["total_busy_s"],
            "stall_s": attribution["stall_s"],
            "components": attribution["components"],
        },
        "metrics_samples": len(obs.registry.samples()),
        "prometheus_round_trip_exact": True,
        "replay_byte_identical": True,
        "slo": obs.slo.summary(telemetry.makespan()),
        "overhead_ratio": round(overhead, 4),
        "critical_path": {
            "sessions": rollup["sessions"],
            "exact_sessions": rollup["exact_sessions"],
            "phase_shares": rollup["phase_shares"],
        },
        "replay_diff": {
            "compared": replay_diff["compared"],
            "changes": len(replay_diff["changes"]),
            "regression": replay_diff["regression"],
        },
        "perturbed_diff_regressions": len(perturbed_diff["regressions"]),
        "analysis_overhead_ratio": round(analysis_ratio, 4),
        "analysis_budget": ANALYSIS_BUDGET,
    }
    out_path = repo_root / "BENCH_observability.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
