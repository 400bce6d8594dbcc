"""Streaming aggregators, tail-based sampling, O(1) telemetry mode."""

import hashlib
import json

import numpy as np
import pytest

from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
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
    TailSampler,
    TailSamplingPolicy,
    TokenServingEngine,
    decode_scenario,
    default_windows,
    fleet_rollup,
    parse_prometheus_text,
    report_to_markdown,
    shared_prefix_scenario,
)
from repro.serve.observability import (
    ByteBudgetRing,
    Gauge,
    SpaceSavingTopK,
    Tracer,
    WindowedSketch,
    head_keep,
    nearest_rank_value,
)
from repro.serve.traffic import Scenario


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def make_engine(observability=None, replicas=3, blocks=256, block_tokens=4,
                health=None, **config_kw):
    kv = KVCacheSpec(num_layers=2, num_heads=2, head_dim=4)
    prof = DecodeModelProfile(
        "m0", mlp(), kv=kv, replicas=replicas, ttft_slo_s=1e-5
    )
    memory = MemorySystemModel(
        MirageConfig(sram_bytes=blocks * block_tokens * kv.bytes_per_token)
    )
    config = EngineConfig(block_tokens=block_tokens, kv_fraction=1.0, **config_kw)
    return TokenServingEngine(
        ExecutorPool(replicas), prof, config, memory=memory, health=health,
        observability=observability,
    )


def decode_trace(n=12, spacing=1e-7, prompt=6, decode=8):
    arrivals = tuple(
        (i * spacing, "m0", i % 3, prompt, decode) for i in range(n)
    )
    return Scenario("decode", arrivals, n * spacing + 1e-9)


class FakeSession:
    """Duck-typed terminal session for sampler unit tests."""

    def __init__(self, sid, arrival=0.0, first=None, finish=None,
                 status="completed", preemptions=0, recoveries=0,
                 priority=0, model="m0"):
        self.session_id = sid
        self.arrival_time = arrival
        self.first_token_time = first
        self.finish_time = finish
        self.status = status
        self.preemptions = preemptions
        self.recoveries = recoveries
        self.priority = priority
        self.model = model


def _timeline(tracer, sid, e2e=1.0, name="decode"):
    tracer.span("session", sid, name, 0.0, e2e)


# ----------------------------------------------------------------------
# Streaming aggregators
# ----------------------------------------------------------------------
class TestHeadKeep:
    def test_deterministic_and_spread(self):
        kept = [sid for sid in range(1000) if head_keep(sid, 64)]
        assert kept == [sid for sid in range(1000) if head_keep(sid, 64)]
        # Roughly 1-in-64 of a thousand ids, not a contiguous stripe.
        assert 4 <= len(kept) <= 40
        assert head_keep(123, 1)
        with pytest.raises(ValueError):
            head_keep(1, 0)


class TestSpaceSavingTopK:
    def test_exact_under_capacity(self):
        top = SpaceSavingTopK(4)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            top.add(key, n)
        assert top.count("a") == 5 and top.count("z") == 0
        assert [r["key"] for r in top.top()] == ["a", "b", "c"]
        assert all(r["error"] == 0 for r in top.top())
        assert top.evictions == 0

    def test_eviction_floor_guarantee(self):
        top = SpaceSavingTopK(2)
        top.add("a", 10)
        top.add("b", 2)
        top.add("c")  # evicts b (min count), inherits its floor
        assert "b" not in top and "c" in top
        row = top.top()[-1]
        assert row == {"key": "c", "count": 3, "error": 2}
        assert top.evictions == 1

    def test_deterministic_tie_break(self):
        top = SpaceSavingTopK(2)
        top.add("x")
        top.add("y")
        top.add("z")  # tie on count=1: lexically-first victim ("x")
        assert "x" not in top and "y" in top and "z" in top

    def test_validation_and_to_dict(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(0)
        top = SpaceSavingTopK(2)
        with pytest.raises(ValueError):
            top.add("a", 0)
        top.add("a")
        state = top.to_dict()
        assert state["kind"] == "space_saving"
        assert len(top) == 1


class TestWindowedSketch:
    def test_windowing(self):
        ws = WindowedSketch(window_s=1.0, max_windows=8)
        ws.add(0.5, 1.0)
        ws.add(1.5, 2.0)
        starts = [start for start, _ in ws.windows()]
        assert starts == [0.0, 1.0]
        assert ws.total_count() == 2

    def test_compaction_doubles_width_losslessly(self):
        ws = WindowedSketch(window_s=1.0, max_windows=4)
        for t in range(16):
            ws.add(float(t), float(t + 1))
        assert len(ws) <= 4
        assert ws.compactions >= 2
        assert ws.window_s == 4.0
        # Lossless: every folded value survives the pairwise merges.
        assert ws.total_count() == 16
        assert ws.to_dict()["kind"] == "windowed_sketch"

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSketch(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedSketch(window_s=1.0, max_windows=1)
        ws = WindowedSketch(window_s=1.0)
        with pytest.raises(ValueError):
            ws.add(-1.0, 1.0)
        with pytest.raises(ValueError):
            ws.add(float("nan"), 1.0)


class TestByteBudgetRing:
    def test_budget_invariant_and_fifo_eviction(self):
        ring = ByteBudgetRing(byte_budget=64)
        for i in range(20):
            assert ring.append({"i": i})
            assert ring.total_bytes <= 64
        kept = [r["i"] for r in ring.records()]
        assert kept == sorted(kept) and kept[-1] == 19
        assert ring.evicted == 20 - len(kept)

    def test_oversize_record_dropped(self):
        ring = ByteBudgetRing(byte_budget=16)
        assert not ring.append({"blob": "x" * 100})
        assert ring.dropped == 1 and len(ring) == 0
        with pytest.raises(ValueError):
            ByteBudgetRing(0)
        assert ring.to_dict()["kind"] == "byte_ring"


# ----------------------------------------------------------------------
# Tail-based sampling
# ----------------------------------------------------------------------
class TestTailSamplerUnits:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TailSamplingPolicy(head_rate=0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(ttft_slo_s=0.0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            TailSamplingPolicy(outlier_threshold=0.0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(exemplar_bytes=0)

    def test_retention_reasons_most_specific_first(self):
        tracer = Tracer()
        sessions = [
            FakeSession(1, finish=1.0, first=0.1, preemptions=2),  # fault
            FakeSession(2, finish=1.0, first=0.9),                  # slo
            FakeSession(3, finish=400.0, first=0.1),                # outlier
            FakeSession(4, finish=1.0, first=0.1),
        ]
        for s in sessions:
            _timeline(tracer, s.session_id, e2e=float(s.finish_time))
        # Stalled sessions count as faulted even without preemptions.
        tracer.span("session", 4, "stall", 0.2, 0.3)
        sampler = TailSampler(
            TailSamplingPolicy(head_rate=10**9, ttft_slo_s=0.5)
        )
        counts = sampler.sample(tracer, sessions)
        assert counts == {"kept": 4, "dropped": 0}
        assert sampler.reasons == {1: "fault", 2: "slo", 3: "outlier", 4: "fault"}

    def test_never_first_token_is_slo_violation(self):
        tracer = Tracer()
        session = FakeSession(7, finish=1.0, first=None)
        _timeline(tracer, 7)
        sampler = TailSampler(
            TailSamplingPolicy(head_rate=10**9, ttft_slo_s=0.5)
        )
        sampler.sample(tracer, [session])
        assert sampler.reasons[7] == "slo"

    def test_drop_folds_and_exemplars(self):
        tracer = Tracer()
        # Ids start at 1: id 0 hashes to the head sample at any rate.
        sessions = [
            FakeSession(i, finish=1.0 + 0.01 * i, first=0.1)
            for i in range(1, 11)
        ]
        for s in sessions:
            _timeline(tracer, s.session_id, e2e=float(s.finish_time))
        tracer.instant("session", 1, "enqueue", 0.0)
        sampler = TailSampler(TailSamplingPolicy(head_rate=10**9))
        counts = sampler.sample(tracer, sessions)
        assert counts == {"kept": 0, "dropped": 10}
        # Every session folded (sketches cover the whole population)...
        assert sampler.sketches["e2e"].count == 10
        assert sampler.sketches["ttft"].count == 10
        assert sampler.sketches["phase/decode"].count == 10
        # ...but no timeline survives, and the stubs land in the ring.
        assert tracer.span_records("session") == []
        assert tracer.instant_records("session") == []
        assert sampler.dropped_spans == 10 and sampler.dropped_instants == 1
        stub = sampler.exemplars.records()[0]
        assert stub["session_id"] == 1 and stub["e2e_s"] == 1.01
        # Resampling the same sessions is a no-op (decided once).
        assert sampler.sample(tracer, sessions) == {"kept": 0, "dropped": 0}

    def test_non_terminal_sessions_wait(self):
        tracer = Tracer()
        live = FakeSession(5, finish=None, first=None, status="running")
        sampler = TailSampler()
        assert sampler.sample(tracer, [live]) == {"kept": 0, "dropped": 0}
        assert sampler.folded == 0

    def test_summary_json_deterministic(self):
        def build():
            tracer = Tracer()
            sessions = [
                FakeSession(i, finish=1.0 + i * 0.5, first=0.2)
                for i in range(6)
            ]
            for s in sessions:
                _timeline(tracer, s.session_id, e2e=float(s.finish_time))
            sampler = TailSampler(TailSamplingPolicy(head_rate=3))
            sampler.sample(tracer, sessions)
            return sampler

        a, b = build(), build()
        assert a.to_json() == b.to_json()
        summary = a.summary()
        assert summary["kept"] + summary["dropped"] == summary["folded"] == 6
        assert summary["sketch_bytes"] == a.byte_size()


class TestTailSamplerOnEngine:
    def test_fault_storm_sessions_fully_retained(self):
        obs = Observability(tracing=True)
        engine = make_engine(observability=obs, recovery=True)
        plan = FaultPlan.replica_kills([(2e-7, 0)])
        telemetry = engine.run(decode_trace(n=18), seed=3, faults=plan)
        sessions = telemetry.sessions
        assert sessions
        sampler = TailSampler(TailSamplingPolicy(head_rate=10**9))
        sampler.sample(obs.tracer, sessions)
        disturbed = {
            s.session_id
            for s in sessions
            if s.preemptions > 0 or getattr(s, "recoveries", 0) > 0
        }
        assert disturbed, "replica kill disturbed no sessions"
        assert disturbed <= sampler.kept
        for s in sessions:
            if s.session_id not in sampler.kept:
                continue
            gaps = obs.tracer.gaps(
                s.session_id, start=s.arrival_time, end=s.finish_time
            )
            assert not gaps, f"kept session {s.session_id} lost spans"
        # Quantiles still describe the whole population after the drop.
        e2e = sorted(
            float(s.finish_time) - float(s.arrival_time) for s in sessions
        )
        estimate = sampler.sketches["e2e"].percentile(99.0)
        truth = nearest_rank_value(e2e, 99.0, assume_sorted=True)
        alpha = sampler.policy.alpha
        assert abs(estimate - truth) <= alpha * truth * (1.0 + 1e-9)

    def test_rollup_and_flight_report_sampled_sections(self):
        obs = Observability(tracing=True)
        engine = make_engine(observability=obs)
        telemetry = engine.run(decode_trace(n=15), seed=1)
        sampler = TailSampler(TailSamplingPolicy(head_rate=3))
        sampler.sample(obs.tracer, telemetry.sessions)
        rollup = fleet_rollup(obs.tracer, telemetry.sessions, sampled=sampler)
        assert rollup["sessions"] == len(sampler.kept)
        block = rollup["sampled"]
        assert block["folded"] == len(telemetry.sessions)
        assert block["kept"] + block["dropped"] == block["folded"]
        assert "e2e" in block["sketches"]
        report = obs.flight_report(
            name="sampled", telemetry=telemetry, sampled=sampler
        )
        md = report_to_markdown(report)
        assert "Tail-sampled fleet (sketch mode)" in md


# ----------------------------------------------------------------------
# Streaming (O(1) memory) engine telemetry
# ----------------------------------------------------------------------
class TestStreamingTelemetry:
    def _pair(self, n=30):
        scenario = decode_trace(n=n)
        exact = make_engine(observability=Observability(tracing=False)).run(
            scenario, seed=2
        )
        sobs = Observability(tracing=False, streaming=True)
        stream = make_engine(observability=sobs).run(scenario, seed=2)
        return exact, stream, sobs

    def test_counts_match_exact_mode(self):
        exact, stream, _ = self._pair()
        self._assert_counts_match(exact, stream)
        exact = golden_prefix_storm_run(False)[2]
        stream = golden_prefix_storm_run(True)[2]
        assert exact.rejected_count() and exact.prefix_stats()["lookups"]
        assert exact.stall_time() > 0.0
        self._assert_counts_match(exact, stream)

    @staticmethod
    def _assert_counts_match(exact, stream):
        assert stream.streaming
        assert not stream.sessions and not stream.steps
        assert not stream.rejected
        assert stream.sessions_count() == len(exact.sessions)
        assert stream.rejected_count() == len(exact.rejected)
        assert stream.steps_count() == len(exact.steps)
        assert stream.tokens_generated() == exact.tokens_generated()
        assert stream.makespan() == exact.makespan()
        assert stream.mean_batch_size() == exact.mean_batch_size()
        assert stream.mean_tpot() == exact.mean_tpot()
        assert stream.prefill_tokens_priced() == exact.prefill_tokens_priced()
        assert stream.prefix_stats() == exact.prefix_stats()
        assert stream.stall_time() == exact.stall_time()
        assert stream.classes_seen() == exact.classes_seen()
        # Mean occupancy is left out: exact mode averages the per-step
        # list with np.mean (pairwise), streaming keeps a running sum.
        for key in ("peak_occupancy", "peak_blocks"):
            assert stream.kv_stats()[key] == exact.kv_stats()[key]
        s_classes = stream.summary(stream.makespan(), 1e-5).get("per_class")
        e_classes = exact.summary(exact.makespan(), 1e-5).get("per_class")
        assert (s_classes is None) == (e_classes is None)
        for p, row in (e_classes or {}).items():
            for key in ("sessions", "rejected", "preemptions"):
                assert s_classes[p][key] == row[key]
        with pytest.raises(ValueError):
            stream.ttfts()

    def test_sketched_quantiles_within_alpha(self):
        exact, stream, _ = self._pair()
        ttfts = sorted(exact.ttfts())
        summary = stream.summary(stream.makespan(), ttft_slo_s=1e-5)
        for q, key in ((50.0, "p50_s"), (95.0, "p95_s"), (99.0, "p99_s")):
            truth = nearest_rank_value(ttfts, q, assume_sorted=True)
            tol = stream.sketch_alpha * abs(truth) * (1.0 + 1e-9)
            assert abs(summary["ttft"][key] - truth) <= tol
        block = summary["streaming"]
        assert block["alpha"] == stream.sketch_alpha
        # Exact moments survive the sketching: the e2e mean/max match
        # the record-keeping run's bit-for-bit.
        e2e = [
            float(s.finish_time) - float(s.arrival_time)
            for s in exact.sessions
        ]
        assert block["e2e"]["max_s"] == max(e2e)
        assert block["sketch_bytes"] > 0
        assert block["attribution_topk"]["items"]

    def test_streaming_keeps_gauges_and_prom_bounded(self):
        _, _, sobs = self._pair()
        for metric in sobs.registry.metrics():
            if isinstance(metric, Gauge):
                for child in metric.children():
                    assert child.series == []
        text = sobs.registry.prometheus_text()
        assert parse_prometheus_text(text) == sobs.registry.samples()
        # The TTFT histogram runs on the sketch backend in this mode.
        assert 'engine_ttft_seconds_bucket' in text

    def test_summary_replay_byte_identical(self):
        _, stream1, _ = self._pair()
        _, stream2, _ = self._pair()
        one = json.dumps(
            stream1.summary(stream1.makespan(), ttft_slo_s=1e-5),
            sort_keys=True,
        )
        two = json.dumps(
            stream2.summary(stream2.makespan(), ttft_slo_s=1e-5),
            sort_keys=True,
        )
        assert one == two


# ----------------------------------------------------------------------
# Golden summaries: both telemetry modes, pinned by digest
# ----------------------------------------------------------------------
def golden_decode_run(streaming):
    """Two-class analytic decode; many steps, so the exact-mode mean KV
    occupancy (``np.mean``, pairwise) and a running sum can differ."""
    scenario = decode_scenario(
        "chat", rate=1.5e9, duration=3e-7, prompt_median=12,
        prompt_sigma=0.6, decode_mean=8, class_mix={0: 4, 2: 1},
        prompt_max=48, decode_max=48, seed=0,
    )
    profile = DecodeModelProfile(
        "chat", mlp(dim=16, hidden=32),
        kv=KVCacheSpec(num_layers=2, num_heads=2, head_dim=4),
        replicas=2, ttft_slo_s=1e-5,
    )
    engine = TokenServingEngine(
        ExecutorPool(2), profile,
        EngineConfig(
            max_batch_size=8, block_tokens=16, kv_fraction=0.1, execute=False
        ),
        observability=Observability(tracing=False, streaming=streaming),
    )
    return scenario, engine, engine.run(scenario, seed=0)


def golden_prefix_storm_run(streaming, observability=None, recovery=True):
    """Three-class shared-prefix traffic on 3 replicas with a bounded
    waiting queue, a replica kill, a slow worker and an RRNS/KV-loss
    burst: shed, recovered, stalled, per-class and prefix fields are
    all non-trivial."""
    if observability is None:
        observability = Observability(tracing=False, streaming=streaming)
    duration = 1e-6
    scenario = shared_prefix_scenario(
        "m0", rate=2e7, duration=duration, prefix_len=16, suffix_median=4,
        decode_mean=6, class_mix={0: 2, 1: 1, 2: 1}, suffix_max=16,
        decode_max=24, seed=3,
    )
    plan = FaultPlan.replica_kills([(0.3 * duration, 0)]).merge(
        FaultPlan.slow_worker(
            0.1 * duration, 1, factor=2.0, duration_s=0.2 * duration
        ),
        FaultPlan.transient_storm(
            start=0.35 * duration, stop=duration, rate_per_s=3e7,
            p_uncorrectable=0.3, seed=7, kv_loss_share=0.3,
        ),
    )
    engine = make_engine(
        observability=observability,
        blocks=24, max_batch_size=4, execute=False, recovery=recovery,
        max_waiting=8,
        health=HealthPolicy(suspect_after_s=1e-8, dead_after_s=3e-8),
    )
    return scenario, engine, engine.run(scenario, seed=0, faults=plan)


def summary_digest(run, streaming):
    scenario, engine, telemetry = run(streaming)
    doc = {
        "summary": telemetry.summary(telemetry.makespan(), ttft_slo_s=1e-5),
        "report": engine.report(scenario),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def golden_tiny_kv_run(observability):
    """Three classes on a 7-block pool: the 44-token prompt can never
    fit and is rejected on arrival, and the class-2 arrivals preempt
    class-0 sessions at admission and during growth."""
    arrivals = (
        (0.0, "m0", 0, 6, 10),
        (1e-9, "m0", 0, 8, 12),
        (2e-9, "m0", 1, 40, 4),
        (3e-9, "m0", 2, 10, 8),
        (4e-9, "m0", 2, 6, 9),
        (5e-9, "m0", 1, 5, 6),
    )
    engine = make_engine(
        observability=observability, blocks=7, max_batch_size=4,
        execute=False,
    )
    scenario = Scenario("decode", arrivals, 6e-9)
    return scenario, engine, engine.run(scenario, seed=0)


def golden_stranded_run(observability):
    """One replica, killed mid-run with recovery off: the dead
    declaration fails its sessions and the rest strand with no
    replacement coming, so the loop fails every one left."""
    engine = make_engine(
        observability=observability, replicas=1, execute=False,
        recovery=False, max_batch_size=4,
        health=HealthPolicy(suspect_after_s=1e-8, dead_after_s=3e-8),
    )
    scenario = decode_trace(n=10, spacing=2e-8)
    plan = FaultPlan.replica_kills([(5e-8, 0)])
    return scenario, engine, engine.run(scenario, seed=0, faults=plan)


def traced_digest(run, streaming):
    """Hash the trace, the Prometheus text, the SLO summary and the
    telemetry summary plus report of one fully observed run."""
    obs = Observability(
        tracing=True, streaming=streaming,
        slo=SLOTracker(SLOSpec("ttft", 0.95, default_windows(1e-6))),
    )
    scenario, engine, telemetry = run(obs)
    makespan = telemetry.makespan()
    doc = {
        "summary": telemetry.summary(makespan, ttft_slo_s=1e-5),
        "report": engine.report(scenario),
        "slo": obs.slo.summary(makespan),
    }
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    h.update(obs.tracer.chrome_trace().encode())
    h.update(obs.registry.prometheus_text().encode())
    return h.hexdigest()


def storm_run(recovery):
    return lambda obs: golden_prefix_storm_run(
        obs.streaming, observability=obs, recovery=recovery
    )


class TestGoldenTelemetrySummaries:
    """Exact and streaming ``summary()`` plus ``engine.report()`` stay
    byte-identical to pinned digests: the record-keeping and the
    bounded-memory mode each reproduce one recorded document."""

    @pytest.mark.parametrize(
        "run, streaming, digest",
        [
            (
                golden_decode_run, False,
                "86942dd35beb6b88b03c74278fad7f6cf1b53bb7374ed1e35ddd86d234b86f5a",
            ),
            (
                golden_decode_run, True,
                "499b54d4416a0aa313070057db36ed7b2febf5a063498c4511f5a835b4387f33",
            ),
            (
                golden_prefix_storm_run, False,
                "790a355f6714ffe41217259218b3c9110b9b94869ae505da72a9e624b073bda1",
            ),
            (
                golden_prefix_storm_run, True,
                "9d018b15b1109c11b3a1928d735a9b6dc85761b82f9596ef310830a3504b6611",
            ),
        ],
        ids=["decode-exact", "decode-streaming", "storm-exact",
             "storm-streaming"],
    )
    def test_digest(self, run, streaming, digest):
        assert summary_digest(run, streaming) == digest

    # Fully observed runs: every way a session leaves without completing
    # (reject, shed, preempt, recover, fail on a dead replica, fail
    # stranded) reaches the trace, the metrics text and the SLO plane.
    @pytest.mark.parametrize(
        "run, streaming, digest",
        [
            (storm_run(True), False, "e4f3b4b31f0eaa2a80c8ab1b1173c36d4584f4e92d4095058143603ddff54902"),
            (storm_run(True), True, "a30232614a19a22f4d5d66dd7d906a65f0243a07799911f9fbed6be258c9ddfa"),
            (storm_run(False), False, "fa8496580a5c8fdcda04070b8ea0331b8381202175c6b61ac7be71d6b093f454"),
            (storm_run(False), True, "d1f2950b2d42d26476a0e637fc90a1d4a6e39939c49dbc79903e520549e9e65e"),
            (golden_tiny_kv_run, False, "e2418255ac9ee799bb36211509584835cafe0f6e4c5a48e7281bc96c61ffbfbf"),
            (golden_stranded_run, False, "c55ceb5dff38ba510bbc4b6cf90efd4c70e57a05c3e3a57e1d42d6afa7521b40"),
        ],
        ids=["storm-recovery-exact", "storm-recovery-streaming",
             "storm-no-recovery-exact", "storm-no-recovery-streaming",
             "tiny-kv", "stranded"],
    )
    def test_traced_digest(self, run, streaming, digest):
        assert traced_digest(run, streaming) == digest
