"""Serving runtime end-to-end: queue, batcher, dispatch, telemetry."""

import hashlib
import json

import numpy as np
import pytest

from repro.arch.inference import per_request_latency
from repro.core import PhotonicExecutor
from repro.nn import Linear, ReLU, Sequential
from repro.serve import (
    AdmissionQueue,
    AutoscalerPolicy,
    BatchPolicy,
    ExecutorPool,
    FaultPlan,
    HealthPolicy,
    InferenceRequest,
    MicroBatcher,
    ModelProfile,
    Observability,
    RequestStatus,
    RetryPolicy,
    SLOSpec,
    SLOTracker,
    ServingRuntime,
    SimulatedClock,
    default_windows,
    diurnal_scenario,
    model_layer_shapes,
    poisson_scenario,
    priority_scenario,
)
from repro.serve.traffic import Scenario


def mlp(seed=0, d_in=16, hidden=32, d_out=8):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(d_in, hidden, rng=rng), ReLU(), Linear(hidden, d_out, rng=rng)
    )


def make_runtime(
    model=None,
    workers=2,
    replicas=2,
    max_batch=8,
    max_wait=1e-6,
    capacity=64,
    policy="least_loaded",
    **kw,
):
    pool = ExecutorPool(workers, policy=policy)
    rt = ServingRuntime(
        pool,
        BatchPolicy(max_batch_size=max_batch, max_wait_s=max_wait),
        queue_capacity=capacity,
        **kw,
    )
    rt.register_model(
        ModelProfile("m0", model or mlp(0), replicas=replicas, slo_s=1e-5)
    )
    return rt


def explicit_scenario(times, model="m0", name="poisson"):
    arrivals = tuple((float(t), model) for t in sorted(times))
    duration = max(times) + 1e-9 if len(times) else 0.0
    return Scenario(name, arrivals, duration)


class TestClock:
    def test_monotonic(self):
        clk = SimulatedClock()
        clk.advance_to(1.0)
        clk.advance_by(0.5)
        assert clk.now == pytest.approx(1.5)
        with pytest.raises(ValueError):
            clk.advance_to(1.0)
        with pytest.raises(ValueError):
            clk.advance_by(-1.0)


class TestAdmissionQueue:
    def test_bounded_admission(self):
        q = AdmissionQueue(capacity=2)
        reqs = [
            InferenceRequest(i, "m", np.zeros(2), float(i)) for i in range(3)
        ]
        assert q.offer(reqs[0]) and q.offer(reqs[1])
        assert not q.offer(reqs[2])
        assert reqs[2].status == RequestStatus.REJECTED
        assert q.depth == 2 and q.admitted == 2 and q.rejected == 1

    def test_fifo_pop_per_model(self):
        q = AdmissionQueue(capacity=8)
        for i in range(4):
            q.offer(InferenceRequest(i, "a" if i % 2 else "b", np.zeros(1), i))
        batch = q.pop_batch("a", 10)
        assert [r.request_id for r in batch] == [1, 3]
        assert q.pending("a") == 0 and q.pending("b") == 2
        assert q.oldest_arrival("b") == 0
        assert q.models_waiting() == ["b"]


class TestMicroBatcher:
    def test_size_trigger(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=2, max_wait_s=1.0))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 0.0))
        assert mb.ready_model(q, 0.0) is None  # only 1 waiting, deadline far
        q.offer(InferenceRequest(1, "m", np.zeros(1), 0.0))
        assert mb.ready_model(q, 0.0) == "m"  # batch full

    def test_deadline_trigger_and_next_deadline(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.5))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 1.0))
        assert mb.next_deadline(q) == pytest.approx(1.5)
        assert mb.ready_model(q, 1.4) is None
        assert mb.ready_model(q, 1.5) == "m"

    def test_earliest_deadline_wins_across_models(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        q.offer(InferenceRequest(0, "late", np.zeros(1), 0.05))
        q.offer(InferenceRequest(1, "early", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "early"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(aging_rate_per_s=-0.1)

    # ----- tie-breaking ------------------------------------------------
    def test_tie_break_equal_urgency_earliest_deadline_wins(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        # Same class, both past deadline: the longer-waiting head wins.
        q.offer(InferenceRequest(0, "younger", np.zeros(1), 0.05))
        q.offer(InferenceRequest(1, "older", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "older"

    def test_tie_break_equal_deadline_is_deterministic_by_name(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        q.offer(InferenceRequest(0, "zeta", np.zeros(1), 0.0))
        q.offer(InferenceRequest(1, "alpha", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "alpha"

    def test_higher_priority_preempts_dispatch_order(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        # "bulk" has the earlier deadline, but "live" carries a higher
        # class: urgency outranks deadline in the dispatch order.
        q.offer(InferenceRequest(0, "bulk", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "live", np.zeros(1), 0.5, priority=2))
        assert mb.ready_model(q, 1.0) == "live"

    def test_aging_lets_low_class_overtake(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=0.1, aging_rate_per_s=1.0)
        )
        # After 10 s of waiting the class-0 head has aged +10 effective
        # classes, overtaking the fresh class-2 arrival: no starvation.
        q.offer(InferenceRequest(0, "bulk", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "live", np.zeros(1), 9.9, priority=2))
        assert mb.ready_model(q, 10.0) == "bulk"

    def test_ready_deadline_tolerance_at_large_times(self):
        # Regression: `dl <= now + 1e-15` failed once timestamps outgrew
        # the absolute epsilon (double spacing at 1e9 s is ~1.2e-7 s).
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.0))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 1e9))
        assert mb.ready_model(q, 1e9) == "m"

    def test_take_batch_orders_by_effective_priority(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(
            BatchPolicy(max_batch_size=4, max_wait_s=0.0, aging_rate_per_s=0.0)
        )
        q.offer(InferenceRequest(0, "m", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "m", np.zeros(1), 0.1, priority=2))
        q.offer(InferenceRequest(2, "m", np.zeros(1), 0.2, priority=0))
        q.offer(InferenceRequest(3, "m", np.zeros(1), 0.3, priority=2))
        batch = mb.take_batch(q, "m", now=1.0)
        # Class-descending, FIFO within class.
        assert [r.request_id for r in batch] == [1, 3, 0, 2]


class TestLayerShapes:
    def test_mlp_shapes_track_batch(self):
        shapes = model_layer_shapes("m", mlp(0), batch=4)
        assert [(s.gemm.m, s.gemm.k, s.gemm.n) for s in shapes] == [
            (32, 16, 4),
            (8, 32, 4),
        ]

    def test_non_gemm_model_rejected(self):
        with pytest.raises(ValueError):
            model_layer_shapes("m", Sequential(ReLU()), batch=1)

    def test_per_request_latency_amortizes(self):
        s1 = model_layer_shapes("m", mlp(0), batch=1)
        s32 = model_layer_shapes("m", mlp(0), batch=32)
        one = per_request_latency(s1, 1)
        many = per_request_latency(s32, 32)
        assert many["per_request_s"] < one["per_request_s"]
        # Reprogramming dominates small GEMMs: batching must amortize it
        # by a large factor, the effect serving exists to exploit.
        assert one["per_request_s"] / many["per_request_s"] > 3
        with pytest.raises(ValueError):
            per_request_latency(s1, 0)


class TestRuntimeEndToEnd:
    def test_all_requests_complete_fifo_and_batched(self):
        rt = make_runtime(max_batch=4, max_wait=1e-6)
        scen = explicit_scenario([i * 1e-8 for i in range(10)])
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 10
        assert tel.rejected == 0
        for r in tel.completed:
            assert r.status == RequestStatus.COMPLETED
            assert r.batch_size <= 4
            assert r.completion_time == pytest.approx(
                r.dispatch_time
                + rt.service.batch_latency("m0", r.batch_size)
            )
        # FIFO per model: dispatch order respects arrival order.
        by_arrival = sorted(tel.completed, key=lambda r: r.arrival_time)
        dispatches = [r.dispatch_time for r in by_arrival]
        assert dispatches == sorted(dispatches)

    def test_outputs_bit_exact_vs_standalone_executor(self):
        model = mlp(1)
        rt = make_runtime(model=model, max_batch=8)
        scen = poisson_scenario("m0", rate=2e7, duration=1e-6, seed=5)
        tel = rt.run(scen, seed=6)
        assert len(tel.completed) > 1
        ex = PhotonicExecutor()
        for r in tel.completed:
            ref = ex.run_sequential(model, r.x[None, :])[0]
            assert np.array_equal(r.output, ref)

    def test_batch_one_policy_never_batches(self):
        rt = make_runtime(max_batch=1, max_wait=0.0)
        scen = explicit_scenario([i * 1e-8 for i in range(6)])
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 6
        assert all(r.batch_size == 1 for r in tel.completed)

    def test_deadline_flushes_partial_batch(self):
        # One lone request must not wait for a full batch.
        rt = make_runtime(max_batch=32, max_wait=1e-6)
        scen = explicit_scenario([0.0])
        tel = rt.run(scen, seed=0)
        (req,) = tel.completed
        assert req.batch_size == 1
        assert req.dispatch_time == pytest.approx(1e-6)

    def test_overload_rejects_at_admission(self):
        rt = make_runtime(
            workers=1, replicas=1, max_batch=1, max_wait=0.0, capacity=4
        )
        scen = explicit_scenario([0.0] * 50)
        tel = rt.run(scen, seed=0)
        assert tel.rejected > 0
        assert len(tel.completed) + tel.rejected == 50
        assert rt.queue.depth == 0

    def test_unregistered_model_raises(self):
        rt = make_runtime()
        scen = explicit_scenario([0.0], model="ghost")
        with pytest.raises(KeyError):
            rt.run(scen)

    def test_microbatching_beats_batch_one_throughput(self):
        # Offered load ~5x the pool's batch-1 capacity (~2e8 req/s for
        # this MLP on two workers): batch-1 saturates and sheds load,
        # micro-batching amortizes the reprogram and keeps up.
        scen = poisson_scenario("m0", rate=1e9, duration=2e-6, seed=9)
        results = {}
        for label, (mb, mw) in {
            "batched": (32, 2e-7),
            "batch1": (1, 0.0),
        }.items():
            rt = make_runtime(
                workers=2, replicas=2, max_batch=mb, max_wait=mw, capacity=128
            )
            tel = rt.run(scen, seed=1)
            results[label] = len(tel.completed) / max(
                tel.makespan(), scen.duration_s
            )
        assert results["batched"] > 2 * results["batch1"]

    def test_report_cross_checks_analytic_model(self):
        rt = make_runtime(max_batch=8)
        scen = poisson_scenario("m0", rate=3e7, duration=1e-6, seed=3)
        rt.run(scen, seed=4)
        report = rt.report(scen)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert report["analytic_consistency"]["checked_batches"] > 0
        assert 0.0 <= report["slo_attainment"] <= 1.0
        assert report["programmed_cache"]["hits"] > 0
        hist = report["batch_size_histogram"]
        assert sum(int(k) * v for k, v in hist.items()) == report["completed"]

    def test_conv_first_model_serving(self):
        from repro.nn import Flatten
        from repro.nn.conv import Conv2d

        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(1, 2, 3, rng=rng), Flatten(), Linear(72, 4, rng=rng)
        )
        pool = ExecutorPool(1)
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=4, max_wait_s=1e-7),
            queue_capacity=16,
        )
        rt.register_model(
            ModelProfile("cnn", model, replicas=1, input_hw=(8, 8))
        )
        scen = explicit_scenario([i * 1e-8 for i in range(5)], model="cnn")
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 5
        for r in tel.completed:
            assert r.x.shape == (1, 8, 8)
            assert r.output.shape == (4,)
            ref = PhotonicExecutor().run_sequential(model, r.x[None])[0]
            assert np.array_equal(r.output, ref)

    def test_conv_first_model_without_input_hw_raises(self):
        from repro.nn.conv import Conv2d

        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(1, 2, 3, rng=rng))
        pool = ExecutorPool(1)
        rt = ServingRuntime(pool, BatchPolicy(max_batch_size=1, max_wait_s=0.0))
        with pytest.raises(ValueError):
            rt.register_model(ModelProfile("cnn", model, replicas=1))

    def test_streaming_observability_is_refused(self):
        # Request-level telemetry keeps every request: accepting the
        # bounded-memory flag would silently ignore it.
        with pytest.raises(ValueError, match="ServingRuntime"):
            make_runtime(observability=Observability(streaming=True))

    @pytest.mark.slow
    def test_sustained_overload_stress(self):
        """Long saturating trace: no stranding, bounded queue, stable stats."""
        rt = make_runtime(
            workers=4, replicas=4, max_batch=32, max_wait=2e-7, capacity=256
        )
        scen = poisson_scenario("m0", rate=2e9, duration=1e-5, seed=13)
        tel = rt.run(scen, seed=14)
        assert len(tel.completed) + tel.rejected == scen.num_requests
        assert rt.queue.depth == 0
        report = rt.report(scen)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert report["queue_depth"]["max"] <= 256

    def test_drain_excluded_model_redispatches_on_worker_free(self):
        # All replicas of "a" busy -> the batcher must exclude "a", keep
        # serving other models, and re-dispatch "a" when the worker-free
        # event fires (not strand the batch).
        pool = ExecutorPool(2, policy="least_loaded")
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=2, max_wait_s=1e-8),
            queue_capacity=64,
        )
        rt.register_model(ModelProfile("a", mlp(0), replicas=1))
        rt.register_model(ModelProfile("b", mlp(1), replicas=1))
        # Burst of "a" filling two batches back-to-back plus interleaved
        # "b" traffic that must not be blocked while "a"'s replica is busy.
        arrivals = tuple(
            [(0.0, "a"), (0.0, "a"), (1e-9, "a"), (1e-9, "a")]
            + [(2e-9, "b"), (2e-9, "b")]
        )
        scen = Scenario("burst", arrivals, 1e-7)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 6
        a_batches = sorted(
            {
                (r.dispatch_time, r.completion_time)
                for r in tel.completed
                if r.model == "a"
            }
        )
        assert len(a_batches) == 2
        # Second "a" batch waited for the replica: dispatched exactly when
        # the first batch's worker-free event fired.
        assert a_batches[1][0] == pytest.approx(a_batches[0][1])
        # "b" was not blocked behind the busy "a" replica.
        b_dispatch = min(
            r.dispatch_time for r in tel.completed if r.model == "b"
        )
        assert b_dispatch < a_batches[0][1]

    def test_multi_model_sharding(self):
        pool = ExecutorPool(2, policy="cache_affinity")
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=4, max_wait_s=1e-7),
            queue_capacity=64,
        )
        rt.register_model(ModelProfile("a", mlp(0), replicas=1))
        rt.register_model(ModelProfile("b", mlp(1), replicas=1))
        arrivals = tuple(
            (i * 1e-8, "a" if i % 2 else "b") for i in range(12)
        )
        scen = Scenario("multi_tenant", arrivals, 12e-8)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 12
        # Each model stays on its placed worker (single replica).
        for r in tel.completed:
            assert r.worker_id == pool.replicas(r.model)[0]


# ----------------------------------------------------------------------
# Event-loop wake-ups: one pending deadline per timestamp
# ----------------------------------------------------------------------
def _backlog_runtime(seed=5, duration=1e-6, kills=(), deadline_s=None,
                     observability=None):
    """A diurnal ramp that backs the queue up past one batching window.

    Micro-batches of 32 with the autoscaler on (its scale-ups arm
    ``ready_at`` wake-ups); ``kills`` adds replica crashes whose dead
    declarations swap in prewarming replacements (their ``ready``
    wake-ups) after hedged retries.
    """
    runtime = ServingRuntime(
        ExecutorPool(4, policy="cache_affinity"),
        BatchPolicy(max_batch_size=32, max_wait_s=1e-7),
        queue_capacity=512,
        autoscaler=AutoscalerPolicy(
            interval_s=1e-7,
            window_s=4e-7,
            max_replicas=4,
            slo_scale_down=0.4,
            scale_down_cooldown_s=4e-7,
        ),
        retry=RetryPolicy(deadline_s=deadline_s),
        health=HealthPolicy(suspect_after_s=5e-8, dead_after_s=1.5e-7),
        observability=observability,
    )
    runtime.register_model(ModelProfile("m0", mlp(0), replicas=1, slo_s=2e-6))
    scen = diurnal_scenario("m0", 2e8, 3.2e9, duration, seed=seed, period=duration)
    plan = (
        FaultPlan.replica_kills([(f * duration, 0) for f in kills])
        if kills
        else None
    )
    runtime.run(scen, seed=7, faults=plan)
    return runtime, scen


def _priority_kill_runtime(observability=None, rate=2e9, duration=3e-7,
                           kills=(1e-7,), **retry):
    """Two classes through a 6-deep queue with one replica kill: with
    no retry budget, arrivals are rejected, class-0 waiters are evicted
    by class-1 arrivals, and the killed worker's batch fails outright.
    ``retry`` overrides :class:`RetryPolicy` fields."""
    runtime = ServingRuntime(
        ExecutorPool(2),
        BatchPolicy(max_batch_size=4, max_wait_s=1e-7),
        queue_capacity=6,
        retry=RetryPolicy(**{"max_retries": 0, **retry}),
        health=HealthPolicy(suspect_after_s=5e-8, dead_after_s=1.5e-7),
        observability=observability,
    )
    runtime.register_model(ModelProfile("m0", mlp(0), replicas=2, slo_s=2e-6))
    scen = priority_scenario("m0", rate, duration, {0: 2, 1: 1}, seed=4)
    plan = FaultPlan.replica_kills([(t, 0) for t in kills])
    runtime.run(scen, seed=7, faults=plan)
    return runtime, scen


def _canonical(obj):
    """JSON-ready copy with every float spelled exactly (``float.hex``)."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _run_digest(runtime, scen) -> str:
    """Hash of everything a run decides, bar the depth-sample mean."""
    h = hashlib.sha256()
    tel = runtime.telemetry
    for r in tel.completed:
        row = (r.request_id, r.dispatch_time, r.completion_time,
               r.batch_size, r.worker_id)
        h.update(json.dumps(_canonical(row)).encode())
        h.update(r.output.tobytes())
    for b in tel.batches:
        row = (b.model, b.batch_size, b.worker_id, b.dispatch_time, b.service_s)
        h.update(json.dumps(_canonical(row)).encode())
    report = runtime.report(scen)
    del report["queue_depth"]["mean"]
    h.update(json.dumps(_canonical(report), sort_keys=True).encode())
    return h.hexdigest()


class TestDeadlineWakeups:
    def test_event_count_scales_with_real_events(self):
        # Every popped event samples the queue-depth gauge once, so the
        # series length is the loop's pop count.  Real events are the
        # arrivals, the completions (one per batch), the autoscaler ticks
        # and one wake-up per distinct deadline or replica-ready time;
        # duplicate wake-ups used to add ~6x the arrivals on top.
        runtime, scen = _backlog_runtime()
        tel = runtime.telemetry
        assert tel.queue_depth_stats()["max"] > 32  # backed up past a batch
        points = len(tel.registry.get("serve_queue_depth").series())
        ticks = int(tel.makespan() / runtime.autoscaler.policy.interval_s) + 1
        bound = 2 * (scen.num_requests + len(tel.batches)) + ticks
        assert points <= bound, (points, bound)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({}, "579f378ed12c54f4ec086d27773c5f2e763fcedcc1dcd4d7fec40b339278206f"),
            (
                {"seed": 6, "kills": (0.3, 0.55), "deadline_s": 8e-8},
                "d575c01a7d0b579374b479cb3ca64aac9ee880f044b9f5b014e42c5e4f3e59e9",
            ),
        ],
        ids=["diurnal-autoscale", "replica-crashes"],
    )
    def test_run_matches_recorded_golden(self, kwargs, expected):
        # Digests recorded before duplicate deadline wake-ups were
        # dropped: removing them must not move a single dispatch,
        # completion, output, batch record or report entry.  Only the
        # depth-sample mean may move (one sample per popped event).
        runtime, scen = _backlog_runtime(**kwargs)
        assert _run_digest(runtime, scen) == expected

    @pytest.mark.parametrize(
        "run, kwargs, expected",
        [
            (
                _backlog_runtime,
                {},
                "1b1c1d897dcf3a8b015e33262815e78d4eca87f713f16bf0d6cc32182f2ee02d",
            ),
            (
                _backlog_runtime,
                {"seed": 6, "kills": (0.3, 0.55), "deadline_s": 8e-8},
                "7fc6cfcbca07770a44e4872b74cb1349b2df782c46f48d00c344ba2a53626c0c",
            ),
            (
                _priority_kill_runtime,
                {},
                "f57614796590f2195114d147258b7915a968fb6c77a7cb13bec6f4c30fc4f846",
            ),
            (
                _priority_kill_runtime,
                {"max_retries": 1, "deadline_s": 1e-7, "replace_dead": False,
                 "kills": (1e-7, 1.5e-7)},
                "c59bfa6e99247a361ecf99d21eeee9824e53f061082327c9010a15d56d5286eb",
            ),
            (
                _priority_kill_runtime,
                {"max_retries": 1, "deadline_s": 5e-8, "replace_dead": False,
                 "kills": (1e-7, 1.5e-7)},
                "3802a3a3f27f0b71d199ba4133bef2120257c44b035a567fb67520fb0fa486db",
            ),
        ],
        ids=["diurnal-autoscale", "replica-crashes", "priority-kill",
             "retry-outage", "stale-retry"],
    )
    def test_traced_run_matches_recorded_golden(self, run, kwargs, expected):
        # Every way a request leaves without completing and every retry
        # reaches the trace, the metrics text and the SLO plane in a
        # fixed order: rejects and evictions on arrival and on re-entry,
        # queue and re-entry timeouts, retry-budget failures and the
        # requests a dead fleet strands at the end of the run.
        obs = Observability(
            tracing=True,
            slo=SLOTracker(SLOSpec("latency", 0.9, default_windows(1e-6))),
        )
        runtime, scen = run(observability=obs, **kwargs)
        h = hashlib.sha256(_run_digest(runtime, scen).encode())
        h.update(obs.tracer.chrome_trace().encode())
        h.update(obs.registry.prometheus_text().encode())
        h.update(json.dumps(_canonical(obs.slo.summary())).encode())
        assert h.hexdigest() == expected
