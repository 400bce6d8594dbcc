"""The serving runtime: admission → micro-batching → executor pool.

:class:`ServingRuntime` is a discrete-event simulator over the
:class:`~repro.serve.clock.SimulatedClock`: scenario arrivals enter the
bounded :class:`~repro.serve.request.AdmissionQueue`, the
:class:`~repro.serve.batcher.MicroBatcher` coalesces them into per-model
micro-batches, and the :class:`~repro.serve.pool.ExecutorPool` dispatches
each batch through a weight-programmed photonic executor as one batched
GEMM stream.

Two control knobs turn the batcher into a serving system:

* **priority classes** — arrivals may carry a priority (see
  :class:`~repro.serve.request.Priority`); admission sheds the lowest
  class first, and the batcher dispatches by effective priority with an
  aging term (:class:`~repro.serve.batcher.BatchPolicy`
  ``aging_rate_per_s``) so low classes cannot starve;
* **SLO-driven autoscaling** — an :class:`Autoscaler`
  (:class:`AutoscalerPolicy` knobs) watches each model's windowed p99
  latency against its SLO and its queue depth at a fixed simulated-clock
  cadence, growing the replica set ahead of a ramp (charging the
  weight-tile reprogramming latency from ``arch.latency`` to the new
  replica) and draining replicas back when the tail is comfortably
  inside the SLO.

Two notions of time coexist deliberately:

* **functional execution** — each micro-batch really runs through the
  photonic core model (outputs are exact, programmed-cache hits are
  measured);
* **simulated hardware time** — the batch's service latency comes from
  the analytic :mod:`repro.arch` model
  (:func:`repro.arch.inference.per_request_latency` over the model's
  forward GEMMs at the dispatched batch size), which is what advances
  the clock and what every latency percentile is measured in.

So the telemetry answers "what SLO would this traffic see on the
hardware", while the outputs prove the batched dataflow is the same
computation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.accelerator import MirageAccelerator
from ..arch.inference import per_request_latency
from ..arch.tiling import map_gemm
from ..arch.workloads import GemmShape, LayerShape
from ..nn.conv import Conv2d, conv_output_size
from ..nn.layers import Linear, Sequential
from .batcher import BatchPolicy, MicroBatcher
from .clock import SimulatedClock, time_at_or_before
from .faults import FaultInjector, FaultKind, FaultPlan, FleetMonitor, HealthPolicy
from .pool import ExecutorPool
from .request import AdmissionQueue, InferenceRequest, RequestStatus
from .telemetry import Telemetry, percentile, summarize_latencies

__all__ = [
    "AutoscalerPolicy",
    "Autoscaler",
    "ModelProfile",
    "RetryPolicy",
    "ServiceModel",
    "ServingRuntime",
    "model_layer_shapes",
    "infer_input_dim",
]


# ----------------------------------------------------------------------
# Model → GEMM-shape extraction (feeds the analytic latency model)
# ----------------------------------------------------------------------
def model_layer_shapes(
    name: str,
    model: Sequential,
    batch: int,
    input_hw: Optional[Tuple[int, int]] = None,
) -> List[LayerShape]:
    """Forward GEMM shapes of a Sequential model at a given batch size.

    Linear layers map to ``(out, in) @ (in, batch)``; Conv2d layers use
    the im2col convention and need ``input_hw`` to track spatial sizes.
    """
    shapes: List[LayerShape] = []
    hw = input_hw
    for i, layer in enumerate(model):
        if isinstance(layer, Linear):
            shapes.append(
                LayerShape(
                    f"{name}.{i}",
                    GemmShape(layer.out_features, layer.in_features, batch),
                    "linear",
                )
            )
        elif isinstance(layer, Conv2d):
            if hw is None:
                raise ValueError(
                    f"model {name!r} has Conv2d layers; pass input_hw"
                )
            k, s, p = layer.kernel_size, layer.stride, layer.padding
            oh = conv_output_size(hw[0], k, s, p)
            ow = conv_output_size(hw[1], k, s, p)
            shapes.append(
                LayerShape(
                    f"{name}.{i}",
                    GemmShape(
                        layer.out_channels,
                        layer.in_channels * k * k // layer.groups,
                        batch * oh * ow,
                    ),
                    "conv",
                )
            )
            hw = (oh, ow)
    if not shapes:
        raise ValueError(f"model {name!r} has no GEMM layers to serve")
    return shapes


def infer_input_dim(model: Sequential) -> int:
    """Input feature width of the first Linear layer."""
    for layer in model:
        if isinstance(layer, Linear):
            return layer.in_features
    raise ValueError("model has no Linear layer to infer an input dim from")


@dataclass(frozen=True)
class ModelProfile:
    """A served model: the network plus its serving parameters."""

    name: str
    model: Sequential
    replicas: int = 1
    slo_s: Optional[float] = None
    input_hw: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {self.slo_s}")

    def input_dim(self) -> int:
        return infer_input_dim(self.model)


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs of the request-level runtime.

    ``max_retries`` bounds how many times one request may re-enter
    admission after its dispatch was lost to a worker failure (the retry
    *budget* — past it the request fails terminally).  ``deadline_s``
    gives every request an absolute deadline of ``arrival + deadline_s``
    after which it is dropped as timed out rather than served late.
    ``hedge_on_suspect`` re-dispatches stranded work as soon as its
    worker turns *suspect* instead of waiting for the dead declaration;
    ``replace_dead`` swaps a fresh (cold, reprogramming-charged) replica
    in for every worker declared dead.  All knobs are inert on
    fault-free runs — retries and hedges only trigger on failures.
    """

    max_retries: int = 2
    deadline_s: Optional[float] = None
    hedge_on_suspect: bool = True
    replace_dead: bool = True

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )


class ServiceModel:
    """Analytic batch-service latencies, memoised per (model, batch).

    ``batch_latency`` / ``prewarm_latency`` are pure functions of the
    registered profile, so each (model, batch) pair is priced through
    ``arch.inference`` exactly once per registration — hot dispatch
    paths (every micro-batch and every engine decode step) read the
    memo.  Re-registering a name drops that model's cached entries, so a
    swapped profile can never serve the old profile's latencies.
    """

    def __init__(self, accelerator: Optional[MirageAccelerator] = None):
        self.accelerator = accelerator or MirageAccelerator()
        self._profiles: Dict[str, ModelProfile] = {}
        self._cache: Dict[Tuple[str, int], float] = {}

    def register(self, profile: ModelProfile) -> None:
        if profile.name in self._profiles:
            self._invalidate(profile.name)
        self._profiles[profile.name] = profile

    def _invalidate(self, model: str) -> None:
        for key in [k for k in self._cache if k[0] == model]:
            del self._cache[key]

    def cache_info(self) -> Dict[str, int]:
        """Size of the latency memo (observability for the memo tests)."""
        return {"entries": len(self._cache)}

    def batch_latency(self, model: str, batch: int) -> float:
        key = (model, batch)
        if key not in self._cache:
            profile = self._profiles[model]
            shapes = model_layer_shapes(
                model, profile.model, batch, profile.input_hw
            )
            self._cache[key] = per_request_latency(
                shapes, batch, self.accelerator
            )["batch_latency_s"]
        return self._cache[key]

    def prewarm_latency(self, model: str) -> float:
        """Seconds to program all of ``model``'s weight tiles on one core.

        One phase-shifter settle (``reprogram_time_s``) per round of
        stationary weight tiles spread over the ``num_arrays`` RNS-MMVMUs
        — the cost a cold replica pays before it can serve its first
        batch, charged by the autoscaler on scale-up.
        """
        key = (model, -1)
        if key not in self._cache:
            profile = self._profiles[model]
            config = self.accelerator.config
            shapes = model_layer_shapes(
                model, profile.model, 1, profile.input_hw
            )
            total = 0.0
            for layer in shapes:
                mapping = map_gemm(layer.gemm, config.v, config.g, "first")
                rounds = -(-mapping.tiles // config.num_arrays)
                total += rounds * config.reprogram_time_s
            self._cache[key] = total
        return self._cache[key]


# ----------------------------------------------------------------------
# SLO-driven replica autoscaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalerPolicy:
    """Knobs of the latency-driven replica autoscaler.

    The control loop runs every ``interval_s`` of simulated time.  Per
    model it scales **up** when the windowed p99 latency breaches
    ``slo_scale_up`` of the model's SLO or queue depth per replica
    exceeds ``queue_high_per_replica`` (sized by queue pressure, so a
    steep ramp can add several replicas in one tick), and scales **down
    one replica at a time** when the tail sits below ``slo_scale_down``
    of the SLO with a near-empty queue, after ``scale_down_cooldown_s``
    of stability — asymmetric thresholds and the cooldown prevent
    flapping.
    """

    interval_s: float = 2e-7
    window_s: float = 5e-7
    min_replicas: int = 1
    max_replicas: int = 8
    slo_scale_up: float = 0.9
    slo_scale_down: float = 0.5
    queue_high_per_replica: float = 16.0
    queue_low_per_replica: float = 2.0
    scale_down_cooldown_s: float = 4e-7

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}..{self.max_replicas}"
            )
        if not 0 < self.slo_scale_down <= self.slo_scale_up:
            raise ValueError(
                "need 0 < slo_scale_down <= slo_scale_up, got "
                f"{self.slo_scale_down}/{self.slo_scale_up}"
            )
        if self.queue_high_per_replica <= 0 or self.queue_low_per_replica < 0:
            raise ValueError("queue thresholds must be positive/non-negative")


class Autoscaler:
    """Per-model replica controller over the pool, driven by telemetry.

    Reads each model's windowed p99-vs-SLO and queue depth, and asks
    :meth:`ExecutorPool.scale_to` for more or fewer replicas.  Scale-ups
    charge the model's weight-tile reprogramming latency (from
    ``arch.latency`` via :meth:`ServiceModel.prewarm_latency`) to the new
    replica's busy window; scale-downs drain before retiring.  Also keeps
    the replica-second ledger the autoscaling benchmark reports
    (provisioned capacity integrated over simulated time).
    """

    def __init__(self, runtime: "ServingRuntime", policy: AutoscalerPolicy):
        self.runtime = runtime
        self.policy = policy
        self.events: List[Dict[str, float]] = []
        self.burn_alerts: List[Dict[str, object]] = []
        self._last_change: Dict[str, float] = {}
        self._rs: Dict[str, float] = {}
        self._rs_t: Dict[str, float] = {}
        self._rs_n: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self, now: float = 0.0) -> None:
        """Open the replica-second ledger at the current replica counts."""
        for name in self.runtime.pool.model_names():
            self._last_change[name] = now
            self._rs[name] = 0.0
            self._rs_t[name] = now
            self._rs_n[name] = self.runtime.pool.num_replicas(name)

    def _account(self, name: str, now: float) -> None:
        self._rs[name] += self._rs_n[name] * (now - self._rs_t[name])
        self._rs_t[name] = now
        self._rs_n[name] = self.runtime.pool.num_replicas(name)

    def finalize(self, horizon: float) -> None:
        """Close the ledger at the scenario horizon."""
        for name in list(self._rs):
            if horizon > self._rs_t[name]:
                self._account(name, horizon)

    def replica_seconds(self, model: Optional[str] = None) -> float:
        if model is not None:
            return self._rs.get(model, 0.0)
        return sum(self._rs.values())

    # ------------------------------------------------------------------
    def _decide(
        self, name: str, now: float
    ) -> Tuple[int, Dict[str, object]]:
        """The decision plus the windowed evidence it was based on.

        The evidence dict is what the tracer attaches to every
        autoscale instant — a decision is only auditable with the p99,
        SLO and queue depth the controller actually saw.
        """
        rt, pol = self.runtime, self.policy
        cur = rt.pool.num_replicas(name)
        depth = rt.queue.pending(name)
        lat = rt.telemetry.latencies(model=name, since=now - pol.window_s)
        p99 = percentile(lat, 99) if lat else None
        slo = rt.profiles()[name].slo_s
        evidence: Dict[str, object] = {
            "p99_s": p99,
            "slo_s": slo,
            "queue_depth": depth,
            "window_s": pol.window_s,
        }

        # The pool is the hard ceiling: clamping here (not just inside
        # scale_to) keeps a saturated pool from emitting no-op scale
        # events every tick and perpetually resetting the cooldown.
        ceiling = min(pol.max_replicas, len(rt.pool.workers))
        queue_pressure = depth > pol.queue_high_per_replica * cur
        slo_breach = (
            slo is not None and p99 is not None and p99 > pol.slo_scale_up * slo
        )
        if queue_pressure or slo_breach:
            by_queue = math.ceil(depth / pol.queue_high_per_replica)
            # Never *shrink* on the overload branch: if the deployment was
            # placed above the policy ceiling, retiring replicas exactly
            # when load spikes would be the opposite of the intent.
            return max(cur, min(ceiling, max(cur + 1, by_queue))), evidence

        cooled = (
            now - self._last_change.get(name, 0.0)
            >= pol.scale_down_cooldown_s
        )
        tail_ok = slo is None or p99 is None or p99 < pol.slo_scale_down * slo
        queue_ok = depth <= pol.queue_low_per_replica * max(cur - 1, 1)
        if cur > pol.min_replicas and cooled and tail_ok and queue_ok:
            return cur - 1, evidence
        return max(cur, pol.min_replicas), evidence

    def evaluate(self, now: float) -> List[Dict[str, float]]:
        """Run one control tick; returns the scaling actions taken."""
        actions: List[Dict[str, float]] = []
        tracer = self.runtime.tracer
        for name in self.runtime.pool.model_names():
            cur = self.runtime.pool.num_replicas(name)
            desired, evidence = self._decide(name, now)
            if desired == cur:
                continue
            self._account(name, now)
            prewarm_s = (
                self.runtime.service.prewarm_latency(name)
                if desired > cur
                else 0.0
            )
            delta = self.runtime.pool.scale_to(
                name, desired, now, prewarm_latency_s=prewarm_s
            )
            self._rs_n[name] = self.runtime.pool.num_replicas(name)
            self._last_change[name] = now
            ready_at = now
            for wid in delta["added"]:
                ready_at = max(
                    ready_at, self.runtime.pool.workers[wid].busy_until
                )
            action = {
                "t": now,
                "model": name,
                "from": cur,
                "to": self.runtime.pool.num_replicas(name),
                "prewarm_s": prewarm_s if delta["cold"] else 0.0,
                "ready_at": ready_at,
            }
            self.events.append(action)
            actions.append(action)
            if tracer is not None:
                tracer.instant(
                    "control",
                    0,
                    f"autoscale:{name}",
                    now,
                    args={**action, "evidence": evidence},
                )
        # Surface (never act on) any SLO error-budget burn alerts: the
        # burn-rate monitors see the same clock the controller does, so
        # every alert lands next to the decisions it indicts.
        slo = self.runtime._slo
        if slo is not None:
            fired = slo.check(now)
            self.burn_alerts.extend(fired)
            if tracer is not None:
                for alert in fired:
                    tracer.instant(
                        "control", 0, "slo_burn_alert", now, args=dict(alert)
                    )
        return actions

    def summary(self) -> Dict[str, object]:
        out = {
            "events": [dict(e) for e in self.events],
            "num_scale_ups": sum(1 for e in self.events if e["to"] > e["from"]),
            "num_scale_downs": sum(
                1 for e in self.events if e["to"] < e["from"]
            ),
            "replica_seconds": {
                name: self._rs.get(name, 0.0) for name in sorted(self._rs)
            },
            "final_replicas": {
                name: self.runtime.pool.num_replicas(name)
                for name in self.runtime.pool.model_names()
            },
        }
        if self.burn_alerts:
            out["burn_alerts"] = [dict(a) for a in self.burn_alerts]
        return out


# ----------------------------------------------------------------------
# The discrete-event serving loop
# ----------------------------------------------------------------------
_ARRIVAL, _WORKER_FREE, _DEADLINE, _SCALE, _FAULT, _HEALTH = 0, 1, 2, 3, 4, 5

# How a request leaves without completing -> its terminal status.
_DROP_STATUS = {
    "reject": RequestStatus.REJECTED, "evict": RequestStatus.EVICTED,
    "timeout": RequestStatus.TIMED_OUT, "fail": RequestStatus.FAILED,
}


class ServingRuntime:
    """One serving deployment: models, pool, batcher, queue, telemetry.

    Use one runtime instance per scenario run — worker availability and
    cache state deliberately persist across requests within a run.
    """

    def __init__(
        self,
        pool: ExecutorPool,
        policy: Optional[BatchPolicy] = None,
        queue_capacity: int = 256,
        accelerator: Optional[MirageAccelerator] = None,
        execute: bool = True,
        autoscaler: Optional[AutoscalerPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthPolicy] = None,
        observability=None,
    ):
        self.pool = pool
        self.batcher = MicroBatcher(policy)
        self.queue = AdmissionQueue(queue_capacity)
        self.service = ServiceModel(accelerator)
        self.clock = SimulatedClock()
        if observability is not None and observability.streaming:
            raise ValueError(
                "ServingRuntime has no streaming telemetry mode: its "
                "Telemetry keeps every request, so "
                "Observability(streaming=True) would not bound memory"
            )
        self.obs = observability
        registry = observability.registry if observability is not None else None
        self.tracer = observability.tracer if observability is not None else None
        self._slo = observability.slo if observability is not None else None
        self.telemetry = Telemetry(registry=registry)
        if self.tracer is not None:
            pool.set_tracer(self.tracer)
            self.batcher.tracer = self.tracer
        self.execute = execute
        self.autoscaler = (
            Autoscaler(self, autoscaler) if autoscaler is not None else None
        )
        self.retry = retry or RetryPolicy()
        self.health = health or HealthPolicy()
        self._profiles: Dict[str, ModelProfile] = {}
        self._req_ids = itertools.count()
        # Failure plane: in-flight batches by id so a crash can strand
        # exactly the work that was riding on the failed worker.
        self._batch_ids = itertools.count()
        self._inflight: Dict[int, Tuple[int, List[InferenceRequest]]] = {}
        self._cancelled: set = set()
        self._stranded: Dict[int, List[InferenceRequest]] = {}
        self._monitor: Optional[FleetMonitor] = None
        self._injector: Optional[FaultInjector] = None
        # Tracing bookkeeping: when each request (re)started waiting,
        # closed into a queue_wait span at dispatch.
        self._wait_since: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def register_model(
        self, profile: ModelProfile, prewarm: bool = True
    ) -> List[int]:
        """Place a model on the pool and register its latency profile.

        Validates the profile eagerly (GEMM layers present, ``input_hw``
        given for conv models) so a bad profile fails here, not at the
        first arrival mid-scenario.
        """
        model_layer_shapes(profile.name, profile.model, 1, profile.input_hw)
        self._profiles[profile.name] = profile
        self.service.register(profile)
        return self.pool.place(
            profile.name, profile.model, profile.replicas, prewarm=prewarm
        )

    def profiles(self) -> Dict[str, ModelProfile]:
        return dict(self._profiles)

    # ------------------------------------------------------------------
    def run(
        self,
        scenario,
        seed: int = 0,
        input_fn: Optional[Callable[[str, np.random.Generator], np.ndarray]] = None,
        faults: Optional[FaultPlan] = None,
    ) -> Telemetry:
        """Drive a full scenario through the deployment; returns telemetry.

        ``input_fn(model_name, rng)`` supplies request inputs (default:
        standard-normal rows of the model's input width).  ``faults`` is
        an optional replayable :class:`~repro.serve.faults.FaultPlan` of
        **worker** events (crash/stuck/slow) injected on the simulated
        clock; session-granular kinds (transient, KV loss) belong to the
        token engine and are rejected here.
        """
        rng = np.random.default_rng(seed)
        heap: List[Tuple[float, int, int, object]] = []
        seq = itertools.count()
        # Times of the pending _DEADLINE wake-ups: a second one for the
        # same time would only re-run a drain that changes nothing.
        armed: set = set()

        def push(t: float, kind: int, payload: object) -> None:
            if kind == _DEADLINE:
                if t in armed:
                    return
                armed.add(t)
            heapq.heappush(heap, (t, kind, next(seq), payload))

        if faults is not None:
            bad = [e.kind for e in faults.events if e.kind in FaultKind.SESSION_KINDS]
            if bad:
                raise ValueError(
                    f"request-level runtime cannot inject {sorted(set(bad))}; "
                    "session-granular faults target the token engine"
                )
            self._injector = FaultInjector(faults)
            self._monitor = FleetMonitor(self.pool, self.health)
            self._monitor.tracer = self.tracer
            for event in faults.events:
                push(event.t, _FAULT, None)

        last_arrival = 0.0
        for arrival in scenario.arrivals:
            t, model = arrival[0], arrival[1]
            priority = arrival[2] if len(arrival) > 2 else 0
            if model not in self._profiles:
                raise KeyError(
                    f"scenario names model {model!r} but it is not registered"
                )
            push(t, _ARRIVAL, (model, priority))
            last_arrival = max(last_arrival, t)

        if self.autoscaler is not None and scenario.arrivals:
            # One pending tick at a time (the handler re-arms the next)
            # keeps the heap O(1) in ticks even when the horizon spans
            # millions of control intervals.  The payload carries the tick
            # index so every tick lands at exactly k * interval_s
            # (re-accumulating `now + interval` would drift by ulps and
            # perturb threshold decisions).
            self.autoscaler.start(0.0)
            push(self.autoscaler.policy.interval_s, _SCALE, 1)

        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            now = self.clock.advance_to(t)
            if kind == _ARRIVAL:
                model, priority = payload
                self._admit(model, priority, now, rng, input_fn)
            elif kind == _WORKER_FREE:
                self._complete(payload)
            elif kind == _FAULT:
                for event in self._injector.due(now):
                    self._apply_fault(event, now, push)
            elif kind == _DEADLINE:
                armed.remove(t)
            elif kind == _HEALTH:
                self._check_health(now, push)
            elif kind == _SCALE:
                for action in self.autoscaler.evaluate(now):
                    if action["ready_at"] > now:
                        # Wake the loop when the prewarmed replica comes
                        # online so waiting batches dispatch immediately.
                        push(action["ready_at"], _DEADLINE, None)
                # Keep ticking while arrivals are still coming OR a
                # backlog is draining — a burst shorter than one interval
                # and an overhang past the last arrival both still need
                # the control loop.  Stops once the queue is empty after
                # the final arrival, so the event loop terminates.
                next_tick = (payload + 1) * self.autoscaler.policy.interval_s
                if time_at_or_before(next_tick, last_arrival) or self.queue.depth > 0:
                    push(next_tick, _SCALE, payload + 1)
            # _DEADLINE events exist only to trigger a drain; push keeps
            # at most one pending per timestamp, whichever of the batching
            # deadline, a scale-up's ready_at or a replacement's ready
            # armed it.
            self._drain(now, push)
            self.telemetry.sample_queue_depth(now, self.queue.depth)

        if self.queue.depth:
            if self._injector is not None:
                # A fleet outage can legitimately strand waiting work
                # (every replica dead, replacement disabled): those
                # requests fail terminally instead of crashing the loop.
                for model in list(self.queue.models_waiting()):
                    for r in self.queue.pop_batch(model, self.queue.depth):
                        self._drop(r, "fail", self.clock.now)
            else:
                raise RuntimeError(
                    f"event loop ended with {self.queue.depth} requests stranded"
                )
        return self.telemetry

    # ------------------------------------------------------------------
    def _default_input(
        self, profile: ModelProfile, rng: np.random.Generator
    ) -> np.ndarray:
        """A random input matching the model's first GEMM layer.

        Linear-first models get a ``(in_features,)`` row; conv-first
        models get a ``(C_in, H, W)`` image (stacking a batch of either
        yields exactly what ``run_sequential`` expects).
        """
        for layer in profile.model:
            if isinstance(layer, Linear):
                return rng.standard_normal(layer.in_features)
            if isinstance(layer, Conv2d):
                if profile.input_hw is None:
                    raise ValueError(
                        f"model {profile.name!r} is conv-first; its profile "
                        "needs input_hw to synthesize default inputs"
                    )
                return rng.standard_normal(
                    (layer.in_channels, *profile.input_hw)
                )
        raise ValueError(f"model {profile.name!r} has no GEMM layers")

    def _admit(
        self,
        model: str,
        priority: int,
        now: float,
        rng: np.random.Generator,
        input_fn: Optional[Callable[[str, np.random.Generator], np.ndarray]],
    ) -> None:
        if input_fn is not None:
            x = np.asarray(input_fn(model, rng), dtype=np.float64)
        else:
            x = self._default_input(self._profiles[model], rng)
        request = InferenceRequest(
            next(self._req_ids), model, x, now, priority=priority
        )
        if self.retry.deadline_s is not None:
            request.deadline = now + self.retry.deadline_s
        if not self.queue.offer(request):
            self._drop(request, "reject", now)
        else:
            if self.tracer is not None:
                self._wait_since[request.request_id] = now
                self.tracer.instant(
                    "request", request.request_id, "enqueue", now
                )
        for victim in self.queue.drain_evicted():
            self._drop(victim, "evict", now)

    def _drop(self, request: InferenceRequest, kind: str, now: float) -> None:
        """A request leaving without completing: its terminal status,
        one telemetry record, one trace instant and one SLO miss."""
        request.status = _DROP_STATUS[kind]
        self.telemetry.record_drop(request, kind)
        if self.tracer is not None:
            self._wait_since.pop(request.request_id, None)
            self.tracer.instant("request", request.request_id, kind, now)
        if self._slo is not None:
            self._slo.observe(request.model, now, good=False)

    # ------------------------------------------------------------------
    # Failure plane
    # ------------------------------------------------------------------
    def _apply_fault(self, event, now: float, push) -> None:
        """Apply one due fault event (physics only — detection is separate)."""
        wid = self.pool.resolve_worker(event.target)
        if wid is None:
            return  # nothing left to kill
        if event.kind in (FaultKind.REPLICA_CRASH, FaultKind.WORKER_STUCK):
            self.pool.crash(wid, now)
            self.telemetry.record_crash(wid)
            # Strand the in-flight batches riding on this worker: their
            # completion events are cancelled; the requests re-enter only
            # once the monitor *detects* the failure (suspect/dead) —
            # nobody knows instantly that a worker died.
            for batch_id, (bwid, batch) in list(self._inflight.items()):
                if bwid != wid:
                    continue
                self._cancelled.add(batch_id)
                del self._inflight[batch_id]
                self._stranded.setdefault(wid, []).extend(batch)
            push(now + self.health.suspect_after_s, _HEALTH, None)
            push(now + self.health.dead_after_s, _HEALTH, None)
        elif event.kind == FaultKind.WORKER_SLOW:
            self.pool.slow(wid, event.severity, now + event.duration_s)

    def _check_health(self, now: float, push) -> None:
        """One heartbeat sweep: hedge on suspect, replace on dead."""
        if self._monitor is None:
            return
        for tr in self._monitor.observe(now):
            wid = tr["worker_id"]
            if tr["to"] == "suspect" and self.retry.hedge_on_suspect:
                for request in self._stranded.pop(wid, []):
                    self._reenter(request, now, hedged=True)
            elif tr["to"] == "dead":
                for request in self._stranded.pop(wid, []):
                    self._reenter(request, now, hedged=False)
                if self.retry.replace_dead:
                    prewarm = lambda name: self.service.prewarm_latency(name)
                    new_wid = self.pool.replace_worker(wid, now, prewarm)
                    self.telemetry.record_replacement(wid, new_wid)
                    ready = self.pool.workers[new_wid].busy_until
                    if ready > now:
                        push(ready, _DEADLINE, None)

    def _reenter(self, request: InferenceRequest, now: float, hedged: bool) -> None:
        """Re-admit a request whose dispatch was lost to a worker failure.

        Head-of-class requeue: the request already waited its turn once.
        Deadline and retry budget are checked first — work nobody wants
        (or that has failed too often) terminates instead of churning.
        """
        if request.deadline is not None and not time_at_or_before(
            now, request.deadline
        ):
            self._drop(request, "timeout", now)
            return
        if request.retries >= self.retry.max_retries:
            self._drop(request, "fail", now)
            return
        request.retries += 1
        if self.queue.offer(request, front=True):
            self.telemetry.record_retry(request, hedged=hedged)
            if self.tracer is not None:
                self._wait_since[request.request_id] = now
                self.tracer.instant(
                    "request",
                    request.request_id,
                    "retry",
                    now,
                    args={"hedged": hedged},
                )
        else:
            self._drop(request, "reject", now)
        for victim in self.queue.drain_evicted():
            self._drop(victim, "evict", now)

    # ------------------------------------------------------------------
    def _drain(self, now: float, push) -> None:
        """Dispatch every batch that is ready and has a free worker."""
        for request in self.queue.expire(now):
            self._drop(request, "timeout", now)
        while True:
            dispatched = False
            # Snapshot: ready_model recomputes triggers after each pop;
            # models whose replicas are all busy get excluded and retried
            # when a worker-free event fires.
            tried = set()
            model = self.batcher.ready_model(self.queue, now, tried)
            while model is not None:
                worker = self.pool.route(model, now)
                if worker is not None:
                    self._dispatch(model, worker, now, push)
                    dispatched = True
                    break
                tried.add(model)
                model = self.batcher.ready_model(self.queue, now, tried)
            if not dispatched:
                break
        # Arm a timer for the earliest future batching deadline.
        dl = self.batcher.next_deadline(self.queue)
        if dl is not None and dl > now:
            push(dl, _DEADLINE, None)

    def _dispatch(self, model: str, worker, now: float, push) -> None:
        batch = self.batcher.take_batch(self.queue, model, now)
        for request in self.batcher.drain_expired():
            self._drop(request, "timeout", now)
        if not batch:
            return  # every popped request had expired
        service_s = self.service.batch_latency(model, len(batch))
        # A degraded worker serves slower than the analytic model says;
        # the stall inflates the busy window and completion time while
        # telemetry keeps the *nominal* service time, so the analytic
        # cross-check stays exact through fault storms.
        booked_s = service_s * worker.service_scale(now)
        profile = self._profiles[model]
        if self.execute:
            outputs = worker.run_batch(
                model, profile.model, [r.x for r in batch], now, booked_s
            )
        else:
            outputs = None
            worker.run_booking(model, len(batch), now, booked_s)
        done = now + booked_s
        # The index the record_batch call below will occupy — stamped on
        # each request's service span so analysis can join a span back
        # to its exact telemetry batch record.
        dispatch_id = len(self.telemetry.batches)
        span_args = {
            "batch": len(batch),
            "worker": worker.worker_id,
            "dispatch": dispatch_id,
        }
        for i, request in enumerate(batch):
            request.status = RequestStatus.DISPATCHED
            request.dispatch_time = now
            request.completion_time = done
            request.batch_size = len(batch)
            request.worker_id = worker.worker_id
            if outputs is not None:
                request.output = outputs[i]
            if self.tracer is not None:
                rid = request.request_id
                t0 = self._wait_since.pop(rid, request.arrival_time)
                self.tracer.span(
                    "request", rid, "queue_wait", t0, now, category="queue"
                )
                self.tracer.span(
                    "request",
                    rid,
                    "service",
                    now,
                    done,
                    category="service",
                    args=span_args,
                )
        self.telemetry.record_batch(
            model, batch, worker.worker_id, now, service_s
        )
        batch_id = next(self._batch_ids)
        self._inflight[batch_id] = (worker.worker_id, list(batch))
        push(done, _WORKER_FREE, (batch_id, batch))

    def _complete(self, payload) -> None:
        batch_id, batch = payload
        if batch_id in self._cancelled:
            self._cancelled.discard(batch_id)
            return  # worker died mid-batch; requests were stranded
        self._inflight.pop(batch_id, None)
        for request in batch:
            request.status = RequestStatus.COMPLETED
            self.telemetry.record_completion(request)
            done = request.completion_time
            if self.tracer is not None:
                self.tracer.instant(
                    "request", request.request_id, "retire", done
                )
            if self._slo is not None:
                slo_s = self._profiles[request.model].slo_s
                latency = done - request.arrival_time
                self._slo.observe(
                    request.model,
                    done,
                    good=slo_s is None or latency <= slo_s,
                )

    # ------------------------------------------------------------------
    def report(self, scenario, slo_s: Optional[float] = None) -> Dict[str, object]:
        """Full serving report for a completed run.

        Includes the aggregate summary, per-model latency percentiles,
        pool/cache stats, and the analytic-model consistency cross-check
        (recorded busy intervals vs ``arch.inference`` recomputation).
        """
        horizon = max(scenario.duration_s, self.telemetry.makespan())
        if slo_s is None:
            slos = [
                p.slo_s for p in self._profiles.values() if p.slo_s is not None
            ]
            slo_s = min(slos) if slos else None
        out = self.telemetry.summary(
            horizon, slo_s=slo_s, cache_stats=self.pool.cache_stats()
        )
        out["offered_rate_rps"] = scenario.offered_rate
        out["offered_requests"] = scenario.num_requests
        out["per_model"] = {
            name: summarize_latencies(self.telemetry.latencies(name))
            for name in self._profiles
        }
        out["workers"] = self.pool.worker_stats()
        if self._monitor is not None:
            out["health_transitions"] = [
                dict(tr) for tr in self._monitor.transitions
            ]
        if self._injector is not None:
            out["faults_applied"] = len(self._injector.applied)
        if self.autoscaler is not None:
            self.autoscaler.finalize(horizon)
            out["autoscaler"] = self.autoscaler.summary()
            out["autoscaler"]["replica_seconds_total"] = (
                self.autoscaler.replica_seconds()
            )
        # Cross-check with a *fresh* ServiceModel (empty memo cache) so the
        # recorded busy intervals are re-derived from arch.inference from
        # scratch — drift or memo corruption in the runtime's own service
        # model shows up here instead of being read back as-is.
        fresh = ServiceModel(self.service.accelerator)
        for profile in self._profiles.values():
            fresh.register(profile)
        out["analytic_consistency"] = self.telemetry.cross_check_service_model(
            fresh.batch_latency
        )
        return out
