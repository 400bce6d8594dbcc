"""Executor pool: models sharded across multiple photonic cores.

Each :class:`PoolWorker` owns one :class:`~repro.core.PhotonicExecutor`
(and therefore one :class:`~repro.core.PhotonicRnsTensorCore` with its own
programmed-weight cache).  Models are *placed* on a subset of workers —
replicas of hot models spread load, cold models share cores — and
per-request routing among a model's free replicas is pluggable:

* ``round_robin`` — cycle through the model's free replicas;
* ``least_loaded`` — free replica with the least accumulated busy time;
* ``cache_affinity`` — prefer free replicas whose core has already
  programmed this model's weight tiles (maximises programmed-cache hits,
  falling back to least-loaded among cold replicas).

The pool executes micro-batches *functionally* (real batched GEMMs
through the photonic core model) while the runtime advances simulated
time with the analytic hardware latency — so outputs are real and cache
hit rates are measured, not modelled.

Replica sets are dynamic: :meth:`ExecutorPool.scale_to` grows or shrinks
a model's replica set at simulated time ``now``, charging cold additions
the weight-tile reprogramming latency (prewarm) and draining retired
workers before they leave the routing set — the hooks the runtime's
:class:`~repro.serve.runtime.Autoscaler` drives.

Workers are also *mortal*: :meth:`ExecutorPool.crash` marks one
unresponsive (its in-flight work is stranded and its KV state lost),
:meth:`ExecutorPool.slow` degrades its service rate for a window, and
the ``healthy → suspect → dead`` progression is driven externally by a
:class:`~repro.serve.faults.FleetMonitor` watching heartbeats on the
simulated clock.  Routing only ever considers *available* workers
(responsive and not declared dead); :meth:`ExecutorPool.replace_worker`
swaps a fresh core (new id, cold caches, reprogramming charged) into
every replica set the dead worker served, and :meth:`scale_to`'s
scale-down retires dead and suspect workers first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..core.pipeline import PhotonicExecutor
from ..nn.layers import Sequential
from .clock import time_at_or_before
from .request import InferenceRequest

__all__ = ["PoolWorker", "ExecutorPool", "ROUTING_POLICIES"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_affinity")


class PoolWorker:
    """One photonic core + executor with availability and load tracking."""

    def __init__(self, worker_id: int, executor: PhotonicExecutor):
        self.worker_id = worker_id
        self.executor = executor
        # Observability hook (set via ExecutorPool.set_tracer): when
        # present, every booked busy window emits a dispatch span on the
        # worker track of the simulated-clock trace.
        self.tracer = None
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.batches_served = 0
        self.requests_served = 0
        self.tokens_served = 0
        self.models_programmed: Set[str] = set()
        # Health plane (see repro.serve.faults.FleetMonitor): ``health``
        # is the *detected* state the monitor advances; ``responsive``
        # is ground truth — a crashed worker stops responding long
        # before anyone declares it suspect or dead.
        self.health = "healthy"
        self.responsive = True
        self.fail_time: Optional[float] = None
        self.last_seen = 0.0
        self.slow_factor = 1.0
        self.slow_until = 0.0

    def is_free(self, now: float) -> bool:
        # Relative tolerance: an absolute epsilon (the old 1e-15) is below
        # double spacing once timestamps pass ~1 s, so a worker freed "at
        # exactly now" would compare busy forever at large simulated times.
        return time_at_or_before(self.busy_until, now)

    def is_available(self, now: float) -> bool:
        """Free *and* routable: responsive, not declared dead."""
        return self.responsive and self.health != "dead" and self.is_free(now)

    def service_scale(self, now: float) -> float:
        """Service-time multiplier at ``now`` (> 1 while degraded)."""
        return self.slow_factor if now < self.slow_until else 1.0

    def run_booking(
        self,
        model_name: str,
        batch: int,
        now: float,
        service_s: float,
        tokens: int = 0,
    ) -> None:
        """Book the busy window only (timing-only runs, no functional exec).

        ``tokens`` is the number of output tokens this busy window
        produced — 0 for one-shot request serving, the decode-batch size
        for an engine step.
        """
        self.busy_until = now + service_s
        self.busy_time += service_s
        self.batches_served += 1
        self.requests_served += batch
        self.tokens_served += tokens
        self.models_programmed.add(model_name)
        if self.tracer is not None:
            self.tracer.span(
                "worker",
                self.worker_id,
                f"dispatch:{model_name}",
                now,
                self.busy_until,
                category="dispatch",
                args={"batch": batch, "tokens": tokens},
            )

    def run_batch(
        self,
        model_name: str,
        model: Sequential,
        xs: Sequence[np.ndarray],
        now: float,
        service_s: float,
        tokens: int = 0,
    ) -> np.ndarray:
        """Execute one micro-batch functionally and book the busy window."""
        stacked = np.stack([np.asarray(x, dtype=np.float64) for x in xs])
        out = self.executor.run_sequential(model, stacked)
        self.run_booking(model_name, len(xs), now, service_s, tokens=tokens)
        return out


class ExecutorPool:
    """A fixed set of workers plus model placement and routing."""

    def __init__(
        self,
        num_workers: int,
        policy: str = "least_loaded",
        executor_factory=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; pick from {ROUTING_POLICIES}"
            )
        self._factory = executor_factory or (lambda: PhotonicExecutor())
        self.workers = [PoolWorker(i, self._factory()) for i in range(num_workers)]
        self.tracer = None
        self._next_worker_id = num_workers
        self.policy = policy
        self._models: Dict[str, Sequential] = {}
        self._replicas: Dict[str, List[int]] = {}
        self._rr_state: Dict[str, int] = {}
        self._place_cursor = 0

    def set_tracer(self, tracer) -> None:
        """Install an observability tracer on the pool and every worker.

        Replacement workers created later inherit it automatically.
        """
        self.tracer = tracer
        for w in self.workers:
            w.tracer = tracer

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self,
        name: str,
        model: Sequential,
        replicas: int = 1,
        prewarm: bool = False,
    ) -> List[int]:
        """Assign ``replicas`` workers to ``name`` (round-robin sharding).

        ``prewarm=True`` programs the model's weight tiles on every
        replica immediately, so the first live batch hits the cache.
        """
        replicas = min(max(1, replicas), len(self.workers))
        assigned = []
        for _ in range(replicas):
            assigned.append(self._place_cursor % len(self.workers))
            self._place_cursor += 1
        self._models[name] = model
        self._replicas[name] = assigned
        self._rr_state[name] = 0
        if prewarm:
            for wid in assigned:
                self.workers[wid].executor.prewarm(model)
                self.workers[wid].models_programmed.add(name)
        return assigned

    def scale_to(
        self,
        name: str,
        n: int,
        now: float,
        prewarm_latency_s: float = 0.0,
    ) -> Dict[str, List[int]]:
        """Grow or shrink ``name``'s replica set to ``n`` workers.

        Scale-up assigns additional workers (cache-warm ones first, then
        least-loaded), programs the model's weight tiles on each *cold*
        addition, and charges ``prewarm_latency_s`` of reprogramming time
        (from ``arch.latency``: one phase-shifter settle per weight tile)
        to that worker's busy window — a freshly added cold replica serves
        its first batch only after its tiles are programmed.  Warm
        rejoining workers pay nothing.

        Scale-down is **drain-before-retire**: retired workers leave the
        routing set immediately (no new batches land on them) but keep
        their booked busy window, so an in-flight batch always completes.
        Crash-aware retirement order: dead/unresponsive replicas retire
        first, then suspect ones, then healthy last-added-first.  ``n``
        is clamped to ``[1, num_workers]``.  Returns the worker ids
        ``added`` (with the ``cold`` subset that actually paid the
        reprogram) and ``removed``.
        """
        if name not in self._replicas:
            raise KeyError(f"model {name!r} is not placed on this pool")
        n = min(max(1, n), len(self.workers))
        current = self._replicas[name]
        added: List[int] = []
        cold: List[int] = []
        removed: List[int] = []
        if n > len(current):
            candidates = [
                w
                for w in self.workers
                if w.worker_id not in current
                and w.responsive
                and w.health != "dead"
            ]
            # Warm workers rejoin free; cold ones by load, then id.
            candidates.sort(
                key=lambda w: (
                    name not in w.models_programmed,
                    w.busy_time,
                    w.worker_id,
                )
            )
            for w in candidates[: n - len(current)]:
                if name not in w.models_programmed:
                    w.executor.prewarm(self._models[name])
                    w.models_programmed.add(name)
                    t0 = max(w.busy_until, now)
                    w.busy_until = t0 + prewarm_latency_s
                    w.busy_time += prewarm_latency_s
                    cold.append(w.worker_id)
                    if self.tracer is not None and prewarm_latency_s > 0.0:
                        self.tracer.span(
                            "worker",
                            w.worker_id,
                            f"reprogram:{name}",
                            t0,
                            w.busy_until,
                            category="reprogram",
                        )
                current.append(w.worker_id)
                added.append(w.worker_id)
        elif n < len(current):
            def retire_rank(wid: int) -> int:
                w = self.workers[wid]
                if not w.responsive or w.health == "dead":
                    return 0
                if w.health == "suspect":
                    return 1
                return 2

            order = sorted(
                range(len(current)),
                key=lambda i: (retire_rank(current[i]), -i),
            )
            victims = set(order[: len(current) - n])
            removed = [current[i] for i in sorted(victims)]
            self._replicas[name] = [
                current[i] for i in range(len(current)) if i not in victims
            ]
            self._rr_state[name] = self._rr_state[name] % max(1, n)
        return {"added": added, "cold": cold, "removed": removed}

    def num_replicas(self, name: str) -> int:
        return len(self._replicas[name])

    def model(self, name: str) -> Sequential:
        return self._models[name]

    def replicas(self, name: str) -> List[int]:
        return list(self._replicas[name])

    def model_names(self) -> List[str]:
        return list(self._models)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, name: str, now: float) -> Optional[PoolWorker]:
        """Pick an available replica worker for ``name`` under the policy.

        Only *available* workers are candidates — free, responsive, and
        not declared dead; a crashed-but-undetected worker therefore
        silently drops out of routing, which is exactly what a real load
        balancer's failed health probe does.  Returns None when no
        replica is available (the runtime then waits for the next
        worker-done event or health transition).
        """
        if name not in self._replicas:
            raise KeyError(f"model {name!r} is not placed on this pool")
        free = [
            self.workers[w] for w in self._replicas[name]
            if self.workers[w].is_available(now)
        ]
        if not free:
            return None
        if self.policy == "round_robin":
            order = self._replicas[name]
            start = self._rr_state[name]
            for i in range(len(order)):
                wid = order[(start + i) % len(order)]
                if self.workers[wid].is_available(now):
                    self._rr_state[name] = (start + i + 1) % len(order)
                    return self.workers[wid]
            return None
        if self.policy == "cache_affinity":
            warm = [w for w in free if name in w.models_programmed]
            pick_from = warm or free
        else:  # least_loaded
            pick_from = free
        return min(pick_from, key=lambda w: (w.busy_time, w.worker_id))

    def next_free_time(self, name: str) -> float:
        """Earliest time a *routable* replica of ``name`` becomes free.

        Falls back to the raw minimum over all replicas when none is
        routable (fleet-wide outage) so callers always get a finite time.
        """
        routable = [
            self.workers[w].busy_until
            for w in self._replicas[name]
            if self.workers[w].responsive and self.workers[w].health != "dead"
        ]
        if routable:
            return min(routable)
        return min(self.workers[w].busy_until for w in self._replicas[name])

    # ------------------------------------------------------------------
    # Failures and replacement
    # ------------------------------------------------------------------
    def crash(self, worker_id: int, now: float) -> None:
        """Worker ``worker_id`` stops responding at ``now``.

        Covers both hard crashes and wedged (stuck) workers: the worker
        no longer answers heartbeats or completes work.  Detection —
        the ``healthy → suspect → dead`` progression — is the
        :class:`~repro.serve.faults.FleetMonitor`'s job; until it
        reacts, the worker simply vanishes from routing.
        """
        w = self.workers[worker_id]
        if not w.responsive:
            return
        w.responsive = False
        w.fail_time = now
        if self.tracer is not None:
            self.tracer.instant("worker", worker_id, "crash", now)

    def slow(self, worker_id: int, factor: float, until: float) -> None:
        """Degrade ``worker_id``: service times scale by ``factor`` until ``until``."""
        if factor <= 1.0:
            raise ValueError(f"slowdown factor must be > 1, got {factor}")
        w = self.workers[worker_id]
        w.slow_factor = factor
        w.slow_until = until

    def live_workers(self) -> List[PoolWorker]:
        """Workers still routable (responsive, not declared dead), by id."""
        return sorted(
            (w for w in self.workers if w.responsive and w.health != "dead"),
            key=lambda w: w.worker_id,
        )

    def live_replicas(self, name: str) -> List[int]:
        """Routable replica ids of ``name``."""
        return [
            wid
            for wid in self._replicas[name]
            if self.workers[wid].responsive
            and self.workers[wid].health != "dead"
        ]

    def resolve_worker(self, selector: int) -> Optional[int]:
        """Map a fault-plan target selector to a live worker id.

        Selectors index the live workers modulo their count (sorted by
        id), so a plan built before the run stays meaningful whatever
        ids replacements were assigned.  None when no worker is live.
        """
        live = self.live_workers()
        if not live:
            return None
        return live[selector % len(live)].worker_id

    def replace_worker(
        self,
        dead_worker_id: int,
        now: float,
        prewarm_latency_s=0.0,
    ) -> int:
        """Swap a fresh worker (new id, cold caches) in for a dead one.

        The replacement takes the dead worker's slot in every replica
        set it served, and pays the weight-tile reprogramming charge
        (``prewarm_latency_s`` per hosted model — a float, or a
        per-model callable ``name -> seconds``) before serving its
        first batch — a cold photonic core must program its phase
        shifters, exactly like a cold ``scale_to`` addition.  The dead
        worker stays in :attr:`workers` so its ledgers remain auditable,
        but is never routed to again.  Returns the new worker id.
        """
        dead = self.workers[dead_worker_id]
        if dead.responsive and dead.health != "dead":
            raise ValueError(
                f"worker {dead_worker_id} is still live; refusing to replace"
            )
        fresh = PoolWorker(self._next_worker_id, self._factory())
        self._next_worker_id += 1
        fresh.last_seen = now
        fresh.tracer = self.tracer
        self.workers.append(fresh)
        if self.tracer is not None:
            self.tracer.instant(
                "worker",
                fresh.worker_id,
                "replace",
                now,
                args={"replaces": dead_worker_id},
            )
        for name, replica_ids in self._replicas.items():
            if dead_worker_id not in replica_ids:
                continue
            replica_ids[replica_ids.index(dead_worker_id)] = fresh.worker_id
            fresh.executor.prewarm(self._models[name])
            fresh.models_programmed.add(name)
            charge = (
                prewarm_latency_s(name)
                if callable(prewarm_latency_s)
                else prewarm_latency_s
            )
            t0 = max(fresh.busy_until, now)
            fresh.busy_until = t0 + charge
            fresh.busy_time += charge
            if self.tracer is not None and charge > 0.0:
                self.tracer.span(
                    "worker",
                    fresh.worker_id,
                    f"reprogram:{name}",
                    t0,
                    fresh.busy_until,
                    category="reprogram",
                )
        return fresh.worker_id

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        """Aggregated programmed-weight cache counters across workers."""
        hits = misses = evictions = 0
        for w in self.workers:
            info = w.executor.cache_info()
            hits += info["hits"]
            misses += info["misses"]
            evictions += info["evictions"]
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / total if total else 0.0,
        }

    def worker_stats(self) -> List[Dict[str, float]]:
        return [
            {
                "worker_id": w.worker_id,
                "batches": w.batches_served,
                "requests": w.requests_served,
                "tokens": w.tokens_served,
                "busy_time_s": w.busy_time,
                "health": w.health,
                "responsive": w.responsive,
            }
            for w in self.workers
        ]
