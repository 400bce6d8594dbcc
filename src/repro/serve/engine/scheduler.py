"""Iteration-level scheduler: continuous batching over the executor pool.

:class:`TokenServingEngine` is the Orca-style serving loop: the running
batch is **re-formed at every decode step** instead of once per request
batch.  Each step it

1. admits waiting sessions (highest class first, FIFO within a class) as
   long as decode slots and KV blocks allow.  Admission consults the
   shared-prefix cache (:mod:`~repro.serve.engine.prefix` via the
   reworked refcounting :class:`~repro.serve.engine.kvcache.KVBlockManager`):
   prompt blocks already cached are *attached*, not recomputed, and only
   the **uncached suffix** is scheduled as prefill work;
2. advances prefills as **chunked** work: the uncached suffix is split
   into ``prefill_chunk_tokens`` slices that interleave with running
   decode steps (bounding the TTFT jitter a monolithic long prefill
   would inflict on co-scheduled sessions), each priced by
   :func:`~repro.arch.inference.chunked_prefill_latency` over the
   already-resident context.  A session whose suffix completes within
   the step decodes its first token in that same step — so a fully
   cached prompt costs zero GEMM time but still exactly one scheduling
   step;
3. grows every decoding session's KV residency by one token, **preempting
   the youngest lowest-class session** when the block pool runs dry.
   Preemption *decrefs* the victim's blocks — shared prefix blocks stay
   cached — so a resumed session re-attaches to its still-cached prefix
   and re-prefills only the evicted private suffix;
4. dispatches the step as **one batched GEMM stream** through a
   weight-static :class:`~repro.serve.pool.ExecutorPool` worker — the
   functional surrogate recurrence really executes, so per-token outputs
   are bit-exact against sequential batch-1 decode — while simulated
   time advances by :func:`~repro.arch.inference.decode_step_latency`
   plus the step's prefill chunks;
5. retires finished sessions immediately, freeing their private blocks
   (and returning shared ones to the cache) for the next admission.

``EngineConfig(continuous=False)`` degenerates the same loop into the
classic **static request-level** baseline: admission only when the batch
has fully drained, worst-case KV reserved up front, finished sessions
pad the batch until the longest member completes, prompts prefill
monolithically with no prefix reuse — the regime whose wasted slots,
dead reservations and duplicate prefills the continuous engine exists
to reclaim (the ``bench_continuous`` / ``bench_prefix`` headlines).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...arch.accelerator import MirageAccelerator
from ...arch.inference import (
    attention_token_latency,
    chunked_prefill_latency,
    decode_step_latency,
)
from ...arch.memory import MemorySystemModel
from ...core.pipeline import PhotonicExecutor
from ..clock import SimulatedClock, time_at_or_before
from ..faults import FaultInjector, FaultKind, FaultPlan, FleetMonitor, HealthPolicy
from ..pool import ExecutorPool
from ..request import RequestStatus
from ..runtime import ModelProfile, ServiceModel, model_layer_shapes
from ..telemetry import EngineTelemetry
from ..traffic import Scenario
from .kvcache import KVBlockManager
from .session import (
    DecodeModelProfile,
    DecodeSession,
    build_sessions,
    next_token_input,
)

__all__ = [
    "DecodeServiceModel",
    "EngineConfig",
    "TokenServingEngine",
    "sequential_decode_outputs",
]


class DecodeServiceModel(ServiceModel):
    """Analytic decode/prefill pricing, memoised for the engine hot loop.

    Extends :class:`~repro.serve.runtime.ServiceModel` (token-parallel
    batch GEMMs per (model, batch)) with more memos: the per-token
    attention read per (model, context_len) and the prefill chunk per
    (model, chunk_len, resident_context).  All reduce to the
    closed-form ``arch.inference`` pricing, and the accumulation order
    mirrors :func:`decode_step_latency` / :func:`chunked_prefill_latency`
    exactly, so the telemetry cross-check, which bypasses these memos,
    reproduces every recorded step latency bit-for-bit from scratch.
    """

    def __init__(self, accelerator: Optional[MirageAccelerator] = None):
        super().__init__(accelerator)
        self._kv: Dict[str, object] = {}
        self._attn_cache: Dict[Tuple[str, int], float] = {}
        self._chunk_cache: Dict[Tuple[str, int, int], float] = {}

    def register_decode(self, profile: DecodeModelProfile) -> None:
        self.register(ModelProfile(profile.name, profile.model))
        self._kv[profile.name] = profile.kv
        for key in [k for k in self._attn_cache if k[0] == profile.name]:
            del self._attn_cache[key]
        for key in [k for k in self._chunk_cache if k[0] == profile.name]:
            del self._chunk_cache[key]

    def kv_spec(self, model: str):
        return self._kv[model]

    def attention_latency(self, model: str, context_len: int) -> float:
        key = (model, context_len)
        if key not in self._attn_cache:
            self._attn_cache[key] = attention_token_latency(
                self._kv[model], context_len, self.accelerator
            )
        return self._attn_cache[key]

    def step_latency(self, model: str, context_lens: Sequence[int]) -> float:
        """One decode step: batched token GEMMs + per-session KV reads.

        An empty batch (a step carrying only prefill chunks) decodes
        nothing and costs nothing here — the chunks are priced
        separately by :meth:`chunked_prefill`.
        """
        if not context_lens:
            return 0.0
        token_s = self.batch_latency(model, len(context_lens))
        attention_s = 0.0
        for length in context_lens:
            attention_s += self.attention_latency(model, length)
        return token_s + attention_s

    def chunked_prefill(
        self, model: str, chunk_len: int, context_len: int
    ) -> float:
        """One prefill chunk over ``context_len`` already-resident tokens."""
        key = (model, chunk_len, context_len)
        if key not in self._chunk_cache:
            if chunk_len == 0:
                self._chunk_cache[key] = 0.0
            else:
                profile = self._profiles[model]
                shapes = model_layer_shapes(
                    model, profile.model, chunk_len, profile.input_hw
                )
                self._chunk_cache[key] = chunked_prefill_latency(
                    shapes,
                    chunk_len,
                    context_len,
                    self._kv[model],
                    self.accelerator,
                )
        return self._chunk_cache[key]

    def prefill(self, model: str, prompt_len: int) -> float:
        """Monolithic prompt pass — the single-chunk, no-context case."""
        return self.chunked_prefill(model, prompt_len, 0)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the token serving engine.

    ``continuous=False`` switches the loop to the static request-level
    baseline (admission only on a drained batch, worst-case KV reserved
    up front, finished sessions pad until the batch completes, no
    prefix reuse or chunking).  ``preemption`` gates *admission-driven*
    priority preemption; KV-pressure requeue during decode growth is
    always allowed (the loop cannot deadlock on a full pool).

    ``prefix_caching`` lets sessions whose prompts share a head attach
    to cached KV blocks (prefill work is priced only for the uncached
    suffix); ``prefill_chunk_tokens`` caps the prefill tokens one
    session contributes to a single step (None = the whole suffix in
    one step, the pre-chunking behaviour).

    ``recovery`` gates the fault-recovery plane: with it on, sessions
    homed on a replica declared dead are preempted, their KV freed, and
    they resume elsewhere re-prefilling only what the prefix cache does
    not hold — and the dead replica is replaced (charging the
    weight-reprogram latency).  With it off the same faults strand
    their sessions as ``FAILED`` (the no-recovery baseline the
    resilience bench contrasts).  ``max_waiting`` bounds the waiting
    queue under capacity loss: beyond it the engine sheds the youngest
    waiting session of the *lowest* class (graceful degradation — batch
    traffic sheds before interactive).
    """

    max_batch_size: int = 16
    max_prefills_per_step: int = 4
    block_tokens: int = 16
    kv_fraction: float = 0.5
    preemption: bool = True
    continuous: bool = True
    execute: bool = True
    prefix_caching: bool = True
    prefill_chunk_tokens: Optional[int] = None
    recovery: bool = True
    max_waiting: Optional[int] = None

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_prefills_per_step < 1:
            raise ValueError(
                "max_prefills_per_step must be >= 1, got "
                f"{self.max_prefills_per_step}"
            )
        if self.block_tokens < 1:
            raise ValueError(
                f"block_tokens must be >= 1, got {self.block_tokens}"
            )
        if not 0.0 < self.kv_fraction <= 1.0:
            raise ValueError(
                f"kv_fraction must be in (0, 1], got {self.kv_fraction}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ValueError(
                "prefill_chunk_tokens must be >= 1 or None, got "
                f"{self.prefill_chunk_tokens}"
            )
        if self.max_waiting is not None and self.max_waiting < 1:
            raise ValueError(
                f"max_waiting must be >= 1 or None, got {self.max_waiting}"
            )


class TokenServingEngine:
    """One autoregressive serving deployment: sessions → steps → tokens.

    Use one engine instance per scenario run (KV state, cached
    prefixes, worker windows and telemetry persist across steps within
    a run, deliberately).
    """

    def __init__(
        self,
        pool: ExecutorPool,
        profile: DecodeModelProfile,
        config: Optional[EngineConfig] = None,
        accelerator: Optional[MirageAccelerator] = None,
        memory: Optional[MemorySystemModel] = None,
        health: Optional[HealthPolicy] = None,
        observability=None,
    ):
        self.pool = pool
        self.profile = profile
        self.config = config or EngineConfig()
        self.health = health or HealthPolicy()
        self.obs = observability
        registry = observability.registry if observability is not None else None
        self.tracer = observability.tracer if observability is not None else None
        self._slo = observability.slo if observability is not None else None
        self.service = DecodeServiceModel(accelerator)
        self.service.register_decode(profile)
        memory = memory or MemorySystemModel(self.service.accelerator.config)
        self.kv = KVBlockManager.from_memory_model(
            profile.kv,
            memory=memory,
            block_tokens=self.config.block_tokens,
            kv_fraction=self.config.kv_fraction,
            prefix_cache=self.config.prefix_caching and self.config.continuous,
            registry=registry,
        )
        self.clock = SimulatedClock()
        streaming = observability is not None and observability.streaming
        self.telemetry = EngineTelemetry(registry=registry, streaming=streaming)
        if self.tracer is not None:
            pool.set_tracer(self.tracer)
        pool.place(
            profile.name, profile.model, replicas=profile.replicas, prewarm=True
        )
        self._admit_seq = itertools.count()
        # Fault plane (populated by run(..., faults=...)): session homes
        # pin each running session's KV to one replica, poisoned session
        # ids carry an uncorrectable-RRNS verdict into the next commit,
        # and recovering ids flag the next readmission as a re-prefill
        # whose cost the telemetry attributes to recovery.
        self._injector: Optional[FaultInjector] = None
        self._monitor: Optional[FleetMonitor] = None
        self._homes: Dict[int, int] = {}
        self._home_load: Dict[int, int] = {}
        self._poisoned: set = set()
        self._recovering: set = set()
        # Tracing bookkeeping: when a session started waiting (for the
        # queue_wait span closed at admission) and the loop's current
        # simulated time (for methods that are not passed ``now``).
        self._wait_since: Dict[int, float] = {}
        self._now: float = 0.0

    # ------------------------------------------------------------------
    # Waiting-queue helpers (per-class FIFO, preempted resume at head)
    # ------------------------------------------------------------------
    @staticmethod
    def _waiting_any(waiting: Dict[int, Deque[DecodeSession]]) -> bool:
        return any(waiting.values())

    @staticmethod
    def _waiting_head(
        waiting: Dict[int, Deque[DecodeSession]]
    ) -> Optional[DecodeSession]:
        for priority in sorted(waiting, reverse=True):
            if waiting[priority]:
                return waiting[priority][0]
        return None

    # ------------------------------------------------------------------
    # Leaving the running batch: requeue, or drop without completing
    # ------------------------------------------------------------------
    def _unload(
        self,
        session: DecodeSession,
        running: List[DecodeSession],
        release: bool = True,
    ) -> None:
        # Decref, never free: shared prefix blocks the session attached
        # stay cached for their other readers (and for its own resume),
        # only its private blocks return to the pool.
        if release:
            self.kv.release(session.session_id)
        running.remove(session)
        self._drop_home(session.session_id)
        self._poisoned.discard(session.session_id)

    def _requeue(
        self,
        session: DecodeSession,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
        kind: str,
        release: bool = True,
    ) -> None:
        """Requeue a running session at head-of-class: ``kind`` is
        ``"preempt"`` (its blocks went to a higher class or to its own
        growth) or ``"recover"`` (rescued off lost KV).

        A plain ``release`` (dead replica) leaves published prefix
        blocks cached — the cache layer survives a replica, so the
        resumed session re-prefills only its uncached suffix.  KV loss
        uses the destructive ``discard`` upstream (``release=False``
        here), which purges what it can from the cache too.
        """
        self._unload(session, running, release)
        session.status = RequestStatus.PREEMPTED
        session.prefill_done = 0
        session.prefill_target = 0
        waiting.setdefault(session.priority, deque()).appendleft(session)
        if kind == "preempt":
            session.preemptions += 1
            self.telemetry.record_preemption(session)
        else:
            session.recoveries += 1
            self._recovering.add(session.session_id)
            self.telemetry.record_recovery(session)
        if self.tracer is not None:
            self._wait_since[session.session_id] = self._now
            self.tracer.instant("session", session.session_id, kind, self._now)

    def _drop(self, session: DecodeSession, status: str, kind: str, t: float) -> None:
        """A session leaving without completing (``kind`` is ``reject``,
        ``shed`` or ``fail``): one telemetry record, one trace instant
        and one SLO miss."""
        session.status = status
        self.telemetry.record_drop(session, kind)
        if self.tracer is not None:
            self._wait_since.pop(session.session_id, None)
            self.tracer.instant("session", session.session_id, kind, t)
        if self._slo is not None:
            self._slo.observe(f"class{session.priority}", t, good=False)

    # ------------------------------------------------------------------
    # Session homes (KV locality under faults)
    # ------------------------------------------------------------------
    # Compute is weight-static and routes anywhere, but a session's KV
    # blocks live on one replica — its *home*.  When the home is
    # declared dead the KV is gone and the session must recover; while
    # the home is unresponsive but not yet declared, the session stalls
    # (detection latency is real time lost, not hindsight).
    def _assign_home(self, session: DecodeSession) -> None:
        live = self.pool.live_replicas(self.profile.name)
        if not live:
            return
        home = min(live, key=lambda wid: (self._home_load.get(wid, 0), wid))
        self._homes[session.session_id] = home
        self._home_load[home] = self._home_load.get(home, 0) + 1

    def _drop_home(self, session_id: int) -> None:
        home = self._homes.pop(session_id, None)
        if home is not None:
            self._home_load[home] = self._home_load.get(home, 1) - 1

    def _home_down(self, session: DecodeSession) -> bool:
        home = self._homes.get(session.session_id)
        if home is None:
            return False
        return not self.pool.workers[home].responsive

    # ------------------------------------------------------------------
    # Fault application and recovery
    # ------------------------------------------------------------------
    def _process_faults(
        self,
        now: float,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
    ) -> None:
        """Apply due fault events, then advance failure detection."""
        if self._injector is not None:
            for event in self._injector.due(now):
                self._apply_fault(event, now, waiting, running)
        if self._monitor is not None:
            for transition in self._monitor.observe(now):
                self.telemetry.record_health_transition(transition)
                if transition["to"] == "dead":
                    self._handle_dead_replica(
                        transition["worker_id"], now, waiting, running
                    )

    def _apply_fault(
        self,
        event,
        now: float,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
    ) -> None:
        self.telemetry.record_fault(event.kind)
        if event.kind in (FaultKind.REPLICA_CRASH, FaultKind.WORKER_STUCK):
            wid = self.pool.resolve_worker(event.target)
            if wid is None:
                return
            self.pool.crash(wid, now)
            self.telemetry.record_crash(wid)
            return
        if event.kind == FaultKind.WORKER_SLOW:
            wid = self.pool.resolve_worker(event.target)
            if wid is not None:
                self.pool.slow(wid, event.severity, now + event.duration_s)
            return
        victims = sorted(running, key=lambda s: s.session_id)
        if not victims:
            return  # transient hit an idle fleet: detected, nothing corrupted
        victim = victims[event.target % len(victims)]
        if event.kind == FaultKind.TRANSIENT:
            if event.uncorrectable:
                # RRNS detected more corrupt residue channels than the
                # redundancy can correct: the step's result for this
                # session is untrusted and must be recomputed.  The
                # poison mark suppresses this step's commit (token /
                # chunk advance) for the victim — the recurrence input
                # is untouched, so the retried step is bit-identical.
                self._poisoned.add(victim.session_id)
            else:
                # Detected and corrected in-line by the redundant
                # residues: no architectural effect, just a counter.
                self.telemetry.record_transient(uncorrectable=False)
            return
        if event.kind == FaultKind.KV_LOSS:
            lost = self.kv.discard(victim.session_id)
            self.telemetry.record_kv_loss(lost)
            self._requeue(victim, waiting, running, "recover", release=False)

    def _handle_dead_replica(
        self,
        wid: int,
        now: float,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
    ) -> None:
        """A replica was declared dead: rescue or fail its sessions."""
        victims = [s for s in running if self._homes.get(s.session_id) == wid]
        for victim in victims:
            if self.config.recovery:
                self._requeue(victim, waiting, running, "recover")
            else:
                self._unload(victim, running)
                self._drop(victim, RequestStatus.FAILED, "fail", now)
        if self.config.recovery:
            new_wid = self.pool.replace_worker(
                wid, now, lambda name: self.service.prewarm_latency(name)
            )
            self.telemetry.record_replacement(wid, new_wid)

    def _shed_waiting(
        self, waiting: Dict[int, Deque[DecodeSession]]
    ) -> None:
        """Graceful degradation: bound the waiting queue, lowest class
        first, youngest waiter first within the class."""
        cap = self.config.max_waiting
        if cap is None:
            return
        depth = sum(len(q) for q in waiting.values())
        while depth > cap:
            priority = min(p for p, q in waiting.items() if q)
            victim = waiting[priority].pop()
            self._drop(victim, RequestStatus.EVICTED, "shed", self._now)
            depth -= 1

    def _next_fault_horizon(
        self, now: float, sessions: List[DecodeSession], idx: int
    ) -> Optional[float]:
        """Next future instant at which a stalled fleet can change state:
        an arrival, a pending fault event, or a health transition."""
        candidates = []
        if idx < len(sessions):
            candidates.append(sessions[idx].arrival_time)
        if self._injector is not None:
            nt = self._injector.next_time()
            if nt is not None:
                candidates.append(nt)
        if self._monitor is not None:
            mt = self._monitor.next_transition_time()
            if mt is not None:
                candidates.append(mt)
        future = [c for c in candidates if c > now]
        return min(future) if future else None

    def _trace_stall(
        self, running: List[DecodeSession], t0: float, t1: float
    ) -> None:
        """Cover a dead interval on every in-flight session's timeline."""
        if self.tracer is None or not t1 > t0:
            return
        for s in running:
            if not s.finished:
                self.tracer.span(
                    "session", s.session_id, "stall", t0, t1, category="stall"
                )

    def _fail_stranded(
        self,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
    ) -> None:
        """Terminal path for a permanently dead fleet (recovery off):
        every in-flight and waiting session fails instead of stranding
        the loop."""
        for session in list(running):
            self._unload(session, running)
            self._drop(session, RequestStatus.FAILED, "fail", self._now)
        for q in waiting.values():
            while q:
                self._drop(q.popleft(), RequestStatus.FAILED, "fail", self._now)

    # ------------------------------------------------------------------
    # Admission (prefix attach + prefill scheduling)
    # ------------------------------------------------------------------
    def _admit(
        self,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
        now: float,
    ) -> List[DecodeSession]:
        """Admit waiting sessions into the running batch at time ``now``.

        Continuous mode reserves the *actual* context (prompt +
        generated so far, plus one slot for the step's new token),
        attaching cached prefix blocks where the prompt's head is
        already resident, and may preempt strictly-lower-class running
        sessions to make room; static mode reserves the worst-case
        ``prompt + decode`` span cold and never preempts (the whole
        point of comparing the two).  Admission stops at the first
        head-of-class that does not fit, so per-class FIFO order is
        never reordered by size.  An admitted session's prefill state
        is (re)initialised here: ``prefill_target`` is the context to
        rebuild, ``prefill_done`` starts at the cached prefix length.
        """
        admitted: List[DecodeSession] = []
        cfg = self.config
        # max_prefills_per_step bounds the prefill work a single
        # iteration-level step absorbs; static request-level batching has
        # no such concept — it fills the whole batch on drain.
        prefill_cap = (
            cfg.max_prefills_per_step if cfg.continuous else cfg.max_batch_size
        )
        use_prefix = cfg.continuous and cfg.prefix_caching
        while (
            len(running) < cfg.max_batch_size
            and len(admitted) < prefill_cap
        ):
            candidate = self._waiting_head(waiting)
            if candidate is None:
                break
            tokens = (
                candidate.context_len + 1
                if cfg.continuous
                else candidate.max_context_len
            )
            prompt_tokens = candidate.prompt_tokens if use_prefix else None
            reserved = self.kv.reserve(
                candidate.session_id, tokens, prompt_tokens=prompt_tokens
            )
            if not reserved and cfg.continuous and cfg.preemption:
                self._preempt_for_admission(
                    candidate, tokens, prompt_tokens, waiting, running
                )
                reserved = self.kv.reserve(
                    candidate.session_id, tokens, prompt_tokens=prompt_tokens
                )
            if not reserved:
                break
            waiting[candidate.priority].popleft()
            candidate.status = RequestStatus.RUNNING
            if candidate.admit_time is None:
                candidate.admit_time = now
            candidate.admit_order = next(self._admit_seq)
            cached = self.kv.session_cached_tokens(candidate.session_id)
            candidate.prefill_target = candidate.context_len
            candidate.prefill_done = min(cached, candidate.prefill_target)
            candidate.cached_prompt_tokens += candidate.prefill_done
            if prompt_tokens is not None:
                self.telemetry.record_prefix(
                    len(prompt_tokens), candidate.prefill_done
                )
            running.append(candidate)
            admitted.append(candidate)
            if self._injector is not None:
                self._assign_home(candidate)
                if candidate.session_id in self._recovering:
                    # The recovery re-prefill bill, measured *after* the
                    # prefix attach: only the suffix the cache could not
                    # supply is charged to recovery.
                    self._recovering.discard(candidate.session_id)
                    self.telemetry.record_reprefill(
                        candidate.prefill_target - candidate.prefill_done
                    )
        return admitted

    def _preempt_for_admission(
        self,
        candidate: DecodeSession,
        tokens: int,
        prompt_tokens,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
    ) -> None:
        """Evict strictly-lower-class running sessions for ``candidate``.

        ``need`` is the candidate's footprint in *free-capacity* terms:
        cached prompt blocks already pinned by running sessions attach
        for free, so they are excluded — sizing by the raw block count
        would over-preempt (or hopelessly stall) exactly the
        shared-prefix fleets this cache serves.  (Idle matched blocks
        still count: attaching them consumes reclaimable capacity.  If
        a victim was a matched block's only pinner, releasing it both
        grows ``free_blocks`` and un-pins that block by one — the two
        effects cancel, so the fixed ``need`` stays exact.)  Victims
        are taken lowest class first, youngest admission first (least
        sunk prefill work), and only if evicting every eligible victim
        could make the reservation fit — a hopeless preemption spree
        would shed work without admitting anyone.  The reclaimable
        estimate counts victims' table sizes, which is optimistic when
        victims share prefix blocks with survivors (shared blocks stay
        pinned); the subsequent ``reserve`` remains the ground truth.
        """
        need = self.kv.blocks_for(tokens) - self.kv.attachable_pinned_blocks(
            prompt_tokens
        )
        victims = sorted(
            (s for s in running if s.priority < candidate.priority),
            key=lambda s: (s.priority, -s.admit_order),
        )
        reclaimable = self.kv.free_blocks + sum(
            self.kv.blocks_for(self.kv.resident_tokens(s.session_id))
            for s in victims
        )
        if reclaimable < need:
            return
        for victim in victims:
            if self.kv.free_blocks >= need:
                break
            self._requeue(victim, waiting, running, "preempt")

    # ------------------------------------------------------------------
    # KV growth (one token per decoding session, preempt under pressure)
    # ------------------------------------------------------------------
    def _grow_for_step(
        self,
        waiting: Dict[int, Deque[DecodeSession]],
        running: List[DecodeSession],
        growers: Sequence[DecodeSession],
    ) -> None:
        """Extend each decoding session's residency for this step's token.

        ``growers`` are the sessions decoding this step — sessions still
        mid-prefill reserved their full context at admission and grow
        nothing.  Highest class grows first (oldest admission breaking
        ties).  A session that cannot grow preempts the youngest
        not-yet-grown strictly-lower-class *running* session (prefilling
        sessions are eligible victims); with no such victim it preempts
        *itself* — backpressure requeue, which is why the loop cannot
        deadlock on a full block pool.
        """
        order = sorted(
            list(growers),
            key=lambda s: (-s.priority, s.admit_order),
        )
        grown: set = set()
        for session in order:
            if session not in running:
                continue  # preempted as a victim earlier in this pass
            while not self.kv.grow_to(session.session_id, session.context_len + 1):
                victims = [
                    s
                    for s in running
                    if s is not session
                    and s.session_id not in grown
                    and s.priority < session.priority
                ]
                if victims:
                    victim = min(
                        victims, key=lambda s: (s.priority, -s.admit_order)
                    )
                else:
                    victim = session
                self._requeue(victim, waiting, running, "preempt")
                if victim is session:
                    break
            else:
                grown.add(session.session_id)

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> EngineTelemetry:
        """Drive a full scenario of decode sessions; returns telemetry.

        ``faults`` replays a deterministic :class:`FaultPlan` against
        the run: replica crashes and stuck/slow workers (worker kinds),
        plus RRNS transient compute faults and KV-block loss (session
        kinds).  Fault injection requires the continuous engine — the
        static baseline has no preemption machinery to recover with.
        """
        cfg = self.config
        if faults is not None:
            if not cfg.continuous:
                raise ValueError(
                    "fault injection requires the continuous engine "
                    "(EngineConfig.continuous=True)"
                )
            self._injector = FaultInjector(faults)
            self._monitor = FleetMonitor(self.pool, self.health)
            self._monitor.tracer = self.tracer
        sessions = build_sessions(self.profile, scenario, seed)
        waiting: Dict[int, Deque[DecodeSession]] = {}
        running: List[DecodeSession] = []
        idx = 0
        t = 0.0
        name = self.profile.name
        model = self.profile.model

        while idx < len(sessions) or self._waiting_any(waiting) or running:
            if not running and not self._waiting_any(waiting):
                t_next = sessions[idx].arrival_time
                if self._injector is not None:
                    # An idle fleet still ages: pending faults and
                    # health transitions fire at their own times, not
                    # lazily at the next arrival.
                    for cand in (
                        self._injector.next_time(),
                        self._monitor.next_transition_time(),
                    ):
                        if cand is not None and cand > t:
                            t_next = min(t_next, cand)
                t = max(t, t_next)
            while idx < len(sessions) and time_at_or_before(
                sessions[idx].arrival_time, t
            ):
                arrival = sessions[idx]
                idx += 1
                if self.kv.blocks_for(arrival.max_context_len) > self.kv.num_blocks:
                    self._drop(arrival, RequestStatus.REJECTED, "reject", t)
                    continue
                waiting.setdefault(arrival.priority, deque()).append(arrival)
                if self.tracer is not None:
                    self._wait_since[arrival.session_id] = arrival.arrival_time
                    self.tracer.instant(
                        "session",
                        arrival.session_id,
                        "enqueue",
                        arrival.arrival_time,
                    )
            self._now = t

            if self._injector is not None:
                self._process_faults(t, waiting, running)
                self._shed_waiting(waiting)

            if cfg.continuous or not running:
                admitted = self._admit(waiting, running, t)
                if self.tracer is not None and admitted:
                    for s in admitted:
                        t0 = self._wait_since.pop(
                            s.session_id, s.arrival_time
                        )
                        self.tracer.span(
                            "session",
                            s.session_id,
                            "queue_wait",
                            t0,
                            t,
                            category="queue",
                        )
                        self.tracer.instant("session", s.session_id, "admit", t)

            # Plan this step's prefill chunks (applied only after the
            # growth pass settles preemption): each session mid-prefill
            # advances by at most prefill_chunk_tokens of its uncached
            # suffix, attending over everything resident so far.
            chunk_cap = cfg.prefill_chunk_tokens if cfg.continuous else None
            # Sessions homed on an unresponsive replica are *stalled*:
            # their KV is unreachable, so they neither prefill nor
            # decode until the monitor declares the replica dead and
            # recovery re-homes them.  Detection latency is real time
            # those sessions lose.
            stalled: set = set()
            if self._injector is not None:
                stalled = {
                    s.session_id for s in running if self._home_down(s)
                }
            plan: List[Tuple[DecodeSession, int, int]] = []
            for s in running:
                if s.prefilling and s.session_id not in stalled:
                    q = s.prefill_target - s.prefill_done
                    if chunk_cap is not None:
                        q = min(q, chunk_cap)
                    plan.append((s, s.prefill_done, q))
            done_after = {s.session_id: s.prefill_done + q for s, _, q in plan}

            if cfg.continuous:
                # Sessions whose prefill completes within this step
                # decode in this same step (a fully cached prompt costs
                # zero GEMM time but still one scheduling step).
                decoders = [
                    s
                    for s in running
                    if s.session_id not in stalled
                    and done_after.get(s.session_id, s.prefill_done)
                    >= s.prefill_target
                ]
                self._grow_for_step(waiting, running, decoders)
                # A session admitted above but preempted during growth
                # never joins this step's batch — its chunk must not be
                # priced (it re-prefills when readmitted).
                plan = [(s, c, q) for s, c, q in plan if s in running]
                decoders = [s for s in decoders if s in running]
            else:
                decoders = list(running)
            if not running:
                continue  # everything admitted got preempted; retry at t
            if self._injector is not None and not decoders and not plan:
                # Every runnable session is stalled behind undetected
                # failures: nothing can execute at t, so jump to the
                # next event that changes the picture (arrival, fault,
                # or health transition) instead of spinning a zero-cost
                # step forever.
                horizon = self._next_fault_horizon(t, sessions, idx)
                if horizon is None:
                    self._fail_stranded(waiting, running)
                    break
                self._trace_stall(running, t, horizon)
                t = horizon
                continue

            # An uncorrectable RRNS verdict poisons its victim's share
            # of this step: the work is still priced (the photonic
            # pass really ran, then failed residue checking), but its
            # result is discarded — no chunk advance, no token commit —
            # and the identical inputs recompute it next step.
            retried: set = set()
            for s, _, q in plan:
                if s.session_id in self._poisoned:
                    retried.add(s.session_id)
                    self.telemetry.record_transient(
                        uncorrectable=True, tokens_retried=q
                    )
                    continue
                s.prefill_done += q
                # A completed prefill makes its prompt blocks attachable:
                # publication waits for the chunks that compute the KV,
                # so followers never share state that does not exist yet
                # on the simulated timeline.
                if (
                    not s.prefilling
                    and s.prompt_tokens is not None
                    and self.kv.prefix is not None
                ):
                    self.kv.publish(s.session_id, s.prompt_tokens)

            # Price the step: token-parallel GEMMs at the decode slot
            # count plus each slot's attention read, plus this step's
            # prefill chunks over their resident contexts.  Finished
            # sessions padding a static batch attend at their frozen
            # final context — the wasted work request-level batching
            # pays until its longest member drains.
            if cfg.continuous:
                lens = tuple(s.context_len + 1 for s in decoders)
            else:
                lens = tuple(
                    s.max_context_len if s.finished else s.context_len + 1
                    for s in decoders
                )
            chunks = tuple((c, q) for _, c, q in plan)
            step_s = self.service.step_latency(name, lens)
            for c, q in chunks:
                step_s += self.service.chunked_prefill(name, q, c)

            t_route = t
            worker = self.pool.route(name, t)
            if worker is None:
                t = max(t, self.pool.next_free_time(name))
                worker = self.pool.route(name, t)
            if worker is None:
                # Total fleet outage (every replica dead or silent):
                # wait for the next fault/health event — a replacement
                # may restore capacity — or fail everything stranded
                # when no such event is coming.
                horizon = self._next_fault_horizon(t, sessions, idx)
                if horizon is None:
                    self._fail_stranded(waiting, running)
                    break
                self._trace_stall(running, t_route, horizon)
                t = horizon
                continue
            # The index the upcoming record_step call will occupy,
            # stamped on this step's spans so analysis can join a span
            # back to its exact telemetry record.
            step_id = self.telemetry.steps_count()
            step_args = {"step": step_id}
            if self.tracer is not None and t > t_route:
                # Every replica was busy: the whole step queued behind
                # the pool until a worker freed up.
                for s in running:
                    if not s.finished:
                        self.tracer.span(
                            "session",
                            s.session_id,
                            "dispatch_wait",
                            t_route,
                            t,
                            category="queue",
                            args=step_args,
                        )
            self._now = t
            # A degraded (slow) worker stretches the wall-clock booking
            # without changing the analytic step cost: the nominal
            # step_s keeps the cross-check exact, the stall is reported
            # separately.
            booked_s = step_s * worker.service_scale(t)
            stall_s = booked_s - step_s
            active = sum(1 for s in decoders if not s.finished)
            if cfg.execute and decoders:
                outputs = worker.run_batch(
                    name, model, [s.x for s in decoders], t, booked_s, tokens=active
                )
            else:
                outputs = None
                worker.run_booking(name, len(decoders), t, booked_s, tokens=active)

            t_end = t + booked_s
            self.clock.advance_to(t_end)
            if self.tracer is not None:
                # Phase spans, emitted against pre-commit state so a
                # session finishing inside this step still gets its
                # final span.  Every non-finished running session is
                # stalled, prefilling, or decoding — the three cover
                # [t, t_end] with no gap.
                plan_ids = {s.session_id for s, _, _ in plan}
                decoder_ids = {s.session_id for s in decoders}
                # Prefill spans carry their chunk geometry (resident
                # context + chunk length) alongside the step id — the
                # exact inputs the attribution layer re-prices.
                chunk_args = {
                    s.session_id: {"step": step_id, "context": c, "chunk": q}
                    for s, c, q in plan
                }
                for s in running:
                    if s.finished:
                        continue
                    sid = s.session_id
                    if sid in stalled:
                        phase = "stall"
                    elif sid in plan_ids:
                        phase = "prefill"
                    elif sid in decoder_ids:
                        phase = "decode"
                    else:
                        phase = "stall"
                    self.tracer.span(
                        "session",
                        sid,
                        phase,
                        t,
                        t_end,
                        category=phase,
                        args=chunk_args.get(sid, step_args),
                    )
            next_inputs = None if outputs is None else next_token_input(outputs)
            for i, session in enumerate(decoders):
                if session.finished:
                    continue  # static-mode padding slot
                if session.session_id in self._poisoned:
                    if session.session_id not in retried:
                        retried.add(session.session_id)
                        self.telemetry.record_transient(
                            uncorrectable=True, tokens_retried=1
                        )
                    continue
                session.tokens_generated += 1
                if outputs is not None:
                    session.outputs.append(outputs[i].copy())
                    session.x = next_inputs[i]
                if session.first_token_time is None:
                    session.first_token_time = t_end
                    if self.tracer is not None:
                        self.tracer.instant(
                            "session", session.session_id, "first_token", t_end
                        )
                if session.finished:
                    session.status = RequestStatus.COMPLETED
                    session.finish_time = t_end
                    self.telemetry.record_session(session)
                    if self.tracer is not None:
                        self.tracer.instant(
                            "session", session.session_id, "retire", t_end
                        )
                    if self._slo is not None:
                        slo_s = self.profile.ttft_slo_s
                        self._slo.observe(
                            f"class{session.priority}",
                            t_end,
                            good=slo_s is None or session.ttft <= slo_s,
                        )
            self._poisoned -= retried

            self.telemetry.record_step(
                t,
                name,
                lens,
                chunks,
                active,
                step_s,
                self.kv.used_blocks,
                self.kv.occupancy(),
                stall_s=stall_s,
            )

            if cfg.continuous:
                for session in [s for s in running if s.finished]:
                    self.kv.release(session.session_id)
                    running.remove(session)
                    self._drop_home(session.session_id)
            elif all(s.finished for s in running):
                for session in running:
                    self.kv.release(session.session_id)
                running.clear()
            t = t_end

        return self.telemetry

    # ------------------------------------------------------------------
    def report(self, scenario: Scenario) -> Dict[str, object]:
        """Full engine report with the analytic-model cross-check.

        Every recorded step latency is re-derived from scratch through
        ``arch.inference`` (:func:`decode_step_latency` /
        :func:`chunked_prefill_latency`), bypassing the engine's memos —
        drift between dispatch accounting and the hardware model shows
        up as a nonzero ``max_abs_error_s``.  The check covers chunked
        steps: each recorded (resident_context, chunk_len) pair reprices
        independently.  Each re-derivation evaluates the closed-form
        GEMM pricing on integer tile counts (no per-call mapping
        objects), bit-identical to the tile-mapping path, so the full
        re-pricing stays a small share of a run.
        """
        horizon = max(scenario.duration_s, self.telemetry.makespan())
        out = self.telemetry.summary(horizon, ttft_slo_s=self.profile.ttft_slo_s)
        out["mode"] = "continuous" if self.config.continuous else "static"
        out["offered_sessions"] = scenario.num_requests
        out["kv_manager"] = self.kv.stats()
        out["workers"] = self.pool.worker_stats()
        out["programmed_cache"] = self.pool.cache_stats()

        accelerator = self.service.accelerator
        kv_spec = self.profile.kv
        shape_cache: Dict[int, list] = {}

        def shapes_at(batch: int):
            if batch not in shape_cache:
                shape_cache[batch] = model_layer_shapes(
                    self.profile.name, self.profile.model, batch
                )
            return shape_cache[batch]

        def step_fn(model, context_lens, prefill_chunks):
            total = 0.0
            if context_lens:
                total += decode_step_latency(
                    shapes_at(len(context_lens)),
                    context_lens,
                    kv_spec,
                    accelerator,
                )["step_latency_s"]
            for ctx, chunk in prefill_chunks:
                total += chunked_prefill_latency(
                    shapes_at(chunk), chunk, ctx, kv_spec, accelerator
                )
            return total

        out["analytic_consistency"] = self.telemetry.cross_check_decode_model(
            step_fn
        )
        return out


def sequential_decode_outputs(
    profile: DecodeModelProfile,
    scenario: Scenario,
    seed: int = 0,
    executor: Optional[PhotonicExecutor] = None,
) -> Dict[int, List[np.ndarray]]:
    """Reference batch-1 decode of every session (no batching at all).

    Runs each session's full recurrence alone through a fresh
    weight-static executor; the engine's per-token outputs must match
    these **bit-exactly** for every batch composition the scheduler
    formed — and regardless of prefix caching or chunking, since KV
    reuse changes *when* prefill work is priced, never *what* the
    decode recurrence computes.
    """
    executor = executor or PhotonicExecutor()
    outputs: Dict[int, List[np.ndarray]] = {}
    for session in build_sessions(profile, scenario, seed):
        x = session.x
        rows: List[np.ndarray] = []
        for _ in range(session.decode_len):
            out = executor.run_sequential(profile.model, x[None, :])
            rows.append(out[0].copy())
            x = next_token_input(out)[0]
        outputs[session.session_id] = rows
    return outputs
