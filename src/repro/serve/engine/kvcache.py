"""Block-granular KV-cache manager with shared-prefix reference counting.

The engine tracks each session's KV residency in fixed-size **blocks**
of ``block_tokens`` tokens.  Since the shared-prefix rework each session
owns an ordered *block table* of physical block ids and every block
carries a **reference count**: sessions whose prompts share a head
attach to the same physical blocks (the head's KV is computed once),
and a block is reclaimed only when its refcount is zero.

The sharing machinery (enabled per manager via ``prefix_cache``):

* **Prefix attach** — :meth:`reserve` with ``prompt_tokens`` consults
  the :class:`~repro.serve.engine.prefix.RadixPrefixIndex`: every
  cached full block of the prompt's head is attached (incref) instead
  of allocated, and the matched token count is recorded so the
  scheduler prices only the *uncached suffix* of the prefill.
* **Copy-on-write on divergence** — when the prompt agrees with a
  cached block on only part of its tokens, the block is not attached
  (other readers depend on its content); the overlapping tokens' KV is
  copied into the session's fresh private block instead
  (``cow_copies``), still saving their recompute.
* **Publish on prefill completion** — a session's full prompt blocks
  enter the index via :meth:`publish` only once the scheduler has run
  the prefill chunks that compute them, so followers never attach KV
  the simulated timeline says does not exist yet.
* **Decref, not free** — :meth:`release` (finish *and* preemption)
  decrements every table entry.  A published block whose refcount drops
  to zero stays **cached** in the index (its KV is retained and
  re-attachable) and joins the LRU pool; unpublished private blocks
  (partial tails, decode growth, CoW copies) return to the free list.
* **Eviction at refcount 0 only** — allocation falls back to evicting
  the least-recently-used unreferenced cached leaf; referenced blocks
  are never evicted, so attaching sessions can trust their prefix.

Capacity is not a free parameter: :meth:`KVBlockManager.from_memory_model`
derives the block budget from the accelerator's analytic memory system
(:class:`~repro.arch.memory.MemorySystemModel` over
:class:`~repro.arch.config.MirageConfig`): a ``kv_fraction`` share of
the per-type SRAM divided by the model's per-token KV footprint
(:class:`~repro.nn.attention.KVCacheSpec.bytes_per_token`).  The
invariant the benchmarks assert — pinned + cached + free blocks always
equals ``num_blocks`` and never exceeds the budget — is checked by
:meth:`check_invariants`; :meth:`refcounts_balanced` is the drain-time
proof that every reserve was matched by a release.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...arch.memory import MemorySystemModel
from ...nn.attention import KVCacheSpec
from .prefix import RadixPrefixIndex

__all__ = ["KVBlockManager"]


class KVBlockManager:
    """Refcounted block allocator with radix prefix reuse and telemetry."""

    def __init__(
        self,
        num_blocks: int,
        block_tokens: int,
        bytes_per_token: Optional[int] = None,
        prefix_cache: bool = True,
        registry=None,
    ):
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
        if bytes_per_token is not None and bytes_per_token < 1:
            raise ValueError(
                f"bytes_per_token must be >= 1, got {bytes_per_token}"
            )
        self.num_blocks = num_blocks
        self.block_tokens = block_tokens
        self.bytes_per_token = bytes_per_token
        self.prefix: Optional[RadixPrefixIndex] = (
            RadixPrefixIndex(block_tokens) if prefix_cache else None
        )
        # Pop order is ascending block id; purely cosmetic determinism.
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        self._ref: Dict[int, int] = {}  # block_id -> references (> 0)
        self._tables: Dict[int, List[int]] = {}  # session_id -> block ids
        self._tokens: Dict[int, int] = {}  # session_id -> resident tokens
        self._cached: Dict[int, int] = {}  # session_id -> prefix tokens reused
        self.used_blocks = 0  # distinct blocks with ref > 0
        self.peak_blocks = 0
        self.reserves = 0
        self.releases = 0
        self.cow_copies = 0
        self.prefix_evictions = 0  # cached prefix blocks reclaimed by LRU
        self._tick = 0  # LRU clock (monotonic operation counter)
        # Optional observability registry: mirror the lifecycle counters
        # as Prometheus-exportable metrics (children cached, so the hot
        # path stays one attribute bump).
        if registry is not None:
            self._m_reserves = registry.counter(
                "kv_reserves_total", "KV block-table reservations"
            ).labels()
            self._m_releases = registry.counter(
                "kv_releases_total", "KV block-table releases"
            ).labels()
            self._m_cow = registry.counter(
                "kv_cow_copies_total", "Copy-on-write block copies"
            ).labels()
            self._m_evictions = registry.counter(
                "kv_prefix_evictions_total",
                "Cached prefix blocks evicted by LRU pressure",
            ).labels()
        else:
            self._m_reserves = None
            self._m_releases = None
            self._m_cow = None
            self._m_evictions = None

    # ------------------------------------------------------------------
    @classmethod
    def from_memory_model(
        cls,
        kv: KVCacheSpec,
        memory: Optional[MemorySystemModel] = None,
        block_tokens: int = 16,
        kv_fraction: float = 0.5,
        prefix_cache: bool = True,
        registry=None,
    ) -> "KVBlockManager":
        """Size the block pool from the analytic memory model.

        ``kv_fraction`` is the share of one SRAM type's capacity
        (``MirageConfig.sram_bytes``) granted to KV residency; the rest
        stays working memory for the streaming activations the
        interleaved digital pipeline reads each cycle.
        """
        if not 0.0 < kv_fraction <= 1.0:
            raise ValueError(
                f"kv_fraction must be in (0, 1], got {kv_fraction}"
            )
        memory = memory or MemorySystemModel()
        budget_bytes = int(memory.config.sram_bytes * kv_fraction)
        block_bytes = block_tokens * kv.bytes_per_token
        num_blocks = budget_bytes // block_bytes
        if num_blocks < 1:
            raise ValueError(
                f"KV budget {budget_bytes} B cannot hold one "
                f"{block_bytes} B block (block_tokens={block_tokens}, "
                f"bytes/token={kv.bytes_per_token}); shrink the model or "
                "the block size"
            )
        return cls(
            num_blocks,
            block_tokens,
            bytes_per_token=kv.bytes_per_token,
            prefix_cache=prefix_cache,
            registry=registry,
        )

    # ------------------------------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` tokens (ceiling division)."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return -(-tokens // self.block_tokens)

    @property
    def cached_blocks(self) -> int:
        """Unreferenced published blocks retained for prefix reuse."""
        return self.prefix.cached_blocks if self.prefix is not None else 0

    @property
    def free_blocks(self) -> int:
        """Blocks an allocation can claim: never-used plus evictable cached."""
        return self.num_blocks - self.used_blocks

    def holds(self, session_id: int) -> bool:
        return session_id in self._tables

    def resident_tokens(self, session_id: int) -> int:
        return self._tokens.get(session_id, 0)

    def block_table(self, session_id: int) -> List[int]:
        """The session's physical block ids, prefix head first (a copy)."""
        if session_id not in self._tables:
            raise KeyError(
                f"session {session_id} holds no KV blocks "
                "(unknown or already released)"
            )
        return list(self._tables[session_id])

    def ref_count(self, block_id: int) -> int:
        return self._ref.get(block_id, 0)

    def session_cached_tokens(self, session_id: int) -> int:
        """Prompt tokens this session's last reserve served from cache."""
        return self._cached.get(session_id, 0)

    def occupancy(self) -> float:
        return self.used_blocks / self.num_blocks

    @property
    def budget_bytes(self) -> Optional[int]:
        if self.bytes_per_token is None:
            return None
        return self.num_blocks * self.block_tokens * self.bytes_per_token

    # ------------------------------------------------------------------
    # Refcount plumbing
    # ------------------------------------------------------------------
    def _incref(self, block_id: int) -> None:
        refs = self._ref.get(block_id, 0)
        if refs == 0:
            self.used_blocks += 1
            if self.prefix is not None:
                self.prefix.pin(block_id)
        self._ref[block_id] = refs + 1

    def _decref(self, block_id: int) -> None:
        refs = self._ref[block_id] - 1
        if refs > 0:
            self._ref[block_id] = refs
            return
        del self._ref[block_id]
        self.used_blocks -= 1
        if self.prefix is not None and block_id in self.prefix:
            self._tick += 1
            self.prefix.unpin(block_id, self._tick)
        else:
            self._free.append(block_id)

    def _allocate(self) -> Optional[int]:
        """A free physical block, evicting the LRU cached prefix if needed."""
        if self._free:
            return self._free.pop()
        if self.prefix is not None:
            block_id = self.prefix.evict_lru()
            if block_id is not None:
                self.prefix_evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
            return block_id
        return None

    def _claim_fresh(self, count: int) -> Optional[List[int]]:
        """``count`` referenced fresh blocks, or None — checked *before*
        any eviction, so a doomed claim never flushes cached prefixes.

        The capacity check is exact: every idle cached block is
        reclaimable by repeated leaf eviction (a pinned descendant
        implies a pinned ancestor, so idle subtrees peel from the tail).
        """
        if count > len(self._free) + self.cached_blocks:
            return None
        fresh: List[int] = []
        for _ in range(count):
            block_id = self._allocate()
            assert block_id is not None, "capacity check admitted a dry pool"
            fresh.append(block_id)
            self._incref(block_id)
        return fresh

    # ------------------------------------------------------------------
    def attachable_pinned_blocks(
        self, prompt_tokens: Optional[Sequence[int]]
    ) -> int:
        """Cached prompt blocks a reserve would attach that are *pinned*
        by other sessions — the part of the prompt's footprint that
        consumes no free capacity at all (idle matched blocks do: they
        flip from reclaimable to pinned).  A pure probe — no stats or
        LRU movement — for the scheduler's preemption sizing.
        """
        if self.prefix is None or prompt_tokens is None:
            return 0
        nodes, _ = self.prefix.match(prompt_tokens)
        return sum(1 for n in nodes if self._ref.get(n.block_id, 0) > 0)

    def reserve(
        self,
        session_id: int,
        tokens: int,
        prompt_tokens: Optional[Sequence[int]] = None,
    ) -> bool:
        """Build a fresh residency of ``tokens`` tokens (prefill).

        With ``prompt_tokens`` (and the prefix cache enabled) the head
        of the table attaches to cached blocks where the prompt matches
        published content; :meth:`session_cached_tokens` then reports
        how many prompt tokens need no prefill GEMMs.  Returns False —
        with **no side effects at all**: no eviction, no refcount
        churn, no cache-stats or LRU movement — when the pool cannot
        hold the uncached remainder; the scheduler then decides between
        waiting and preempting, and its retries do not distort the
        prefix telemetry.
        """
        if session_id in self._tables:
            raise ValueError(f"session {session_id} already holds KV blocks")
        need = self.blocks_for(tokens)
        nodes: List = []
        partial = 0
        cached_tokens = 0
        cow = 0
        if self.prefix is not None and prompt_tokens is not None:
            if len(prompt_tokens) > tokens:
                raise ValueError(
                    f"prompt_tokens ({len(prompt_tokens)}) exceed the "
                    f"reservation ({tokens} tokens)"
                )
            nodes, partial = self.prefix.match(prompt_tokens)
            cached_tokens = len(nodes) * self.block_tokens
            if partial:
                # Divergence inside a cached block: the overlap's KV is
                # copied into this session's fresh private block rather
                # than attaching the block (its other readers keep it).
                cached_tokens += partial
                cow = 1
            cached_tokens = min(cached_tokens, len(prompt_tokens))
        matched = [n.block_id for n in nodes]
        # Feasibility before any mutation: attaching an *idle* matched
        # block consumes one unit of reclaimable capacity (it flips to
        # pinned), a matched block pinned by others consumes none.
        idle_matched = sum(1 for b in matched if self._ref.get(b, 0) == 0)
        if need - len(matched) > (
            len(self._free) + self.cached_blocks - idle_matched
        ):
            return False
        for block_id in matched:
            self._incref(block_id)
        fresh = self._claim_fresh(need - len(matched))
        assert fresh is not None, "feasibility check admitted a dry pool"
        if self.prefix is not None and prompt_tokens is not None:
            self._tick += 1
            self.prefix.record_lookup(prompt_tokens, nodes, partial, self._tick)
        table = matched + fresh
        self._tables[session_id] = table
        self._tokens[session_id] = tokens
        self._cached[session_id] = cached_tokens
        self.cow_copies += cow
        self.peak_blocks = max(self.peak_blocks, self.used_blocks)
        self.reserves += 1
        if self._m_reserves is not None:
            self._m_reserves.inc()
            if cow:
                self._m_cow.inc(cow)
        return True

    def publish(self, session_id: int, prompt_tokens: Sequence[int]) -> int:
        """Make the session's full prompt blocks attachable (prefill done).

        Publication is deliberately decoupled from :meth:`reserve`: a
        block's KV exists only once the prefill chunks covering it have
        actually run, so the scheduler calls this when a session's
        prefill completes — a follower can never attach KV the
        simulated timeline says is still being computed.  Idempotent
        for already-published positions (a resumed session re-publishes
        its re-prefilled suffix alongside its surviving cached head).
        Returns the number of newly published blocks.
        """
        if session_id not in self._tables:
            raise KeyError(
                f"session {session_id} holds no KV blocks "
                "(unknown or already released)"
            )
        if self.prefix is None:
            return 0
        self._tick += 1
        return self.prefix.insert(
            prompt_tokens, self._tables[session_id], self._tick
        )

    def grow_to(self, session_id: int, tokens: int) -> bool:
        """Extend a session's residency to ``tokens`` tokens (decode).

        Most decode steps stay inside the session's last partial block
        and cost nothing; crossing a block boundary claims one more
        (private) block.  Returns False (state unchanged) when the pool
        — including evictable cached prefixes — is out of blocks: the
        preemption trigger.  Unknown or already-released sessions raise
        ``KeyError`` rather than silently corrupting the accounting.
        """
        if session_id not in self._tables:
            raise KeyError(
                f"session {session_id} holds no KV blocks "
                "(unknown or already released)"
            )
        if tokens < self._tokens[session_id]:
            raise ValueError(
                f"KV residency cannot shrink: {tokens} < "
                f"{self._tokens[session_id]} (release and re-prefill instead)"
            )
        table = self._tables[session_id]
        fresh = self._claim_fresh(self.blocks_for(tokens) - len(table))
        if fresh is None:
            return False
        table.extend(fresh)
        self._tokens[session_id] = tokens
        self.peak_blocks = max(self.peak_blocks, self.used_blocks)
        return True

    def release(self, session_id: int) -> int:
        """Drop the session's references (finish **or** preemption).

        Every table entry is decref'd — never freed outright: a shared
        prefix block stays resident for its other readers, and a
        published block at refcount 0 stays cached (LRU-evictable) so a
        preempted session can re-attach on resume.  Returns the number
        of table entries released.  Unknown or already-released sessions
        raise ``KeyError``.
        """
        if session_id not in self._tables:
            raise KeyError(
                f"session {session_id} holds no KV blocks "
                "(unknown or already released)"
            )
        table = self._tables.pop(session_id)
        del self._tokens[session_id]
        self._cached.pop(session_id, None)
        for block_id in reversed(table):  # leaf-most first
            self._decref(block_id)
        self.releases += 1
        if self._m_releases is not None:
            self._m_releases.inc()
        return len(table)

    def discard(self, session_id: int) -> int:
        """Destructively drop the session's residency (KV **loss**).

        The failure-plane counterpart of :meth:`release`: the session's
        blocks hold *corrupted or lost* content, so nothing of its table
        may stay reusable.  Each entry is decref'd leaf-most first; a
        block whose last reference drops is **destroyed** — published
        leaves are purged from the prefix index and returned to the free
        list rather than staying cached.  A published *interior* block
        with cached descendants from other prompts cannot be removed
        without orphaning their (intact) content, so it degrades to a
        plain cached unpin — it was computed by an earlier publisher and
        its canonical content is not the part this session lost.  Blocks
        still referenced by other sessions are left pinned untouched
        (shared prefix heads live in replicated-safe cache state, not on
        the failed replica's private pages).  Returns the number of
        physical blocks destroyed.
        """
        if session_id not in self._tables:
            raise KeyError(
                f"session {session_id} holds no KV blocks "
                "(unknown or already released)"
            )
        table = self._tables.pop(session_id)
        del self._tokens[session_id]
        self._cached.pop(session_id, None)
        destroyed = 0
        for block_id in reversed(table):  # leaf-most first
            refs = self._ref[block_id] - 1
            if refs > 0:
                self._ref[block_id] = refs
                continue
            del self._ref[block_id]
            self.used_blocks -= 1
            if self.prefix is not None and block_id in self.prefix:
                if self.prefix.purge(block_id):
                    self._free.append(block_id)
                    destroyed += 1
                else:
                    self._tick += 1
                    self.prefix.unpin(block_id, self._tick)
            else:
                self._free.append(block_id)
                destroyed += 1
        self.releases += 1
        if self._m_releases is not None:
            self._m_releases.inc()
        return destroyed

    # ------------------------------------------------------------------
    # Invariants and telemetry
    # ------------------------------------------------------------------
    def refcounts_balanced(self) -> bool:
        """True iff no session pins anything (the drain-time invariant)."""
        return not self._tables and not self._ref and self.used_blocks == 0

    def check_invariants(self) -> None:
        """Raise AssertionError if block accounting has been corrupted."""
        pinned = len(self._ref)
        assert pinned == self.used_blocks, (
            f"{pinned} referenced blocks but used_blocks={self.used_blocks}"
        )
        assert pinned + self.cached_blocks + len(self._free) == self.num_blocks, (
            f"pinned {pinned} + cached {self.cached_blocks} + free "
            f"{len(self._free)} != {self.num_blocks} blocks"
        )
        for sid, table in self._tables.items():
            assert len(table) == self.blocks_for(self._tokens[sid]), (
                f"session {sid} table length {len(table)} != "
                f"blocks_for({self._tokens[sid]})"
            )
            for block_id in table:
                assert self._ref.get(block_id, 0) > 0, (
                    f"session {sid} references unpinned block {block_id}"
                )

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "num_blocks": self.num_blocks,
            "block_tokens": self.block_tokens,
            "used_blocks": self.used_blocks,
            "cached_blocks": self.cached_blocks,
            "peak_blocks": self.peak_blocks,
            "peak_occupancy": self.peak_blocks / self.num_blocks,
            "reserves": self.reserves,
            "releases": self.releases,
            "cow_copies": self.cow_copies,
            "prefix_evictions": self.prefix_evictions,
        }
        if self.prefix is not None:
            out["prefix"] = self.prefix.stats()
        return out
