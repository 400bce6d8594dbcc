"""The photonic RNS tensor core — the paper's primary contribution.

:class:`PhotonicRnsTensorCore` executes a full GEMM through the complete
Fig. 2 dataflow, rebuilt as a **one-pass batched engine**: instead of a
Python loop over ``(K-group, row-tile)`` pairs, every stage processes the
whole GEMM at once.

1.  tile the FP operands to the array geometry,
2.  convert tiles to BFP (shared exponents, ``bm``-bit mantissae) — one
    encode per operand (Fig. 2 step 2),
3.  forward-convert *all* signed mantissae to RNS residues at once
    (step 3).  Weights go through ``forward_convert_signed`` when they
    are programmed.  Inputs on the noiseless path are **table-driven**: a
    mantissa takes one of only ``2L+1`` values (``L = 2^bm - 1``), so each
    core builds a ``(2L+1, n)`` table of CRT-weighted residues once, with
    ``forward_convert_signed`` itself, and one ``take`` converts the whole
    batch; a mantissa outside ``[-L, L]`` raises ``OverflowError``,
4.  pack the weight residues into the ``(n, G, T, v, g)`` tile tensor —
    this is :meth:`PhotonicRnsTensorCore.program`, and the result can be
    cached so weight-static workloads (inference, multi-input streaming)
    re-stream activations without re-encoding weights (steps 4),
5.  execute every modular MVM of every tile as a single batched
    computation (step 5).  The noiseless path folds the CRT weights into
    the gathered input residues, so the modular GEMMs of all ``n``
    channels *and* the CRT accumulation become one batched float64
    matmul of exact integers against the weights' ``(G, g*n, R)``
    layout.  The noise path runs the photonic device model
    (:meth:`~repro.photonic.mdpu.RnsMMVMU.mvm_grouped`), which perturbs
    the physical phases with the summed per-digit variance,
6.  digitise via the I/Q detectors' ADCs — on the noise path, one
    vectorised detection over the full ``(n, G, T, C, v)`` output
    (step 6),
7.  reverse-convert all residues to signed integers at once (step 7):
    on the noiseless path a single floor-division wrap maps every sum
    into the signed range ``[-ψ, M-1-ψ]``; the noise path makes one CRT
    call,
8.  rebuild FP values with a **one-shot exponent path** (steps 8-9).  The
    weights' shared exponents are stored transposed at programming
    time; one read of the ``POW2`` table (equal to ``np.ldexp(1.0, k)``,
    saturation to 0 and inf included) gives every ``2^(e_x + e_w - 2bm)``
    scale, one multiply applies them, and the groups accumulate in
    ascending order from zeros — the float64 operation order of the BFP
    reference, so the result is bit-identical (``-0.0`` and subnormal
    partials included),
9.  (nonlinearities stay outside the core, as in the paper).

Operands holding NaN or ±inf are rejected with a ``ValueError`` naming
the operand: weights once when they are programmed, inputs on every call.

In the noiseless configuration the result is **bit-exact** against
:func:`repro.bfp.bfp_matmul_exact` — this is the correctness property that
makes RNS-based analog computing lossless, and the test suite asserts it
property-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bfp.format import POW2, POW2_MIN_EXP, BFPConfig
from ..bfp.gemm import bfp_encode_matrix, require_finite
from ..photonic.mdpu import NoiseModel, RnsMMVMU
from ..rns.conversion import crt_reverse, forward_convert_signed, to_signed
from ..rns.moduli import ModuliSet, choose_k_min, special_moduli_set

__all__ = ["CoreConfig", "PhotonicRnsTensorCore", "ProgrammedWeights"]


@dataclass(frozen=True)
class CoreConfig:
    """Functional-core parameters (defaults = the paper's design point)."""

    bm: int = 4
    g: int = 16
    v: int = 32
    k: Optional[int] = 5  # None -> choose_k_min(bm, g)
    rounding: str = "truncate"

    def resolved_k(self) -> int:
        return self.k if self.k is not None else choose_k_min(self.bm, self.g)

    def moduli(self) -> ModuliSet:
        return special_moduli_set(self.resolved_k())

    def bfp(self) -> BFPConfig:
        return BFPConfig(self.bm, self.g, self.rounding)


@dataclass(frozen=True)
class ProgrammedWeights:
    """A weight matrix encoded, converted and laid out for the array.

    Holds everything the weight-static fast path needs: the BFP shared
    exponents (stored transposed, ``(G, R)``, the layout the exponent path
    reads), the RNS residues packed as ``(n, G, T, v, g)`` tiles (``G``
    K-groups, ``T`` row tiles of ``v`` rows), and a copy of the source
    matrix so callers can cheaply validate cache entries.

    ``fused`` additionally holds the residues repacked as a
    ``(G, g*n, R)`` float64 tensor (digit-major, channel-minor) for the
    noiseless fast path, where the modular GEMMs of all ``n`` channels
    *and* the CRT accumulation collapse into a single batched matmul (see
    ``_execute``); ``None`` when the core is noisy or the reduction would
    leave float64's exact integer range.
    """

    shape: Tuple[int, int]
    residues: np.ndarray  # (n, G, T, v, g) int64
    exponents: np.ndarray  # (G, R) int64
    source: np.ndarray  # (R, K) float64 copy for cache validation
    fused: Optional[np.ndarray] = None  # (G, g*n, R) float64

    @property
    def num_groups(self) -> int:
        return self.residues.shape[1]

    @property
    def row_tiles(self) -> int:
        return self.residues.shape[2]

    def matches(self, w: np.ndarray) -> bool:
        """True when ``w`` is the matrix this programming was built from."""
        return self.source.shape == w.shape and np.array_equal(self.source, w)


class PhotonicRnsTensorCore:
    """Functional model of one RNS-MMVMU executing tiled GEMMs.

    Parameters
    ----------
    config:
        Geometry and number formats.
    noise:
        Analog noise model (None = ideal, bit-exact).
    rng:
        Random generator for the stochastic parts of the noise model.
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or CoreConfig()
        self.mset = self.config.moduli()
        if not self.mset.supports_bfp(self.config.bm, self.config.g):
            raise ValueError(
                f"Eq. 13 violated: k={self.config.resolved_k()} cannot hold "
                f"bm={self.config.bm}, g={self.config.g} dot products"
            )
        self.engine = RnsMMVMU(
            self.mset, self.config.g, self.config.v, noise, rng
        )
        self._tiles_programmed = 0
        self._mvm_cycles = 0
        self._bfp = self.config.bfp()
        # Noiseless fused path: CRT weights folded into the input residues
        # turn the n modular GEMMs + CRT into one batched matmul, valid
        # while the worst-case accumulation Σ_i g (m_i-1)^2 w_i, offset by
        # ψ for the signed wrap, stays an exact float64 integer.
        mi, ti = self.mset.crt_weights
        big_m = self.mset.dynamic_range
        crt_w = [(mi[i] * ti[i]) % big_m for i in range(self.mset.n)]
        bound = sum(
            self.config.g * (m - 1) * (m - 1) * w
            for m, w in zip(self.mset.moduli, crt_w)
        )
        self._fused_ok = bound + self.mset.psi < (1 << 53)
        # Table-driven forward conversion: a mantissa takes one of the
        # 2L+1 values in [-L, L], so row ``L + m`` holds the CRT-weighted
        # residues of ``m`` and one ``take`` converts a whole batch.
        self._levels = self._bfp.mantissa_range  # L
        levels = np.arange(-self._levels, self._levels + 1)
        self._crt_levels = (
            forward_convert_signed(levels, self.mset).T * np.array(crt_w)
        ).astype(np.float64)  # (2L+1, n)
        self._big_m = float(big_m)
        self._psi = float(self.mset.psi)
        # Steps 8-9 read 2^(e_x + e_w - 2bm) from the POW2 table.
        self._exp_offset = -2 * self.config.bm - POW2_MIN_EXP

    # ------------------------------------------------------------------
    # Stats (consumed by examples / tests)
    # ------------------------------------------------------------------
    @property
    def tiles_programmed(self) -> int:
        return self._tiles_programmed

    @property
    def mvm_cycles(self) -> int:
        return self._mvm_cycles

    def reset_stats(self) -> None:
        self._tiles_programmed = 0
        self._mvm_cycles = 0

    # ------------------------------------------------------------------
    # Weight-static programming (Fig. 2 steps 2-4 for the weight operand)
    # ------------------------------------------------------------------
    def program(self, w: np.ndarray) -> ProgrammedWeights:
        """BFP-encode, forward-convert and tile a weight matrix once.

        The returned :class:`ProgrammedWeights` can be streamed against any
        number of input batches via :meth:`matmul_programmed`, skipping the
        per-call weight encode — the photonic array's weight-static
        operating mode.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        require_finite(w, "weights")
        cfg = self.config
        r = w.shape[0]
        w_mant, w_exp = bfp_encode_matrix(w, self._bfp)  # (R, G, g), (R, G)
        num_groups = w_mant.shape[1]
        row_tiles = -(-r // cfg.v)
        w_res = forward_convert_signed(w_mant, self.mset)  # (n, R, G, g)
        padded = np.zeros(
            (self.mset.n, row_tiles * cfg.v, num_groups, cfg.g), dtype=np.int64
        )
        padded[:, :r] = w_res
        tiles = np.ascontiguousarray(
            padded.reshape(
                self.mset.n, row_tiles, cfg.v, num_groups, cfg.g
            ).transpose(0, 3, 1, 2, 4)
        )  # (n, G, T, v, g)
        self._tiles_programmed += num_groups * row_tiles
        fused = None
        if self._fused_ok and self.engine.is_ideal:
            # (n, R, G, g) -> (G, g*n, R): digit and channel axes merge
            # into one reduction axis, in the order the input table
            # gather produces them.
            fused = np.ascontiguousarray(
                w_res.transpose(2, 3, 0, 1), dtype=np.float64
            ).reshape(num_groups, cfg.g * self.mset.n, r)
        return ProgrammedWeights(
            (r, w.shape[1]), tiles, np.ascontiguousarray(w_exp.T), w.copy(), fused
        )

    # ------------------------------------------------------------------
    # GEMM entry points
    # ------------------------------------------------------------------
    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ x`` through the full photonic RNS dataflow.

        ``w``: (R, K) weights; ``x``: (K, C) inputs; returns (R, C) float64.
        """
        w = np.asarray(w, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
            raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        return self._execute(self.program(w), x)

    def matmul_programmed(self, pw: ProgrammedWeights, x: np.ndarray) -> np.ndarray:
        """Stream inputs against already-programmed weights (no re-encode)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != pw.shape[1]:
            raise ValueError(f"bad GEMM shapes {pw.shape} @ {x.shape}")
        return self._execute(pw, x)

    def matmul_many(
        self, w: np.ndarray, xs: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Batched multi-GEMM: program ``w`` once, stream every input.

        All inputs are concatenated column-wise and pushed through the
        engine as one pass — a multi-image conv batch or a multi-request
        inference batch costs one programming and one batched execution.

        Degenerate members are legal: an empty activation batch
        (``x.shape[1] == 0``) yields a correctly shaped ``(R, 0)`` output,
        and a zero-row weight matrix yields ``(0, C)`` outputs, without
        ever reaching the tile packer.
        """
        w = np.asarray(w, dtype=np.float64)
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        for x in xs:
            if x.ndim != 2 or w.ndim != 2 or w.shape[1] != x.shape[0]:
                raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        if not xs:
            return []
        require_finite(w, "weights")
        r = w.shape[0]
        if r == 0 or all(x.shape[1] == 0 for x in xs):
            return [np.zeros((r, x.shape[1])) for x in xs]
        pw = self.program(w)
        out = self._execute(pw, np.concatenate(xs, axis=1))
        split = np.cumsum([x.shape[1] for x in xs])[:-1]
        return np.split(out, split, axis=1)

    def mvm(self, w: np.ndarray, x_vec: np.ndarray) -> np.ndarray:
        """Single MVM convenience wrapper: ``w @ x_vec``."""
        return self.matmul(w, np.asarray(x_vec, dtype=np.float64)[:, None])[:, 0]

    # ------------------------------------------------------------------
    # The one-pass batched execution (Fig. 2 steps 2-9 for the inputs)
    # ------------------------------------------------------------------
    def _execute(self, pw: ProgrammedWeights, x: np.ndarray) -> np.ndarray:
        require_finite(x, "inputs")
        cfg = self.config
        r, _ = pw.shape
        c = x.shape[1]
        # Degenerate GEMMs (no output rows, no streamed columns, or an
        # empty reduction axis) have an exact answer — all zeros — and
        # must not reach the tile packer / device model, whose stages
        # assume non-empty operands.
        if r == 0 or c == 0 or pw.num_groups == 0:
            return np.zeros((r, c))
        num_groups, row_tiles = pw.num_groups, pw.row_tiles

        # Step 2: encode the whole input batch once.
        x_mant, x_exp = bfp_encode_matrix(x.T, self._bfp)  # (C, G, g), (C, G)

        # Steps 3, 5-7: every modular MVM of every tile in one batched
        # pass, then one reverse conversion over the full output tensor.
        self._mvm_cycles += num_groups * row_tiles * c
        if pw.fused is not None and self.engine.is_ideal:
            # Noiseless fused path.  ``Σ_i r_i M_i T_i ≡ X (mod M)`` holds
            # for *unreduced* ``r_i ≡ x_i (mod m_i)``, so scaling the input
            # residues by their CRT weight and concatenating the channel
            # axes turns the n modular GEMMs + CRT accumulation into one
            # batched matmul; a single final mod performs every 2π wrap.
            # The weighted residues come from the per-core level table.
            level = x_mant + self._levels
            if level.view(np.uint64).max() > 2 * self._levels:
                raise OverflowError(
                    f"BFP mantissae outside [{-self._levels}, {self._levels}]"
                )
            xt = self._crt_levels.take(level, axis=0, mode="clip")  # (C, G, g, n)
            acc = np.matmul(
                xt.reshape(c, num_groups, -1).transpose(1, 0, 2), pw.fused
            )  # (G, C, R), exact integers
            # Every sum is an exact integer below 2^53.  Flooring
            # (acc + ψ) / M lands each one straight in the signed range
            # [-ψ, M-1-ψ]; the correctly-rounded division can only round
            # *up* to the next integer, which leaves a value below -ψ, so
            # one fix-up adds M back there.
            big_m = self._big_m
            q = acc + self._psi
            q /= big_m
            np.floor(q, out=q)
            q *= big_m
            acc -= q
            if acc.min() < -self._psi:
                acc[acc < -self._psi] += big_m
            ints = acc  # (G, C, R) signed float64
        else:
            x_res = forward_convert_signed(x_mant, self.mset)  # (n, C, G, g)
            res_out = self.engine.mvm_grouped(pw.residues, x_res)  # (n, G, C, T, v)
            ints = to_signed(crt_reverse(res_out, self.mset), self.mset).astype(
                np.float64
            ).reshape(num_groups, c, row_tiles * cfg.v)[:, :, :r]
            # (G, C, R), padding rows dropped

        # Steps 8-9: one table read gives every 2^(e_x + e_w - 2bm) scale,
        # one multiply applies them, and groups accumulate in ascending
        # order from zeros — the float64 operation order of
        # bfp_matmul_exact, so the result is bit-identical (-0.0 and
        # subnormal partials included).
        scale_index = (x_exp.T + self._exp_offset)[:, :, None] + pw.exponents[:, None, :]
        terms = ints * POW2.take(scale_index, mode="clip")  # (G, C, R)
        out = np.zeros((c, r))
        for term in terms:
            out += term
        return out.T.copy()
