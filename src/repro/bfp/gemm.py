"""BFP GEMM — integer mantissa matrix multiply under shared exponents.

This is the exact-arithmetic reference the photonic core is validated
against.  For an MVM between an input vector and a weight tile (Fig. 2), the
input vector forms one BFP group and each weight row forms another; the dot
product is then an integer dot of mantissae scaled by
``2^(e_x + e_w - 2 bm)``.

Two entry points:

* :func:`bfp_matmul_exact` — per-(row, tile) shared exponents, integer
  mantissa GEMM, exact reconstruction.  Structurally identical to what the
  hardware computes, and what :class:`repro.core.PhotonicRnsTensorCore`
  must match bit-for-bit.
* :func:`bfp_matmul_fast` — fake-quantise both operands then use float
  matmul.  Numerically identical results for output magnitudes below 2^53
  (float64 holds the integer products exactly); used by the training-time
  accuracy model because it is an order of magnitude faster.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .format import (
    BFPConfig,
    _clamp,
    _drop_bits,
    _scale_pow2,
    _shared_exponents,
    quantize_tensor,
)

__all__ = [
    "bfp_encode_matrix",
    "bfp_matmul_exact",
    "bfp_matmul_fast",
    "max_dot_magnitude",
    "require_finite",
]


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` when it holds NaN or ±inf.

    BFP has no encoding for non-finite values: ±inf would silently clamp
    to the largest mantissa and NaN would surface later as an unrelated
    range error, so GEMM entry points reject them up front.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite: found NaN or inf")


def max_dot_magnitude(config: BFPConfig) -> int:
    """Largest |integer dot product| for a ``g``-long BFP group pair.

    ``g * (2^bm - 1)^2`` — must stay below the signed RNS range ψ for the
    modular pipeline to be lossless (this is Eq. 13 up to rounding).
    """
    return config.g * config.mantissa_range**2


def bfp_encode_matrix(
    matrix: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode a 2-D matrix row-wise into BFP groups along the last axis.

    Returns ``(mantissae, exponents)`` where mantissae has shape
    ``(rows, num_groups, g)`` (zero padded) and exponents ``(rows,
    num_groups)``.  Each (row, group) pair shares one exponent — the paper's
    grouping for weight tiles (each row of the tile is a group) and for
    input vectors (the whole vector slice is a group).
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    g = config.g
    num_groups = max(1, -(-cols // g))
    if cols == num_groups * g:
        grouped = mat.reshape(rows, num_groups, g)
    else:
        padded = np.zeros((rows, num_groups * g), dtype=np.float64)
        padded[:, :cols] = mat
        grouped = padded.reshape(rows, num_groups, g)

    exps = _shared_exponents(grouped)
    mant = _drop_bits(_scale_pow2(grouped, config.bm - exps), config, rng)
    limit = float(config.mantissa_range)
    return _clamp(mant, limit).astype(np.int64), exps


def bfp_matmul_exact(
    w: np.ndarray,
    x: np.ndarray,
    config: BFPConfig,
) -> np.ndarray:
    """``w @ x`` with both operands quantised to BFP, via integer GEMM.

    ``w`` is ``(R, K)``, ``x`` is ``(K, C)``.  The reduction axis ``K`` is
    cut into ``ceil(K / g)`` groups; each group contributes an integer
    partial dot scaled by its pair of shared exponents, and partials are
    accumulated in float64 (the paper accumulates partial outputs in FP32 —
    step 9 of Fig. 2; float64 here removes accumulation rounding from the
    comparison so tests can check the quantisation path in isolation).
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
    require_finite(w, "weights")
    require_finite(x, "inputs")
    w_mant, w_exp = bfp_encode_matrix(w, config)
    # x groups run along K: encode columns by transposing.
    x_mant_t, x_exp_t = bfp_encode_matrix(x.T, config)

    r = w.shape[0]
    c = x.shape[1]
    num_groups = w_mant.shape[1]
    out = np.zeros((r, c), dtype=np.float64)
    for gi in range(num_groups):
        # Integer partial dot: (R, g) @ (g, C); values stay < 2^53.
        part = w_mant[:, gi, :] @ x_mant_t[:, gi, :].T.astype(np.int64)
        scale = np.ldexp(
            1.0,
            (w_exp[:, gi][:, None] + x_exp_t[:, gi][None, :]) - 2 * config.bm,
        )
        out += part * scale
    return out


def bfp_matmul_fast(
    w: np.ndarray,
    x: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """``w @ x`` after fake-quantising both operands to BFP.

    The float64 matmul of the dequantised operands is exactly the sum of
    the per-group scaled integer dots as long as no product exceeds 2^53,
    which Eq. 13-sized configurations guarantee by a huge margin.
    """
    wq = quantize_tensor(np.asarray(w, dtype=np.float64), config, axis=-1, rng=rng)
    xq = quantize_tensor(np.asarray(x, dtype=np.float64), config, axis=0, rng=rng)
    return wq @ xq
