"""Block Floating Point (BFP) encoding.

BFP splits a tensor into groups of ``g`` elements; each group shares a
single exponent (the maximum exponent among its members) and each element
keeps a sign plus ``bm`` mantissa bits.  Within a group, arithmetic is pure
integer arithmetic on the mantissae; the shared exponent restores dynamic
range at reconstruction time.

This mirrors Fig. 2 step 2 of the paper: mantissae of group elements are
shifted right by the difference between the shared exponent and their own
exponent, then truncated to ``bm`` bits.  Truncation is the paper's default;
nearest and stochastic rounding are provided for the FMAC baseline and for
ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..determinism import resolve_rng

__all__ = [
    "BFPConfig",
    "BFPBlock",
    "encode_groups",
    "decode_groups",
    "quantize_tensor",
    "POW2",
    "POW2_MIN_EXP",
]

_ROUNDING_MODES = ("truncate", "nearest", "stochastic")


@dataclass(frozen=True)
class BFPConfig:
    """A BFP format: ``bm`` mantissa bits, group size ``g``.

    ``rounding`` selects how mantissa LSBs are dropped during alignment:
    ``"truncate"`` (paper default, round toward zero), ``"nearest"`` or
    ``"stochastic"``.
    """

    bm: int
    g: int
    rounding: str = "truncate"

    def __post_init__(self):
        if self.bm < 1:
            raise ValueError(f"bm must be >= 1, got {self.bm}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.rounding not in _ROUNDING_MODES:
            raise ValueError(
                f"rounding must be one of {_ROUNDING_MODES}, got {self.rounding!r}"
            )

    @property
    def mantissa_range(self) -> int:
        """Mantissae are signed integers in ``[-(2^bm - 1), 2^bm - 1]``...

        strictly ``|mantissa| < 2^bm``: the top value ``2^bm`` cannot occur
        because the element with the max exponent has mantissa < 2^bm after
        normalisation.
        """
        return (1 << self.bm) - 1

    def output_bits(self) -> int:
        """Information bits of a ``g``-long dot product (Eq. 13 RHS)."""
        return 2 * (self.bm + 1) + math.ceil(math.log2(self.g)) - 1


@dataclass(frozen=True)
class BFPBlock:
    """Encoded BFP groups.

    Attributes
    ----------
    mantissae:
        Signed integer mantissae, shape ``(num_groups, g)`` (zero padded in
        the last group when the source length is not a multiple of ``g``).
    exponents:
        Shared per-group exponents, shape ``(num_groups,)``.  The decoded
        value of element ``j`` of group ``i`` is
        ``mantissae[i, j] * 2^(exponents[i] - bm)``.
    config:
        The :class:`BFPConfig` used for encoding.
    valid_length:
        Number of real (non padding) elements.
    """

    mantissae: np.ndarray
    exponents: np.ndarray
    config: BFPConfig
    valid_length: int

    def decode(self) -> np.ndarray:
        """Reconstruct the float vector (padding stripped)."""
        return decode_groups(self.mantissae, self.exponents, self.config)[
            : self.valid_length
        ]


POW2_MIN_EXP = -1075


def _pow2_table() -> np.ndarray:
    table = np.append(np.ldexp(1.0, np.arange(POW2_MIN_EXP, 1024)), np.inf)
    table.setflags(write=False)
    return table


# 2^k for every k in [POW2_MIN_EXP, 1024]: ``POW2.take(k - POW2_MIN_EXP,
# mode="clip")`` equals ``np.ldexp(1.0, k)`` for any integer k, saturating
# to 0.0 at or below 2^-1075 and to inf from 2^1024 up, with neither
# ldexp's per-element cost nor its overflow warning.
POW2 = _pow2_table()


def _shared_exponents(grouped: np.ndarray) -> np.ndarray:
    """Per-group shared exponents along the last axis (int64).

    ``frexp`` of the largest magnitude, ``|v| = frac * 2^e`` with
    ``frac in [0.5, 1)``, so every mantissa satisfies ``|m| <= 2^bm``;
    ``frexp(0)`` gives 0, the exponent of an all-zero group.
    """
    return np.frexp(np.abs(grouped).max(axis=-1))[1].astype(np.int64)


def _scale_pow2(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``values * 2^shift`` with one shift per group (the last axis).

    Multiplying by a tabled power of two is exact and far cheaper than
    ``ldexp`` on every value.  Only where ``2^shift`` itself is no finite
    nonzero double (shift above 1023 or below -1074) -- encoding or
    decoding a group whose max |v| lies below ~2^(bm - 1023) -- does the
    group take ``ldexp`` on its values, whose result is tame.
    """
    index = shift - POW2_MIN_EXP
    if shift.size and (shift.max() > 1023 or shift.min() < -1074):
        edge = (shift > 1023) | (shift < -1074)
        # Scale edge groups by 2^0 here; ldexp overwrites them below.
        scaled = values * POW2.take(np.where(edge, -POW2_MIN_EXP, index))[..., None]
        scaled[edge] = np.ldexp(values[edge], shift[edge][:, None])
        return scaled
    return values * POW2.take(index)[..., None]


def _clamp(mant: np.ndarray, limit: float) -> np.ndarray:
    """Clip fresh mantissae to ``[-limit, limit]`` in place (NaN stays
    NaN, as with ``np.clip``, minus its per-call wrapper cost)."""
    np.maximum(mant, -limit, out=mant)
    return np.minimum(mant, limit, out=mant)


def _drop_bits(scaled: np.ndarray, config: BFPConfig, rng: Optional[np.random.Generator]) -> np.ndarray:
    """Convert real-valued ``value / 2^(e_shared - bm)`` to integer mantissae."""
    if config.rounding == "truncate":
        return np.trunc(scaled)
    if config.rounding == "nearest":
        return np.rint(scaled)
    rng = resolve_rng(rng)
    floor = np.floor(scaled)
    frac = scaled - floor
    return floor + (rng.random(scaled.shape) < frac)


def encode_groups(
    values: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> BFPBlock:
    """Encode a 1-D float vector into BFP groups.

    The shared exponent of a group is the max element exponent, computed as
    ``floor(log2(|v|)) + 1`` of the largest magnitude (so that every
    mantissa satisfies ``|m| <= 2^bm``).  Zero groups get exponent 0 and
    all-zero mantissae.
    """
    vec = np.asarray(values, dtype=np.float64).ravel()
    n = vec.size
    g = config.g
    num_groups = max(1, -(-n // g))
    padded = np.zeros(num_groups * g, dtype=np.float64)
    padded[:n] = vec
    grouped = padded.reshape(num_groups, g)

    exps = _shared_exponents(grouped)
    mant = _drop_bits(_scale_pow2(grouped, config.bm - exps), config, rng)
    # Stochastic/nearest rounding of the max-magnitude element may hit
    # 2^bm; clamp to stay within bm+1 signed bits.
    limit = float(config.mantissa_range)
    return BFPBlock(_clamp(mant, limit).astype(np.int64), exps, config, n)


def decode_groups(
    mantissae: np.ndarray, exponents: np.ndarray, config: BFPConfig
) -> np.ndarray:
    """Inverse of :func:`encode_groups` (returns the padded flat vector)."""
    mant = np.asarray(mantissae, dtype=np.float64)
    exps = np.asarray(exponents, dtype=np.int64)
    return _scale_pow2(mant, exps - config.bm).ravel()


def quantize_tensor(
    values: np.ndarray,
    config: BFPConfig,
    axis: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Fake-quantise a tensor through BFP along ``axis`` (encode + decode).

    This is the building block of the accuracy model: it reproduces exactly
    the value error a Mirage GEMM operand incurs, while keeping float64
    layout for the surrounding autograd code.
    """
    arr = np.asarray(values, dtype=np.float64)
    moved = np.moveaxis(arr, axis, -1)
    lead_shape = moved.shape[:-1]
    length = moved.shape[-1]
    g = config.g
    num_groups = max(1, -(-length // g))
    padded = np.zeros(lead_shape + (num_groups * g,), dtype=np.float64)
    padded[..., :length] = moved
    grouped = padded.reshape(lead_shape + (num_groups, g))

    shift = config.bm - _shared_exponents(grouped)
    mant = _drop_bits(_scale_pow2(grouped, shift), config, rng)
    limit = float(config.mantissa_range)
    deq = _scale_pow2(_clamp(mant, limit), -shift)
    out = deq.reshape(lead_shape + (num_groups * g,))[..., :length]
    return np.moveaxis(out, -1, axis)
