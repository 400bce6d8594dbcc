"""Searching the moduli-set design space (Section IV-B).

Mirage fixes the special set ``{2^k-1, 2^k, 2^k+1}`` because its
conversions reduce to shifts, but the moduli choice is a genuine design
space: more, smaller moduli lower the per-channel DAC/ADC precision and
the SNR the photonic core must hold (laser power grows steeply with the
modulus), at the cost of more MMVMUs and a harder reverse conversion.
This module searches that space:

* :func:`greedy_coprime_set` — largest pairwise-co-prime values below a
  cap (the densest set a cap admits);
* :func:`minimal_max_modulus_set` — for a target dynamic range and
  channel count, the set minimising the largest modulus (binary search
  over the cap + greedy feasibility check);
* :func:`search_moduli_sets` — the (channel count, residue bits) Pareto
  frontier for a dynamic-range target, each point annotated with whether
  a shift-friendly special set could serve instead;
* :func:`set_cost_summary` — converter complexity and data-converter
  precision of a candidate, the quantities the hardware model consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .moduli import ModuliSet, pairwise_coprime, required_output_bits, special_moduli_set

__all__ = [
    "greedy_coprime_set",
    "minimal_max_modulus_set",
    "SearchPoint",
    "search_moduli_sets",
    "set_cost_summary",
]


def greedy_coprime_set(cap: int, count: int) -> Tuple[int, ...]:
    """The ``count`` largest pairwise-co-prime integers ``<= cap``.

    Greedy from the top is optimal for maximising the product at a given
    cap because any candidate skipped for a co-primality conflict is
    smaller than the one that caused the conflict.
    """
    if cap < 2 or count < 1:
        raise ValueError("cap must be >= 2 and count >= 1")
    chosen: List[int] = []
    candidate = cap
    while candidate >= 2 and len(chosen) < count:
        if all(math.gcd(candidate, m) == 1 for m in chosen):
            chosen.append(candidate)
        candidate -= 1
    if len(chosen) < count:
        raise ValueError(f"cannot pick {count} co-prime values <= {cap}")
    return tuple(sorted(chosen))


def minimal_max_modulus_set(
    target_bits: float, count: int, cap_limit: int = 1 << 16
) -> ModuliSet:
    """Smallest-largest-modulus set of ``count`` channels covering
    ``target_bits`` of dynamic range (binary search on the cap)."""
    if target_bits <= 0:
        raise ValueError("target_bits must be positive")

    def feasible(cap: int) -> Optional[Tuple[int, ...]]:
        try:
            mods = greedy_coprime_set(cap, count)
        except ValueError:
            return None
        bits = sum(math.log2(m) for m in mods)
        return mods if bits >= target_bits else None

    lo, hi = 2, cap_limit
    if feasible(hi) is None:
        raise ValueError(
            f"{count} moduli <= {cap_limit} cannot reach {target_bits} bits"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return ModuliSet(feasible(hi))


@dataclass(frozen=True)
class SearchPoint:
    """One Pareto point of the moduli-set search."""

    mset: ModuliSet
    count: int
    max_residue_bits: int
    dynamic_range_bits: float
    special_equivalent_k: Optional[int]


def _special_k_matching(target_bits: float, max_bits: int) -> Optional[int]:
    """Smallest special-set ``k`` covering the target within ``max_bits``
    residues, if one exists."""
    for k in range(2, max_bits):
        mset = special_moduli_set(k)
        if mset.dynamic_range_bits >= target_bits:
            return k if mset.max_residue_bits() <= max_bits else None
    return None


def search_moduli_sets(
    target_bits: float,
    counts: Sequence[int] = (2, 3, 4, 5, 6),
    cap_limit: int = 1 << 16,
) -> List[SearchPoint]:
    """(count, residue bits) Pareto frontier for a dynamic-range target.

    Each row is the best arbitrary co-prime set at that channel count;
    ``special_equivalent_k`` reports whether the shift-friendly family
    can match it (only ever at ``count == 3``), which is the Section IV-B
    argument for the chosen topology.
    """
    points: List[SearchPoint] = []
    for count in counts:
        try:
            mset = minimal_max_modulus_set(target_bits, count, cap_limit)
        except ValueError:
            continue
        max_bits = mset.max_residue_bits()
        special_k = None
        if count == 3:
            special_k = _special_k_matching(target_bits, max_bits)
        points.append(SearchPoint(
            mset=mset,
            count=count,
            max_residue_bits=max_bits,
            dynamic_range_bits=mset.dynamic_range_bits,
            special_equivalent_k=special_k,
        ))
    # Keep the Pareto frontier over (count asc, max_residue_bits asc).
    frontier: List[SearchPoint] = []
    best_bits = math.inf
    for point in sorted(points, key=lambda p: p.count):
        if point.max_residue_bits < best_bits:
            frontier.append(point)
            best_bits = point.max_residue_bits
    return frontier


def set_cost_summary(mset: ModuliSet, bm: int = 4, g: int = 16) -> dict:
    """Hardware-facing costs of a candidate set for a BFP config.

    ``conversion`` is ``"shift"`` for the special family (forward and
    reverse conversions are shift/add circuits, Section IV-B) and
    ``"crt"`` otherwise (generic multiply-accumulate CRT).
    """
    mods = mset.moduli
    is_special = any(
        mods == special_moduli_set(k).moduli
        for k in range(2, mset.max_residue_bits() + 1)
    )
    return {
        "moduli": mods,
        "channels": mset.n,
        "dac_adc_bits": mset.max_residue_bits(),
        "dynamic_range_bits": mset.dynamic_range_bits,
        "meets_eq13": mset.supports_bfp(bm, g),
        "required_bits": required_output_bits(bm, g),
        "conversion": "shift" if is_special else "crt",
    }
