"""Moduli sets for the Residue Number System.

A Residue Number System is defined by a set of pairwise co-prime moduli
``{m_1, ..., m_n}``.  An integer ``X`` in the dynamic range ``[0, M)`` with
``M = prod(m_i)`` is represented uniquely by its residues ``x_i = X mod m_i``.

Mirage (Section IV-B) uses the *special* three-moduli set
``{2^k - 1, 2^k, 2^k + 1}`` because modulo and reverse-conversion operations
reduce to shifts and adds, keeping the digital conversion circuitry off the
critical path.  This module provides a general :class:`ModuliSet` plus the
special-set constructor and the Eq. 13 sizing rule that links the moduli set
to a Block Floating Point configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "ModuliSet",
    "special_moduli_set",
    "required_output_bits",
    "choose_k_min",
    "pairwise_coprime",
]


def _gcd_all_pairs(moduli: Sequence[int]) -> Iterable[Tuple[int, int, int]]:
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            yield moduli[i], moduli[j], math.gcd(moduli[i], moduli[j])


def pairwise_coprime(moduli: Sequence[int]) -> bool:
    """Return True when every pair of moduli has gcd 1."""
    return all(g == 1 for _, _, g in _gcd_all_pairs(moduli))


def required_output_bits(bm: int, g: int) -> int:
    """Bits of information in a BFP dot product output (paper Eq. 13 RHS).

    A dot product between two ``g``-long vectors of ``(bm + 1)``-bit signed
    integers (sign + ``bm`` mantissa bits) produces
    ``2 * (bm + 1) + log2(g) - 1`` bits.

    Parameters
    ----------
    bm:
        Number of mantissa bits in the BFP format.
    g:
        Group size, i.e. the dot-product length.
    """
    if bm < 1:
        raise ValueError(f"bm must be >= 1, got {bm}")
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    return 2 * (bm + 1) + math.ceil(math.log2(g)) - 1


@dataclass(frozen=True)
class ModuliSet:
    """A validated set of pairwise co-prime RNS moduli.

    Attributes
    ----------
    moduli:
        The co-prime moduli, stored in ascending order.
    """

    moduli: Tuple[int, ...]
    _big_m: int = field(init=False, repr=False, compare=False)
    _mi: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ti: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _mr_inv: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, moduli: Iterable[int]):
        mods = tuple(sorted(int(m) for m in moduli))
        if len(mods) == 0:
            raise ValueError("a ModuliSet needs at least one modulus")
        if any(m < 2 for m in mods):
            raise ValueError(f"all moduli must be >= 2, got {mods}")
        if len(set(mods)) != len(mods):
            raise ValueError(f"moduli must be distinct, got {mods}")
        if not pairwise_coprime(mods):
            bad = [(a, b) for a, b, g in _gcd_all_pairs(mods) if g != 1]
            raise ValueError(f"moduli must be pairwise co-prime; offending pairs: {bad}")
        object.__setattr__(self, "moduli", mods)
        big_m = reduce(lambda a, b: a * b, mods, 1)
        object.__setattr__(self, "_big_m", big_m)
        mi = tuple(big_m // m for m in mods)
        ti = tuple(pow(mi_k % m, -1, m) for mi_k, m in zip(mi, mods))
        object.__setattr__(self, "_mi", mi)
        object.__setattr__(self, "_ti", ti)
        mr_inv = tuple(
            tuple(
                pow(mods[i] % mods[j], -1, mods[j]) if j > i else 0
                for j in range(len(mods))
            )
            for i in range(len(mods))
        )
        object.__setattr__(self, "_mr_inv", mr_inv)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of moduli."""
        return len(self.moduli)

    @property
    def dynamic_range(self) -> int:
        """``M = prod(m_i)`` — the count of uniquely representable integers."""
        return self._big_m

    @property
    def dynamic_range_bits(self) -> float:
        """``log2(M)``."""
        return math.log2(self.dynamic_range)

    @property
    def psi(self) -> int:
        """Half range ``ψ = floor((M - 1) / 2)`` used for signed mapping.

        Signed values live in ``[-ψ, M - 1 - ψ]`` (symmetric around zero up
        to one unit for even ``M``).
        """
        return (self.dynamic_range - 1) // 2

    @property
    def crt_weights(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(M_i, T_i)`` pairs for the Chinese Remainder Theorem (Eq. 5)."""
        return self._mi, self._ti

    @property
    def mixed_radix_inverses(self) -> Tuple[Tuple[int, ...], ...]:
        """Precomputed ``|m_i^{-1}|_{m_j}`` table (``j > i``) for mixed-radix
        conversion; entries with ``j <= i`` are unused and stored as 0."""
        return self._mr_inv

    def residue_bits(self) -> Tuple[int, ...]:
        """Bits needed per residue channel: ``ceil(log2(m_i))``."""
        return tuple(math.ceil(math.log2(m)) for m in self.moduli)

    def max_residue_bits(self) -> int:
        """The DAC/ADC precision implied by the largest modulus."""
        return max(self.residue_bits())

    # ------------------------------------------------------------------
    # Range checks
    # ------------------------------------------------------------------
    def supports_signed(self, value: int) -> bool:
        """True when a signed integer fits in ``[-ψ, M - 1 - ψ]``."""
        return -self.psi <= value <= self.dynamic_range - 1 - self.psi

    def supports_bfp(self, bm: int, g: int) -> bool:
        """Eq. 13: ``log2(M) >= 2 (bm + 1) + log2(g) - 1``.

        Guarantees that a ``g``-long dot product of BFP mantissae never
        overflows the RNS range.
        """
        return self.dynamic_range_bits >= required_output_bits(bm, g)

    def __iter__(self):
        return iter(self.moduli)

    def __len__(self) -> int:
        return self.n

    def as_array(self) -> np.ndarray:
        """Moduli as an int64 numpy vector (for vectorised kernels)."""
        return np.array(self.moduli, dtype=np.int64)


def special_moduli_set(k: int) -> ModuliSet:
    """The Mirage special set ``{2^k - 1, 2^k, 2^k + 1}`` (Section IV-B).

    The three members are pairwise co-prime for any ``k >= 2`` and give
    ``M = 2^{3k} - 2^k``, i.e. close to ``3k`` bits of dynamic range, while
    forward/reverse conversions reduce to shift-and-add circuits.
    """
    if k < 2:
        raise ValueError(f"special moduli set requires k >= 2, got {k}")
    return ModuliSet((2**k - 1, 2**k, 2**k + 1))


def choose_k_min(bm: int, g: int, k_max: int = 24) -> int:
    """Smallest ``k`` whose special set satisfies Eq. 13 for ``(bm, g)``.

    The paper reports ``k_min = 4`` for ``bm=3``, ``5`` for ``bm=4`` and
    ``6`` for ``bm=5`` (all at ``g = 16``); this function reproduces those.
    """
    for k in range(2, k_max + 1):
        if special_moduli_set(k).supports_bfp(bm, g):
            return k
    raise ValueError(f"no k <= {k_max} supports bm={bm}, g={g}")
