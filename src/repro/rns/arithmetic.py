"""Modular arithmetic on residue tensors.

The RNS is closed under addition and multiplication, so a GEMM over
``[0, M)`` representatives decomposes into ``n`` independent modular GEMMs
(one per modulus) — this is the mathematical core of Mirage (Section III).

Residue tensors carry a leading *channel* axis of length ``n`` (one slice
per modulus), matching the layout produced by
:func:`repro.rns.conversion.forward_convert`.  A thin :class:`RnsTensor`
wrapper bundles the residues with their moduli set and provides operator
overloads; the free functions below are the vectorised kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import crt_reverse_signed, forward_convert_signed
from .moduli import ModuliSet

__all__ = [
    "mod_add",
    "mod_sub",
    "mod_neg",
    "mod_mul",
    "mod_dot",
    "mod_matmul",
    "RnsTensor",
]


def _check_channels(residues: np.ndarray, mset: ModuliSet) -> np.ndarray:
    arr = np.asarray(residues)
    if arr.shape[0] != mset.n:
        raise ValueError(
            f"residue tensor has {arr.shape[0]} channels, moduli set has {mset.n}"
        )
    return arr.astype(np.int64, copy=False)


def _mods_column(mset: ModuliSet, ndim: int) -> np.ndarray:
    """Moduli broadcast against a residue tensor of ``ndim`` trailing dims."""
    return mset.as_array().reshape((mset.n,) + (1,) * ndim)


def mod_add(a, b, mset: ModuliSet) -> np.ndarray:
    """Channel-wise ``(a + b) mod m_i``."""
    a = _check_channels(a, mset)
    b = _check_channels(b, mset)
    mods = _mods_column(mset, max(a.ndim, b.ndim) - 1)
    return np.mod(a + b, mods)


def mod_sub(a, b, mset: ModuliSet) -> np.ndarray:
    """Channel-wise ``(a - b) mod m_i``."""
    a = _check_channels(a, mset)
    b = _check_channels(b, mset)
    mods = _mods_column(mset, max(a.ndim, b.ndim) - 1)
    return np.mod(a - b, mods)


def mod_neg(a, mset: ModuliSet) -> np.ndarray:
    """Channel-wise ``(-a) mod m_i``."""
    a = _check_channels(a, mset)
    mods = _mods_column(mset, a.ndim - 1)
    return np.mod(-a, mods)


def mod_mul(a, b, mset: ModuliSet) -> np.ndarray:
    """Channel-wise elementwise ``(a * b) mod m_i``.

    Residues are bounded by ``max(m_i) - 1`` so products fit comfortably in
    int64 for any practical moduli (``m <= 2^31``).
    """
    a = _check_channels(a, mset)
    b = _check_channels(b, mset)
    mods = _mods_column(mset, max(a.ndim, b.ndim) - 1)
    return np.mod(a * b, mods)


def mod_dot(x, w, mset: ModuliSet) -> np.ndarray:
    """Modular dot product per channel: ``| sum_j x_j w_j |_{m_i}``.

    ``x`` and ``w`` have shape ``(n, g)``; the result has shape ``(n,)``.
    Mirrors one MDPU evaluation (Eq. 12) per modulus.
    """
    x = _check_channels(x, mset)
    w = _check_channels(w, mset)
    out = np.empty(mset.n, dtype=np.int64)
    for i, m in enumerate(mset.moduli):
        out[i] = int(np.sum(x[i].astype(np.int64) * w[i].astype(np.int64))) % m
    return out


def mod_matmul(w, x, mset: ModuliSet) -> np.ndarray:
    """Modular matrix product per channel: ``| w @ x |_{m_i}``.

    ``w`` has shape ``(n, R, K)`` and ``x`` has shape ``(n, K, C)``; output
    is ``(n, R, C)``.  All ``n`` channels run through a single batched
    matmul per chunk; accumulation is chunked along ``K`` with one shared
    chunk size derived from ``max(m)`` so the int64 partial sums cannot
    overflow even for long reductions.
    """
    w = _check_channels(w, mset)
    x = _check_channels(x, mset)
    if w.ndim != 3 or x.ndim != 3:
        raise ValueError(f"expected (n, R, K) @ (n, K, C), got {w.shape} @ {x.shape}")
    if w.shape[2] != x.shape[1]:
        raise ValueError(f"inner dims differ: {w.shape} @ {x.shape}")
    n, r, k = w.shape
    c = x.shape[2]
    mods = _mods_column(mset, 2)
    # Residues are < max(m), so every product is < max(m)^2 and a partial
    # sum of ``chunk`` products plus the running mod-reduced accumulator
    # (< max(m)) stays below 2^62 for the shared chunk size.
    max_m = int(mset.moduli[-1])
    chunk = max(1, (1 << 62) // (max_m * max_m))
    acc = np.zeros((n, r, c), dtype=np.int64)
    for start in range(0, k, chunk):
        stop = min(k, start + chunk)
        acc = np.mod(acc + np.matmul(w[:, :, start:stop], x[:, start:stop, :]), mods)
    return acc


@dataclass(frozen=True)
class RnsTensor:
    """A tensor held in residue form together with its moduli set.

    ``residues`` has shape ``(n, *shape)``.  The wrapper is immutable;
    arithmetic returns new instances.  Construction from signed integers and
    reconstruction back to signed integers round-trip exactly whenever the
    values stay inside the RNS range.
    """

    residues: np.ndarray
    mset: ModuliSet

    def __post_init__(self):
        _check_channels(self.residues, self.mset)

    # ------------------------------------------------------------------
    # Construction / extraction
    # ------------------------------------------------------------------
    @classmethod
    def from_signed(cls, values, mset: ModuliSet) -> "RnsTensor":
        """Encode signed integers (raises if out of ``[-ψ, M-1-ψ]``)."""
        return cls(forward_convert_signed(values, mset), mset)

    def to_signed(self) -> np.ndarray:
        """Decode back to signed integers via CRT."""
        return crt_reverse_signed(self.residues, self.mset)

    @property
    def shape(self) -> tuple:
        return self.residues.shape[1:]

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, RnsTensor):
            if other.mset != self.mset:
                raise ValueError("moduli sets differ")
            return other.residues
        return forward_convert_signed(np.asarray(other), self.mset)

    def __add__(self, other) -> "RnsTensor":
        return RnsTensor(mod_add(self.residues, self._coerce(other), self.mset), self.mset)

    def __sub__(self, other) -> "RnsTensor":
        return RnsTensor(mod_sub(self.residues, self._coerce(other), self.mset), self.mset)

    def __neg__(self) -> "RnsTensor":
        return RnsTensor(mod_neg(self.residues, self.mset), self.mset)

    def __mul__(self, other) -> "RnsTensor":
        return RnsTensor(mod_mul(self.residues, self._coerce(other), self.mset), self.mset)

    def matmul(self, other: "RnsTensor") -> "RnsTensor":
        """Modular GEMM: self ``(R, K)`` @ other ``(K, C)``."""
        return RnsTensor(
            mod_matmul(self.residues, self._coerce(other), self.mset), self.mset
        )

    def __matmul__(self, other) -> "RnsTensor":
        return self.matmul(other)
