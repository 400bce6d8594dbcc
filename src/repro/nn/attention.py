"""Multi-head attention and transformer blocks.

Used by the scaled IWSLT-style translation benchmark (paper Section VI-B:
a 12-layer, 12-head, hidden-768 transformer; our scaled variant keeps the
structure, see :mod:`repro.nn.models`).  Attention projections and the
attention score/value GEMMs route through the same optional quantiser as
every other GEMM — attention is GEMM-dominated, which is why it maps well
onto Mirage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..quant.formats import GemmQuantizer
from .layers import Dropout, LayerNorm, Module
from .quantized import QuantizedLinear, quantized_matmul
from .tensor import Tensor

__all__ = [
    "KVCacheSpec",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "positional_encoding",
    "causal_mask",
    "kv_cache_bytes_per_token",
]


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positional encodings (Vaswani et al.)."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def causal_mask(length: int) -> np.ndarray:
    """Additive mask hiding future positions: 0 on/below diag, -inf above."""
    mask = np.triu(np.full((length, length), -1e9), k=1)
    return mask


def kv_cache_bytes_per_token(
    dim: int,
    num_heads: int,
    num_layers: int,
    bytes_per_element: int = 2,
) -> int:
    """Bytes of KV state one decoded token pins across a whole model.

    Every layer keeps the token's key **and** value rows — ``2 * dim``
    elements per layer (``dim = num_heads * head_dim``).  This is the
    per-token growth rate the serving engine's KV-cache manager charges
    against the accelerator's SRAM budget.
    """
    if dim < 1 or num_heads < 1 or num_layers < 1 or bytes_per_element < 1:
        raise ValueError(
            "dim, num_heads, num_layers and bytes_per_element must be >= 1, "
            f"got {dim}/{num_heads}/{num_layers}/{bytes_per_element}"
        )
    if dim % num_heads:
        raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
    return 2 * num_layers * dim * bytes_per_element


@dataclass(frozen=True)
class KVCacheSpec:
    """Shape of one model's KV cache, per token and per session.

    The functional serving surrogate may be a plain MLP; this spec is
    what ties its *analytic* decode cost and memory footprint to the
    attention geometry it stands in for — the serving engine prices each
    decode step with :func:`repro.arch.inference.decode_step_latency`
    and sizes its block allocator from :meth:`bytes_per_token`.
    ``bytes_per_element=2`` matches a 16-bit KV residency format.
    """

    num_layers: int
    num_heads: int
    head_dim: int
    bytes_per_element: int = 2

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "head_dim", "bytes_per_element"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")

    @property
    def dim(self) -> int:
        return self.num_heads * self.head_dim

    @property
    def bytes_per_token(self) -> int:
        return kv_cache_bytes_per_token(
            self.dim, self.num_heads, self.num_layers, self.bytes_per_element
        )

    def kv_shape(self, context_len: int) -> Tuple[int, int, int, int, int]:
        """Array shape of a session's cache at ``context_len`` tokens:
        ``(num_layers, 2, num_heads, context_len, head_dim)`` (the 2 is
        K and V)."""
        if context_len < 0:
            raise ValueError(f"context_len must be >= 0, got {context_len}")
        return (self.num_layers, 2, self.num_heads, context_len, self.head_dim)

    def kv_bytes(self, context_len: int) -> int:
        """Total resident bytes of a session at ``context_len`` tokens."""
        if context_len < 0:
            raise ValueError(f"context_len must be >= 0, got {context_len}")
        return context_len * self.bytes_per_token


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        quantizer: Optional[GemmQuantizer] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        quantize_attention: bool = False,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.quantizer = quantizer
        self.quantize_attention = quantize_attention
        self.q_proj = QuantizedLinear(dim, dim, quantizer=quantizer, rng=rng)
        self.k_proj = QuantizedLinear(dim, dim, quantizer=quantizer, rng=rng)
        self.v_proj = QuantizedLinear(dim, dim, quantizer=quantizer, rng=rng)
        self.out_proj = QuantizedLinear(dim, dim, quantizer=quantizer, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout else None

    def _split(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: Tensor) -> Tensor:
        n, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, t, h * d)

    def _mm(self, a: Tensor, b: Tensor) -> Tensor:
        # The paper's accuracy model swaps "convolution and linear layers"
        # with BFP GEMMs (Section V-A); the activation-activation
        # score/context products stay in FP.  Quantising them with
        # truncation collapses training (the softmax rows lose their small
        # weights), so we follow the paper's split.  Set
        # ``quantize_attention=True`` to study the harsher mapping.
        if self.quantizer is None or not self.quantize_attention:
            return a @ b
        return quantized_matmul(a, b, self.quantizer)

    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        key = query if key is None else key
        value = key if value is None else value
        q = self._split(self.q_proj(query))
        k = self._split(self.k_proj(key))
        v = self._split(self.v_proj(value))
        scores = self._mm(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        if mask is not None:
            scores = scores + Tensor(mask)
        attn = scores.softmax(axis=-1)
        if self.dropout is not None:
            attn = self.dropout(attn)
        out = self._merge(self._mm(attn, v))
        return self.out_proj(out)


class _FeedForward(Module):
    def __init__(self, dim: int, hidden: int, quantizer, dropout, rng):
        super().__init__()
        self.fc1 = QuantizedLinear(dim, hidden, quantizer=quantizer, rng=rng)
        self.fc2 = QuantizedLinear(hidden, dim, quantizer=quantizer, rng=rng)
        self.dropout = Dropout(dropout, rng=rng) if dropout else None

    def forward(self, x: Tensor) -> Tensor:
        h = self.fc1(x).relu()
        if self.dropout is not None:
            h = self.dropout(h)
        return self.fc2(h)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ff_hidden: int,
        quantizer: Optional[GemmQuantizer] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.attn = MultiHeadAttention(dim, num_heads, quantizer, dropout, rng)
        self.ff = _FeedForward(dim, ff_hidden, quantizer, dropout, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.attn(self.norm1(x), mask=mask)
        return x + self.ff(self.norm2(x))


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block with cross attention."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ff_hidden: int,
        quantizer: Optional[GemmQuantizer] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.self_attn = MultiHeadAttention(dim, num_heads, quantizer, dropout, rng)
        self.cross_attn = MultiHeadAttention(dim, num_heads, quantizer, dropout, rng)
        self.ff = _FeedForward(dim, ff_hidden, quantizer, dropout, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.norm3 = LayerNorm(dim)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        self_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        x = x + self.self_attn(self.norm1(x), mask=self_mask)
        x = x + self.cross_attn(self.norm2(x), memory, memory)
        return x + self.ff(self.norm3(x))
