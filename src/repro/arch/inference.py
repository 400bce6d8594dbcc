"""Inference-mode throughput and the Table III comparison.

Inference runs the forward GEMMs only.  Throughput is reported as
inferences per second (IPS), IPS/W and IPS/mm² for ResNet50 and AlexNet at
batch 1 — matching the published accelerator numbers the paper compares
against, which are reproduced here as reference constants.

Besides the one-shot forward-pass helpers, this module carries the
autoregressive-decode latency model the token serving engine
(:mod:`repro.serve.engine`) dispatches against:
:func:`decode_step_latency` prices one iteration-level decode step (one
token per running session, attention read over each session's KV
context) and :func:`prefill_latency` prices the prompt pass that builds
a session's KV state.

Every price is the closed form of :func:`~repro.arch.latency.mirage_gemm_cost`
on each :class:`GemmShape`, keeping the faster of DF1 and DF2 per GEMM;
no per-call mapping objects and no cache across calls, so the serving
engine's cross-check re-derives every step from scratch.  The floats are
bit-identical to pricing through :func:`~repro.arch.tiling.map_gemm`,
and each ``*_components`` variant reproduces its plain price bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .accelerator import MirageAccelerator
from .area import mirage_footprint_area
from .latency import mirage_gemm_cost
from .workloads import GemmShape, LayerShape, workload

__all__ = [
    "attention_token_latency",
    "attention_token_components",
    "chunked_prefill_latency",
    "chunked_prefill_components",
    "decode_step_latency",
    "decode_step_components",
    "inference_latency",
    "inference_latency_components",
    "inference_metrics",
    "microbatch_latency",
    "per_request_latency",
    "prefill_latency",
    "PUBLISHED_INFERENCE_ACCELERATORS",
    "table3_rows",
]


def _price_forward(
    gemms: Sequence[GemmShape], accelerator: Optional[MirageAccelerator]
) -> Tuple[float, float]:
    """``(total_s, reprogram_s)`` of one forward pass over ``gemms``.

    Each forward GEMM is priced in closed form under DF1 and DF2
    (:func:`~repro.arch.latency.mirage_gemm_cost`) and the faster one is
    kept, DF1 on ties; totals accumulate in GEMM order.  An empty list
    is rejected: a silent 0.0 here used to propagate into serving
    dispatch as a zero-length busy window, which reads as infinite
    throughput.
    """
    if not gemms:
        raise ValueError(
            "layers contain no forward GEMMs to price (empty layer list?)"
        )
    config = (accelerator or MirageAccelerator()).config
    total = 0.0
    reprogram = 0.0
    for gemm in gemms:
        df1 = mirage_gemm_cost(gemm, config, "DF1")
        df2 = mirage_gemm_cost(gemm, config, "DF2")
        seconds, rounds = df2 if df2[0] < df1[0] else df1
        total += seconds
        reprogram += rounds * config.reprogram_time_s
    return total, reprogram


def inference_latency(
    layers: Sequence[LayerShape],
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds for one forward pass (OPT2 dataflow over forward GEMMs).

    Inference runs only each layer's forward GEMM, so OPT2 reduces to
    the faster of DF1 and DF2 per GEMM, summed in layer order.  An empty
    layer list raises ``ValueError``.
    """
    return _price_forward([layer.gemm for layer in layers], accelerator)[0]


def inference_latency_components(
    layers: Sequence[LayerShape],
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """:func:`inference_latency`, split into reprogram vs stream time.

    ``total_s`` is **bit-identical** to :func:`inference_latency`: both
    are the same closed-form pass.  ``reprogram_s`` sums each chosen
    dataflow's exact phase-shifter settle time; ``stream_s`` is the
    residual ``total_s - reprogram_s`` — a reporting split, never
    re-added when asserting exactness.
    """
    return _components([layer.gemm for layer in layers], accelerator)


def _components(
    gemms: Sequence[GemmShape], accelerator: Optional[MirageAccelerator]
) -> Dict[str, float]:
    total, reprogram = _price_forward(gemms, accelerator)
    return {
        "total_s": total,
        "reprogram_s": reprogram,
        "stream_s": total - reprogram,
    }


def inference_metrics(
    name: str,
    batch: int = 16,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """IPS, IPS/W and IPS/mm² for a named workload at a given batch."""
    accelerator = accelerator or MirageAccelerator()
    layers = workload(name, batch=batch)
    latency = inference_latency(layers, accelerator)
    ips = batch / latency
    fwd_macs = sum(layer.gemm.macs for layer in layers)
    energy = accelerator.energy_per_mac * fwd_macs
    power = energy / latency
    area_mm2 = mirage_footprint_area(accelerator.config) / 1e-6
    return {
        "ips": ips,
        "ips_per_w": ips / power,
        "ips_per_mm2": ips / area_mm2,
        "power_w": power,
        "latency_s": latency,
    }


def microbatch_latency(
    layers: Sequence[LayerShape],
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds to serve one micro-batch whose size is baked into ``layers``.

    Identical to :func:`inference_latency` (including the explicit
    rejection of empty layer lists); the alias exists so serving code
    reads as what it means (the batch dimension lives inside each
    layer's ``GemmShape.n``, per the im2col convention).
    """
    return inference_latency(layers, accelerator)


def per_request_latency(
    layers: Sequence[LayerShape],
    batch: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Per-request latency accounting for a micro-batch of ``batch`` requests.

    ``layers`` must already be shaped at ``batch`` (their forward GEMMs
    carry ``N = batch * spatial``).  Returns the batch service latency
    and the amortized per-request share.  Comparing ``per_request_s``
    across batch sizes exposes the effect dynamic micro-batching
    (:mod:`repro.serve`) is built to exploit: weight-tile reprogramming
    is paid per tile, not per streamed vector, so batching amortizes the
    5 ns phase-shifter settles across requests.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    accelerator = accelerator or MirageAccelerator()
    batch_s = microbatch_latency(layers, accelerator)
    per_request_s = batch_s / batch
    return {
        "batch": float(batch),
        "batch_latency_s": batch_s,
        "per_request_s": per_request_s,
    }


# ----------------------------------------------------------------------
# Autoregressive decode (token serving engine)
# ----------------------------------------------------------------------
def _check_kv_spec(kv) -> None:
    """``kv`` is duck-typed (``repro.nn.attention.KVCacheSpec`` in
    practice; ``arch`` stays import-independent of ``nn``)."""
    for attr in ("num_layers", "num_heads", "head_dim"):
        value = getattr(kv, attr, None)
        if not isinstance(value, int) or value < 1:
            raise ValueError(
                f"kv.{attr} must be a positive int, got {value!r}"
            )


def attention_token_latency(
    kv,
    context_len: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds of attention work to decode **one token** of one session.

    Per transformer layer and head, the new query reads its KV context:
    a score GEMM ``(1, head_dim) @ (head_dim, L)`` and a context GEMM
    ``(1, L) @ (L, head_dim)`` with ``L = context_len`` — the part of a
    decode step that grows with the session's sequence length (the
    token-parallel projections are priced separately by
    :func:`decode_step_latency`).  All heads and layers ride in one GEMM
    descriptor via ``count = num_layers * num_heads``, whose tiles the
    latency model spreads across the ``num_arrays`` RNS-MMVMUs.
    """
    _check_kv_spec(kv)
    return _price_forward(
        _decode_attention_gemms(kv, context_len), accelerator
    )[0]


def _decode_attention_gemms(kv, context_len: int) -> Tuple[GemmShape, ...]:
    """The score and context GEMMs of one decoded token's KV read
    (``kv`` already checked by the public caller)."""
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    count = kv.num_layers * kv.num_heads
    return (
        GemmShape(1, kv.head_dim, context_len, count),
        GemmShape(1, context_len, kv.head_dim, count),
    )


def attention_token_components(
    kv,
    context_len: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """:func:`attention_token_latency` split into reprogram vs stream.

    ``total_s`` is bit-identical to :func:`attention_token_latency`
    (same GEMMs through the same closed-form pass).
    """
    _check_kv_spec(kv)
    return _components(_decode_attention_gemms(kv, context_len), accelerator)


def decode_step_latency(
    layers: Sequence[LayerShape],
    context_lens: Sequence[int],
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Price one iteration-level decode step of a continuous batch.

    ``layers`` are the model's token-parallel GEMMs shaped at
    ``batch = len(context_lens)`` (one new token per running session);
    ``context_lens[i]`` is session *i*'s resident KV length, each adding
    the per-session attention read of :func:`attention_token_latency`.
    ``kv=None`` models a KV-free network (pure MLP surrogate): the step
    is just the batched token GEMMs.

    The attention term sums in ``context_lens`` order with a per-``L``
    memo, so a caller that memoises :func:`attention_token_latency` per
    distinct length and sums in the same order reproduces this number
    bit-exactly — that is the serving engine's cross-check contract.
    """
    batch = len(context_lens)
    if batch < 1:
        raise ValueError("context_lens must name at least one session")
    accelerator = accelerator or MirageAccelerator()
    token_parallel_s = microbatch_latency(layers, accelerator)
    attention_s = 0.0
    if kv is not None:
        _check_kv_spec(kv)
        per_len: Dict[int, float] = {}
        for length in context_lens:
            if length not in per_len:
                per_len[length] = _price_forward(
                    _decode_attention_gemms(kv, length), accelerator
                )[0]
            attention_s += per_len[length]
    step_s = token_parallel_s + attention_s
    return {
        "batch": float(batch),
        "token_parallel_s": token_parallel_s,
        "attention_s": attention_s,
        "step_latency_s": step_s,
        "per_token_s": step_s / batch,
    }


def decode_step_components(
    layers: Sequence[LayerShape],
    context_lens: Sequence[int],
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """:func:`decode_step_latency` with reprogram/stream attribution.

    ``step_latency_s`` is bit-identical to the plain pricing: the token
    GEMM total and the order-preserving memoised attention sum reproduce
    the same floats, and the final add matches.  The ``*_reprogram_s``
    fields attribute each part's phase-shifter settle time (streams are
    the residuals; see :func:`inference_latency_components`).
    """
    batch = len(context_lens)
    if batch < 1:
        raise ValueError("context_lens must name at least one session")
    accelerator = accelerator or MirageAccelerator()
    token = inference_latency_components(layers, accelerator)
    attention_s = 0.0
    attention_reprogram_s = 0.0
    if kv is not None:
        _check_kv_spec(kv)
        per_len: Dict[int, Tuple[float, float]] = {}
        for length in context_lens:
            if length not in per_len:
                per_len[length] = _price_forward(
                    _decode_attention_gemms(kv, length), accelerator
                )
            attention_s += per_len[length][0]
            attention_reprogram_s += per_len[length][1]
    return {
        "batch": float(batch),
        "token_parallel_s": token["total_s"],
        "token_reprogram_s": token["reprogram_s"],
        "attention_s": attention_s,
        "attention_reprogram_s": attention_reprogram_s,
        "step_latency_s": token["total_s"] + attention_s,
    }


def chunked_prefill_latency(
    layers: Sequence[LayerShape],
    chunk_len: int,
    context_len: int = 0,
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds to prefill one ``chunk_len``-token slice of a prompt.

    Chunked prefill splits a long prompt into slices interleaved with
    running decode steps (bounding the TTFT jitter a monolithic prefill
    inflicts on co-scheduled sessions).  ``context_len`` tokens of KV
    are already resident — from earlier chunks *or* from a shared-prefix
    cache hit — so the slice's cost is its token-parallel GEMMs
    (``layers`` shaped at ``batch = chunk_len``) plus causal attention
    of the chunk's queries over everything resident so far: per layer
    and head a ``(Q, head_dim) @ (head_dim, C + Q)`` score GEMM and a
    ``(Q, C + Q) @ (C + Q, head_dim)`` context GEMM.

    ``chunk_len = 0`` — a fully cached slice — is **defined** as zero
    seconds (no GEMMs stream; ``layers`` and ``kv`` are not consulted):
    the scheduling step it rides in still happens, it just adds no
    prefill time.  With ``context_len = 0`` and the whole prompt as one
    chunk this reproduces :func:`prefill_latency` exactly, which is the
    engine's chunked-step cross-check contract.
    """
    if chunk_len < 0:
        raise ValueError(f"chunk_len must be >= 0, got {chunk_len}")
    if context_len < 0:
        raise ValueError(f"context_len must be >= 0, got {context_len}")
    if chunk_len == 0:
        return 0.0
    accelerator = accelerator or MirageAccelerator()
    total = microbatch_latency(layers, accelerator)
    if kv is not None:
        attn = _prefill_attention_gemms(kv, chunk_len, context_len)
        total += _price_forward(attn, accelerator)[0]
    return total


def _prefill_attention_gemms(
    kv, chunk_len: int, context_len: int
) -> Tuple[GemmShape, ...]:
    """The causal score and context GEMMs of one prefill chunk."""
    _check_kv_spec(kv)
    count = kv.num_layers * kv.num_heads
    span = context_len + chunk_len
    return (
        GemmShape(chunk_len, kv.head_dim, span, count),
        GemmShape(chunk_len, span, kv.head_dim, count),
    )


def chunked_prefill_components(
    layers: Sequence[LayerShape],
    chunk_len: int,
    context_len: int = 0,
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """:func:`chunked_prefill_latency` with reprogram/stream attribution.

    ``total_s`` is bit-identical to the plain pricing (same shapes, same
    single add of the attention term); a ``chunk_len`` of zero returns
    all-zero components, matching the defined-zero fully-cached slice.
    """
    if chunk_len < 0:
        raise ValueError(f"chunk_len must be >= 0, got {chunk_len}")
    if context_len < 0:
        raise ValueError(f"context_len must be >= 0, got {context_len}")
    zero = {
        "total_s": 0.0,
        "gemm_s": 0.0,
        "gemm_reprogram_s": 0.0,
        "attention_s": 0.0,
        "attention_reprogram_s": 0.0,
    }
    if chunk_len == 0:
        return zero
    accelerator = accelerator or MirageAccelerator()
    gemm = inference_latency_components(layers, accelerator)
    total = gemm["total_s"]
    attention_s = 0.0
    attention_reprogram_s = 0.0
    if kv is not None:
        attention_s, attention_reprogram_s = _price_forward(
            _prefill_attention_gemms(kv, chunk_len, context_len), accelerator
        )
        total += attention_s
    return {
        "total_s": total,
        "gemm_s": gemm["total_s"],
        "gemm_reprogram_s": gemm["reprogram_s"],
        "attention_s": attention_s,
        "attention_reprogram_s": attention_reprogram_s,
    }


def prefill_latency(
    layers: Sequence[LayerShape],
    prompt_len: int,
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds to run a session's prompt pass and build its KV state.

    ``layers`` are the model's GEMMs shaped at ``batch = prompt_len``
    (all prompt tokens stream token-parallel, which is why prefill is
    throughput-bound while decode is latency-bound), plus the quadratic
    attention over the prompt: per layer and head a
    ``(P, head_dim) @ (head_dim, P)`` score GEMM and a
    ``(P, P) @ (P, head_dim)`` context GEMM.

    ``prompt_len = 0`` — every prompt token already resident from a
    shared-prefix cache hit — is **defined** as zero seconds: no GEMM
    streams, but the engine still spends a scheduling step admitting
    the session (the step's cost is its decode batch, not the prefill).
    Negative lengths raise.  Implemented as the single-chunk case of
    :func:`chunked_prefill_latency` with no resident context, so the
    two are bit-identical where they overlap.
    """
    if prompt_len < 0:
        raise ValueError(f"prompt_len must be >= 0, got {prompt_len}")
    return chunked_prefill_latency(
        layers, prompt_len, context_len=0, kv=kv, accelerator=accelerator
    )


# Published numbers reproduced from Table III (reference constants; the
# cited accelerators are not re-simulated).  None = not reported (N/A).
PUBLISHED_INFERENCE_ACCELERATORS = {
    "ADEPT": {
        "ResNet50": (35698, 1587.99, 50.57),
        "AlexNet": (217201, 7476.78, 307.64),
    },
    "Albireo-C": {"ResNet50": None, "AlexNet": (7692, 344.17, 61.46)},
    "DNNARA": {"ResNet50": (9345, 100.0, 42.05), "AlexNet": None},
    "HolyLight": {"ResNet50": None, "AlexNet": (50000, 900.0, 2226.11)},
    "Eyeriss": {"ResNet50": None, "AlexNet": (35, 124.80, 2.85)},
    "Eyeriss v2": {"ResNet50": None, "AlexNet": (102, 174.80, None)},
    "TPU v3": {"ResNet50": (32716, 18.18, 18.00), "AlexNet": None},
    "UNPU": {"ResNet50": None, "AlexNet": (346, 1097.50, 21.62)},
    "Res-DNN": {"ResNet50": None, "AlexNet": (386.11, 427.78, None)},
}

# Paper-reported Mirage row of Table III, for shape validation.
PAPER_MIRAGE_TABLE3 = {
    "ResNet50": (10474, 1540.6, 43.2),
    "AlexNet": (64963, 1904.5, 267.67),
}


def table3_rows(accelerator: Optional[MirageAccelerator] = None, batch: int = 16):
    """(accelerator, model, ips, ips_per_w, ips_per_mm2) rows for Table III."""
    accelerator = accelerator or MirageAccelerator()
    rows = []
    for model in ("ResNet50", "AlexNet"):
        metrics = inference_metrics(model, batch=batch, accelerator=accelerator)
        rows.append(
            ("Mirage (measured)", model, metrics["ips"], metrics["ips_per_w"],
             metrics["ips_per_mm2"])
        )
    for name, per_model in PUBLISHED_INFERENCE_ACCELERATORS.items():
        for model, vals in per_model.items():
            if vals is None:
                continue
            rows.append((name, model, vals[0], vals[1], vals[2]))
    return rows
