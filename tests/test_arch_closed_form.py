"""The closed-form Mirage pricing is bit-identical to the tile mapping.

``mirage_gemm_cost`` prices a GEMM on integers straight from its
``GemmShape`` fields.  These properties pin it, with ``==`` rather than
approx, to a reference built here from ``map_gemm`` and the training-GEMM
list (the path the closed form replaced), and pin every ``*_components``
variant to its plain price.  ``derandomize=True`` keeps tier-1
deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GemmShape, MirageConfig, map_gemm
from repro.arch.accelerator import MirageAccelerator
from repro.arch.inference import (
    attention_token_components,
    attention_token_latency,
    chunked_prefill_components,
    chunked_prefill_latency,
    decode_step_components,
    decode_step_latency,
    inference_latency,
    inference_latency_components,
)
from repro.arch.latency import mirage_gemm_components, mirage_gemm_latency
from repro.arch.workloads import LayerShape, training_gemms
from repro.nn import KVCacheSpec

EXACT = settings(derandomize=True, max_examples=100, deadline=None)

gemms = st.builds(
    GemmShape,
    st.integers(1, 1024),
    st.integers(1, 1024),
    st.integers(1, 1024),
    st.integers(1, 64),
)

configs = st.builds(
    MirageConfig,
    num_arrays=st.integers(1, 64),
    v=st.integers(1, 64),
    # g <= 32 keeps the default (k=5, bm=4) moduli within Eq. 13.
    g=st.integers(1, 32),
    photonic_clock_hz=st.floats(1e8, 1e11),
    reprogram_time_s=st.floats(0.0, 1e-7),
)

layer_lists = st.lists(gemms, min_size=1, max_size=5).map(
    lambda gs: [LayerShape(f"l{i}", g) for i, g in enumerate(gs)]
)

kv_specs = st.builds(
    KVCacheSpec, st.integers(1, 8), st.integers(1, 8), st.integers(1, 128)
)


def reference_rounds(gemm, config, dataflow):
    """``(rounds, stream_len)`` through a ``TileMapping``."""
    stationary = "first" if dataflow == "DF1" else "second"
    mapping = map_gemm(gemm, config.v, config.g, stationary)
    return -(-mapping.tiles // config.num_arrays), mapping.stream_len


def reference_latency(gemm, config, dataflow):
    """Price through a ``TileMapping``, as the model did before."""
    rounds, stream_len = reference_rounds(gemm, config, dataflow)
    per_tile = config.reprogram_time_s + stream_len * config.cycle_time_s
    return rounds * per_tile


def reference_inference(layers, config):
    """Best of DF1/DF2 over the forward training GEMMs, in layer order."""
    total = 0.0
    for layer in layers:
        for tg in training_gemms(layer):
            if tg.role == "fwd":
                total += min(
                    reference_latency(tg.gemm, config, df)
                    for df in ("DF1", "DF2")
                )
    return total


@EXACT
@given(gemms, configs, st.sampled_from(("DF1", "DF2")))
def test_gemm_latency_matches_tile_mapping(gemm, config, dataflow):
    expected = reference_latency(gemm, config, dataflow)
    assert mirage_gemm_latency(gemm, config, dataflow) == expected
    comp = mirage_gemm_components(gemm, config, dataflow)
    assert comp["total_s"] == expected
    rounds = reference_rounds(gemm, config, dataflow)[0]
    assert comp["rounds"] == rounds
    assert comp["reprogram_s"] == rounds * config.reprogram_time_s


@EXACT
@given(layer_lists, configs)
def test_inference_latency_matches_reference(layers, config):
    acc = MirageAccelerator(config)
    total = inference_latency(layers, acc)
    assert total == reference_inference(layers, config)
    assert inference_latency_components(layers, acc)["total_s"] == total


@EXACT
@given(
    layer_lists,
    configs,
    kv_specs,
    st.lists(st.integers(1, 2048), min_size=1, max_size=12),
)
def test_decode_step_components_match_plain_price(layers, config, kv, lens):
    acc = MirageAccelerator(config)
    plain = decode_step_latency(layers, lens, kv, acc)
    comp = decode_step_components(layers, lens, kv, acc)
    assert comp["step_latency_s"] == plain["step_latency_s"]
    assert comp["attention_s"] == plain["attention_s"]
    assert comp["token_parallel_s"] == plain["token_parallel_s"]
    length = lens[0]
    assert attention_token_components(kv, length, acc)["total_s"] == (
        attention_token_latency(kv, length, acc)
    )


@EXACT
@given(
    layer_lists,
    configs,
    st.one_of(st.none(), kv_specs),
    st.integers(0, 512),
    st.integers(0, 4096),
)
def test_chunked_prefill_components_match_plain_price(
    layers, config, kv, chunk_len, context_len
):
    acc = MirageAccelerator(config)
    plain = chunked_prefill_latency(layers, chunk_len, context_len, kv, acc)
    comp = chunked_prefill_components(layers, chunk_len, context_len, kv, acc)
    assert comp["total_s"] == plain
