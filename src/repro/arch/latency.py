"""Cycle-accounting latency models for Mirage and the systolic baseline.

Mirage (Section V-B1): each tile load reprograms the phase shifters (5 ns,
core inoperable), then one modular MVM completes every 0.1 ns; tiles are
spread across the RNS-MMVMUs; SRAM/digital stages are 10-way interleaved
and pipelined so they never limit throughput (Section IV-C) — the model
asserts that property instead of simulating each sub-array.

Systolic baseline: ``R x C`` MAC grids with fill/drain overheads per output
or stationary tile, clocked per data format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .config import MirageConfig, SystolicConfig
from .dataflow import MIRAGE_DATAFLOWS, SYSTOLIC_DATAFLOWS
from .workloads import GemmShape, LayerShape, TrainingGemm, training_gemms

__all__ = [
    "mirage_gemm_cost",
    "mirage_gemm_latency",
    "mirage_gemm_components",
    "mirage_latency_fn",
    "systolic_gemm_latency",
    "systolic_latency_fn",
    "step_latency",
    "LayerLatency",
    "per_layer_latencies",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------
# Mirage
# ----------------------------------------------------------------------
def mirage_gemm_cost(
    gemm: GemmShape, config: MirageConfig, dataflow: str = "DF1"
) -> Tuple[float, int]:
    """``(seconds, rounds)`` of one GEMM on Mirage under DF1 or DF2.

    The closed form every Mirage pricing function shares, on integers
    straight from the :class:`GemmShape` fields:
    ``ceil(ceil(rows / v) * ceil(K / g) * count / num_arrays)`` rounds
    of one reprogram plus ``stream_len`` cycles, where DF1 holds
    ``A(M, K)`` and streams ``N`` and DF2 holds ``B^T(N, K)`` and streams
    ``M``.  The tile counts equal :func:`~repro.arch.tiling.map_gemm`'s,
    so the float is bit-identical to pricing through a ``TileMapping``.
    """
    if dataflow == "DF1":
        rows, stream_len = gemm.m, gemm.n
    elif dataflow == "DF2":
        rows, stream_len = gemm.n, gemm.m
    else:
        raise ValueError(
            f"Mirage supports {MIRAGE_DATAFLOWS} (DF3 would need per-cycle "
            f"phase-shifter updates); got {dataflow!r}"
        )
    # Ceiling divisions written inline: this is the serving hot path.
    tiles = -(-rows // config.v) * -(-gemm.k // config.g) * gemm.count
    rounds = -(-tiles // config.num_arrays)
    per_tile = config.reprogram_time_s + stream_len * config.cycle_time_s
    return rounds * per_tile, rounds


def mirage_gemm_latency(
    gemm: GemmShape, config: MirageConfig, dataflow: str = "DF1"
) -> float:
    """Seconds to run one GEMM on Mirage under DF1 or DF2.

    Tiles of the stationary operand are distributed over the
    ``num_arrays`` RNS-MMVMUs; each costs one reprogram plus one cycle per
    streamed vector (:func:`mirage_gemm_cost`).
    """
    return mirage_gemm_cost(gemm, config, dataflow)[0]


def mirage_gemm_components(
    gemm: GemmShape, config: MirageConfig, dataflow: str = "DF1"
) -> Dict[str, float]:
    """Split one Mirage GEMM's latency into its physical components.

    Returns ``total_s`` (**bit-identical** to
    :func:`mirage_gemm_latency` — the same :func:`mirage_gemm_cost`),
    ``reprogram_s`` (phase-shifter settles: ``rounds * reprogram_time``,
    exact by construction) and ``stream_s`` defined as the residual
    ``total_s - reprogram_s``.  The residual convention matters for the
    hardware-attribution profiler: re-adding ``reprogram_s + stream_s``
    reproduces ``total_s`` only up to rounding, so exactness gates are
    stated on ``total_s``; the split is a reporting view.
    """
    total, rounds = mirage_gemm_cost(gemm, config, dataflow)
    reprogram = rounds * config.reprogram_time_s
    return {
        "total_s": total,
        "reprogram_s": reprogram,
        "stream_s": total - reprogram,
        "rounds": float(rounds),
    }


def mirage_latency_fn(config: MirageConfig):
    """Latency function for the dataflow schedulers."""

    def fn(tg: TrainingGemm, dataflow: str) -> float:
        return mirage_gemm_latency(tg.gemm, config, dataflow)

    return fn


# ----------------------------------------------------------------------
# Systolic baseline
# ----------------------------------------------------------------------
def systolic_gemm_latency(
    gemm: GemmShape, config: SystolicConfig, dataflow: str = "DF3"
) -> float:
    """Seconds for one GEMM on the systolic baseline.

    * DF3 (output stationary): an output tile of ``R x C`` accumulates for
      ``K`` cycles with ``R + C`` fill/drain.
    * DF1/DF2 (stationary first/second operand): loading the stationary
      tile costs ``R`` cycles, then the counter-operand streams with ``C``
      drain cycles.
    """
    r, c = config.rows, config.cols
    if dataflow == "DF3":
        tiles = _ceil_div(gemm.m, r) * _ceil_div(gemm.n, c) * gemm.count
        per_tile = gemm.k + r + c
    elif dataflow == "DF1":
        tiles = _ceil_div(gemm.m, r) * _ceil_div(gemm.k, c) * gemm.count
        per_tile = r + gemm.n + c
    elif dataflow == "DF2":
        tiles = _ceil_div(gemm.n, r) * _ceil_div(gemm.k, c) * gemm.count
        per_tile = r + gemm.m + c
    else:
        raise ValueError(f"dataflow must be one of {SYSTOLIC_DATAFLOWS}")
    rounds = _ceil_div(tiles, config.num_arrays)
    return rounds * per_tile * config.cycle_time_s


def systolic_latency_fn(config: SystolicConfig):
    """Latency function for the dataflow schedulers."""

    def fn(tg: TrainingGemm, dataflow: str) -> float:
        return systolic_gemm_latency(tg.gemm, config, dataflow)

    return fn


# ----------------------------------------------------------------------
# Step-level aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerLatency:
    """Per-layer, per-role latency under each dataflow (Fig. 7a rows)."""

    layer: str
    role: str
    latency_by_dataflow: Dict[str, float]

    def best(self) -> float:
        return min(self.latency_by_dataflow.values())


def per_layer_latencies(
    layers: Sequence[LayerShape],
    latency_fn,
    allowed: Sequence[str],
) -> List[LayerLatency]:
    """Latency of every training GEMM under every allowed dataflow."""
    out: List[LayerLatency] = []
    for layer in layers:
        for tg in training_gemms(layer):
            out.append(
                LayerLatency(
                    tg.layer,
                    tg.role,
                    {df: latency_fn(tg, df) for df in allowed},
                )
            )
    return out


def step_latency(
    layers: Sequence[LayerShape],
    latency_fn,
    allowed: Sequence[str],
    policy: str = "OPT2",
) -> float:
    """Latency of one training step under a scheduling policy.

    ``policy`` is a fixed dataflow name, ``"OPT1"`` or ``"OPT2"``.
    """
    from .dataflow import schedule_fixed, schedule_opt1, schedule_opt2

    if policy == "OPT1":
        return schedule_opt1(layers, latency_fn, allowed).total_latency
    if policy == "OPT2":
        return schedule_opt2(layers, latency_fn, allowed).total_latency
    return schedule_fixed(layers, latency_fn, policy, allowed).total_latency
