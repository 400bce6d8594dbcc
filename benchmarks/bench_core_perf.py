"""Core GEMM performance trajectory — the one-pass batched engine.

Times the functional photonic core at three GEMM sizes plus the
weight-static streaming path and writes ``BENCH_core_gemm.json`` at the
repo root so future PRs inherit a perf baseline.  ``SEED_BASELINE`` holds
the timings of the original per-tile double-loop implementation (commit
672c752, this machine) for the before/after record.

A wall-clock budget guards against regressions: the 512x512x256 GEMM must
finish within ``REPRO_BENCH_BUDGET`` seconds (default 1.0 — roughly 5x the
one-pass engine's time, far below the 2.3 s of the per-tile loop), so a
return to per-tile execution fails loudly.

The decode-step shapes (a 96x48 and a 48x96 weight streamed against 16
columns) are timed per weight-static call and recorded as a ratio to a
plain ``w @ x`` at the same shape, timed in the same process, so their
gate (``DECODE_RATIO_BUDGET``) holds on any machine.  At these shapes
the cost is per-call overhead, not arithmetic.

``REPRO_SMOKE=1`` (the plain test tier collects this file in smoke mode)
runs a tiny-shape, single-round pass plus one untimed call per decode
shape, checking every output bit-exact — it neither writes
``BENCH_core_gemm.json`` nor enforces either budget.

Run:  REPRO_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_core_perf.py -s
(without ``REPRO_FULL=1`` the root conftest forces the smoke pass).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bfp import BFPConfig, bfp_matmul_exact
from repro.core import PhotonicRnsTensorCore

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"

GEMM_SIZES = (
    ((32, 32, 16), (64, 64, 32))
    if SMOKE
    else ((128, 128, 64), (256, 256, 128), (512, 512, 256))
)

# Per-tile loop implementation (seed commit 672c752), same machine/sizes.
SEED_BASELINE = {
    "gemm_128x128x64": 0.0515,
    "gemm_256x256x128": 0.4207,
    "gemm_512x512x256": 2.3456,
    "weight_static_512x512x256": 2.3456,  # seed had no weight-static path
}

BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET", "1.0"))

# Decode-step GEMMs of the token engine's surrogate model.
DECODE_SHAPES = ((96, 48, 16), (48, 96, 16))
# Weight-static call time over plain ``w @ x`` time at the same shape.
DECODE_RATIO_BUDGET = 45.0


def _best_of(fn, rounds=None):
    rounds = rounds if rounds is not None else (1 if SMOKE else 3)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _us_per_call(fn):
    """Best-of-rounds mean time of one ``fn()`` call, in microseconds."""
    calls, rounds = (1, 1) if SMOKE else (400, 7)
    return 1e6 * _best_of(lambda: [fn() for _ in range(calls)], rounds) / calls


def _decode_shape_rows(core, rng):
    """(weight-static µs/call, plain ``w @ x`` µs/call) per decode shape."""
    rows = {}
    for r, k, c in DECODE_SHAPES:
        w = rng.normal(size=(r, k))
        x = rng.normal(size=(k, c))
        pw = core.program(w)
        assert np.array_equal(
            core.matmul_programmed(pw, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )
        rows[f"{r}x{k}x{c}"] = (
            _us_per_call(lambda: core.matmul_programmed(pw, x)),
            _us_per_call(lambda: w @ x),
        )
    return rows


def test_core_gemm_perf():
    rng = np.random.default_rng(0)
    core = PhotonicRnsTensorCore()
    results = {}

    for r, k, c in GEMM_SIZES:
        w = rng.normal(size=(r, k))
        x = rng.normal(size=(k, c))
        core.matmul(w[: min(r, 32)], x[:, : min(c, 8)])  # warm caches
        results[f"gemm_{r}x{k}x{c}"] = _best_of(lambda: core.matmul(w, x))

    # Weight-static streaming: program once, stream activations.
    r, k, c = GEMM_SIZES[-1]
    w = rng.normal(size=(r, k))
    x = rng.normal(size=(k, c))
    pw = core.program(w)
    results[f"weight_static_{r}x{k}x{c}"] = _best_of(
        lambda: core.matmul_programmed(pw, x)
    )

    # Still bit-exact at the largest size.
    assert np.array_equal(
        core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
    )
    decode = _decode_shape_rows(core, rng)

    if SMOKE:
        print("\ncore GEMM smoke pass (tiny shapes, untimed):")
        for key, val in results.items():
            print(f"  {key:30s} {val:8.4f} s")
        return

    ratios = {key: round(us / plain, 1) for key, (us, plain) in decode.items()}

    speedups = {
        key: round(SEED_BASELINE[key] / results[key], 2) for key in results
    }
    payload = {
        "seed_baseline_s": SEED_BASELINE,
        "current_s": {key: round(val, 4) for key, val in results.items()},
        "speedup_vs_seed": speedups,
        "budget_s": BUDGET_S,
        "decode_weight_static_us_per_call": {
            key: round(us, 1) for key, (us, _) in decode.items()
        },
        "decode_plain_matmul_us_per_call": {
            key: round(plain, 2) for key, (_, plain) in decode.items()
        },
        "decode_ratio_vs_plain_matmul": ratios,
        "decode_ratio_budget": DECODE_RATIO_BUDGET,
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_core_gemm.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    print("\ncore GEMM perf (best of 3):")
    for key, val in results.items():
        print(f"  {key:30s} {val:8.4f} s   ({speedups[key]:5.1f}x vs seed)")
    for key, (us, plain) in decode.items():
        print(
            f"  weight_static_{key:15s} {us:8.1f} us/call "
            f"({ratios[key]:5.1f}x plain w @ x, {plain:.2f} us)"
        )

    big = results[f"gemm_{r}x{k}x{c}"]
    assert big <= BUDGET_S, (
        f"512x512x256 GEMM took {big:.3f} s > budget {BUDGET_S} s — "
        "the one-pass engine has regressed toward per-tile execution"
    )
    for key, ratio in ratios.items():
        assert ratio <= DECODE_RATIO_BUDGET, (
            f"decode-shape GEMM {key} costs {ratio}x a plain w @ x > "
            f"budget {DECODE_RATIO_BUDGET}x — per-call overhead has regressed"
        )
