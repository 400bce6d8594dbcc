"""Bit-exactness and loud failure of the table-driven GEMM core.

The core's noiseless output must equal :func:`repro.bfp.bfp_matmul_exact`
byte for byte on every path: the fused table-driven path, the
reduce-then-CRT path taken when the fused sums would leave float64's
exact range, decode-step shapes, ragged shapes, and operands whose rows
span the whole double range (zeros, ``-0.0`` and subnormal groups
included).  The noisy path shares the exponent stage, so seeded noisy
GEMMs are pinned by digest.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tensor_core as tensor_core
from repro.bfp import bfp_matmul_exact
from repro.core import CoreConfig, PhotonicRnsTensorCore
from repro.photonic import NoiseModel
from repro.rns import ModuliSet, special_moduli_set
from repro.serve import next_token_input

EXACT = settings(derandomize=True, max_examples=60, deadline=None)

FUSED_CONFIGS = (CoreConfig(), CoreConfig(bm=3, g=8, v=8, k=None))
# M ~ 2^36: the fused sums would leave float64's exact integer range.
REDUCE_CONFIG = CoreConfig(bm=8, g=4, k=12, v=4)
DECODE_SHAPES = ((96, 48, 16), (48, 96, 16), (96, 48, 1), (10, 128, 32))


def _operands(shape, seed):
    """Rows of ``w`` scaled from 2^-1070 to 2^1000, with zeros and -0.0."""
    r, k, c = shape
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(r, k)) * np.ldexp(1.0, rng.integers(-1070, 1001, (r, 1)))
    x = rng.normal(size=(k, c)) * np.ldexp(1.0, rng.integers(-40, 1, (1, c)))
    for a in (w, x):
        a[rng.random(a.shape) < 0.15] = 0.0
        a[rng.random(a.shape) < 0.05] = -0.0
    w[rng.random(r) < 0.1] = 0.0  # whole zero rows
    return w, x


@st.composite
def gemm_cases(draw):
    cfg = draw(st.sampled_from(FUSED_CONFIGS + (REDUCE_CONFIG,)))
    if draw(st.booleans()):
        shape = draw(st.sampled_from(DECODE_SHAPES))
    else:
        shape = (
            draw(st.integers(1, 40)),
            draw(st.integers(1, 70)),
            draw(st.integers(1, 9)),
        )
    return cfg, shape, draw(st.integers(0, 2**32 - 1))


class TestBitExactAcrossRange:
    @given(gemm_cases())
    @EXACT
    def test_core_equals_reference_bytes(self, case):
        cfg, shape, seed = case
        core = PhotonicRnsTensorCore(cfg)
        w, x = _operands(shape, seed)
        ref = bfp_matmul_exact(w, x, cfg.bfp()).tobytes()
        assert core.matmul(w, x).tobytes() == ref
        pw = core.program(w)
        assert (pw.fused is None) == (cfg is REDUCE_CONFIG)
        assert core.matmul_programmed(pw, x).tobytes() == ref
        (many,) = core.matmul_many(w, [x])
        assert many.tobytes() == ref

    def test_subnormal_row_is_exact(self):
        # Before the fix: OverflowError in the core, a wrong value from
        # the reference (its mantissa scale overflowed to inf).
        w = np.zeros((1, 16))
        w[0, 0], w[0, 2] = 2.0**-1060, 3 * 2.0**-1062
        x = np.full((16, 1), 2.0**60)
        out = PhotonicRnsTensorCore().matmul(w, x)
        assert out.tobytes() == bfp_matmul_exact(w, x, CoreConfig().bfp()).tobytes()
        assert out[0, 0] == 14 * 2.0**-1003  # (8*8 + 6*8) * 2^(-1059+61-8)


    def test_moduli_set_beyond_int64(self):
        # M = 2^72 - 2^24: the CRT weights no longer fit int64.
        cfg = CoreConfig(k=24, v=8)
        w, x = _operands((9, 40, 3), 7)
        out = PhotonicRnsTensorCore(cfg).matmul(w, x)
        assert out.tobytes() == bfp_matmul_exact(w, x, cfg.bfp()).tobytes()


def _noisy_digest(noise, cfg, seed):
    core = PhotonicRnsTensorCore(cfg, noise=noise, rng=np.random.default_rng(seed))
    data = np.random.default_rng(seed + 1)
    h = hashlib.sha256()
    for r, k, c in ((96, 48, 16), (48, 96, 16), (13, 37, 5), (10, 128, 32)):
        w = data.normal(size=(r, k)) * 2.0 ** data.integers(-8, 8, size=(r, 1))
        x = data.normal(size=(k, c))
        h.update(core.matmul(w, x).tobytes())
        h.update(core.matmul_programmed(core.program(w), x).tobytes())
    return h.hexdigest()


class TestNoisyDigests:
    """Seeded noisy GEMMs, byte-identical to the per-group exponent loop
    the one-shot exponent stage replaced."""

    @pytest.mark.parametrize(
        "noise, cfg, seed, digest",
        [
            (NoiseModel(phase_error_std=0.05), None, 5,
             "950388c8b94aa0336f25e246264ae2a8428e280be783512769f2873b3f7fdbb9"),
            (NoiseModel.from_snr(40.0), None, 6,
             "adfdeaa42ea576985afc0c2f07d6802a4779a62515773b03d6695b8e4fe4c148"),
            (NoiseModel(phase_error_std=0.02), CoreConfig(bm=3, g=8, v=8, k=None), 7,
             "38c15b13445d547fca4f494a9cc28cf4d7cff9efa038bdd607edd144e3c8e02b"),
        ],
    )
    def test_digest(self, noise, cfg, seed, digest):
        assert _noisy_digest(noise, cfg, seed) == digest


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("noisy", [False, True])
class TestNonFiniteOperands:
    def _core(self, noisy):
        noise = NoiseModel(phase_error_std=0.01) if noisy else None
        return PhotonicRnsTensorCore(noise=noise, rng=np.random.default_rng(0))

    def _operands(self, bad):
        rng = np.random.default_rng(1)
        w, x = rng.normal(size=(8, 20)), rng.normal(size=(20, 3))
        w_bad, x_bad = w.copy(), x.copy()
        w_bad[3, 17] = bad
        x_bad[5, 1] = bad
        return w, x, w_bad, x_bad

    def test_core_entry_points(self, bad, noisy):
        core = self._core(noisy)
        w, x, w_bad, x_bad = self._operands(bad)
        with pytest.raises(ValueError, match="weights"):
            core.program(w_bad)
        with pytest.raises(ValueError, match="weights"):
            core.matmul(w_bad, x)
        with pytest.raises(ValueError, match="inputs"):
            core.matmul(w, x_bad)
        with pytest.raises(ValueError, match="inputs"):
            core.matmul_programmed(core.program(w), x_bad)
        with pytest.raises(ValueError, match="weights"):
            core.matmul_many(w_bad, [x, np.zeros((20, 0))])
        with pytest.raises(ValueError, match="inputs"):
            core.matmul_many(w, [x, x_bad])

    def test_reference(self, bad, noisy):
        w, x, w_bad, x_bad = self._operands(bad)
        cfg = CoreConfig().bfp()
        with pytest.raises(ValueError, match="weights"):
            bfp_matmul_exact(w_bad, x, cfg)
        with pytest.raises(ValueError, match="inputs"):
            bfp_matmul_exact(w, x_bad, cfg)


class TestLevelTableGuard:
    """Mantissae outside [-L, L] must fail as loudly as ``from_signed``
    did: an OverflowError, never an IndexError or a wrapped index."""

    @pytest.mark.parametrize("value", [16, -16, np.iinfo(np.int64).min])
    def test_out_of_range_mantissa_raises(self, monkeypatch, value):
        core = PhotonicRnsTensorCore()
        rng = np.random.default_rng(2)
        pw = core.program(rng.normal(size=(8, 32)))
        encode = tensor_core.bfp_encode_matrix

        def corrupt(matrix, config):
            mant, exps = encode(matrix, config)
            mant[0, 1, 3] = value
            return mant, exps

        monkeypatch.setattr(tensor_core, "bfp_encode_matrix", corrupt)
        with pytest.raises(OverflowError):
            core.matmul_programmed(pw, rng.normal(size=(32, 2)))


class TestModuliSetRange:
    def test_dynamic_range_computed_once(self):
        mset = ModuliSet((65521, 65519, 65497, 65479))
        assert mset.dynamic_range == 65521 * 65519 * 65497 * 65479
        # A product recomputed per access would be a fresh int object.
        assert mset.dynamic_range is mset.dynamic_range
        assert special_moduli_set(5).psi == (31 * 32 * 33 - 1) // 2


class TestBatchedTokenRecurrence:
    def _per_row(self, row):
        scale = float(np.max(np.abs(row))) if row.size else 0.0
        return row / scale if scale > 1.0 else row

    def test_batch_equals_per_row_bytes(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(9, 48)) * np.ldexp(1.0, rng.integers(-3, 4, (9, 1)))
        batch[1] = 0.0
        batch[2, ::3] = -0.0
        batch[3, 5] = np.nan
        batch[4, 7] = np.inf
        batch[5] = 5e-324 * np.arange(48)
        batch[6] = -1.0
        with np.errstate(invalid="ignore"):  # inf / inf in the inf row
            out = next_token_input(batch)
            assert out.shape == batch.shape
            for i, row in enumerate(batch):
                assert out[i].tobytes() == self._per_row(row).tobytes()
                assert next_token_input(row).tobytes() == out[i].tobytes()

    def test_empty_rows(self):
        assert next_token_input(np.zeros((3, 0))).shape == (3, 0)
        assert next_token_input(np.zeros(0)).shape == (0,)
