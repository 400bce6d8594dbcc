"""Synthetic datasets standing in for ImageNet / VOC2012 / IWSLT14.

The paper's accuracy study (Table I, Fig. 5a) needs tasks where number
formats separate: FP32-like formats must track the baseline while bm=3 BFP
and INT8 visibly degrade.  These generators produce offline, deterministic
datasets that exercise the identical code paths (conv GEMMs, attention
GEMMs, bbox regression) at laptop scale:

* :func:`make_shape_images` — multi-class images of parameterised geometric
  patterns with nuisance noise/shift (classification; stands in for
  ImageNet).
* :func:`make_detection_set` — one bright object per image, class + bbox
  targets (detection; stands in for PASCAL VOC).
* :func:`make_translation_set` — deterministic token-level "translation"
  (offset + reversal) with padding (seq2seq; stands in for IWSLT14 De-En).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..determinism import resolve_rng

__all__ = [
    "ArrayDataset",
    "batches",
    "make_shape_images",
    "make_detection_set",
    "make_translation_set",
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
]

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
_NUM_SPECIAL = 3


@dataclass(eq=False)
class ArrayDataset:
    """A bundle of aligned arrays with a length (compared by identity)."""

    inputs: np.ndarray
    targets: np.ndarray
    extras: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.inputs)


def batches(
    dataset: ArrayDataset,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Yield mini-batches, optionally shuffled."""
    n = len(dataset)
    order = np.arange(n)
    if shuffle:
        resolve_rng(rng).shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        if dataset.extras is None:
            yield dataset.inputs[idx], dataset.targets[idx]
        else:
            yield dataset.inputs[idx], dataset.targets[idx], dataset.extras[idx]


def _render_pattern(
    cls: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Render one of several parameterised patterns on a (size, size) canvas.

    Classes cycle through pattern families (bars, checker, disc, cross,
    rings, gradient ramps, ...) with per-sample jitter, so classification
    needs real spatial features rather than mean intensity.
    """
    img = np.zeros((size, size), dtype=np.float64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cx = size / 2 + rng.uniform(-size / 6, size / 6)
    cy = size / 2 + rng.uniform(-size / 6, size / 6)
    family = cls % 8
    phase = rng.uniform(0, np.pi)
    freq = 2 * np.pi * (1 + cls // 8) / size
    if family == 0:  # vertical bars
        img = np.sin(freq * 3 * xx + phase)
    elif family == 1:  # horizontal bars
        img = np.sin(freq * 3 * yy + phase)
    elif family == 2:  # checkerboard
        img = np.sin(freq * 3 * xx + phase) * np.sin(freq * 3 * yy + phase)
    elif family == 3:  # filled disc
        r = np.hypot(xx - cx, yy - cy)
        img = (r < size / 4).astype(np.float64)
    elif family == 4:  # cross
        w = max(1, size // 8)
        img[(np.abs(yy - cy) < w) | (np.abs(xx - cx) < w)] = 1.0
    elif family == 5:  # concentric rings
        r = np.hypot(xx - cx, yy - cy)
        img = np.sin(freq * 4 * r + phase)
    elif family == 6:  # diagonal ramp
        img = np.sin(freq * 2 * (xx + yy) + phase)
    else:  # corner blob
        r = np.hypot(xx - cx * 0.5, yy - cy * 0.5)
        img = np.exp(-(r**2) / (2 * (size / 5) ** 2))
    return img


def make_shape_images(
    num_classes: int = 8,
    samples_per_class: int = 40,
    image_size: int = 16,
    channels: int = 1,
    noise: float = 0.35,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Synthetic image classification set; returns (train, test).

    Noise level is chosen so FP32 reaches high accuracy while aggressive
    quantisation visibly degrades — mirroring the paper's Fig. 5a regime.
    """
    rng = np.random.default_rng(seed)
    total = num_classes * samples_per_class
    images = np.zeros((total, channels, image_size, image_size))
    labels = np.zeros(total, dtype=np.int64)
    i = 0
    for cls in range(num_classes):
        for _ in range(samples_per_class):
            base = _render_pattern(cls, image_size, rng)
            for ch in range(channels):
                images[i, ch] = base + rng.normal(0, noise, base.shape)
            labels[i] = cls
            i += 1
    order = rng.permutation(total)
    images, labels = images[order], labels[order]
    split = int(0.8 * total)
    train = ArrayDataset(images[:split], labels[:split])
    test = ArrayDataset(images[split:], labels[split:])
    return train, test


def make_detection_set(
    num_classes: int = 4,
    num_samples: int = 240,
    image_size: int = 16,
    noise: float = 0.25,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Single-object detection: targets are (cx, cy, w, h) in [0,1] + class.

    ``targets`` holds the class id; ``extras`` holds the normalised box.
    """
    rng = np.random.default_rng(seed)
    images = np.zeros((num_samples, 1, image_size, image_size))
    labels = np.zeros(num_samples, dtype=np.int64)
    boxes = np.zeros((num_samples, 4))
    for i in range(num_samples):
        cls = int(rng.integers(num_classes))
        w = rng.uniform(0.25, 0.5)
        h = rng.uniform(0.25, 0.5)
        cx = rng.uniform(w / 2, 1 - w / 2)
        cy = rng.uniform(h / 2, 1 - h / 2)
        x0 = int((cx - w / 2) * image_size)
        x1 = max(x0 + 1, int((cx + w / 2) * image_size))
        y0 = int((cy - h / 2) * image_size)
        y1 = max(y0 + 1, int((cy + h / 2) * image_size))
        patch = _render_pattern(cls, max(2, y1 - y0), rng)
        canvas = np.zeros((image_size, image_size))
        ph = min(patch.shape[0], y1 - y0)
        pw = min(patch.shape[1], x1 - x0)
        canvas[y0 : y0 + ph, x0 : x0 + pw] = patch[:ph, :pw] + 1.0
        images[i, 0] = canvas + rng.normal(0, noise, canvas.shape)
        labels[i] = cls
        boxes[i] = (cx, cy, w, h)
    split = int(0.8 * num_samples)
    train = ArrayDataset(images[:split], labels[:split], boxes[:split])
    test = ArrayDataset(images[split:], labels[split:], boxes[split:])
    return train, test


def make_translation_set(
    vocab_size: int = 32,
    num_samples: int = 300,
    length: int = 10,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Deterministic toy translation: output = reversed input with a
    vocabulary rotation (a bijective 'language' mapping).

    Returns datasets whose ``inputs`` are source token ids (N, T) and
    ``targets`` are target ids including BOS/EOS, shape (N, T + 2).
    """
    if vocab_size <= _NUM_SPECIAL + 1:
        raise ValueError("vocab too small")
    rng = np.random.default_rng(seed)
    content = vocab_size - _NUM_SPECIAL
    src = rng.integers(_NUM_SPECIAL, vocab_size, size=(num_samples, length))
    # 'Translation': reverse order, rotate token identity by a fixed shift.
    shift = content // 2
    rotated = (src - _NUM_SPECIAL + shift) % content + _NUM_SPECIAL
    tgt_core = rotated[:, ::-1]
    tgt = np.full((num_samples, length + 2), PAD_ID, dtype=np.int64)
    tgt[:, 0] = BOS_ID
    tgt[:, 1:-1] = tgt_core
    tgt[:, -1] = EOS_ID
    split = int(0.8 * num_samples)
    train = ArrayDataset(src[:split].astype(np.int64), tgt[:split])
    test = ArrayDataset(src[split:].astype(np.int64), tgt[split:])
    return train, test
