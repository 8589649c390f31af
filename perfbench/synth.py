"""Seeded MNIST-shaped synthetic data for the benchmark workloads.

Each class has a fixed 28x28 stroke prototype.  A sample blends its own
class prototype with the other class's at a random weight, shifts it by up
to two pixels, scales its intensity and adds pixel noise.  Blends near the
middle are ambiguous, so test accuracy stays well below 1.0 and the solver
has bounded support vectors to work on.  A seed draws only the per-sample
variation, not the prototypes, so every seed is equally hard.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
CLASSES = (6, 9)
DIMS = (4, 7, 4, 7)  # 28x28 images reshaped as in the paper's MNIST runs
MIX_LOW = 0.4  # a sample's own prototype weighs between MIX_LOW and 1
SHIFT = 2
NOISE = 0.2


def _stroke(img, points, width):
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    for (y0, x0), (y1, x1) in zip(points[:-1], points[1:]):
        t = np.clip(((yy - y0) * (y1 - y0) + (xx - x0) * (x1 - x0))
                    / max((y1 - y0) ** 2 + (x1 - x0) ** 2, 1e-9), 0.0, 1.0)
        d2 = (yy - (y0 + t * (y1 - y0))) ** 2 + (xx - (x0 + t * (x1 - x0))) ** 2
        img = np.maximum(img, np.exp(-d2 / (2.0 * width ** 2)))
    return img


def prototypes() -> tuple[np.ndarray, np.ndarray]:
    """Fixed images of a "6" and of a "9", the "9" being the "6" turned over."""
    angle = np.linspace(np.pi, 3.0 * np.pi, 25)  # loop starts at its left side
    loop = [(18 + 5 * np.sin(a), 14 + 5 * np.cos(a)) for a in angle]
    six = _stroke(np.zeros((SIDE, SIDE)), loop + [(18, 9), (10, 11), (4, 16)], 1.2)
    return six, six[::-1, ::-1].copy()


def draw(rng: np.random.Generator, cls: int, count: int) -> np.ndarray:
    """``count`` samples of class index ``cls`` (0 or 1), shape (count, *DIMS)."""
    protos = prototypes()
    own, other = protos[cls], protos[1 - cls]
    out = np.empty((count, SIDE, SIDE))
    for i in range(count):
        w = rng.uniform(MIX_LOW, 1.0)
        img = w * own + (1.0 - w) * other
        img = np.roll(img, tuple(rng.integers(-SHIFT, SHIFT + 1, size=2)), axis=(0, 1))
        img = img * rng.uniform(0.7, 1.0) + NOISE * rng.standard_normal((SIDE, SIDE))
        out[i] = np.clip(img, 0.0, 1.0)
    # row-major pixel order, as an MNIST image flattened then reshaped
    return out.reshape((count,) + DIMS)


def split(rng: np.random.Generator, per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """``per_class`` samples of each class in seeded order, and their labels."""
    x = np.concatenate([draw(rng, 0, per_class), draw(rng, 1, per_class)])
    order = rng.permutation(2 * per_class)
    return x[order], np.repeat(CLASSES, per_class)[order]
