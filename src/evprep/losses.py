"""Masked reconstruction losses, trail-energy diagnostic, depth normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evprep.errors import GeometryError
from evprep.masking import PatchGrid, TubeMask


def masked_mse(
    prediction: np.ndarray,
    target: np.ndarray,
    mask: TubeMask,
    grid: PatchGrid,
) -> float:
    """Mean squared error over pixels of masked patches only."""
    if prediction.shape != target.shape:
        raise GeometryError("prediction/target shape mismatch")
    if mask.num_masked == 0:
        raise ValueError("mask is empty; masked MSE undefined")
    pix = mask.pixel_mask(grid)
    diff = prediction[pix] - target[pix]
    return float(np.mean(diff * diff))


def trail_energy(frames: list[np.ndarray], region: np.ndarray) -> list[float]:
    """Mean absolute frame value over the trail region, per frame."""
    if not region.any():
        raise ValueError("trail region is empty")
    return [float(np.mean(np.abs(f[region]), dtype=np.float64)) for f in frames]


@dataclass(frozen=True)
class DepthConfig:
    """Log-depth normalization range; d_min is implied by d_max * e^-alpha."""

    d_max: float = 80.0
    alpha: float = 3.7

    def __post_init__(self):
        if self.d_max <= 0 or self.alpha <= 0:
            raise ValueError("d_max and alpha must be positive")

    @property
    def d_min(self) -> float:
        return self.d_max * math.exp(-self.alpha)


def normalize_depth(d, config: DepthConfig):
    """Map metric depth to [0, 1]-ish log scale: d_max -> 1, d_min -> 0."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("depth must be positive")
    return np.log(d / config.d_max) / config.alpha + 1.0


def denormalize_depth(d_hat, config: DepthConfig):
    """Inverse of :func:`normalize_depth`."""
    d_hat = np.asarray(d_hat, dtype=np.float64)
    return config.d_max * np.exp(config.alpha * (d_hat - 1.0))
