from dataclasses import dataclass

import numpy as np
import pytest

from evprep import MovingDisc, SceneSpec, SensorGeometry, make_events, masked_mse, normalize_patches


def disc_scene(
    width=32,
    height=16,
    radius=2.5,
    disc_level=1.5,
    background=0.0,
    duration_us=100_000,
    sample_interval_us=1000,
    threshold=1.0,
    y=8.0,
    x0=4.0,
    x1=28.0,
):
    """Bright disc crossing a dark background left to right."""
    disc = MovingDisc(
        knots=[(0, x0, y), (duration_us, x1, y)],
        radius=radius,
        logintensity=disc_level,
    )
    return SceneSpec(
        geometry=SensorGeometry(width, height),
        background_logintensity=background,
        objects=[disc],
        duration_us=duration_us,
        threshold=threshold,
        sample_interval_us=sample_interval_us,
    )


def stop_motion_scene(duration_us=120_000, **kw):
    """Disc moves for the first half, then freezes (no further events)."""
    half = duration_us // 2
    disc = MovingDisc(
        knots=[(0, 6.0, 8.0), (half, 24.0, 8.0), (duration_us, 24.0, 8.0)],
        radius=2.5,
        logintensity=1.5,
    )
    return SceneSpec(
        geometry=SensorGeometry(32, 16),
        background_logintensity=0.0,
        objects=[disc],
        duration_us=duration_us,
        threshold=1.0,
        sample_interval_us=1000,
    )


def lockstep_scene(knot_fn, duration_us):
    """One disc per 8x8 patch of a 32x16 frame, all moving in lockstep.

    Every patch sees identical content, so a weight-shared per-patch
    model can actually reconstruct masked patches.
    """
    discs = []
    for row in range(2):
        for col in range(4):
            cx, cy = 8 * col + 2.0, 8 * row + 4.0
            discs.append(
                MovingDisc(knots=knot_fn(cx, cy), radius=2.0, logintensity=1.5)
            )
    return SceneSpec(
        geometry=SensorGeometry(32, 16),
        background_logintensity=0.0,
        objects=discs,
        duration_us=duration_us,
        threshold=1.0,
        sample_interval_us=1000,
    )


def training_scene():
    """Canonical pre-training scene: lockstep discs drifting right."""
    return lockstep_scene(
        lambda cx, cy: [(0, cx, cy), (100_000, cx + 4.0, cy)], 100_000
    )


def freeze_scene():
    """Discs move, freeze, move again, freeze: the silent stages have
    different targets, so only a model with memory can tell them apart."""
    return lockstep_scene(
        lambda cx, cy: [
            (0, cx, cy),
            (20_000, cx + 2.0, cy),
            (40_000, cx + 2.0, cy),
            (60_000, cx + 4.0, cy),
            (80_000, cx + 4.0, cy),
        ],
        80_000,
    )


@dataclass
class MaskedLossReport:
    loss: float
    masked_patch_count: int
    per_stage_losses: list[float]


def sequence_loss(predictions, targets, mask, grid) -> MaskedLossReport:
    """Per-stage masked MSE against patch-normalized targets, averaged.

    Targets are the intensity-video snapshots at segment boundaries.
    """
    if len(predictions) != len(targets):
        raise ValueError(
            f"got {len(predictions)} predictions but {len(targets)} targets"
        )
    if not predictions:
        raise ValueError("need at least one stage")
    per_stage = [
        masked_mse(p, normalize_patches(t, grid), mask, grid)
        for p, t in zip(predictions, targets)
    ]
    return MaskedLossReport(
        loss=float(np.mean(per_stage)),
        masked_patch_count=mask.num_masked,
        per_stage_losses=per_stage,
    )


def synthetic_events(n, geometry, duration_us, seed=0):
    """Uniform random sorted stream for benchmarking."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, duration_us, size=n))
    return make_events(
        t,
        rng.integers(0, geometry.width, size=n),
        rng.integers(0, geometry.height, size=n),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
    )


@pytest.fixture
def scene():
    return disc_scene()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
