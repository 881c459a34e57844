import math

import numpy as np
import pytest

from evprep import (
    DepthConfig,
    PatchGrid,
    denormalize_depth,
    masked_mse,
    normalize_depth,
    normalize_patches,
    sample_tube_mask,
    trail_energy,
)

from evprep.errors import GeometryError

from conftest import sequence_loss

GRID = PatchGrid(patch_size=4, height=16, width=16)
MASK = sample_tube_mask(GRID, 0.5, seed=11)


def test_perfect_prediction_zero_loss(rng):
    target = rng.normal(size=(16, 16))
    assert masked_mse(target, target, MASK, GRID) == 0.0


def test_constant_offset():
    target = np.zeros((16, 16))
    assert masked_mse(target + 1.0, target, MASK, GRID) == pytest.approx(1.0)


def test_normalized_target_affine_invariance(rng):
    target = rng.normal(size=(16, 16))
    pred = rng.normal(size=(16, 16))
    a = masked_mse(pred, normalize_patches(target, GRID), MASK, GRID)
    b = masked_mse(pred, normalize_patches(3.0 * target + 5.0, GRID), MASK, GRID)
    assert b == pytest.approx(a, rel=1e-5)


def test_empty_mask_rejected(rng):
    empty = sample_tube_mask(GRID, 0.0, seed=0)
    target = rng.normal(size=(16, 16))
    with pytest.raises(ValueError):
        masked_mse(target, target, empty, GRID)


def test_sequence_single_stage_reduces_to_masked_mse(rng):
    pred = rng.normal(size=(16, 16))
    target = rng.normal(size=(16, 16))
    report = sequence_loss([pred], [target], MASK, GRID)
    assert report.loss == pytest.approx(
        masked_mse(pred, normalize_patches(target, GRID), MASK, GRID)
    )
    assert report.masked_patch_count == MASK.num_masked


def test_sequence_duplicate_pair_unchanged(rng):
    pred = rng.normal(size=(16, 16))
    target = rng.normal(size=(16, 16))
    one = sequence_loss([pred], [target], MASK, GRID)
    two = sequence_loss([pred, pred], [target, target], MASK, GRID)
    assert two.loss == pytest.approx(one.loss)


def test_sequence_mean_of_stage_losses():
    # construct stages with known per-stage losses 0.5 and 1.5
    target = np.zeros((16, 16))
    norm = np.zeros((16, 16))  # constant target normalizes to 0
    p1 = norm + math.sqrt(0.5)
    p2 = norm + math.sqrt(1.5)
    report = sequence_loss([p1, p2], [target, target], MASK, GRID)
    assert report.per_stage_losses == pytest.approx([0.5, 1.5])
    assert report.loss == pytest.approx(1.0)


def test_sequence_length_mismatch(rng):
    x = rng.normal(size=(16, 16))
    with pytest.raises(ValueError):
        sequence_loss([x], [x, x], MASK, GRID)


def test_trail_energy_zero_frames():
    region = np.zeros((16, 16), dtype=bool)
    region[4:8, 4:8] = True
    energies = trail_energy([np.zeros((16, 16))] * 3, region)
    assert energies == [0.0, 0.0, 0.0]


def test_trail_energy_of_float32_extremes():
    region = np.zeros((16, 16), dtype=bool)
    region[4:8, 4:8] = True
    frame = np.full((16, 16), 3e38, dtype=np.float32)
    frame[4:6] *= -1
    assert trail_energy([frame], region) == [float(np.float32(3e38))]


def test_trail_energy_empty_region():
    with pytest.raises(ValueError):
        trail_energy([np.zeros((16, 16))], np.zeros((16, 16), dtype=bool))


def test_depth_endpoints():
    cfg = DepthConfig(d_max=80.0, alpha=3.7)
    assert normalize_depth(cfg.d_max, cfg) == pytest.approx(1.0)
    assert normalize_depth(cfg.d_min, cfg) == pytest.approx(0.0, abs=1e-12)
    assert cfg.d_min == pytest.approx(80.0 * math.exp(-3.7), rel=1e-12)


def test_depth_roundtrip():
    cfg = DepthConfig(d_max=80.0, alpha=3.7)
    d = np.linspace(cfg.d_min, cfg.d_max, 1000)
    back = denormalize_depth(normalize_depth(d, cfg), cfg)
    np.testing.assert_allclose(back, d, rtol=1e-12)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: masked_mse(np.zeros((16, 16)), np.zeros((16, 15)), MASK, GRID),
                     GeometryError, "prediction/target shape mismatch", id="shape"),
        pytest.param(lambda: DepthConfig(d_max=0.0), ValueError,
                     "d_max and alpha must be positive", id="d_max"),
        pytest.param(lambda: DepthConfig(alpha=-1.0), ValueError,
                     "d_max and alpha must be positive", id="alpha"),
    ],
)
def test_bad_arguments_rejected(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_depth_rejects_nonpositive():
    cfg = DepthConfig()
    with pytest.raises(ValueError):
        normalize_depth(0.0, cfg)
