import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprep import (
    PatchGrid,
    apply_mask,
    normalize_patches,
    sample_tube_mask,
)
from evprep.errors import FormatError, GeometryError
from evprep.masking import deserialize_mask, serialize_mask

GRID = PatchGrid(patch_size=4, height=16, width=24)  # 4x6 = 24 patches


def test_ratio_zero_and_one():
    assert sample_tube_mask(GRID, 0.0, seed=1).num_masked == 0
    assert sample_tube_mask(GRID, 1.0, seed=1).num_masked == GRID.num_patches


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_exact_masked_count(ratio):
    mask = sample_tube_mask(GRID, ratio, seed=7)
    assert mask.num_masked == round(ratio * GRID.num_patches)


def test_seed_determinism_and_variation():
    a = sample_tube_mask(GRID, 0.5, seed=3)
    b = sample_tube_mask(GRID, 0.5, seed=3)
    assert np.array_equal(a.masked, b.masked)
    others = [sample_tube_mask(GRID, 0.5, seed=s).masked for s in range(50)]
    assert any(not np.array_equal(a.masked, o) for o in others)


def test_apply_empty_mask_is_identity_plus_indicator(rng):
    x = rng.normal(size=(6, GRID.height, GRID.width)).astype(np.float32)
    out = apply_mask(x, sample_tube_mask(GRID, 0.0, seed=0), GRID)
    assert out.shape == (7, GRID.height, GRID.width)
    assert np.array_equal(out[:-1], x)
    assert not out[-1].any()


def test_apply_full_mask(rng):
    x = rng.normal(size=(6, GRID.height, GRID.width)).astype(np.float32)
    out = apply_mask(x, sample_tube_mask(GRID, 1.0, seed=0), GRID)
    assert not out[:-1].any()
    assert (out[-1] == 1).all()


def test_apply_single_patch_zeroes_p_squared_pixels(rng):
    x = rng.normal(size=(3, GRID.height, GRID.width)).astype(np.float64)
    x[np.abs(x) < 1e-3] = 1.0  # no accidental zeros
    mask = sample_tube_mask(GRID, 1.0 / GRID.num_patches, seed=5)
    assert mask.num_masked == 1
    out = apply_mask(x, mask, GRID)
    for c in range(3):
        assert (out[c] == 0).sum() == GRID.patch_size**2


def test_apply_mask_idempotent(rng):
    x = rng.normal(size=(4, GRID.height, GRID.width))
    mask = sample_tube_mask(GRID, 0.5, seed=2)
    once = apply_mask(x, mask, GRID)
    twice = apply_mask(once[:-1], mask, GRID)
    assert np.array_equal(once, twice)


def test_apply_shape_mismatch():
    with pytest.raises(GeometryError):
        apply_mask(np.zeros((3, 8, 8)), sample_tube_mask(GRID, 0.5, seed=0), GRID)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: PatchGrid(0, 16, 24), ValueError, "patch size must be positive",
                     id="patch-size"),
        pytest.param(lambda: sample_tube_mask(GRID, 1.5, seed=0), ValueError,
                     "ratio must be in [0, 1]", id="ratio"),
        pytest.param(lambda: normalize_patches(np.zeros((16, 23)), GRID), GeometryError,
                     "target shape (16, 23) does not match grid 16x24", id="target-shape"),
        # the header's u32 would store 5, which samples another mask
        pytest.param(lambda: serialize_mask(sample_tube_mask(GRID, 0.5, seed=2**32 + 5)),
                     ValueError, "mask seed 4294967301 does not fit the TUBE header's u32",
                     id="seed-beyond-u32"),
    ],
)
def test_bad_arguments_rejected(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_mask_from_another_grid_rejected():
    """A P = 5 mask (4x7 patches) on the 2x4 patch grid of P = 8, 32x16."""
    mask = sample_tube_mask(PatchGrid(5, 16, 32), 0.5, seed=0)
    grid = PatchGrid(8, 16, 32)
    with pytest.raises(GeometryError, match="4x7"):
        mask.pixel_mask(grid)
    with pytest.raises(GeometryError, match="2x4"):
        apply_mask(np.zeros((3, 16, 32)), mask, grid)


def test_normalize_constant_patch_is_zero():
    target = np.full((GRID.height, GRID.width), 7.0)
    out = normalize_patches(target, GRID)
    assert np.abs(out).max() < 1e-6


def test_normalize_two_value_patch():
    grid = PatchGrid(patch_size=2, height=2, width=2)
    target = np.array([[0.0, 2.0], [0.0, 2.0]])
    out = normalize_patches(target, grid)
    np.testing.assert_allclose(out, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-6)


def test_normalize_affine_invariance(rng):
    target = rng.normal(size=(GRID.height, GRID.width))
    a = normalize_patches(target, GRID)
    b = normalize_patches(3.0 * target + 5.0, GRID)
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_normalize_stats(rng):
    target = rng.normal(size=(GRID.height, GRID.width))
    out = normalize_patches(target, GRID)
    P = GRID.patch_size
    for r in range(GRID.grid_h):
        for c in range(GRID.grid_w):
            patch = out[r * P : (r + 1) * P, c * P : (c + 1) * P]
            assert abs(patch.mean()) < 1e-6
            assert patch.var() == pytest.approx(1.0, rel=1e-3)


def test_padding_grid_geometry():
    grid = PatchGrid(patch_size=32, height=40, width=70)
    assert (grid.grid_h, grid.grid_w) == (2, 3)
    # edge patches use only real pixels
    target = np.ones((40, 70))
    out = normalize_patches(target, grid)
    assert np.abs(out).max() < 1e-2


@given(st.integers(1, 6), st.integers(1, 13), st.integers(1, 13), st.integers(1, 3))
@example(4, 7, 9, 1)  # ragged on both sides
@example(5, 3, 2, 1)  # P > H and P > W: one padded patch
@example(8, 16, 3, 2)  # P > W only
@settings(max_examples=60, deadline=None)
def test_patch_matrix_layout_and_frame_round_trip(P, H, W, C):
    grid = PatchGrid(P, H, W)
    x = np.arange(1, C * H * W + 1, dtype=np.float64).reshape(C, H, W)
    patches = grid.patches(x)
    assert patches.shape == (grid.num_patches, C * P * P)
    assert not np.shares_memory(patches, x)
    for k in range(grid.num_patches):
        rows, cols = grid.patch_slices(*divmod(k, grid.grid_w))
        patch = patches[k].reshape(C, P, P)
        h, w = rows.stop - rows.start, cols.stop - cols.start
        assert np.array_equal(patch[:, :h, :w], x[:, rows, cols])
        assert patch.sum() == x[:, rows, cols].sum()  # the padding is zero
    frame = grid.frame(patches[:, : P * P])
    assert frame.shape == (H, W) and not np.shares_memory(frame, patches)
    assert np.array_equal(frame, x[0])


@pytest.mark.parametrize("shape", [(1, 0, 0), (1, 0, 6), (3, 6, 9)])
def test_blocks_is_a_view_of_whole_patches(shape):
    grid = PatchGrid(3, 6, 9)
    tensor = np.arange(int(np.prod(shape))).reshape(shape)
    blocks = grid.blocks(tensor)
    assert blocks.shape == (shape[1] // 3, shape[2] // 3, shape[0], 3, 3)
    assert blocks.size == 0 or np.shares_memory(blocks, tensor)
    for row, col in np.ndindex(blocks.shape[:2]):
        rows, cols = grid.patch_slices(row, col)
        assert np.array_equal(blocks[row, col], tensor[:, rows, cols])


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("P, H, W", [(4, 8, 4), (4, 4, 8), (4, 4, 4)], ids=["W=P", "H=P", "H=W=P"])
def test_normalize_leaves_its_input_alone(rng, dtype, P, H, W):
    target = (100 * rng.random((H, W))).astype(dtype)
    before = target.copy()
    out = normalize_patches(target, PatchGrid(P, H, W))
    rtol = 1e-5 if dtype == np.float32 else 1e-9  # float32 stats are taken in float32
    assert np.array_equal(target, before) and not np.shares_memory(out, target)
    for top in range(0, H, P):
        for left in range(0, W, P):
            patch = before[top : top + P, left : left + P].astype(np.float64)
            expected = (patch - patch.mean()) / np.sqrt(patch.var() + 1e-6)
            np.testing.assert_allclose(out[top : top + P, left : left + P], expected, rtol=rtol)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(2**32 - 1, 0.5)  # the largest seed the header's u32 holds
@settings(max_examples=50, deadline=None)
def test_mask_serialization_roundtrip(seed, ratio):
    mask = sample_tube_mask(GRID, ratio, seed=seed)
    back = deserialize_mask(serialize_mask(mask))
    assert np.array_equal(back.masked, mask.masked)
    assert back.rng_seed == seed


def test_deserialize_rejects_garbage():
    with pytest.raises(FormatError):
        deserialize_mask(b"NOPE" + b"\x00" * 16)


def test_deserialize_checks_payload_length():
    """A 4x8 grid packs into exactly 4 bytes after the 12-byte header."""
    grid = PatchGrid(patch_size=4, height=16, width=32)
    blob = serialize_mask(sample_tube_mask(grid, 0.5, seed=3))
    assert len(blob) == 16
    for length in range(12, len(blob)):
        with pytest.raises(FormatError, match=f"payload of {length - 12} bytes, expected 4"):
            deserialize_mask(blob[:length])
    with pytest.raises(FormatError, match="payload of 5 bytes, expected 4"):
        deserialize_mask(blob + b"\x00")
