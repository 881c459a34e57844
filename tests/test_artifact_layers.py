"""The vectorized artifact layers against the per-patch code they replaced.

``flatten_histogram``, ``apply_mask`` and ``normalize_patches`` must give
the same bytes as the oracles below, which are the earlier implementations
kept verbatim: clip with an int64 ``np.minimum`` and then cast, copy and
zero masked pixels by boolean index, and standardize one patch at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evprep import PatchGrid, StageHistogram, apply_mask, flatten_histogram, normalize_patches
from evprep.masking import TubeMask


def oracle_flatten_histogram(hist: StageHistogram) -> np.ndarray:
    counts = hist.counts
    if hist.clip_max is not None:
        counts = np.minimum(counts, hist.clip_max)
    two, B, H, W = counts.shape
    return counts.reshape(two * B, H, W).astype(np.float32)


def compact_histogram(counts: np.ndarray, clip_max) -> StageHistogram:
    """The histogram of dense ``counts``, kept as its non-zero cells."""
    cells = np.flatnonzero(counts)
    return StageHistogram(counts.shape, cells, counts.reshape(-1)[cells], clip_max)


def oracle_apply_mask(tensor: np.ndarray, mask: TubeMask, grid: PatchGrid) -> np.ndarray:
    pix = mask.pixel_mask(grid)
    out = np.empty((tensor.shape[0] + 1,) + tensor.shape[1:], dtype=tensor.dtype)
    out[:-1] = tensor
    out[:-1][:, pix] = 0
    out[-1] = pix.astype(tensor.dtype)
    return out


def oracle_normalize_patches(target: np.ndarray, grid: PatchGrid) -> np.ndarray:
    out = np.empty_like(target, dtype=np.float64)
    for row in range(grid.grid_h):
        for col in range(grid.grid_w):
            sl = grid.patch_slices(row, col)
            patch = target[sl]
            out[sl] = (patch - patch.mean()) / np.sqrt(patch.var() + 1e-6)
    return out


SPECIAL = [0.0, -0.0, 1.0, -2.5, 3e38, np.nan, np.inf, -np.inf]
FLOATS = [np.float64, np.float32, np.float16]
INTS = [np.int64, np.int32, np.int16, np.uint8]


@st.composite
def grids(draw, max_side=40):
    """Ragged grids, patches larger than the frame, and P = 1."""
    return PatchGrid(
        draw(st.integers(1, 12)), draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    )


def elements(dtype):
    """Values of ``dtype``, often repeated so that whole patches are constant."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        values = st.integers(int(info.min), int(info.max))
        common = st.sampled_from([0, 1, int(info.max)])
    else:
        info = np.finfo(dtype)
        values = st.floats(allow_nan=True, allow_infinity=True, width=info.bits)
        common = st.sampled_from([v for v in SPECIAL if not np.isfinite(v) or abs(v) <= float(info.max)])
    return st.one_of(common, values)


@st.composite
def frames(draw, grid, dtypes):
    """Frames stored row-major, column-major, or as a view with reversed rows."""
    dtype = np.dtype(draw(st.sampled_from(dtypes)))
    shape = (grid.height, grid.width)
    if draw(st.booleans()):
        frame = np.full(shape, draw(elements(dtype)), dtype=dtype)
    else:
        frame = draw(hnp.arrays(dtype, shape, elements=elements(dtype)))
    layout = draw(st.sampled_from(["C", "F", "reversed rows"]))
    if layout == "F":
        return np.asfortranarray(frame)
    if layout == "reversed rows":
        return np.ascontiguousarray(frame[::-1])[::-1]
    return frame


@st.composite
def masks(draw, grid):
    masked = draw(hnp.arrays(np.bool_, (grid.grid_h, grid.grid_w)))
    return TubeMask(masked=masked, rng_seed=0)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_normalize_patches_matches_oracle(data):
    grid = data.draw(grids())
    target = data.draw(frames(grid, FLOATS + INTS))
    with np.errstate(all="ignore"):
        assert_same_bytes(normalize_patches(target, grid), oracle_normalize_patches(target, grid))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@pytest.mark.parametrize("patch", [64, 90, 91, 128])
def test_normalize_large_patches_match_oracle(rng, patch, dtype):
    """Around numpy's default 8192-element buffer, where a patch stops
    fitting one buffer (90 * 90 = 8100, 91 * 91 = 8281)."""
    grid = PatchGrid(patch, 2 * patch + 3, 2 * patch + 1)
    target = (rng.normal(size=(grid.height, grid.width)) * 1e3).astype(dtype)
    assert_same_bytes(normalize_patches(target, grid), oracle_normalize_patches(target, grid))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_apply_mask_matches_oracle(data):
    grid = data.draw(grids(max_side=24))
    mask = data.draw(masks(grid))
    channels = data.draw(st.integers(1, 4))
    dtype = np.dtype(data.draw(st.sampled_from(FLOATS + INTS + [np.bool_])))
    if dtype == np.bool_:
        tensor = data.draw(hnp.arrays(dtype, (channels, grid.height, grid.width)))
    else:
        tensor = data.draw(
            hnp.arrays(dtype, (channels, grid.height, grid.width), elements=elements(dtype))
        )
    assert_same_bytes(apply_mask(tensor, mask, grid), oracle_apply_mask(tensor, mask, grid))


@given(
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=4, max_dims=4, max_side=6).map(lambda s: (2,) + s[1:]),
        elements=st.one_of(st.integers(0, 40), st.integers(0, 2**62)),
    ),
    st.one_of(
        st.none(),
        st.just(0),
        st.integers(0, 40),
        st.integers(2**24 - 2, 2**24 + 2),
        st.integers(0, 2**63 - 1),
    ),
)
@settings(max_examples=300, deadline=None)
def test_flatten_histogram_matches_oracle(counts, clip_max):
    hist = compact_histogram(counts, clip_max)
    assert_same_bytes(flatten_histogram(hist), oracle_flatten_histogram(hist))
