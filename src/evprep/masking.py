"""Tube masks over the patch grid and patch-normalized targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evprep.errors import FormatError, GeometryError
from evprep.formats import TUBE

# variance floor of the MAE normalized-pixel target (He et al., arXiv 2111.06377)
EPSILON = 1e-6


@dataclass(frozen=True)
class PatchGrid:
    """Decomposition of an H x W frame into P x P patches.

    When H or W is not divisible by P the frame is conceptually
    zero-padded on the bottom/right; the padded area is excluded from
    patch statistics and losses.
    """

    patch_size: int
    height: int
    width: int

    def __post_init__(self):
        if self.patch_size <= 0:
            raise ValueError("patch size must be positive")

    @property
    def grid_h(self) -> int:
        return -(-self.height // self.patch_size)

    @property
    def grid_w(self) -> int:
        return -(-self.width // self.patch_size)

    @property
    def num_patches(self) -> int:
        return self.grid_h * self.grid_w

    def masked_patches(self, ratio: float) -> int:
        """Patches a tube mask of this ratio covers: round(ratio * K), halves up."""
        return int(np.floor(ratio * self.num_patches + 0.5))

    def blocks(self, tensor: np.ndarray) -> np.ndarray:
        """A view of a (C, h*P, w*P) tensor of whole patches as (h, w, C, P, P) blocks."""
        (C, H, W), P = tensor.shape, self.patch_size
        return tensor.reshape(C, H // P, P, W // P, P).transpose(1, 3, 0, 2, 4)

    def patches(self, tensor: np.ndarray) -> np.ndarray:
        """A new (K, C*P*P) matrix of a (C, H, W) tensor's patches, zero-padded."""
        P, C = self.patch_size, tensor.shape[0]
        padded = np.zeros((C, self.grid_h * P, self.grid_w * P), dtype=tensor.dtype)
        padded[:, : self.height, : self.width] = tensor
        return self.blocks(padded).reshape(self.num_patches, C * P * P)

    def frame(self, patches: np.ndarray) -> np.ndarray:
        """The (H, W) frame of (K, P*P) single-channel patches, with the padding cropped."""
        P = self.patch_size
        padded = np.empty((1, self.grid_h * P, self.grid_w * P), dtype=patches.dtype)
        self.blocks(padded)[...] = patches.reshape(self.grid_h, self.grid_w, 1, P, P)
        return padded[0, : self.height, : self.width]

    def patch_slices(self, row: int, col: int) -> tuple[slice, slice]:
        """Pixel slices of one patch, clipped to the real (unpadded) frame."""
        P = self.patch_size
        return (
            slice(row * P, min((row + 1) * P, self.height)),
            slice(col * P, min((col + 1) * P, self.width)),
        )


@dataclass(frozen=True)
class TubeMask:
    """A spatial patch mask shared by every stage and bin of a sequence."""

    masked: np.ndarray
    rng_seed: int

    @property
    def num_masked(self) -> int:
        return int(self.masked.sum())

    def pixel_mask(self, grid: PatchGrid) -> np.ndarray:
        """Expand the patch mask to a boolean (H, W) pixel mask.

        Raises GeometryError when the mask was sampled on another patch grid.
        """
        if self.masked.shape != (grid.grid_h, grid.grid_w):
            raise GeometryError(
                f"mask of {self.masked.shape[0]}x{self.masked.shape[1]} patches does not "
                f"match the {grid.grid_h}x{grid.grid_w} patch grid"
            )
        full = np.repeat(
            np.repeat(self.masked, grid.patch_size, axis=0), grid.patch_size, axis=1
        )
        return full[: grid.height, : grid.width]


def sample_tube_mask(grid: PatchGrid, ratio: float, seed: int) -> TubeMask:
    """Uniform subset of exactly round(ratio * K) patches, seeded."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    K = grid.num_patches
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(K)[: grid.masked_patches(ratio)]
    masked = np.zeros(K, dtype=bool)
    masked[chosen] = True
    return TubeMask(masked=masked.reshape(grid.grid_h, grid.grid_w), rng_seed=seed)


def apply_mask(tensor: np.ndarray, mask: TubeMask, grid: PatchGrid) -> np.ndarray:
    """Zero out masked patches and append a masked-region indicator channel.

    Input is the (2B, H, W) flattened histogram; output is (2B+1, H, W).
    """
    if tensor.ndim != 3 or tensor.shape[1:] != (grid.height, grid.width):
        raise GeometryError(
            f"tensor shape {tensor.shape} does not match {grid.height}x{grid.width} grid"
        )
    pix = mask.pixel_mask(grid)
    out = np.zeros((tensor.shape[0] + 1,) + tensor.shape[1:], dtype=tensor.dtype)
    np.copyto(out[:-1], tensor, where=~pix)
    out[-1] = pix
    return out


def normalize_patches(target: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Standardize each patch with its own mean and variance, plus ``EPSILON``.

    Edge patches that extend past the frame use only their real pixels.
    Full patches are standardized together as the rows of a contiguous
    (rows, cols, P*P) copy, with the bytes each would get on its own:
    numpy sums a strided P x P view of a row-major frame by copying it,
    row by row, into one buffer and summing that pairwise, as it sums a
    contiguous row. Patches larger than the buffer (``np.getbufsize()``
    elements) and frames not stored row-major take a per-patch loop.
    """
    if target.shape != (grid.height, grid.width):
        raise GeometryError(
            f"target shape {target.shape} does not match grid "
            f"{grid.height}x{grid.width}"
        )
    P = grid.patch_size
    vectorized = target.strides[0] >= target.strides[1] > 0 and P * P <= np.getbufsize()
    rows, cols = (grid.height // P, grid.width // P) if vectorized else (0, 0)
    out = np.empty_like(target, dtype=np.float64)
    full = grid.blocks(target[None, : rows * P, : cols * P]).reshape(rows, cols, P * P)
    mean = full.mean(axis=-1, keepdims=True)
    std = np.sqrt(full.var(axis=-1, keepdims=True) + EPSILON)
    blocks = grid.blocks(out[None, : rows * P, : cols * P])
    # not full -= mean: full is a view of target when W == P, and may hold integers
    np.divide((full - mean).reshape(blocks.shape), std[..., None, None], out=blocks)
    for row in range(grid.grid_h):
        for col in range(cols if row < rows else 0, grid.grid_w):
            sl = grid.patch_slices(row, col)
            patch = target[sl]
            out[sl] = (patch - patch.mean()) / np.sqrt(patch.var() + EPSILON)
    return out


def serialize_mask(mask: TubeMask) -> bytes:
    """A TUBE header, then the mask bit-packed in row-major order; the seed must fit a u32."""
    if not 0 <= mask.rng_seed < 2**32:
        raise ValueError(f"mask seed {mask.rng_seed} does not fit the TUBE header's u32")
    gh, gw = mask.masked.shape
    header = TUBE.pack(gw, gh, mask.rng_seed)
    return header + np.packbits(mask.masked.reshape(-1)).tobytes()


def deserialize_mask(blob: bytes) -> TubeMask:
    gw, gh, seed = TUBE.unpack(blob)
    payload, expected = np.frombuffer(blob[TUBE.size :], dtype=np.uint8), -(-gh * gw // 8)
    if payload.size != expected:
        raise FormatError(f"TUBE payload of {payload.size} bytes, expected {expected}")
    bits = np.unpackbits(payload, count=gh * gw)
    return TubeMask(masked=bits.astype(bool).reshape(gh, gw), rng_seed=seed)
