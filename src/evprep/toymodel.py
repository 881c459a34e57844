"""Minimal per-patch recurrent encoder-decoder with exact manual gradients.

Each patch is processed independently with shared weights: flatten ->
linear embed -> single tanh recurrent cell -> linear decode back to
pixels. The cell memory carries information across stages (zero at the
start of every sequence); with ``recurrent=False`` the memory is pinned at
zero, giving the feedforward ablation. Double precision throughout so
finite-difference gradient checks hold at tight tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evprep.errors import FormatError, GeometryError, TrainingDivergedError
from evprep.events import SegmentConfig, SensorGeometry, build_histogram, flatten_histogram
from evprep.formats import TOYP
from evprep.intensity import IntensityConfig, iter_sequence
from evprep.masking import PatchGrid, TubeMask, apply_mask, normalize_patches, sample_tube_mask

PARAM_ORDER = ("embed", "rec_c", "rec_f", "rec_bias", "decode")

# histogram counts saturate here before they become model inputs
CLIP_MAX = 10


@dataclass(frozen=True)
class ToyModelConfig:
    patch_size: int
    embed_dim: int
    in_channels: int
    recurrent: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("patch_size", "embed_dim", "in_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
            if getattr(self, name) >= 2**16:
                raise ValueError(f"{name} must be < 65536 to fit the TOYP header's u16")

    @property
    def n_in(self) -> int:
        return self.in_channels * self.patch_size**2

    @property
    def n_out(self) -> int:
        return self.patch_size**2


@dataclass
class ToyModelState:
    config: ToyModelConfig
    params: dict[str, np.ndarray]


def param_shapes(config: ToyModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each weight, in PARAM_ORDER."""
    D = config.embed_dim
    return {
        "embed": (config.n_in, D),
        "rec_c": (D, D),
        "rec_f": (D, D),
        "rec_bias": (D,),
        "decode": (D, config.n_out),
    }


def init_model(config: ToyModelConfig) -> ToyModelState:
    """Seeded uniform init, scale 1/sqrt(fan_in) per map."""
    rng = np.random.default_rng(config.seed)
    D = config.embed_dim
    # the recurrent maps and bias take [c_prev, f], 2D inputs
    fan_in = {"embed": config.n_in, "decode": D}
    params = {}
    for k, shape in param_shapes(config).items():
        bound = 1.0 / np.sqrt(fan_in.get(k, 2 * D))
        params[k] = rng.uniform(-bound, bound, size=shape)
    return ToyModelState(config=config, params=params)


def _run(state: ToyModelState, inputs: list[np.ndarray]) -> tuple[PatchGrid, list[tuple]]:
    """The patch grid of the first stage's frame, which every stage must
    share, and each stage's (X, c_prev, f, h, predicted frame) from zero memory."""
    if not inputs:
        raise ValueError("need at least one stage")
    cfg, p = state.config, state.params
    grid = PatchGrid(cfg.patch_size, *inputs[0].shape[1:])
    frame = (grid.height, grid.width)
    stages, c = [], np.zeros((grid.num_patches, cfg.embed_dim), dtype=np.float64)
    for i, x in enumerate(inputs):
        if x.shape[0] != cfg.in_channels:
            raise GeometryError(f"expected {cfg.in_channels} channels, got {x.shape[0]}")
        if x.shape[1:] != frame:
            raise GeometryError(f"stage {i} frame is {x.shape[1:]}, stage 0 frame is {frame}")
        X = grid.patches(np.asarray(x, dtype=np.float64))
        f = X @ p["embed"]
        h = np.tanh(c @ p["rec_c"].T + f @ p["rec_f"].T + p["rec_bias"])
        stages.append((X, c, f, h, grid.frame(h @ p["decode"])))
        c = h if cfg.recurrent else np.zeros_like(h)
    return grid, stages


def forward_sequence(state: ToyModelState, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Forward pass over a whole sequence, from zero memory."""
    return [s[-1] for s in _run(state, inputs)[1]]


def backward_sequence(
    state: ToyModelState,
    inputs: list[np.ndarray],
    targets: list[np.ndarray],
    mask: TubeMask,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact backpropagation through time of the masked sequence loss.

    Targets are already patch-normalized (:func:`normalize_patches`); the
    loss is the mean over stages of each stage's masked MSE, equal to
    :func:`evprep.losses.masked_mse`. One difference ``d`` per stage gives
    both that loss, mean(d*d), and its gradient, 2d / (M * masked pixels).
    The mask must lie on the forward pass's patch grid.
    """
    if len(inputs) != len(targets):
        raise ValueError("inputs/targets length mismatch")
    M = len(inputs)
    cfg, p = state.config, state.params
    grid, stages = _run(state, inputs)
    pix = mask.pixel_mask(grid)
    n_masked_pix = int(pix.sum())
    if n_masked_pix == 0:
        raise ValueError("mask is empty")
    preds = [s[-1] for s in stages]
    if any(pred.shape != t.shape for pred, t in zip(preds, targets)):
        raise GeometryError("prediction/target shape mismatch")
    diffs = [pred[pix] - t[pix] for pred, t in zip(preds, targets)]
    loss = float(np.mean([np.mean(d * d) for d in diffs]))

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dc_next = None
    for (X, c_prev, f, h, _), d in reversed(list(zip(stages, diffs))):
        dframe = np.zeros((grid.height, grid.width), dtype=np.float64)
        dframe[pix] = 2.0 * d / (M * n_masked_pix)
        dpred = grid.patches(dframe[None])
        dh = dpred @ p["decode"].T
        if dc_next is not None:
            dh = dh + dc_next
        grads["decode"] += h.T @ dpred
        da = dh * (1.0 - h * h)
        grads["rec_bias"] += da.sum(axis=0)
        grads["rec_c"] += da.T @ c_prev
        grads["rec_f"] += da.T @ f
        grads["embed"] += X.T @ (da @ p["rec_f"])
        dc_next = da @ p["rec_c"] if cfg.recurrent else None

    return loss, grads


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([params[k].reshape(-1) for k in PARAM_ORDER])


def unflatten_params(vec: np.ndarray, template: dict) -> dict[str, np.ndarray]:
    """Split ``vec`` into copies shaped as ``template``'s values: arrays, or shapes."""
    out = {}
    off = 0
    for k in PARAM_ORDER:
        shape = getattr(template[k], "shape", template[k])
        size = int(np.prod(shape))
        out[k] = vec[off : off + size].reshape(shape).copy()
        off += size
    return out


def serialize_params(state: ToyModelState) -> bytes:
    cfg = state.config
    header = TOYP.pack(cfg.patch_size, cfg.embed_dim, cfg.in_channels, int(cfg.recurrent))
    return header + flatten_params(state.params).astype("<f8").tobytes()


def deserialize_params(blob: bytes) -> ToyModelState:
    P, D, C, rec = TOYP.unpack(blob)
    payload = len(blob) - TOYP.size
    try:
        config = ToyModelConfig(P, D, C, recurrent=bool(rec))
    except ValueError as exc:
        raise FormatError(f"TOYP payload of {payload} bytes under a bad header: {exc}") from exc
    shapes = param_shapes(config)
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    if payload != size:
        raise FormatError(f"TOYP payload of {payload} bytes, expected {size}")
    vec = np.frombuffer(blob, dtype="<f8", offset=TOYP.size).astype(np.float64)
    return ToyModelState(config=config, params=unflatten_params(vec, shapes))


def train_toy(
    events: np.ndarray,
    geometry: SensorGeometry,
    steps: int,
    lr: float,
    config: ToyModelConfig,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    num_segments: int,
    mask_ratio: float = 0.5,
) -> tuple[list[float], ToyModelState]:
    """Plain gradient descent on the masked sequence loss over ``events``.

    Each input and its target come from one :func:`iter_sequence` pass:
    a segment's histogram, saturated at ``CLIP_MAX``, and its frame,
    patch-normalized once. A fresh tube mask is drawn every step. Aborts,
    naming the step, at the first overflow or invalid value in a step,
    before numpy warns of it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _, stages = iter_sequence(events, geometry, seg_config, int_config, num_segments=num_segments)
    grid = PatchGrid(config.patch_size, geometry.height, geometry.width)
    pairs = [
        (flatten_histogram(build_histogram(seg, geometry, seg_config, clip_max=CLIP_MAX)),
         normalize_patches(frame.astype(np.float64), grid))
        for seg, frame in stages
    ]
    inputs, targets = [x for x, _ in pairs], [t for _, t in pairs]
    state = init_model(config)
    curve = []
    for step in range(steps):
        mask = sample_tube_mask(grid, mask_ratio, seed=config.seed * 100003 + step)
        masked_inputs = [apply_mask(x, mask, grid) for x in inputs]
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                loss, grads = backward_sequence(state, masked_inputs, targets, mask)
                if not np.isfinite(loss):
                    raise FloatingPointError
                for k in state.params:
                    state.params[k] -= lr * grads[k]
        except FloatingPointError:
            raise TrainingDivergedError(f"training diverged at step {step}") from None
        curve.append(loss)
    return curve, state
