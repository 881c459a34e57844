"""Minimal per-patch recurrent encoder-decoder with exact manual gradients.

Each patch is processed independently with shared weights: flatten ->
linear embed -> single tanh recurrent cell -> linear decode back to
pixels. The cell memory carries information across stages (reset to zero
at sequence start); with ``recurrent=False`` the memory is pinned at
zero, giving the feedforward ablation. Double precision throughout so
finite-difference gradient checks hold at tight tolerance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from evprep.errors import FormatError, GeometryError, TrainingDivergedError
from evprep.events import SegmentConfig, build_histogram, flatten_histogram, segment_stream
from evprep.intensity import IntensityConfig, Method, run_sequence
from evprep.losses import sequence_loss
from evprep.masking import PatchGrid, TubeMask, apply_mask, normalize_patches, sample_tube_mask
from evprep.simulate import SceneSpec, simulate_events

PARAM_MAGIC = b"TOYP"

PARAM_ORDER = ("embed", "rec_c", "rec_f", "rec_bias", "decode")


@dataclass(frozen=True)
class ToyModelConfig:
    patch_size: int
    embed_dim: int
    in_channels: int
    recurrent: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")

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
    memory: np.ndarray | None = None
    grads: dict[str, np.ndarray] = field(default_factory=dict)


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ToyModelConfig) -> ToyModelState:
    """Seeded uniform init, scale 1/sqrt(fan_in) per map."""
    rng = np.random.default_rng(config.seed)
    D = config.embed_dim
    params = {
        "embed": _uniform(rng, config.n_in, (config.n_in, D)),
        "rec_c": _uniform(rng, 2 * D, (D, D)),
        "rec_f": _uniform(rng, 2 * D, (D, D)),
        "rec_bias": _uniform(rng, 2 * D, (D,)),
        "decode": _uniform(rng, D, (D, config.n_out)),
    }
    return ToyModelState(config=config, params=params)


def reset_memory(state: ToyModelState) -> None:
    state.memory = None


def _patchify(tensor: np.ndarray, P: int) -> np.ndarray:
    """(C, H, W) -> (K, C*P*P) with zero padding to P-divisible dims."""
    C, H, W = tensor.shape
    gh, gw = -(-H // P), -(-W // P)
    padded = np.zeros((C, gh * P, gw * P), dtype=np.float64)
    padded[:, :H, :W] = tensor
    # (C, gh, P, gw, P) -> (gh, gw, C, P, P) -> (K, C*P*P)
    patches = padded.reshape(C, gh, P, gw, P).transpose(1, 3, 0, 2, 4)
    return patches.reshape(gh * gw, C * P * P)


def _unpatchify(patches: np.ndarray, H: int, W: int, P: int) -> np.ndarray:
    """(K, P*P) single-channel patches -> (H, W) frame, crop padding."""
    gh, gw = -(-H // P), -(-W // P)
    frame = patches.reshape(gh, gw, P, P).transpose(0, 2, 1, 3).reshape(gh * P, gw * P)
    return frame[:H, :W]


def _stage_core(state: ToyModelState, masked_input: np.ndarray):
    cfg = state.config
    P = cfg.patch_size
    if masked_input.shape[0] != cfg.in_channels:
        raise GeometryError(
            f"expected {cfg.in_channels} channels, got {masked_input.shape[0]}"
        )
    X = _patchify(np.asarray(masked_input, dtype=np.float64), P)
    K = X.shape[0]
    if state.memory is None:
        state.memory = np.zeros((K, cfg.embed_dim), dtype=np.float64)
    elif state.memory.shape[0] != K:
        raise GeometryError("patch count changed mid-sequence")
    p = state.params
    c_prev = state.memory
    f = X @ p["embed"]
    a = c_prev @ p["rec_c"].T + f @ p["rec_f"].T + p["rec_bias"]
    h = np.tanh(a)
    pred_patches = h @ p["decode"]
    state.memory = h if cfg.recurrent else np.zeros_like(h)
    return X, c_prev, f, h, pred_patches


def forward_stage(state: ToyModelState, masked_input: np.ndarray) -> np.ndarray:
    """One stage forward pass; advances the recurrent memory."""
    _, _, _, _, pred_patches = _stage_core(state, masked_input)
    _, H, W = masked_input.shape
    return _unpatchify(pred_patches, H, W, state.config.patch_size)


def forward_sequence(state: ToyModelState, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Fresh-memory forward pass over a whole sequence."""
    reset_memory(state)
    return [forward_stage(state, x) for x in inputs]


def backward_sequence(
    state: ToyModelState,
    inputs: list[np.ndarray],
    targets: list[np.ndarray],
    mask: TubeMask,
    grid: PatchGrid,
    epsilon: float = 1e-6,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact backpropagation through time of the masked sequence loss.

    Targets are raw intensity frames; they are patch-normalized here,
    matching :func:`evprep.losses.sequence_loss`. Gradients land in
    ``state.grads`` and are also returned.
    """
    if len(inputs) != len(targets):
        raise ValueError("inputs/targets length mismatch")
    M = len(inputs)
    cfg = state.config
    P = cfg.patch_size
    p = state.params
    pix = mask.pixel_mask(grid)
    n_masked_pix = int(pix.sum())
    if n_masked_pix == 0:
        raise ValueError("mask is empty")

    reset_memory(state)
    cache = []
    predictions = []
    for x in inputs:
        X, c_prev, f, h, pred_patches = _stage_core(state, x)
        frame = _unpatchify(pred_patches, grid.height, grid.width, P)
        cache.append((X, c_prev, f, h))
        predictions.append(frame)

    norm_targets = [normalize_patches(t, grid, epsilon) for t in targets]
    report = sequence_loss(predictions, targets, mask, grid, epsilon)

    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dc_next = None
    for i in reversed(range(M)):
        X, c_prev, f, h = cache[i]
        dframe = np.zeros((grid.height, grid.width), dtype=np.float64)
        dframe[pix] = 2.0 * (predictions[i][pix] - norm_targets[i][pix]) / (
            M * n_masked_pix
        )
        dpred = _patchify(dframe[None], P)
        dh = dpred @ p["decode"].T
        if cfg.recurrent and dc_next is not None:
            dh = dh + dc_next
        grads["decode"] += h.T @ dpred
        da = dh * (1.0 - h * h)
        grads["rec_bias"] += da.sum(axis=0)
        grads["rec_c"] += da.T @ c_prev
        grads["rec_f"] += da.T @ f
        grads["embed"] += X.T @ (da @ p["rec_f"])
        dc_next = da @ p["rec_c"] if cfg.recurrent else None

    state.grads = grads
    return report.loss, grads


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([params[k].reshape(-1) for k in PARAM_ORDER])


def unflatten_params(vec: np.ndarray, template: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    off = 0
    for k in PARAM_ORDER:
        size = template[k].size
        out[k] = vec[off : off + size].reshape(template[k].shape).copy()
        off += size
    return out


def serialize_params(state: ToyModelState) -> bytes:
    cfg = state.config
    header = PARAM_MAGIC + struct.pack(
        "<HHHB", cfg.patch_size, cfg.embed_dim, cfg.in_channels, int(cfg.recurrent)
    )
    return header + flatten_params(state.params).astype("<f8").tobytes()


def deserialize_params(blob: bytes, seed: int = 0) -> ToyModelState:
    if len(blob) < 11 or blob[:4] != PARAM_MAGIC:
        raise FormatError("not a toy-model parameter blob")
    P, D, C, rec = struct.unpack("<HHHB", blob[4:11])
    cfg = ToyModelConfig(
        patch_size=P, embed_dim=D, in_channels=C, recurrent=bool(rec), seed=seed
    )
    state = init_model(cfg)
    vec = np.frombuffer(blob[11:], dtype="<f8")
    expected = flatten_params(state.params).size
    if vec.size != expected:
        raise FormatError(f"parameter blob holds {vec.size} values, expected {expected}")
    state.params = unflatten_params(vec.astype(np.float64), state.params)
    return state


def build_training_data(
    scene: SceneSpec,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    num_segments: int,
    clip_max: int = 10,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Simulate the scene once and derive (model inputs, raw targets)."""
    events = simulate_events(scene)
    geometry = scene.geometry
    segments, _ = segment_stream(events, geometry, seg_config, num_segments)
    inputs = [
        flatten_histogram(build_histogram(s, geometry, seg_config, clip_max=clip_max))
        for s in segments
    ]
    _, frames = run_sequence(
        events, geometry, seg_config, int_config, num_segments=num_segments
    )
    targets = [f.astype(np.float64) for f in frames]
    return inputs, targets


def train_toy(
    scene: SceneSpec,
    steps: int,
    lr: float,
    config: ToyModelConfig,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    num_segments: int,
    mask_ratio: float = 0.5,
    clip_max: int = 10,
) -> tuple[list[float], ToyModelState]:
    """Plain gradient descent on the masked sequence loss.

    A fresh tube mask is drawn every step. Aborts, naming the step, at the
    first overflow or invalid value in a step, before numpy warns of it.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    inputs, targets = build_training_data(
        scene, seg_config, int_config, num_segments, clip_max
    )
    grid = PatchGrid(config.patch_size, scene.geometry.height, scene.geometry.width)
    state = init_model(config)
    curve = []
    for step in range(steps):
        mask = sample_tube_mask(grid, mask_ratio, seed=config.seed * 100003 + step)
        masked_inputs = [apply_mask(x, mask, grid) for x in inputs]
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                loss, grads = backward_sequence(state, masked_inputs, targets, mask, grid)
                if not np.isfinite(loss):
                    raise FloatingPointError
                for k in state.params:
                    state.params[k] -= lr * grads[k]
        except FloatingPointError:
            raise TrainingDivergedError(f"training diverged at step {step}") from None
        curve.append(loss)
    return curve, state
