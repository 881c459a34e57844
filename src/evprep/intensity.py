"""Pseudo-grayscale intensity estimation from event streams.

Two update rules build the reconstruction-target video:

* ``PER_EVENT_DECAY`` — each event decays its own pixel by the elapsed
  time since that pixel's previous event, then adds p*C. Pixels that
  stop receiving events keep their residue forever (motion blur).
* ``ADAPTIVE_BATCH`` — once per temporal bin, every pixel decays by
  exp(-alpha * dt * n / N) with n the global event count in the bin,
  then the signed per-pixel count times C is added. A silent bin (n=0)
  leaves the frame bit-identical.

Frames accumulate in double precision; emitted snapshots are float32.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from evprep.errors import GeometryError, StreamOrderError
from evprep.events import (
    EventSegment,
    SegmentConfig,
    SensorGeometry,
    bin_edges,
    segment_stream,
    validate_stream,
)


class Method(enum.Enum):
    PER_EVENT_DECAY = "decay"
    ADAPTIVE_BATCH = "adaptive"


@dataclass(frozen=True)
class IntensityConfig:
    method: Method
    alpha_per_s: float = 5.0
    threshold: float = 1.0
    normalizer: int = 5000
    bin_duration_us: int = 5000

    def __post_init__(self):
        if not math.isfinite(self.alpha_per_s) or self.alpha_per_s < 0:
            raise ValueError("alpha must be finite and >= 0")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")
        if self.bin_duration_us <= 0:
            raise ValueError("bin duration must be positive")


@dataclass
class IntensityState:
    """Resumable estimator state; ``last_update_time_us`` is its clock.

    ``last_event_t_us`` holds the per-pixel last-event timestamps needed
    by the per-event decay rule; it stays all-zero under the batch rule.
    """

    frame: np.ndarray
    last_update_time_us: int
    config: IntensityConfig
    geometry: SensorGeometry
    last_event_t_us: np.ndarray

    @classmethod
    def initial(cls, geometry: SensorGeometry, config: IntensityConfig) -> "IntensityState":
        shape = (geometry.height, geometry.width)
        return cls(
            frame=np.zeros(shape, dtype=np.float64),
            last_update_time_us=0,
            config=config,
            geometry=geometry,
            last_event_t_us=np.zeros(shape, dtype=np.int64),
        )


def _per_event_decay_fill(state: IntensityState, t, pix, p) -> None:
    """Per-pixel rule ``f = exp(-alpha * dt) * f + p * threshold`` on
    ``state.frame`` and ``state.last_event_t_us``, in place.

    ``pix`` is each event's flat pixel index y * W + x. Pixels are
    independent, so the k-th event of every pixel is applied in one
    vectorized step. Events are laid out rank-major with pixels ordered by
    descending event count, so the pixels still active at rank k are a
    prefix of that order and the loop runs once per rank: as many times as
    the busiest pixel has events. ``t`` must be sorted.
    """
    n = t.shape[0]
    frame, last_t = state.frame, state.last_event_t_us
    alpha, threshold = state.config.alpha_per_s, state.config.threshold
    # sorting the unique keys pixel * n + index is a stable argsort by pixel,
    # so events of one pixel keep their time order; ~10x faster than
    # argsort(kind="stable") on int64. The keys fit int64 for any 16-bit
    # geometry and fewer than 2**31 events.
    pix, order = np.divmod(np.sort(pix * n + np.arange(n)), n)
    t = t[order]
    first = np.flatnonzero(np.concatenate(([True], pix[1:] != pix[:-1])))
    counts = np.diff(np.append(first, n))
    py, px = np.divmod(pix[first], state.geometry.width)

    prev_t = np.empty_like(t)
    prev_t[1:] = t[:-1]
    prev_t[first] = last_t[py, px]
    # same operation order as the scalar rule
    decay = np.exp(-alpha * ((t - prev_t) * 1e-6))
    add = p[order] * threshold

    # slot of each pixel in descending-count order (pixels are independent,
    # so ties may go in any order), then each event's rank within its pixel
    # and its position in the rank-major layout
    by_count = np.argsort(-counts)
    slot = np.empty_like(by_count)
    slot[by_count] = np.arange(by_count.shape[0])
    group = np.repeat(np.arange(first.shape[0]), counts)
    rank = np.arange(n) - first[group]
    active = np.bincount(rank)  # pixels with more than k events, per rank k
    offset = np.concatenate(([0], np.cumsum(active)))
    dest = offset[rank] + slot[group]
    decay_rm = np.empty_like(decay)
    decay_rm[dest] = decay
    add_rm = np.empty_like(add)
    add_rm[dest] = add

    cells = (py[by_count], px[by_count])
    f = frame[cells]
    for lo, m in zip(offset.tolist(), active.tolist()):
        np.multiply(decay_rm[lo : lo + m], f[:m], out=f[:m])
        np.add(f[:m], add_rm[lo : lo + m], out=f[:m])
    frame[cells] = f
    last_t[py, px] = t[first + counts - 1]


def update_per_event(state: IntensityState, events: np.ndarray) -> IntensityState:
    """Apply the per-event decay rule to a sorted event batch in place."""
    if events.shape[0] == 0:
        return state
    validate_stream(events, state.geometry)
    t = events["t"].astype(np.int64)
    if t[0] < state.last_update_time_us:
        raise StreamOrderError(0)
    pix = events["y"].astype(np.intp) * state.geometry.width + events["x"]
    _per_event_decay_fill(state, t, pix, events["p"])
    state.last_update_time_us = int(t[-1])
    return state


def _adaptive_decay(cfg: IntensityConfig, n: int) -> float:
    """The batch rule's decay factor for a bin of ``n`` events."""
    dt_s = cfg.bin_duration_us * 1e-6
    return math.exp(-cfg.alpha_per_s * dt_s * n / cfg.normalizer)


def update_adaptive_batch(
    state: IntensityState, signed_bin: np.ndarray, n: int
) -> IntensityState:
    """Apply one temporal bin of the globally-batched rule in place.

    ``n`` is the total unsigned event count over the whole frame in this
    bin; ``signed_bin`` the (H, W) positive-minus-negative count, which is
    not read when ``n`` is 0.
    """
    if n < 0:
        raise ValueError("event count must be >= 0")
    cfg = state.config
    if n > 0:  # a silent bin leaves the frame bit-identical
        np.multiply(state.frame, _adaptive_decay(cfg, n), out=state.frame)
        state.frame += signed_bin * cfg.threshold
    state.last_update_time_us += cfg.bin_duration_us
    return state


def _update_adaptive_segment(
    state: IntensityState, segment: EventSegment, config: SegmentConfig
) -> None:
    """Apply every bin of one segment under the batch rule, in place.

    Bin tau is the slice of events between ``bin_edges`` tau and tau+1, as
    in ``build_histogram``. A non-silent bin decays the whole frame and adds
    its exact signed counts, one bincount over ``slot``, to its own pixels.
    The rest would get ``0.0 * threshold``: that changes only a -0.0, the
    same way at any later point, so it is added once per segment instead.
    """
    events, cfg = segment.events, state.config
    state.frame = np.ascontiguousarray(state.frame)
    flat = state.frame.reshape(-1)  # a view, as frame is C-contiguous
    edges = bin_edges(segment, config).tolist()
    pix = events["y"].astype(np.intp) * state.geometry.width + events["x"]
    slot = np.empty(flat.shape[0], dtype=np.intp)  # each bin writes what it reads
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == lo:
            continue
        b, index = pix[lo:hi], np.arange(hi - lo)
        slot[b] = index
        u = b[slot[b] == index]  # one event per pixel: the write that landed
        slot[u] = np.arange(u.shape[0])
        w = np.bincount(slot[b], weights=events["p"][lo:hi], minlength=u.shape[0])
        np.multiply(state.frame, _adaptive_decay(cfg, hi - lo), out=state.frame)
        flat[u] += w * cfg.threshold
    if events.shape[0]:  # every event lies in a bin
        np.add(state.frame, 0.0 * cfg.threshold, out=state.frame)


def run_sequence(
    events: np.ndarray,
    geometry: SensorGeometry,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    resume: IntensityState | None = None,
    num_segments: int | None = None,
) -> tuple[IntensityState, list[np.ndarray]]:
    """Drive the configured estimator over whole segments.

    Emits one float32 frame snapshot per segment and sets the clock to each
    segment's end. A ``resume`` state continues with the segment starting
    at its clock, which must be a multiple of T, whichever T saved it: a
    split run is bit-identical to a single combined run.
    """
    if resume is not None:
        if resume.geometry != geometry:
            raise GeometryError("resume state geometry mismatch")
        if resume.config != int_config:
            raise ValueError("resume state config mismatch")
        state = resume
    else:
        state = IntensityState.initial(geometry, int_config)
    if int_config.method is Method.ADAPTIVE_BATCH and (
        int_config.bin_duration_us != seg_config.bin_duration_us
    ):
        raise ValueError(
            "adaptive bin duration must equal the segment config's T/B"
        )
    T = seg_config.segment_duration_us
    if state.last_update_time_us % T:
        raise ValueError(
            f"state clock {state.last_update_time_us}us is not a multiple of "
            f"the segment duration {T}us"
        )
    first_index = state.last_update_time_us // T + 1
    segments, _ = segment_stream(events, geometry, seg_config, num_segments, first_index)
    frames = []
    for seg in segments:
        if int_config.method is Method.PER_EVENT_DECAY:
            update_per_event(state, seg.events)
        else:
            _update_adaptive_segment(state, seg, seg_config)
        state.last_update_time_us = seg.index * T
        frames.append(state.frame.astype(np.float32))
    return state, frames
