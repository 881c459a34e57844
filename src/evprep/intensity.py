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

from evprep import _kernels
from evprep.errors import GeometryError, StreamOrderError
from evprep.events import (
    EventSegment,
    SegmentConfig,
    SensorGeometry,
    event_fields,
    segment_stream,
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
    """Resumable estimator state.

    ``last_event_t_us`` holds the per-pixel last-event timestamps needed
    by the per-event decay rule; it stays all-zero under the batch rule.
    """

    frame: np.ndarray
    last_update_time_us: int
    config: IntensityConfig
    geometry: SensorGeometry
    last_event_t_us: np.ndarray
    segments_done: int = 0

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


def update_per_event(state: IntensityState, events: np.ndarray) -> IntensityState:
    """Apply the per-event decay rule to a sorted event batch in place."""
    if events.shape[0] == 0:
        return state
    t, x, y, p = event_fields(events)
    if np.any(t[1:] < t[:-1]):
        raise StreamOrderError(int(np.nonzero(t[1:] < t[:-1])[0][0]) + 1)
    if t[0] < state.last_update_time_us:
        raise StreamOrderError(0)
    _kernels.per_event_decay_fill(
        state.frame,
        state.last_event_t_us,
        t,
        x,
        y,
        p,
        state.config.alpha_per_s,
        state.config.threshold,
    )
    state.last_update_time_us = int(t[-1])
    return state


def update_adaptive_batch(
    state: IntensityState, signed_bin: np.ndarray | None, n: int
) -> IntensityState:
    """Apply one temporal bin of the globally-batched rule in place.

    ``n`` is the total unsigned event count over the whole frame in this
    bin; ``signed_bin`` the per-pixel positive-minus-negative count, which
    is not read when ``n`` is 0 and may then be None.
    """
    if n < 0:
        raise ValueError("event count must be >= 0")
    cfg = state.config
    if n == 0:
        # silent bin: the frame must stay bit-identical
        state.last_update_time_us += cfg.bin_duration_us
        return state
    dt_s = cfg.bin_duration_us * 1e-6
    decay = math.exp(-cfg.alpha_per_s * dt_s * n / cfg.normalizer)
    np.multiply(state.frame, decay, out=state.frame)
    state.frame += signed_bin * cfg.threshold
    state.last_update_time_us += cfg.bin_duration_us
    return state


def _update_adaptive_segment(
    state: IntensityState, segment: EventSegment, config: SegmentConfig
) -> None:
    """Apply every bin of one segment under the batch rule, in place.

    Events are sorted and T/B is exact, so bin tau is the contiguous slice
    of events in [start + tau*T/B, start + (tau+1)*T/B): its count is the
    slice length and its signed image one polarity-weighted bincount, whose
    integer sums are exact in float64, as ``signed_bin_accumulation``'s are.
    """
    events = segment.events
    height, width = state.frame.shape
    start = (segment.index - 1) * config.segment_duration_us
    bin_starts = np.arange(config.bins_per_segment + 1, dtype=np.uint64)
    edges = np.searchsorted(
        events["t"], np.uint64(start) + bin_starts * np.uint64(config.bin_duration_us)
    ).tolist()
    pix = events["y"].astype(np.intp) * width + events["x"]
    for lo, hi in zip(edges[:-1], edges[1:]):
        signed = None
        if hi > lo:
            signed = np.bincount(
                pix[lo:hi], weights=events["p"][lo:hi], minlength=height * width
            ).reshape(height, width)
        update_adaptive_batch(state, signed, hi - lo)


def run_sequence(
    events: np.ndarray,
    geometry: SensorGeometry,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    resume: IntensityState | None = None,
    num_segments: int | None = None,
) -> tuple[IntensityState, list[np.ndarray]]:
    """Drive the configured estimator over whole segments.

    Emits one float32 frame snapshot per segment boundary. Passing the
    returned state back as ``resume`` continues seamlessly: a split run
    is bit-identical to a single combined run.
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
    first_index = state.segments_done + 1
    T = seg_config.segment_duration_us
    if num_segments is None:
        t_end = int(events["t"][-1]) if events.shape[0] else -1
        num_segments = max(1, -(-(t_end + 1 - (first_index - 1) * T) // T))
    segments, _ = segment_stream(events, geometry, seg_config, num_segments, first_index)
    frames = []
    for seg in segments:
        if int_config.method is Method.PER_EVENT_DECAY:
            update_per_event(state, seg.events)
        else:
            _update_adaptive_segment(state, seg, seg_config)
        state.segments_done = seg.index
        frames.append(state.frame.astype(np.float32))
    return state, frames
