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
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from evprep.errors import FrameRangeError, GeometryError, StreamOrderError
from evprep.events import (
    EventSegment,
    SegmentConfig,
    SensorGeometry,
    bin_edges,
    iter_segments,
    validate_stream,
)


# the largest magnitude a float32 frame snapshot holds
FRAME_MAX = float(np.finfo(np.float32).max)


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
        if not 0 < self.threshold <= FRAME_MAX:
            raise ValueError(f"threshold must be finite, > 0 and <= float32's max {FRAME_MAX:.8g}")
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")
        if self.normalizer >= 2**63:
            raise ValueError("normalizer must be below 2**63")
        if self.bin_duration_us <= 0:
            raise ValueError("bin duration must be positive")


@dataclass
class IntensityState:
    """Resumable estimator state; ``last_update_time_us`` is its clock,
    and the frame's shape is its geometry.

    ``last_event_t_us`` holds the per-pixel last-event timestamps needed
    by the per-event decay rule; it stays all-zero under the batch rule.
    """

    frame: np.ndarray
    last_update_time_us: int
    config: IntensityConfig
    last_event_t_us: np.ndarray

    @property
    def geometry(self) -> SensorGeometry:
        height, width = self.frame.shape
        return SensorGeometry(width, height)

    @classmethod
    def initial(cls, geometry: SensorGeometry, config: IntensityConfig) -> "IntensityState":
        shape = (geometry.height, geometry.width)
        return cls(np.zeros(shape, np.float64), 0, config, np.zeros(shape, np.int64))


# The rank loop stops once fewer than this many pixels still have events;
# each of those pixels then finishes its own events in a scalar loop. On a
# 2-vCPU Xeon (numpy 2.4, CPython 3.11), on P pixels of 1000 events each, a
# rank step (gathers, a multiply, an add and a scatter) took 5.4 us at
# P = 40, 5.6 us at 64 and 6.8 us at 96, and a scalar event 89 to 99 ns:
# they break even at 64. On hot-pixel streams 32 and 64 gave the same time.
_MIN_ACTIVE_PIXELS = 64


def _per_event_decay_fill(state: IntensityState, events: np.ndarray) -> None:
    """Per-pixel rule ``f = exp(-alpha * dt) * f + p * threshold`` on
    ``state.frame`` and ``state.last_event_t_us``, in place.

    ``events`` must be a non-empty, validated, sorted batch. Pixels are
    independent, so the k-th event of every pixel that has one is applied
    in one vectorized step over the pixels' own values ``f``. Once fewer
    than ``_MIN_ACTIVE_PIXELS`` pixels have events left, each of them runs
    the rest in a Python loop: CPython rounds ``d * x + a`` as a multiply
    and then an add, with no fused multiply-add, exactly as the two ufunc
    calls do, so both phases give the same bits.
    """
    t = events["t"].astype(np.int64)
    pix = events["y"].astype(np.intp) * state.geometry.width + events["x"]
    n = t.shape[0]
    # flat views of the state: reshape copies a non-contiguous array
    state.frame = np.ascontiguousarray(state.frame)
    state.last_event_t_us = np.ascontiguousarray(state.last_event_t_us)
    frame, last_t = state.frame.reshape(-1), state.last_event_t_us.reshape(-1)
    alpha, threshold = state.config.alpha_per_s, state.config.threshold
    # sorting the unique keys pixel * n + index is a stable argsort by pixel,
    # so events of one pixel keep their time order; ~10x faster than
    # argsort(kind="stable") on int64. The keys fit int64 for any 16-bit
    # geometry and fewer than 2**31 events.
    pix, order = np.divmod(np.sort(pix * n + np.arange(n)), n)
    t = t[order]
    first = np.flatnonzero(np.concatenate(([True], pix[1:] != pix[:-1])))
    counts = np.diff(np.append(first, n))
    cells = pix[first]

    prev_t = np.empty_like(t)
    prev_t[1:] = t[:-1]
    prev_t[first] = last_t[cells]
    # same operation order as the scalar rule
    decay = np.exp(-alpha * ((t - prev_t) * 1e-6))
    add = events["p"][order] * threshold

    f = decay[first] * frame[cells] + add[first]
    k, groups = 1, np.flatnonzero(counts > 1)  # the pixels with more than k events
    while groups.shape[0] >= _MIN_ACTIVE_PIXELS:
        at = first[groups] + k
        f[groups] = decay[at] * f[groups] + add[at]
        k += 1
        groups = groups[counts[groups] > k]
    # in pixel order each pixel's events are a contiguous run
    starts, ends = first[groups] + k, first[groups] + counts[groups]
    for g, lo, hi in zip(groups.tolist(), starts.tolist(), ends.tolist()):
        x = float(f[g])
        for d, a in zip(decay[lo:hi].tolist(), add[lo:hi].tolist()):
            x = d * x + a
        f[g] = x
    frame[cells] = f
    last_t[cells] = t[first + counts - 1]


def update_per_event(state: IntensityState, events: np.ndarray) -> IntensityState:
    """Apply the per-event decay rule to a sorted event batch in place."""
    if events.shape[0] == 0:
        return state
    validate_stream(events, state.geometry)
    if int(events["t"][0]) < state.last_update_time_us:
        raise StreamOrderError(0)
    _per_event_decay_fill(state, events)
    state.last_update_time_us = int(events["t"][-1])
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


# A bin of at least H*W / 16 events adds acc to the whole frame, a sparser
# one to its own pixels. On a 2-vCPU Xeon (numpy 2.4, CPython 3.11), one
# 640x480 bin of uniform events took, sparse against dense, 185 against 266
# us at 12k events, 302 against 303 at 17k, 346 against 319 at 19.2k and
# 473 against 375 at 24k; at a threshold other than 1 they tie near 24k.
_DENSE_BIN_EVENTS = 16


def _update_adaptive_segment(
    state: IntensityState, segment: EventSegment, config: SegmentConfig, acc: np.ndarray
) -> None:
    """Apply every bin of one segment under the batch rule, in place.

    Bin tau is the slice of events between ``bin_edges`` tau and tau+1, as
    in ``build_histogram``. A non-silent bin sums its polarities per pixel
    into ``acc``, the run's flat frame-sized scratch, all +0.0 between bins,
    where sums of +-1 are exact in any order. It decays the whole frame, adds
    ``acc`` times the threshold to every pixel (a dense bin) or to its own
    pixels, and zeroes those of ``acc``. The pixels a sparse bin skips would
    get +0.0: that changes only a -0.0, the same way at any later point, so
    it is added once per segment instead.
    """
    events, cfg = segment.events, state.config
    state.frame = np.ascontiguousarray(state.frame)
    flat = state.frame.reshape(-1)  # a view, as frame is C-contiguous
    edges = bin_edges(segment, config).tolist()
    pix = events["y"].astype(np.intp) * state.geometry.width + events["x"]
    p = events["p"].astype(np.float64)  # np.add.at is ~15x slower on int8
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == lo:
            continue
        b = pix[lo:hi]
        np.add.at(acc, b, p[lo:hi])
        np.multiply(state.frame, _adaptive_decay(cfg, hi - lo), out=state.frame)
        if _DENSE_BIN_EVENTS * (hi - lo) >= flat.shape[0]:
            if cfg.threshold != 1.0:  # acc holds whole counts, which 1.0 keeps bit for bit
                acc *= cfg.threshold
            np.add(flat, acc, out=flat)
        else:  # every duplicate of a pixel writes its one sum
            flat[b] = np.add(flat[b], acc[b] * cfg.threshold)
        acc[b] = 0.0
    if events.shape[0]:  # every event lies in a bin
        np.add(state.frame, 0.0, out=state.frame)


def iter_sequence(
    events,
    geometry: SensorGeometry,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    resume: IntensityState | None = None,
    num_segments: int | None = None,
) -> tuple[IntensityState, Iterator[tuple[EventSegment, np.ndarray]]]:
    """Drive the configured estimator over whole segments, one at a time.

    ``events`` is a record array or a source read in slices, such as
    :func:`evprep.formats.open_evt1`'s. The configs and every record are
    checked, and the segments located, before this returns. It returns the
    state and a generator that, per segment, fetches its events, advances
    the state in place, sets its clock to the segment's end and yields the
    segment with a float32 snapshot of the frame. A ``resume`` state needs
    the run's config (a decay state only its alpha and threshold) and
    continues with the segment starting at its clock, which must be a
    multiple of T, whichever T saved it, and in a decay state after every
    pixel's last event (at 0, with an all-zero frame), which would else be
    applied again: a split run is bit-identical to a single combined run.
    """
    adaptive = int_config.method is Method.ADAPTIVE_BATCH
    if resume is not None:
        if resume.geometry != geometry:
            raise GeometryError("resume state geometry mismatch")
        saved, run = resume.config, int_config
        if not adaptive:  # the decay rule reads neither N nor T/B
            run = replace(run, normalizer=saved.normalizer, bin_duration_us=saved.bin_duration_us)
        if saved != run:
            raise ValueError(f"resume state config mismatch: state {saved}, run {int_config}")
        clock = resume.last_update_time_us
        # at clock 0 every last event time reads 0: only a non-zero frame shows events at 0
        stale = resume.last_event_t_us == clock if clock else resume.frame
        if not adaptive and stale.any():
            raise ValueError(f"resume state clock {clock}us is the time of a pixel's last event")
        state = resume
    else:
        state = IntensityState.initial(geometry, int_config)
    if adaptive and int_config.bin_duration_us != seg_config.bin_duration_us:
        raise ValueError("adaptive bin duration must equal the segment config's T/B")
    T = seg_config.segment_duration_us
    if state.last_update_time_us % T:
        raise ValueError(
            f"state clock {state.last_update_time_us}us is not a multiple of "
            f"the segment duration {T}us"
        )
    first_index = state.last_update_time_us // T + 1
    segments, _ = iter_segments(events, geometry, seg_config, num_segments, first_index)

    def stages():
        acc = np.zeros(state.frame.size) if adaptive else None  # the adaptive bins' sums
        for seg in segments:
            if adaptive:
                _update_adaptive_segment(state, seg, seg_config, acc)
            elif seg.num_events:
                # iter_segments has validated the stream, and each segment
                # starts at or after the clock
                _per_event_decay_fill(state, seg.events)
            state.last_update_time_us = seg.index * T
            try:
                with np.errstate(over="raise"):
                    frame = state.frame.astype(np.float32)
            except FloatingPointError:
                raise FrameRangeError(
                    f"segment {seg.index}: a frame value is beyond float32's range"
                ) from None
            yield seg, frame

    return state, stages()


def run_sequence(
    events: np.ndarray,
    geometry: SensorGeometry,
    seg_config: SegmentConfig,
    int_config: IntensityConfig,
    resume: IntensityState | None = None,
    num_segments: int | None = None,
) -> tuple[IntensityState, list[np.ndarray]]:
    """:func:`iter_sequence`'s frame snapshots in one list."""
    state, stages = iter_sequence(events, geometry, seg_config, int_config, resume, num_segments)
    return state, [frame for _, frame in stages]
