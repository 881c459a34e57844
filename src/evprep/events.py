"""Event types, stream segmentation, and binned histogram construction.

Events are kept in a packed numpy record array (one record per event)
matching the on-disk EVT1 layout. Timestamps are integer microseconds,
polarity is a signed byte in {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evprep import _kernels
from evprep.errors import GeometryError, StreamOrderError

# packed 13-byte record, identical to one EVT1 file record
EVENT_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")]
)


def make_events(t, x, y, p) -> np.ndarray:
    """Assemble parallel sequences into an event record array."""
    t = np.asarray(t, dtype=np.uint64)
    ev = np.empty(t.shape[0], dtype=EVENT_DTYPE)
    ev["t"] = t
    ev["x"] = np.asarray(x, dtype=np.uint16)
    ev["y"] = np.asarray(y, dtype=np.uint16)
    ev["p"] = np.asarray(p, dtype=np.int8)
    return ev


def event_fields(events: np.ndarray):
    """Split a record array into contiguous (t, x, y, p) int arrays."""
    t = np.ascontiguousarray(events["t"]).astype(np.int64)
    x = np.ascontiguousarray(events["x"]).astype(np.int64)
    y = np.ascontiguousarray(events["y"]).astype(np.int64)
    p = np.ascontiguousarray(events["p"]).astype(np.int64)
    return t, x, y, p


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise GeometryError(f"invalid geometry {self.width}x{self.height}")


@dataclass(frozen=True)
class SegmentConfig:
    """Fixed segment duration T and bin count B, with exact bin length T/B."""

    segment_duration_us: int
    bins_per_segment: int

    def __post_init__(self):
        if self.segment_duration_us <= 0 or self.bins_per_segment <= 0:
            raise ValueError("segment duration and bin count must be positive")
        if self.segment_duration_us >= 2**63:
            raise ValueError("segment duration must be below 2**63us")
        if self.segment_duration_us % self.bins_per_segment != 0:
            raise ValueError(
                f"segment duration {self.segment_duration_us}us not divisible "
                f"by {self.bins_per_segment} bins"
            )

    @property
    def bin_duration_us(self) -> int:
        return self.segment_duration_us // self.bins_per_segment


@dataclass
class EventSegment:
    """Events of one half-open window [(index-1)*T, index*T). ``index`` is 1-based."""

    index: int
    events: np.ndarray

    @property
    def num_events(self) -> int:
        return self.events.shape[0]


@dataclass
class StageHistogram:
    """Per-segment (2, B, H, W) polarity/bin/pixel event counts.

    Plane 0 counts negative events, plane 1 positive. ``clip_max`` only
    affects the flattened model-input tensor; the raw counts stay exact.
    """

    counts: np.ndarray
    clip_max: int | None = None

    @property
    def num_bins(self) -> int:
        return self.counts.shape[1]

    def total(self) -> int:
        return int(self.counts.sum())


def validate_stream(events: np.ndarray, geometry: SensorGeometry) -> None:
    """Reject unsorted streams and out-of-geometry coordinates."""
    t = events["t"]
    if t.shape[0] > 1:
        inv = np.nonzero(t[1:] < t[:-1])[0]
        if inv.size:
            raise StreamOrderError(int(inv[0]) + 1)
    bad = np.nonzero(
        (events["x"] >= geometry.width) | (events["y"] >= geometry.height)
    )[0]
    if bad.size:
        j = int(bad[0])
        e = events[j]
        raise GeometryError(
            f"event {j} at ({int(e['x'])}, {int(e['y'])}) outside "
            f"{geometry.width}x{geometry.height} sensor"
        )


def segment_stream(
    events: np.ndarray,
    geometry: SensorGeometry,
    config: SegmentConfig,
    num_segments: int,
    first_index: int = 1,
) -> tuple[list[EventSegment], int]:
    """Validate a stream and partition it into ``num_segments`` half-open
    windows, numbered from ``first_index``.

    Returns the segments covering [(first_index-1)*T, (first_index-1+M)*T)
    and the count of dropped events: those outside that window.
    """
    if num_segments < 1:
        raise ValueError("num_segments must be >= 1")
    if first_index < 1:
        raise ValueError("first_index must be >= 1")
    validate_stream(events, geometry)
    T = np.uint64(config.segment_duration_us)
    boundaries = np.arange(first_index - 1, first_index + num_segments, dtype=np.uint64) * T
    splits = np.searchsorted(events["t"], boundaries, side="left")
    segments = [
        EventSegment(index=first_index + i, events=events[splits[i] : splits[i + 1]])
        for i in range(num_segments)
    ]
    dropped = events.shape[0] - int(splits[-1] - splits[0])
    return segments, dropped


def build_histogram(
    segment: EventSegment,
    geometry: SensorGeometry,
    config: SegmentConfig,
    clip_max: int | None = None,
) -> StageHistogram:
    """Count events per (polarity, temporal bin, pixel).

    Bin index is floor(rel_t * B / T) on integer microseconds, clamped
    into [0, B-1].
    """
    B = config.bins_per_segment
    counts = np.zeros(
        (2, B, geometry.height, geometry.width), dtype=np.int64
    )
    if segment.num_events:
        t, x, y, p = event_fields(segment.events)
        seg_start = (segment.index - 1) * config.segment_duration_us
        _kernels.histogram_fill(
            t, x, y, p, seg_start, config.segment_duration_us, B, counts
        )
    return StageHistogram(counts=counts, clip_max=clip_max)


def flatten_histogram(hist: StageHistogram) -> np.ndarray:
    """Flatten (2, B, H, W) to the (2B, H, W) model-input tensor.

    Channel k = polarity_index * B + bin. Saturates at ``clip_max`` when
    set, then casts to float32.
    """
    counts = hist.counts
    if hist.clip_max is not None:
        counts = np.minimum(counts, hist.clip_max)
    two, B, H, W = counts.shape
    return counts.reshape(two * B, H, W).astype(np.float32)


def signed_bin_accumulation(hist: StageHistogram, tau: int) -> np.ndarray:
    """Positive minus negative count image for one temporal bin (unclipped)."""
    if not 0 <= tau < hist.num_bins:
        raise IndexError(f"bin {tau} out of range [0, {hist.num_bins})")
    return hist.counts[1, tau] - hist.counts[0, tau]
