"""Event types, stream segmentation, and binned histogram construction.

Events are kept in a packed numpy record array (one record per event)
matching the on-disk EVT1 layout. Timestamps are integer microseconds,
polarity is a signed byte in {-1, +1}.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from evprep.errors import FormatError, GeometryError, SegmentCountError, StreamOrderError

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


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        # EVT1 and INTF headers store both as u16
        if not (0 < self.width < 2**16 and 0 < self.height < 2**16):
            raise GeometryError(f"invalid geometry {self.width}x{self.height}, not in [1, 65535]")


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
    """Per-segment polarity/bin/pixel event counts, kept as the cells with events.

    ``cells`` are the ascending flat indices into the (2, B, H, W) array of
    ``shape`` of the cells with at least one event, ``cell_counts`` their
    counts; ``cells`` is int32 when 2*B*H*W <= 2**31, else intp. Plane 0
    counts negative events, plane 1 positive. ``clip_max`` only affects the
    flattened model-input tensor; the raw counts stay exact.
    """

    shape: tuple[int, int, int, int]
    cells: np.ndarray
    cell_counts: np.ndarray
    clip_max: int | None = None

    def total(self) -> int:
        return int(self.cell_counts.sum())

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense int64 (2, B, H, W) counts, built on first read."""
        counts = np.zeros(self.shape, dtype=np.int64)
        counts.reshape(-1)[self.cells] = self.cell_counts
        return counts


# Records per block of the stream scan: 3.4 MB of records, plus a 2 MB
# contiguous copy of their timestamps. On a 2-vCPU Xeon (numpy 2.4, glibc
# malloc), fresh `evprep intensity` runs on two 1M-event 640x480 streams
# gave these minor page faults and peak RSS (adaptive on 100 bursty
# segments; decay on 40 segments with hot pixels), against 4.3k/5.2k and
# 51/52 MiB when the whole stream was read at once:
#   2**16: 21.0k / 14.1k, 38 / 39 MiB     2**18: 4.2k / 5.4k, 38 / 41 MiB
#   2**17: 21.4k / 4.3k, 38 / 40 MiB      2**19: 3.8k / 5.5k, 43 / 46 MiB
# Below 2**18 the freed blocks leave glibc's mmap threshold under the
# adaptive estimator's 2.4 MB frame-sized arrays, whose pages are then
# faulted in again every segment.
SCAN_BLOCK = 2**18

# INTF stores the frame count as u32, EVT1 the event count
MAX_SEGMENTS = 2**32 - 1
MAX_EVENTS = 2**32 - 1
# the estimators and state files keep times as int64 microseconds
MAX_CLOCK_US = 2**63 - 1


def _check_columns(lo: int, t, x, y, p, geometry: SensorGeometry):
    """Check the columns of the records from ``lo`` on, ``t`` contiguous: raise
    StreamOrderError at their first inversion, else return the errors of the
    first record outside the sensor and of the first polarity not in {-1, +1},
    or None. Only a failed max or min is searched for its record."""
    inv = t[1:] < t[:-1]
    if inv.any():
        raise StreamOrderError(lo + int(inv.argmax()) + 1)
    geometry_error = polarity_error = None
    if t.size and (x.max() >= geometry.width or y.max() >= geometry.height):
        j = int(np.flatnonzero((x >= geometry.width) | (y >= geometry.height))[0])
        geometry_error = GeometryError(
            f"event {lo + j} at ({x[j]}, {y[j]}) outside {geometry.width}x{geometry.height} sensor"
        )
    magnitude = np.abs(p)  # an int8 -128 stays -128
    if t.size and (magnitude.min() != 1 or magnitude.max() != 1):
        j = int(np.flatnonzero((p != 1) & (p != -1))[0])
        polarity_error = FormatError(f"event {lo + j} has polarity {p[j]}, not -1 or +1")
    return geometry_error, polarity_error


def _scan(source, geometry: SensorGeometry, segment_duration_us: int):
    """Check every record of ``source``, ``SCAN_BLOCK`` records at a time.

    ``source`` is a record array or anything with ``len()`` and ``[lo:hi]``
    slicing to one, such as ``formats.open_evt1``'s. Raises what the first
    bad record calls for: the first inversion anywhere, else the first
    record outside the sensor, else the first polarity not in {-1, +1}.
    Returns the segment numbers t // T of the non-empty segments,
    ascending, and the offsets where they start.
    """
    geometry_error = polarity_error = None
    T = np.uint64(segment_duration_us)
    keys, starts = [np.zeros(0, np.uint64)], [np.zeros(0, np.intp)]
    for lo in range(0, len(source), SCAN_BLOCK):
        block = source[lo : lo + SCAN_BLOCK]
        t = np.ascontiguousarray(block["t"])
        if lo and t[0] < prev_t:
            raise StreamOrderError(lo)
        # a bad record is remembered until the order check has seen them all
        errors = _check_columns(lo, t, block["x"], block["y"], block["p"], geometry)
        geometry_error = geometry_error or errors[0]
        polarity_error = polarity_error or errors[1]
        prev_t = t[-1]
        q0, q1 = int(t[0] // T), int(t[-1] // T)
        # search for each segment number of the block's span, or for t // T's if fewer
        key = np.arange(q0, q1 + 1, dtype=np.uint64) if q1 - q0 < t.size else np.unique(t // T)
        new = np.searchsorted(t, key * T)
        nonempty = np.diff(new, append=t.size) > 0
        key, new = key[nonempty], new[nonempty]
        seen = int(lo > 0 and key[0] == prev_key)  # a segment begun in an earlier block
        keys.append(key[seen:])
        starts.append(new[seen:] + lo)
        prev_key = key[-1]
        # freed before the next block is read, which can then reuse their memory
        block = t = key = None
    if geometry_error or polarity_error:
        raise geometry_error or polarity_error
    return np.concatenate(keys), np.concatenate(starts)


def validate_stream(events, geometry: SensorGeometry) -> None:
    """Reject unsorted streams, out-of-geometry coordinates and polarities not in
    {-1, +1}: :func:`iter_segments`'s scan, of one segment spanning the int64 clock."""
    iter_segments(events, geometry, SegmentConfig(MAX_CLOCK_US, 1), 1)


def iter_segments(
    source,
    geometry: SensorGeometry,
    config: SegmentConfig,
    num_segments: int | None = None,
    first_index: int = 1,
) -> tuple[Iterator[EventSegment], int]:
    """Check a stream and partition it into M half-open windows covering
    [(first_index-1)*T, (first_index-1+M)*T), fetched one at a time.

    ``source`` is a record array or anything with ``len()`` and ``[lo:hi]``
    slicing to one, such as :func:`evprep.formats.open_evt1`'s. Every
    record is checked, one block at a time, before this returns a generator
    of the segments, slices ``source[lo:hi]`` (so views of a record array),
    and the count of dropped events: those outside the window. M is
    ``num_segments``, by default running through the last event, with at
    least one segment; it may not exceed ``MAX_SEGMENTS``, nor the window
    end past ``MAX_CLOCK_US``.
    """
    if first_index < 1:
        raise ValueError("first_index must be >= 1")
    T = config.segment_duration_us
    keys, starts = _scan(source, geometry, T)
    n = len(source)
    q0 = first_index - 1  # segment number t // T of the first segment
    if num_segments is None:
        num_segments = max(1, (int(keys[-1]) if n else 0) + 1 - q0)
    if num_segments < 1:
        raise ValueError("num_segments must be >= 1")
    if num_segments > MAX_SEGMENTS:
        raise SegmentCountError(
            f"{num_segments} segments of {T}us: an INTF file holds at most {MAX_SEGMENTS} frames"
        )
    end_us = (q0 + num_segments) * T
    if end_us > MAX_CLOCK_US:
        raise SegmentCountError(
            f"{num_segments} segments of {T}us end at {end_us}us, "
            f"past the int64 clock's {MAX_CLOCK_US}us"
        )
    # offsets[j] is where the j-th non-empty segment starts, and ends the one before
    offsets = np.append(starts, n)
    # uint64 bounds: Python ints would be compared with the keys as float64
    first, last = np.searchsorted(keys, np.array([q0, q0 + num_segments], dtype=np.uint64))

    def segments():
        j = int(first)
        for q in range(q0, q0 + num_segments):
            lo = int(offsets[j])
            if j < last and keys[j] == q:
                j += 1
            yield EventSegment(index=q + 1, events=source[lo : int(offsets[j])])

    return segments(), n - int(offsets[last] - offsets[first])


def segment_stream(
    events: np.ndarray,
    geometry: SensorGeometry,
    config: SegmentConfig,
    num_segments: int | None = None,
    first_index: int = 1,
) -> tuple[list[EventSegment], int]:
    """:func:`iter_segments` with every segment in one list."""
    segments, dropped = iter_segments(events, geometry, config, num_segments, first_index)
    return list(segments), dropped


def _edges(t, index: int, config: SegmentConfig) -> np.ndarray:
    """:func:`bin_edges` of the sorted timestamps ``t`` of segment ``index``."""
    start = (index - 1) * config.segment_duration_us
    steps = np.arange(config.bins_per_segment + 1, dtype=np.uint64)
    edges = np.searchsorted(t, np.uint64(start) + steps * np.uint64(config.bin_duration_us))
    if edges[0] != 0 or edges[-1] != t.size:
        raise ValueError(
            f"segment {index}: {t.size - int(edges[-1] - edges[0])} "
            f"events outside its window [{start}, {start + config.segment_duration_us})us"
        )
    return edges


def bin_edges(segment: EventSegment, config: SegmentConfig) -> np.ndarray:
    """Event offsets of the segment's B+1 temporal bin edges.

    Bin tau holds ``segment.events[edges[tau]:edges[tau+1]]``: the events
    in [start + tau*T/B, start + (tau+1)*T/B) with start = (index-1)*T.
    Events must be sorted by time, as the scan behind :func:`iter_segments`
    checks them; the search runs on one contiguous copy of their timestamps.
    Raises ValueError if any event lies outside the segment's window.
    """
    return _edges(np.ascontiguousarray(segment.events["t"]), segment.index, config)


def build_histogram(
    segment: EventSegment,
    geometry: SensorGeometry,
    config: SegmentConfig,
    clip_max: int | None = None,
) -> StageHistogram:
    """Count events per (polarity, temporal bin, pixel), with the bins of
    ``bin_edges``.

    Raises what :func:`validate_stream` raises for a bad segment, ValueError
    for events outside its window or a negative ``clip_max``.
    """
    if clip_max is not None and not clip_max >= 0:
        raise ValueError(f"clip_max must be >= 0, got {clip_max}")
    B, H, W = config.bins_per_segment, geometry.height, geometry.width
    # each field read once, into a contiguous column the check, the edges and the key share
    t, x, y, p = (np.ascontiguousarray(segment.events[f]) for f in EVENT_DTYPE.names)
    errors = _check_columns(0, t, x, y, p, geometry)
    if errors[0] or errors[1]:
        raise errors[0] or errors[1]
    edges = _edges(t, segment.index, config)
    # the flat index ((polarity * B + bin) * H + y) * W + x, built in place:
    # one array of n, where the bins as an np.repeat array would be a second.
    # int32 keys sort in about half the time of int64 ones when they fit.
    key = (p > 0).astype(np.int32 if 2 * B * H * W <= 2**31 else np.intp)
    key *= B
    for tau in range(1, B):
        key[edges[tau] : edges[tau + 1]] += tau
    key *= H
    key += y
    key *= W
    key += x
    t = x = y = p = None  # freed before the runs' temporaries are made
    key.sort()
    # each run of equal keys is one cell; bounds holds the runs' starts, then n
    new_run = np.empty(key.size + 1, dtype=bool)
    new_run[0] = new_run[-1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:-1])
    bounds = np.flatnonzero(new_run)
    return StageHistogram(
        shape=(2, B, H, W), cells=key[bounds[:-1]], cell_counts=np.diff(bounds), clip_max=clip_max
    )


def flatten_histogram(hist: StageHistogram) -> np.ndarray:
    """Flatten (2, B, H, W) to the (2B, H, W) model-input tensor.

    Channel k = polarity_index * B + bin. Saturates at ``clip_max`` when
    set, then casts to float32.
    """
    two, B, H, W = hist.shape
    out = np.zeros((two * B, H, W), dtype=np.float32)
    counts = hist.cell_counts
    if hist.clip_max is not None:
        counts = np.minimum(counts, hist.clip_max)
    out.reshape(-1)[hist.cells] = counts
    return out


def signed_bin_accumulation(hist: StageHistogram, tau: int) -> np.ndarray:
    """Positive minus negative count image for one temporal bin (unclipped)."""
    if not 0 <= tau < hist.shape[1]:
        raise IndexError(f"bin {tau} out of range [0, {hist.shape[1]})")
    return hist.counts[1, tau] - hist.counts[0, tau]
