import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprep import (
    SegmentConfig,
    SensorGeometry,
    bin_edges,
    build_histogram,
    flatten_histogram,
    segment_stream,
    signed_bin_accumulation,
)
from evprep import events as events_module
from evprep.errors import EvprepError, FormatError, GeometryError, StreamOrderError
from evprep.events import EventSegment, iter_segments, make_events, validate_stream
from evprep.formats import open_evt1, write_evt1

from conftest import synthetic_events

GEO = SensorGeometry(16, 12)
CFG = SegmentConfig(50_000, 10)


def test_empty_stream_three_segments():
    segs, dropped = segment_stream(make_events([], [], [], []), GEO, CFG, 3)
    assert len(segs) == 3
    assert all(s.num_events == 0 for s in segs)
    assert dropped == 0


def test_half_open_windows():
    ev = make_events([10, 60_000], [0, 1], [0, 1], [1, -1])
    segs, dropped = segment_stream(ev, GEO, CFG, 2)
    assert segs[0].num_events == 1 and segs[1].num_events == 1
    assert dropped == 0


def test_event_at_boundary_goes_to_next_segment():
    ev = make_events([CFG.segment_duration_us], [0], [0], [1])
    segs, _ = segment_stream(ev, GEO, CFG, 2)
    assert segs[0].num_events == 0
    assert segs[1].num_events == 1


def test_events_past_window_dropped_and_counted():
    ev = make_events([10, 100_000, 100_001], [0, 0, 0], [0, 0, 0], [1, 1, 1])
    segs, dropped = segment_stream(ev, GEO, CFG, 2)
    assert sum(s.num_events for s in segs) == 1
    assert dropped == 2


def test_first_index_offsets_windows_and_counts_events_outside():
    T = CFG.segment_duration_us
    ev = make_events([10, 2 * T - 1, 2 * T, 3 * T], [0] * 4, [0] * 4, [1] * 4)
    segs, dropped = segment_stream(ev, GEO, CFG, 1, first_index=3)
    assert [s.index for s in segs] == [3]
    assert segs[0].events["t"].tolist() == [2 * T]
    assert dropped == 3
    with pytest.raises(ValueError, match="first_index"):
        segment_stream(ev, GEO, CFG, 1, first_index=0)


def test_window_past_segment_2_53_keeps_its_events():
    # past 2**53 a float64 cannot tell neighbouring segment numbers apart
    ev = make_events([2**60, 2**60 + 1, 2**60 + 2], [0, 1, 2], [0, 0, 0], [1, 1, 1])
    segs, dropped = segment_stream(
        ev, SensorGeometry(4, 4), SegmentConfig(1, 1), 3, first_index=2**60 + 1
    )
    assert [s.index for s in segs] == [2**60 + 1, 2**60 + 2, 2**60 + 3]
    assert [s.num_events for s in segs] == [1, 1, 1]
    assert dropped == 0


def test_unsorted_rejected_with_index():
    ev = make_events([5, 3, 7], [0, 0, 0], [0, 0, 0], [1, 1, 1])
    with pytest.raises(StreamOrderError) as exc:
        segment_stream(ev, GEO, CFG, 1)
    assert exc.value.index == 1


def test_out_of_geometry_rejected():
    ev = make_events([5], [GEO.width], [0], [1])
    with pytest.raises(GeometryError, match=r"\(16, 0\)"):
        segment_stream(ev, GEO, CFG, 1)


@pytest.mark.parametrize(
    "p, message",
    [([1, 0, 2, -5], "event 1 has polarity 0"), ([1, -1, -5], "event 2 has polarity -5"),
     ([2], "event 0 has polarity 2"), ([-1, -128], "event 1 has polarity -128")],
)
def test_bad_polarity_rejected_with_index_and_value(p, message):
    # such events used to be counted by sign in the histogram, and added
    # with their value to the adaptive frame
    n = len(p)
    ev = make_events(range(n), [0] * n, [0] * n, p)
    with pytest.raises(FormatError, match=message):
        validate_stream(ev, GEO)
    with pytest.raises(FormatError, match=message):
        build_histogram(EventSegment(1, ev), GEO, CFG)


@pytest.mark.parametrize(
    "times, first_index, expected",
    [
        ([], 1, [1]),
        ([], 4, [4]),
        ([0], 1, [1]),
        ([49_999], 1, [1]),
        ([50_000], 1, [1, 2]),
        ([10, 120_000], 1, [1, 2, 3]),
        ([10, 120_000], 2, [2, 3]),
        ([10, 120_000], 3, [3]),
        ([10, 120_000], 5, [5]),
    ],
)
def test_default_segments_run_through_last_event(times, first_index, expected):
    n = len(times)
    ev = make_events(times, [0] * n, [0] * n, [1] * n)
    segs, _ = segment_stream(ev, GEO, CFG, first_index=first_index)
    assert [s.index for s in segs] == expected


def test_single_event_bin_zero():
    ev = make_events([0], [3], [4], [1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    assert hist.counts[1, 0, 4, 3] == 1
    assert hist.total() == 1


def test_bin_index_mid_segment():
    # relative time 25000us of a 50000us segment with B=10 -> bin 5
    ev = make_events([25_000], [3], [4], [-1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    assert hist.counts[0, 5, 4, 3] == 1


def test_bin_index_uses_segment_offset():
    ev = make_events([75_000], [0], [0], [1])
    hist = build_histogram(EventSegment(2, ev), GEO, CFG)
    assert hist.counts[1, 5, 0, 0] == 1


@pytest.mark.parametrize(
    "index, t", [(2, 10), (1, 70_000), (1, CFG.segment_duration_us)]
)
def test_event_outside_segment_window_rejected(index, t):
    # the floor formula counted the first case in the negative plane, bin 0,
    # and clamped the other two into bin B-1
    seg = EventSegment(index, make_events([t], [0], [0], [1]))
    with pytest.raises(ValueError, match="window"):
        build_histogram(seg, GEO, CFG)
    with pytest.raises(ValueError, match="window"):
        bin_edges(seg, CFG)


def test_histogram_rejects_unsorted_or_out_of_geometry_segment():
    # x = W used to be counted at pixel (0, y + 1)
    seg = EventSegment(1, make_events([5], [GEO.width], [0], [1]))
    with pytest.raises(GeometryError):
        build_histogram(seg, GEO, CFG)
    seg = EventSegment(1, make_events([30_000, 10_000], [0, 0], [0, 0], [1, 1]))
    with pytest.raises(StreamOrderError):
        build_histogram(seg, GEO, CFG)


def test_bin_edges_offsets():
    T, bin_us = CFG.segment_duration_us, CFG.bin_duration_us
    ev = make_events([T, T, T + bin_us - 1, T + bin_us, 2 * T - 1], [0] * 5, [0] * 5, [1] * 5)
    edges = bin_edges(EventSegment(2, ev), CFG)
    assert edges.tolist() == [0, 3] + [4] * (CFG.bins_per_segment - 2) + [5]
    empty = bin_edges(EventSegment(7, make_events([], [], [], [])), CFG)
    assert empty.tolist() == [0] * (CFG.bins_per_segment + 1)


@pytest.mark.parametrize("width, height", [(65_536, 1), (1, 65_536), (70_000, 10)])
def test_geometry_outside_16_bit_rejected(width, height):
    with pytest.raises(GeometryError):
        SensorGeometry(width, height)
    SensorGeometry(65_535, 65_535)


def test_same_cell_accumulates():
    ev = make_events([100, 200], [5, 5], [6, 6], [-1, -1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    assert hist.counts[0, 0, 6, 5] == 2
    assert hist.total() == 2


def test_flatten_channel_order():
    ev = make_events([0], [2], [3], [1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    flat = flatten_histogram(hist)
    assert flat.shape == (2 * CFG.bins_per_segment, GEO.height, GEO.width)
    # positive plane, bin 0 -> channel B
    assert flat[CFG.bins_per_segment, 3, 2] == 1.0
    assert flat.sum() == 1.0


def test_flatten_clips_but_counts_stay_raw():
    ev = make_events([0] * 37, [1] * 37, [1] * 37, [1] * 37)
    hist = build_histogram(EventSegment(1, ev), GEO, CFG, clip_max=10)
    assert hist.counts[1, 0, 1, 1] == 37
    assert flatten_histogram(hist)[CFG.bins_per_segment, 1, 1] == 10.0


def test_negative_clip_max_rejected():
    ev = make_events([0], [1], [1], [1])
    with pytest.raises(ValueError, match="clip_max"):
        build_histogram(EventSegment(1, ev), GEO, CFG, clip_max=-1)


def test_flatten_all_zero():
    hist = build_histogram(EventSegment(1, make_events([], [], [], [])), GEO, CFG)
    assert not flatten_histogram(hist).any()


def test_signed_accumulation():
    ev = make_events([0, 1, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, -1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    assert signed_bin_accumulation(hist, 0)[1, 1] == 2


def test_signed_accumulation_cancels():
    ev = make_events([0, 1], [1, 1], [1, 1], [1, -1])
    hist = build_histogram(EventSegment(1, ev), GEO, CFG)
    assert signed_bin_accumulation(hist, 0)[1, 1] == 0


def test_signed_accumulation_empty_bin_and_range():
    hist = build_histogram(EventSegment(1, make_events([], [], [], [])), GEO, CFG)
    assert not signed_bin_accumulation(hist, 9).any()
    with pytest.raises(IndexError):
        signed_bin_accumulation(hist, 10)


@st.composite
def sorted_streams(draw):
    n = draw(st.integers(0, 200))
    ts = sorted(draw(st.lists(st.integers(0, 149_999), min_size=n, max_size=n)))
    xs = draw(st.lists(st.integers(0, GEO.width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, GEO.height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return make_events(ts, xs, ys, ps)


@given(sorted_streams())
@settings(max_examples=50, deadline=None)
def test_partition_property(events):
    segs, dropped = segment_stream(events, GEO, CFG, 3)
    assert dropped == 0
    recombined = np.concatenate([s.events for s in segs])
    assert np.array_equal(recombined, events)


@given(sorted_streams())
@settings(max_examples=50, deadline=None)
def test_conservation_and_bin_bounds(events):
    segs, _ = segment_stream(events, GEO, CFG, 3)
    for seg in segs:
        hist = build_histogram(seg, GEO, CFG)
        assert hist.total() == seg.num_events
        assert (hist.counts >= 0).all()


def floor_oracle(segment, geo, cfg):
    """Per-event bin floor((t - start) * B / T), clamped to B-1, counted one by one."""
    B, T = cfg.bins_per_segment, cfg.segment_duration_us
    start = (segment.index - 1) * T
    counts = np.zeros((2, B, geo.height, geo.width), dtype=np.int64)
    for ev in segment.events:
        tau = min((int(ev["t"]) - start) * B // T, B - 1)
        counts[(int(ev["p"]) + 1) // 2, tau, int(ev["y"]), int(ev["x"])] += 1
    return counts


@st.composite
def binned_segments(draw):
    """A sorted in-window segment under a random T/B, about half of its
    timestamps on a bin edge."""
    bins = draw(st.integers(1, 6))
    cfg = SegmentConfig(bins * draw(st.integers(1, 9)), bins)
    index = draw(st.integers(1, 4))
    start, T = (index - 1) * cfg.segment_duration_us, cfg.segment_duration_us
    times = st.one_of(
        st.integers(start, start + T - 1),
        st.integers(0, bins - 1).map(lambda k: start + k * cfg.bin_duration_us),
    )
    n = draw(st.integers(0, 80))
    events = make_events(
        sorted(draw(st.lists(times, min_size=n, max_size=n))),
        draw(st.lists(st.integers(0, GEO.width - 1), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, GEO.height - 1), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )
    return EventSegment(index, events), cfg


@given(binned_segments())
@settings(max_examples=150, deadline=None)
def test_histogram_matches_floor_oracle(case):
    seg, cfg = case
    assert np.array_equal(build_histogram(seg, GEO, cfg).counts, floor_oracle(seg, GEO, cfg))


xs = st.integers(0, GEO.width - 1)
ys = st.integers(0, GEO.height - 1)
ps = st.sampled_from([-1, 1])


@st.composite
def edge_segments(draw):
    """A segment at the edges of the cell list: empty, one event, every
    event on one cell, or every event in the last bin."""
    bins = draw(st.integers(1, 6))
    cfg = SegmentConfig(bins * draw(st.integers(1, 9)), bins)
    index = draw(st.integers(1, 4))
    start, d = (index - 1) * cfg.segment_duration_us, cfg.bin_duration_us
    kind = draw(st.sampled_from(["empty", "one event", "one cell", "last bin"]))
    n = {"empty": 0, "one event": 1}.get(kind, draw(st.integers(2, 60)))
    times, x, y, p = st.integers(start, start + bins * d - 1), xs, ys, ps
    if kind == "one cell":
        k = draw(st.integers(0, bins - 1))
        times = st.integers(start + k * d, start + (k + 1) * d - 1)
        x, y, p = (st.just(draw(s)) for s in (xs, ys, ps))
    elif kind == "last bin":
        times = st.integers(start + (bins - 1) * d, start + bins * d - 1)
    events = make_events(
        sorted(draw(st.lists(times, min_size=n, max_size=n))),
        *(draw(st.lists(s, min_size=n, max_size=n)) for s in (x, y, p)),
    )
    return EventSegment(index, events), cfg


@given(edge_segments())
@settings(max_examples=150, deadline=None)
def test_compact_histogram_edge_segments(case):
    seg, cfg = case
    hist = build_histogram(seg, GEO, cfg)
    assert np.array_equal(hist.counts, floor_oracle(seg, GEO, cfg))
    assert hist.total() == seg.num_events
    assert (np.diff(hist.cells) > 0).all()
    assert (hist.cell_counts >= 1).all()


def test_histogram_memory_stays_compact():
    # one 250k-event segment at 640x480, B = 10: a dense int64 (2, B, H, W)
    # histogram alone would be 47 MiB, and its float32 flattening 23 MiB
    geo = SensorGeometry(640, 480)
    seg = EventSegment(1, synthetic_events(250_000, geo, CFG.segment_duration_us, seed=4))
    tracemalloc.start()
    try:
        hist = build_histogram(seg, geo, CFG, clip_max=10)
        build_peak = tracemalloc.get_traced_memory()[1]
        flat = flatten_histogram(hist)
        chain_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.total() == seg.num_events and flat.max() <= 10
    assert build_peak < 16 * 2**20, build_peak
    assert chain_peak < 40 * 2**20, chain_peak


@pytest.mark.parametrize(
    "width, dtype",
    # B = 2 and H = 2**14: 2 * B * H * W is 2**31 at W = 2**15, and above it one column more
    [(2**15, np.int32), (2**15 + 1, np.intp)],
)
def test_histogram_keys_at_int32_boundary(width, dtype):
    B, H, W = 2, 2**14, width
    geo, cfg = SensorGeometry(W, H), SegmentConfig(10, B)
    # the last cell, (p = +1, bin 1, y = H - 1, x = W - 1), has the largest
    # flat index: 2**31 - 1 at W = 2**15
    column, row = [0, W - 1, 1, W - 1, W - 1], [0, H - 1, 7, H - 1, H - 1]
    ev = make_events([0, 3, 5, 8, 9], column, row, [-1, 1, -1, 1, 1])
    hist = build_histogram(EventSegment(1, ev), geo, cfg)
    cells = Counter(((int(p > 0) * B + t // 5) * H + y) * W + x for t, x, y, p in ev.tolist())
    assert hist.cells.dtype == dtype
    assert hist.cells.tolist() == sorted(cells)
    assert hist.cell_counts.tolist() == [cells[c] for c in sorted(cells)]
    assert hist.cells[-1] == 2 * B * H * W - 1


def test_build_flatten_deterministic(rng):
    t = np.sort(rng.integers(0, 50_000, size=500))
    ev = make_events(
        t,
        rng.integers(0, GEO.width, 500),
        rng.integers(0, GEO.height, 500),
        rng.choice([-1, 1], 500),
    )
    seg = EventSegment(1, ev)
    a = flatten_histogram(build_histogram(seg, GEO, CFG))
    b = flatten_histogram(build_histogram(seg, GEO, CFG))
    assert np.array_equal(a, b)


def oracle_validate_stream(events, geometry):
    """validate_stream as it was before the block scan: whole-column passes."""
    t = events["t"]
    inv = np.flatnonzero(t[1:] < t[:-1])
    if inv.size:
        raise StreamOrderError(int(inv[0]) + 1)
    bad = np.flatnonzero((events["x"] >= geometry.width) | (events["y"] >= geometry.height))
    if bad.size:
        j = int(bad[0])
        e = events[j]
        raise GeometryError(
            f"event {j} at ({int(e['x'])}, {int(e['y'])}) outside "
            f"{geometry.width}x{geometry.height} sensor"
        )
    p = events["p"]
    bad = np.flatnonzero((p != 1) & (p != -1))
    if bad.size:
        raise FormatError(f"event {bad[0]} has polarity {p[bad[0]]}, not -1 or +1")


def oracle_segment_stream(events, geometry, config, num_segments=None, first_index=1):
    """segment_stream as it was before the block scan: one search of the whole `t` column."""
    oracle_validate_stream(events, geometry)
    T = config.segment_duration_us
    if num_segments is None:
        t_end = int(events["t"][-1]) if events.shape[0] else 0
        num_segments = max(1, t_end // T + 2 - first_index)
    boundaries = np.arange(first_index - 1, first_index + num_segments, dtype=np.uint64) * T
    splits = np.searchsorted(events["t"], boundaries, side="left")
    segments = [
        EventSegment(index=first_index + i, events=events[splits[i] : splits[i + 1]])
        for i in range(num_segments)
    ]
    return segments, events.shape[0] - int(splits[-1] - splits[0])


SMALL = SegmentConfig(1000, 4)


@st.composite
def sparse_streams(draw):
    """Sorted valid streams over up to 12 segments of SMALL, with repeated
    timestamps, events on segment edges and runs of empty segments."""
    n = draw(st.integers(0, 40))
    times = st.one_of(st.integers(0, 11_999), st.integers(0, 12).map(lambda k: k * 1000))
    return make_events(
        sorted(draw(st.lists(times, min_size=n, max_size=n))),
        draw(st.lists(st.integers(0, GEO.width - 1), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, GEO.height - 1), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )


@pytest.mark.parametrize("block", [1, 2, 4, 7])
@given(
    events=sparse_streams(),
    num_segments=st.one_of(st.none(), st.integers(1, 15)),
    first_index=st.integers(1, 14),
)
# with 2, 4 or 7 records a block, the first block spans more segments than it
# has records, so its segment numbers come from t // T, not from its span
@example(
    events=make_events([0, 5000, 5001, 11_999], [0, 1, 2, 3], [0, 0, 1, 1], [1, -1, 1, -1]),
    num_segments=None,
    first_index=1,
)
# with 4 records a block: the first block spans as many segments as it has
# records, the second (which goes on with the first's last segment) more
@example(
    events=make_events([0, 1000, 2000, 3000, 3500, 5000, 6000, 9000],
                       [0] * 8, [0] * 8, [1, -1] * 4),
    num_segments=None,
    first_index=1,
)
# with 4 records a block: the first block spans one segment more than it has
# records, the second only the first's last segment
@example(
    events=make_events([0, 1000, 2000, 4000, 4500, 4600, 4700, 4999],
                       [0] * 8, [0] * 8, [1, -1] * 4),
    num_segments=None,
    first_index=1,
)
@settings(max_examples=60, deadline=None)
def test_block_scan_segments_match_whole_stream(block, events, num_segments, first_index):
    expected, expected_dropped = oracle_segment_stream(events, GEO, SMALL, num_segments, first_index)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_module, "SCAN_BLOCK", block)
        path = Path(tmp) / "stream.evt1"
        write_evt1(path, events, GEO)
        records, _ = open_evt1(path)
        segs, dropped = segment_stream(events, GEO, SMALL, num_segments, first_index)
        file_segs, file_dropped = iter_segments(records, GEO, SMALL, num_segments, first_index)
        file_segs = list(file_segs)
    assert dropped == file_dropped == expected_dropped
    assert len(segs) == len(file_segs) == len(expected)
    for seg, from_file, want in zip(segs, file_segs, expected):
        assert seg.index == from_file.index == want.index
        assert seg.events.base is events or seg.events is events  # a view, not a copy
        assert seg.events.tobytes() == from_file.events.tobytes() == want.events.tobytes()


BAD_RECORDS = ("inversion", "outside", "polarity")


def spoil(events, kind, i):
    """Make record i an inversion, a record outside the sensor or a bad polarity."""
    if kind == "inversion":
        events["t"][i] = events["t"][i - 1] - 1
    elif kind == "outside":
        events["x"][i] = GEO.width
    else:
        events["p"][i] = 0


def ordered_events(n):
    return make_events(np.arange(n) * 10 + 5, np.arange(n) % GEO.width, np.zeros(n), np.ones(n))


def assert_same_error(events, block):
    with pytest.raises(EvprepError) as want:
        oracle_validate_stream(events, GEO)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_module, "SCAN_BLOCK", block)
        for check in (
            lambda: validate_stream(events, GEO),
            lambda: segment_stream(events, GEO, SMALL),
            lambda: build_histogram(EventSegment(1, events), GEO, SegmentConfig(10_000, 2)),
        ):
            with pytest.raises(EvprepError) as got:
                check()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", BAD_RECORDS)
@pytest.mark.parametrize("at", [3, 4, 5, 7, 8, 9])
def test_bad_record_at_block_edge(kind, at):
    # blocks of 4 records: events 4 and 8 start a block, 3 and 7 end one
    events = ordered_events(12)
    spoil(events, kind, at)
    assert_same_error(events, block=4)


@given(
    n=st.integers(2, 30),
    faults=st.lists(st.tuples(st.sampled_from(BAD_RECORDS), st.integers(1, 29)),
                    min_size=1, max_size=3),
    block=st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=150, deadline=None)
def test_block_scan_error_precedence(n, faults, block):
    # the first inversion anywhere beats any record outside the sensor,
    # which beats any bad polarity, wherever the blocks split the stream
    events = ordered_events(n)
    for kind, i in faults:
        spoil(events, kind, i % (n - 1) + 1)
    assert_same_error(events, block)


@pytest.mark.parametrize("block", [1, 2, 4])
def test_validate_stream_takes_the_whole_clock(block):
    # validate_stream scans for one segment of T = 2**63 - 1, yet records
    # past 2T, up to 2**64 - 1, are valid and checked as any other
    t = [0, 2**63 - 2, 2**63 - 1, 2**63, 2**64 - 3, 2**64 - 2, 2**64 - 1, 2**64 - 1]
    events = make_events(t, np.arange(8) % GEO.width, np.zeros(8), np.ones(8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_module, "SCAN_BLOCK", block)
        validate_stream(events, GEO)
    for kind in BAD_RECORDS:
        for at in (2, 4, 7):
            spoiled = events.copy()
            spoil(spoiled, kind, at)
            assert_same_error(spoiled, block)


def assert_same_error_from_file(events, block, tmp_path):
    """assert_same_error's check of iter_segments on open_evt1's records."""
    with pytest.raises(EvprepError) as want:
        oracle_validate_stream(events, GEO)
    path = tmp_path / "bad.evt1"
    write_evt1(path, events, GEO)
    records, _ = open_evt1(path)
    with pytest.MonkeyPatch.context() as mp, pytest.raises(EvprepError) as got:
        mp.setattr(events_module, "SCAN_BLOCK", block)
        iter_segments(records, GEO, SMALL)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("at", [3, 4, 8, 11])
@pytest.mark.parametrize(
    "field, value",
    [("p", 0), ("p", 2), ("p", -2), ("p", 127), ("p", -128), ("x", GEO.width), ("y", GEO.height)],
)
def test_reduction_checks_reject(tmp_path, block, at, field, value):
    # each column is checked by its max (x, y) or by the min and max of |p|;
    # |-128| wraps to -128 in int8, so -128 must still fail. With blocks of
    # 4 records, events 4 and 8 start a block, 3 and 11 end one.
    events = ordered_events(12)
    events[field][at] = value
    assert_same_error(events, block)
    assert_same_error_from_file(events, block, tmp_path)


@pytest.mark.parametrize("block", [1, 4])
def test_reduction_checks_accept_sensor_edge(tmp_path, block):
    # x = W-1 and y = H-1 lie on the sensor, one below what the max check rejects
    events = ordered_events(12)
    events["x"][[0, 4, 11]] = GEO.width - 1
    events["y"][[3, 8, 11]] = GEO.height - 1
    events["p"][::3] = -1
    path = tmp_path / "edge.evt1"
    write_evt1(path, events, GEO)
    records, _ = open_evt1(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_module, "SCAN_BLOCK", block)
        validate_stream(events, GEO)
        segs, _ = segment_stream(events, GEO, SMALL)
        file_segs, _ = iter_segments(records, GEO, SMALL)
        assert [s.events.tobytes() for s in file_segs] == [s.events.tobytes() for s in segs]
        for seg in segs:
            assert np.array_equal(
                build_histogram(seg, GEO, SMALL).counts, floor_oracle(seg, GEO, SMALL)
            )


def test_histogram_of_strided_segment_matches_oracle(rng):
    # every second record of a stream: a view whose columns are not contiguous
    n = 400
    events = make_events(
        np.sort(rng.integers(0, 50_000, n)),
        rng.integers(0, GEO.width, n),
        rng.integers(0, GEO.height, n),
        rng.choice([-1, 1], n),
    )
    seg = EventSegment(1, events[::2])
    assert not seg.events.flags.c_contiguous
    hist = build_histogram(seg, GEO, CFG, clip_max=1)
    assert np.array_equal(hist.counts, floor_oracle(seg, GEO, CFG))
    assert hist.total() == n // 2
