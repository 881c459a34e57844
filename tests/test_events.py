import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprep import (
    SegmentConfig,
    SensorGeometry,
    build_histogram,
    flatten_histogram,
    segment_stream,
    signed_bin_accumulation,
)
from evprep.errors import GeometryError, StreamOrderError
from evprep.events import EventSegment, make_events

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


def test_unsorted_rejected_with_index():
    ev = make_events([5, 3, 7], [0, 0, 0], [0, 0, 0], [1, 1, 1])
    with pytest.raises(StreamOrderError) as exc:
        segment_stream(ev, GEO, CFG, 1)
    assert exc.value.index == 1


def test_out_of_geometry_rejected():
    ev = make_events([5], [GEO.width], [0], [1])
    with pytest.raises(GeometryError, match=r"\(16, 0\)"):
        segment_stream(ev, GEO, CFG, 1)


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
