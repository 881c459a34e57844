import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprep import (
    IntensityConfig,
    IntensityState,
    Method,
    SegmentConfig,
    SensorGeometry,
    run_sequence,
    segment_stream,
    simulate_events,
    update_adaptive_batch,
    update_per_event,
)
from evprep.errors import GeometryError, StreamOrderError
from evprep.events import (
    EventSegment,
    build_histogram,
    make_events,
    signed_bin_accumulation,
)
from evprep.intensity import iter_sequence
from conftest import disc_scene

GEO = SensorGeometry(16, 12)
SEG = SegmentConfig(50_000, 10)


def decay_cfg(**kw):
    return IntensityConfig(Method.PER_EVENT_DECAY, **kw)


def adaptive_cfg(**kw):
    kw.setdefault("bin_duration_us", 5000)
    return IntensityConfig(Method.ADAPTIVE_BATCH, **kw)


def test_no_events_state_unchanged():
    state = IntensityState.initial(GEO, decay_cfg())
    before = state.frame.copy()
    update_per_event(state, make_events([], [], [], []))
    assert np.array_equal(state.frame, before)


def test_single_event_on_zero_pixel():
    state = IntensityState.initial(GEO, decay_cfg(threshold=0.7))
    update_per_event(state, make_events([123], [2], [3], [1]))
    assert state.frame[3, 2] == pytest.approx(0.7)
    assert state.frame.sum() == pytest.approx(0.7)


def test_event_pair_closed_form():
    # positive then negative at one pixel: final value (e^{-a dt} - 1) * C
    alpha, C, dt_us = 5.0, 1.0, 20_000
    state = IntensityState.initial(GEO, decay_cfg(alpha_per_s=alpha, threshold=C))
    update_per_event(state, make_events([1000, 1000 + dt_us], [4, 4], [5, 5], [1, -1]))
    expected = (math.exp(-alpha * dt_us * 1e-6) - 1.0) * C
    assert state.frame[5, 4] == pytest.approx(expected, rel=1e-12)


def test_unsorted_events_rejected():
    state = IntensityState.initial(GEO, decay_cfg())
    with pytest.raises(StreamOrderError) as exc:
        update_per_event(state, make_events([3, 10, 5], [0, 0, 0], [0, 0, 0], [1, 1, 1]))
    assert exc.value.index == 2
    state.last_update_time_us = 4
    with pytest.raises(StreamOrderError) as exc:
        update_per_event(state, make_events([3, 10], [0, 0], [0, 0], [1, 1]))
    assert exc.value.index == 0


def test_per_event_outside_geometry_rejected():
    # x=5 on a 4-wide sensor used to land on pixel (1, 1) of the next row
    state = IntensityState.initial(SensorGeometry(4, 3), decay_cfg())
    with pytest.raises(GeometryError, match=r"\(5, 0\)"):
        update_per_event(state, make_events([10], [5], [0], [1]))
    assert not state.frame.any() and not state.last_event_t_us.any()


@pytest.mark.parametrize(
    "kw", [{"alpha_per_s": math.nan}, {"alpha_per_s": math.inf}, {"threshold": math.nan},
           {"threshold": -math.inf}]
)
def test_non_finite_config_rejected(kw):
    with pytest.raises(ValueError):
        decay_cfg(**kw)


@pytest.mark.parametrize("threshold", [0.0, -0.0, -1.5, -math.inf, math.nan, math.inf, 3.5e38])
def test_threshold_outside_float32_positive_range_rejected(threshold):
    with pytest.raises(ValueError, match=r"^threshold must be finite, > 0 and <= float32's max"):
        decay_cfg(threshold=threshold)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: decay_cfg(normalizer=0), "normalizer must be positive", id="normalizer"),
        pytest.param(lambda: decay_cfg(normalizer=2**63), "normalizer must be below 2**63",
                     id="normalizer-int64"),
        pytest.param(lambda: decay_cfg(threshold=3.5e38),
                     "threshold must be finite, > 0 and <= float32's max 3.4028235e+38",
                     id="threshold-float32"),
        pytest.param(
            lambda: decay_cfg(bin_duration_us=0), "bin duration must be positive", id="bin-duration"
        ),
        pytest.param(
            lambda: run_sequence(
                make_events([], [], [], []), GEO, SEG, adaptive_cfg(bin_duration_us=4000)
            ),
            "adaptive bin duration must equal the segment config's T/B",
            id="adaptive-bin-duration",
        ),
    ],
)
def test_bad_config_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("num_segments", [0, -3])
def test_run_sequence_rejects_non_positive_segment_count(num_segments):
    with pytest.raises(ValueError, match="num_segments"):
        run_sequence(make_events([], [], [], []), GEO, SEG, decay_cfg(), num_segments=num_segments)


def test_adaptive_silent_bin_bit_identical(rng):
    state = IntensityState.initial(GEO, adaptive_cfg())
    state.frame[:] = rng.normal(size=state.frame.shape)
    before = state.frame.copy()
    update_adaptive_batch(state, np.zeros(state.frame.shape, dtype=np.int64), 0)
    assert np.array_equal(state.frame, before)
    assert state.last_update_time_us == state.config.bin_duration_us


def test_adaptive_pure_decay():
    cfg = adaptive_cfg(alpha_per_s=5.0, normalizer=5000)
    state = IntensityState.initial(GEO, cfg)
    state.frame[:] = 3.0
    signed = np.zeros(state.frame.shape, dtype=np.int64)
    update_adaptive_batch(state, signed, 5000)
    assert state.frame[0, 0] == pytest.approx(3.0 * math.exp(-5.0 * 0.005), rel=1e-12)


def test_adaptive_derived_value():
    # alpha=5/s, dt=5ms, n=N=5000, v=1, E=+2, C=1 -> e^-0.025 + 2
    cfg = adaptive_cfg(alpha_per_s=5.0, normalizer=5000, threshold=1.0)
    state = IntensityState.initial(GEO, cfg)
    state.frame[:] = 1.0
    signed = np.full(state.frame.shape, 2, dtype=np.int64)
    update_adaptive_batch(state, signed, 5000)
    assert state.frame[7, 7] == pytest.approx(2.9753099120283326, rel=1e-12)


def test_adaptive_negative_count_rejected():
    state = IntensityState.initial(GEO, adaptive_cfg())
    with pytest.raises(ValueError):
        update_adaptive_batch(state, np.zeros(state.frame.shape, dtype=np.int64), -1)


def test_run_sequence_empty_stream():
    empty = make_events([], [], [], [])
    _, frames = run_sequence(empty, GEO, SEG, adaptive_cfg(), num_segments=2)
    assert len(frames) == 2
    assert not frames[0].any() and not frames[1].any()


@pytest.mark.parametrize("method", [Method.PER_EVENT_DECAY, Method.ADAPTIVE_BATCH])
def test_split_run_matches_single_run(scene, method):
    events = simulate_events(scene)
    geo = scene.geometry
    seg = SegmentConfig(20_000, 4)
    cfg = IntensityConfig(method, bin_duration_us=seg.bin_duration_us)
    _, combined = run_sequence(events, geo, seg, cfg, num_segments=5)

    cut = np.searchsorted(events["t"], 40_000)
    state, first = run_sequence(events[:cut], geo, seg, cfg, num_segments=2)
    state, second = run_sequence(
        events[cut:], geo, seg, cfg, resume=state, num_segments=3
    )
    frames = first + second
    assert len(frames) == len(combined)
    for a, b in zip(frames, combined):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("method", [Method.PER_EVENT_DECAY, Method.ADAPTIVE_BATCH])
def test_iter_sequence_pairs_each_segment_with_its_frame(method):
    # T = 50 ms: segments 2, 4 and 5 are empty, and 400 ms is past segment 6
    events = make_events(
        [100, 900, 120_000, 130_000, 260_000, 270_000, 400_000],
        [1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6], [1, -1, 1, 1, -1, 1, 1],
    )
    cfg = decay_cfg() if method is Method.PER_EVENT_DECAY else adaptive_cfg()

    def state_after(done):  # a new state at the end of segment ``done``
        return run_sequence(events, GEO, SEG, cfg, num_segments=done)[0] if done else None

    for done in (0, 2):  # a fresh run, and one resumed after segment 2
        count, resume = 6 - done, state_after(done)
        clock = resume.last_update_time_us if resume else 0
        segments, _ = segment_stream(events, GEO, SEG, count, first_index=done + 1)
        _, frames = run_sequence(events, GEO, SEG, cfg, state_after(done), count)
        _, stages = iter_sequence(events, GEO, SEG, cfg, resume, count)
        pairs = [(seg.index, seg.events.tobytes(), frame.tobytes()) for seg, frame in stages]
        assert pairs == [
            (seg.index, seg.events.tobytes(), frame.tobytes()) for seg, frame in zip(segments, frames)
        ]
        assert pairs[0][0] == clock // SEG.segment_duration_us + 1 == done + 1


@pytest.mark.parametrize("method", [Method.PER_EVENT_DECAY, Method.ADAPTIVE_BATCH])
def test_resume_at_double_segment_duration(scene, method):
    # a run of 4 segments of 10 ms leaves the clock at 40 ms, the start of
    # the third 20 ms segment; 5 ms bins in both runs
    events = simulate_events(scene)
    geo = scene.geometry
    short, long = SegmentConfig(10_000, 2), SegmentConfig(20_000, 4)
    cfg = IntensityConfig(method, bin_duration_us=5000)
    _, single = run_sequence(events, geo, short, cfg, num_segments=10)

    state, _ = run_sequence(events, geo, short, cfg, num_segments=4)
    state, resumed = run_sequence(events, geo, long, cfg, resume=state)
    assert [f.tobytes() for f in resumed] == [single[k].tobytes() for k in (5, 7, 9)]
    assert state.last_update_time_us == 100_000

    # after 3 segments the clock, 30 ms, is no 20 ms segment boundary
    state, _ = run_sequence(events, geo, short, cfg, num_segments=3)
    with pytest.raises(ValueError, match="clock 30000us .* segment duration 20000us"):
        run_sequence(events, geo, long, cfg, resume=state)


@pytest.mark.parametrize("method", [Method.PER_EVENT_DECAY, Method.ADAPTIVE_BATCH])
def test_clock_ends_at_last_segment(scene, method):
    # the last event of the disc scene is at 99 ms: the decay rule alone
    # would leave the clock there
    events = simulate_events(scene)
    seg = SegmentConfig(20_000, 4)
    cfg = IntensityConfig(method, bin_duration_us=seg.bin_duration_us)
    state, _ = run_sequence(events, scene.geometry, seg, cfg, num_segments=7)
    assert state.last_update_time_us == 7 * 20_000
    state, frames = run_sequence(events, scene.geometry, seg, cfg)
    assert len(frames) == 5
    assert state.last_update_time_us == 5 * 20_000


def test_resume_mismatch_rejected(scene):
    events = simulate_events(scene)
    seg = SegmentConfig(20_000, 4)
    cfg = adaptive_cfg(bin_duration_us=5000)
    state, _ = run_sequence(events, scene.geometry, seg, cfg, num_segments=2)
    other = IntensityConfig(Method.ADAPTIVE_BATCH, alpha_per_s=9.0, bin_duration_us=5000)
    with pytest.raises(ValueError):
        run_sequence(events, scene.geometry, seg, other, resume=state)
    with pytest.raises(GeometryError):
        run_sequence(events, SensorGeometry(8, 8), seg, cfg, resume=state)


def test_linearity_in_threshold(scene):
    events = simulate_events(scene)
    seg = SegmentConfig(20_000, 4)
    for method in Method:
        cfg1 = IntensityConfig(method, threshold=1.0, bin_duration_us=5000)
        cfg3 = IntensityConfig(method, threshold=3.0, bin_duration_us=5000)
        _, f1 = run_sequence(events, scene.geometry, seg, cfg1, num_segments=5)
        _, f3 = run_sequence(events, scene.geometry, seg, cfg3, num_segments=5)
        for a, b in zip(f1, f3):
            np.testing.assert_allclose(3.0 * a, b, rtol=1e-6)


def test_long_run_bounded_and_finite(rng):
    # bounded per-bin signed counts keep the frame within Emax*C/(1-decay)
    cfg = adaptive_cfg(alpha_per_s=5.0, normalizer=100, threshold=1.0)
    state = IntensityState.initial(GEO, cfg)
    emax, n_min = 4, 50
    for _ in range(5000):
        signed = rng.integers(-emax, emax + 1, size=state.frame.shape)
        n = max(n_min, int(np.abs(signed).sum()))
        update_adaptive_batch(state, signed, n)
    bound = emax * 1.0 / (1.0 - math.exp(-5.0 * 0.005 * n_min / 100))
    assert np.isfinite(state.frame).all()
    assert np.abs(state.frame).max() <= bound


def test_eq6_trail_persists_eq7_trail_decays(scene):
    from evprep import trail_energy, trail_region

    events = simulate_events(scene)
    seg = SegmentConfig(10_000, 2)
    region = trail_region(scene, 60_000)
    _, decay_frames = run_sequence(
        events, scene.geometry, seg,
        IntensityConfig(Method.PER_EVENT_DECAY, bin_duration_us=5000),
        num_segments=10,
    )
    _, adaptive_frames = run_sequence(
        events, scene.geometry, seg,
        IntensityConfig(Method.ADAPTIVE_BATCH, alpha_per_s=50.0, normalizer=100,
                        bin_duration_us=5000),
        num_segments=10,
    )
    tail = slice(6, 10)  # frames after the disc cleared the region
    e_decay = trail_energy(decay_frames[tail], region)
    e_adaptive = trail_energy(adaptive_frames[tail], region)
    assert all(a == pytest.approx(e_decay[0], rel=1e-9) for a in e_decay)
    assert all(b < a for a, b in zip(e_adaptive, e_adaptive[1:]))
    assert e_adaptive[-1] < e_decay[-1]


def adaptive_oracle(events, geo, seg, cfg, num_segments):
    """The adaptive rule through a full (2, B, H, W) histogram per segment."""
    state = IntensityState.initial(geo, cfg)
    T = seg.segment_duration_us
    t = events["t"].astype(np.int64)
    frames = []
    for k in range(1, num_segments + 1):
        inside = (t >= (k - 1) * T) & (t < k * T)
        hist = build_histogram(EventSegment(k, events[inside]), geo, seg)
        for tau in range(seg.bins_per_segment):
            signed = signed_bin_accumulation(hist, tau)
            update_adaptive_batch(state, signed, int(hist.counts[:, tau].sum()))
        frames.append(state.frame.astype(np.float32))
    return state, frames


@st.composite
def adaptive_runs(draw):
    """A sorted stream on a small sensor with adaptive settings, a segment
    count and the number of segments run before a resume (0: one run)."""
    # a bin is sparse below H*W / 16 events: on sensors up to 1000 pixels
    # wide, bins of many events are, and most events fall on a few columns
    geo = SensorGeometry(draw(st.one_of(st.integers(1, 5), st.integers(17, 1000))),
                         draw(st.integers(1, 4)))
    bins = draw(st.integers(1, 4))
    bin_us = draw(st.integers(1, 6))
    seg = SegmentConfig(bins * bin_us, bins)
    # up to six segments of mostly silent bins; about half the timestamps
    # sit exactly on a bin edge, and every segment edge is one
    span = 6 * seg.segment_duration_us
    times = st.one_of(
        st.integers(0, span), st.integers(0, span // bin_us).map(lambda k: k * bin_us)
    )
    n = draw(st.integers(0, 60))
    columns = draw(st.lists(st.integers(0, geo.width - 1), min_size=1, max_size=3))
    events = make_events(
        sorted(draw(st.lists(times, min_size=n, max_size=n))),
        draw(st.lists(st.one_of(st.sampled_from(columns), st.integers(0, geo.width - 1)),
                      min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, geo.height - 1), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )
    # alpha up to 1e12 lets a bin's decay underflow to exactly 0, which
    # leaves -0.0 on negative pixels until a zero add turns it into +0.0;
    # a subnormal threshold scales counts to subnormal steps
    cfg = IntensityConfig(
        Method.ADAPTIVE_BATCH,
        alpha_per_s=draw(st.one_of(st.floats(0.0, 1e5), st.floats(1e8, 1e12))),
        threshold=draw(st.one_of(st.floats(0.0, 10.0, exclude_min=True),
                                 st.sampled_from([1.0, 1e-320]))),
        normalizer=draw(st.integers(1, 50)),
        bin_duration_us=bin_us,
    )
    # up to eight segments: the run may stop before the last event or
    # continue past it
    num_segments = draw(st.integers(1, 8))
    return events, geo, seg, cfg, num_segments, draw(st.integers(0, num_segments - 1))


@given(adaptive_runs())
# bin 1's decay underflows to 0, leaving -0.0 on pixel (0, 0), which has no
# event there; the zero add makes it +0.0
@example(
    (
        make_events([1, 6], [0, 1], [0, 0], [-1, 1]),
        SensorGeometry(2, 1),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e12, threshold=2.0, normalizer=1, bin_duration_us=5),
        1,
        0,
    )
)
# on 40 pixels bin 0's 3 events are dense (16 * 3 >= 40) and add to the
# whole frame; bin 1's 2 events, both on pixel 5, are sparse and add to it alone
@example(
    (
        make_events([1, 2, 3, 6, 7], [0, 5, 5, 5, 5], [0, 0, 0, 0, 0], [1, -1, -1, 1, 1]),
        SensorGeometry(40, 1),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e5, threshold=1.5, normalizer=3, bin_duration_us=5),
        1,
        0,
    )
)
# a threshold of exactly 1.0 adds the bins' counts unscaled: bin 0's 3
# events are dense on 40 pixels, bin 1's 2 events sparse
@example(
    (
        make_events([1, 2, 3, 6, 7], [0, 5, 5, 5, 9], [0, 0, 0, 0, 0], [1, -1, -1, 1, -1]),
        SensorGeometry(40, 1),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e5, threshold=1.0, normalizer=3, bin_duration_us=5),
        2,
        1,
    )
)
# a sparse bin whose +1 and -1 cancel on pixel 5, which bin 1's decay of 0
# has left at -0.0: the zero sum times 1.5 makes it +0.0
@example(
    (
        make_events([1, 6, 7], [5, 5, 5], [0, 0, 0], [-1, 1, -1]),
        SensorGeometry(40, 1),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e12, threshold=1.5, normalizer=1, bin_duration_us=5),
        1,
        0,
    )
)
# on 64 pixels a bin of H*W/16 = 4 events is dense and one of 3 sparse:
# segment 1 runs dense then sparse, segment 2 sparse then dense
@example(
    (
        make_events(
            [1, 2, 3, 4, 6, 7, 8, 11, 12, 13, 16, 17, 18, 19],
            [0, 3, 3, 31, 3, 0, 0, 3, 3, 31, 0, 0, 3, 5],
            [0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0],
            [-1, 1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, 1, 1],
        ),
        SensorGeometry(32, 2),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e5, threshold=0.7, normalizer=3, bin_duration_us=5),
        2,
        0,
    )
)
# three consecutive sparse bins on pixels 3 and 7: each bin adds its own
# sums only, not an earlier bin's
@example(
    (
        make_events([1, 2, 6, 7, 11, 12], [3, 7, 3, 7, 3, 7], [0] * 6, [1, -1, 1, 1, -1, -1]),
        SensorGeometry(40, 1),
        SegmentConfig(15, 3),
        adaptive_cfg(alpha_per_s=1e5, threshold=1.0, normalizer=3, bin_duration_us=5),
        1,
        0,
    )
)
# two dense bins in a row: both add +0.0 to pixel 9, which bin 0 sets to
# -1.5 and bin 1's decay of 0 makes -0.0, and bin 2 adds only its own counts
@example(
    (
        make_events([1, 6, 6, 6, 11, 11, 11], [9, 0, 1, 2, 0, 1, 2], [0] * 7, [-1] + [1] * 6),
        SensorGeometry(40, 1),
        SegmentConfig(15, 3),
        adaptive_cfg(alpha_per_s=1e12, threshold=1.5, normalizer=1, bin_duration_us=5),
        1,
        0,
    )
)
# segment 1 saves pixels 2 and 3 at +0.0, from -0.0, and pixel 9 at -1.5;
# the resumed run's sparse bin cancels on pixel 2 and skips pixel 3, and its
# decay of 0 makes pixel 9 -0.0 until the segment's zero add
@example(
    (
        make_events([1, 1, 6, 11, 12], [2, 3, 9, 2, 2], [0] * 5, [-1, -1, -1, 1, -1]),
        SensorGeometry(40, 1),
        SegmentConfig(10, 2),
        adaptive_cfg(alpha_per_s=1e12, threshold=1.5, normalizer=1, bin_duration_us=5),
        2,
        1,
    )
)
@settings(max_examples=200, deadline=None)
def test_adaptive_matches_histogram_oracle(run):
    events, geo, seg, cfg, num_segments, first = run
    ref_state, ref_frames = adaptive_oracle(events, geo, seg, cfg, num_segments)

    state, frames = None, []
    if first:
        state, frames = run_sequence(events, geo, seg, cfg, num_segments=first)
    # the resumed run sees the whole stream and must skip what came before
    state, rest = run_sequence(
        events, geo, seg, cfg, resume=state, num_segments=num_segments - first
    )
    frames += rest
    assert [f.tobytes() for f in frames] == [f.tobytes() for f in ref_frames]
    assert state.frame.tobytes() == ref_state.frame.tobytes()
    assert state.last_update_time_us == ref_state.last_update_time_us
    assert state.last_update_time_us == num_segments * seg.segment_duration_us


# a 1-event bin is dense on 2 pixels, where it adds to every pixel, and
# sparse on 32, where it adds only to its own pixel (16 * 1 < 32)
@pytest.mark.parametrize(
    "threshold, width", [(2.0, 2), (2.0, 32), (1.0, 2)], ids=["2.0", "sparse-2.0", "1.0"]
)
def test_adaptive_signed_zero_matches_oracle(threshold, width):
    # bin 0 leaves pixel (0, 0) at -2; bin 1 has one event at pixel (1, 0)
    # and a decay of exactly 0, so pixel (0, 0) becomes -0.0, and the bin's
    # zero add makes it +0.0
    geo, seg = SensorGeometry(width, 1), SegmentConfig(10, 2)
    cfg = adaptive_cfg(alpha_per_s=1e12, threshold=threshold, bin_duration_us=5)
    events = make_events([1, 6], [0, 1], [0, 0], [-1, 1])
    ref_state, ref_frames = adaptive_oracle(events, geo, seg, cfg, 1)
    state, frames = run_sequence(events, geo, seg, cfg)
    assert state.frame[0, 0] == 0.0
    assert not np.signbit(state.frame[0, 0])
    assert state.frame.tobytes() == ref_state.frame.tobytes()
    assert frames[0].tobytes() == ref_frames[0].tobytes()


def test_adaptive_resume_from_column_major_frame(scene):
    events = simulate_events(scene)
    seg = SegmentConfig(20_000, 4)
    cfg = adaptive_cfg(bin_duration_us=5000)
    _, single = run_sequence(events, scene.geometry, seg, cfg, num_segments=4)
    state, _ = run_sequence(events, scene.geometry, seg, cfg, num_segments=2)
    state.frame = np.asfortranarray(state.frame)
    _, resumed = run_sequence(events, scene.geometry, seg, cfg, resume=state, num_segments=2)
    assert [f.tobytes() for f in resumed] == [f.tobytes() for f in single[2:]]


def test_decay_resume_from_column_major_state(scene):
    events = simulate_events(scene)
    seg = SegmentConfig(20_000, 4)
    cfg = decay_cfg(bin_duration_us=5000)
    single_state, single = run_sequence(events, scene.geometry, seg, cfg, num_segments=4)
    state, _ = run_sequence(events, scene.geometry, seg, cfg, num_segments=2)
    state.frame = np.asfortranarray(state.frame)
    state.last_event_t_us = np.asfortranarray(state.last_event_t_us)
    state, resumed = run_sequence(events, scene.geometry, seg, cfg, resume=state, num_segments=2)
    assert [f.tobytes() for f in resumed] == [f.tobytes() for f in single[2:]]
    assert state.frame.tobytes() == single_state.frame.tobytes()
    assert state.last_event_t_us.tobytes() == single_state.last_event_t_us.tobytes()


def test_state_geometry_is_the_frames_shape():
    # the frame is the one record of the state's size
    assert "geometry" not in {f.name for f in dataclasses.fields(IntensityState)}
    state = IntensityState.initial(SensorGeometry(5, 3), adaptive_cfg())
    assert state.frame.shape == (3, 5)
    assert state.geometry == SensorGeometry(5, 3)
