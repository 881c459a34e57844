"""The vectorized per-event decay rule against a scalar event-by-event oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evprep import (
    IntensityConfig,
    IntensityState,
    Method,
    SegmentConfig,
    SensorGeometry,
    run_sequence,
    update_per_event,
)
from evprep.events import make_events
from evprep.formats import write_intf

# np.exp and math.exp may differ by one ulp. Each event then perturbs its
# pixel by at most an ulp of the running value, which never exceeds the
# pixel's prior |frame| plus |threshold| per event; decay <= 1 keeps older
# differences from growing. Below ~4500 events per pixel that sums to under
# 1e-12 of that scale. last_t is integer bookkeeping and must match exactly.
REL_TOL = 1e-12


def oracle(frame, last_t, events, alpha, threshold):
    """Scalar reference: the rule applied one event at a time, in place."""
    for ev in events:
        t, x, y, p = int(ev["t"]), int(ev["x"]), int(ev["y"]), int(ev["p"])
        dt = (t - last_t[y, x]) * 1e-6
        frame[y, x] = math.exp(-alpha * dt) * frame[y, x] + p * threshold
        last_t[y, x] = t


def check_against_oracle(geo, events, alpha, threshold, frame0=None, last0=None, t0=0):
    state = IntensityState.initial(
        geo, IntensityConfig(Method.PER_EVENT_DECAY, alpha_per_s=alpha, threshold=threshold)
    )
    if frame0 is not None:
        state.frame[:] = frame0
        state.last_event_t_us[:] = last0
    state.last_update_time_us = t0
    ref_frame = state.frame.copy()
    ref_last = state.last_event_t_us.copy()
    oracle(ref_frame, ref_last, events, alpha, threshold)
    per_pixel = np.zeros(ref_frame.shape)
    np.add.at(per_pixel, (events["y"], events["x"]), 1.0)
    scale = np.maximum(1.0, np.abs(state.frame) + abs(threshold) * per_pixel)

    update_per_event(state, events)
    assert np.array_equal(state.last_event_t_us, ref_last)
    assert np.all(np.abs(state.frame - ref_frame) <= REL_TOL * scale)
    return state


@st.composite
def batches(draw, max_events=300):
    """A sorted batch on a small sensor, with the time of its first event."""
    geo = SensorGeometry(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(0, max_events))
    t0 = draw(st.integers(0, 50_000))
    # zero steps repeat a timestamp
    steps = draw(st.lists(st.integers(0, 4_000), min_size=n, max_size=n))
    xs = draw(st.lists(st.integers(0, geo.width - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, geo.height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return geo, make_events(t0 + np.cumsum(steps, dtype=np.int64), xs, ys, ps), t0


alphas = st.floats(0.0, 200.0)
thresholds = st.floats(-10.0, 10.0)


@given(batches(), alphas, thresholds, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_matches_oracle_with_prior_state(batch, alpha, threshold, seed):
    geo, events, t0 = batch
    rng = np.random.default_rng(seed)
    shape = (geo.height, geo.width)
    frame0 = rng.normal(scale=5.0, size=shape)
    last0 = rng.integers(0, t0 + 1, size=shape)
    check_against_oracle(geo, events, alpha, threshold, frame0, last0, t0)


def test_empty_batch_leaves_state_unchanged():
    geo = SensorGeometry(5, 4)
    rng = np.random.default_rng(1)
    state = check_against_oracle(
        geo, make_events([], [], [], []), 5.0, 1.0,
        rng.normal(size=(4, 5)), rng.integers(0, 100, size=(4, 5)), 100,
    )
    assert state.last_update_time_us == 100


@given(st.lists(st.integers(0, 2_000), min_size=1, max_size=3000), alphas, thresholds)
@settings(max_examples=30, deadline=None)
def test_every_event_on_one_pixel(steps, alpha, threshold):
    # the rank loop runs once per event over a single active pixel
    n = len(steps)
    events = make_events(np.cumsum(steps), [2] * n, [1] * n, [(-1) ** i for i in range(n)])
    check_against_oracle(SensorGeometry(3, 3), events, alpha, threshold)


def test_repeated_timestamps_at_one_pixel():
    # dt = 0 gives decay exactly 1, so the value is a plain signed count
    events = make_events([7_000] * 5 + [9_000], [0] * 6, [0] * 6, [1, 1, -1, 1, 1, 1])
    state = check_against_oracle(
        SensorGeometry(2, 2), events, 5.0, 0.5, np.full((2, 2), 2.0), np.zeros((2, 2)), 0
    )
    expected = (math.exp(-5.0 * 0.007) * 2.0 + 1.5) * math.exp(-5.0 * 0.002) + 0.5
    assert math.isclose(state.frame[0, 0], expected, rel_tol=1e-14)


@given(batches(), st.lists(st.integers(0, 300), max_size=4))
@settings(max_examples=60, deadline=None)
def test_chunked_batch_bit_identical(batch, cuts):
    # the same per-pixel arithmetic at other array positions: np.exp must
    # not depend on where a value sits in its array
    geo, events, _ = batch
    cfg = IntensityConfig(Method.PER_EVENT_DECAY)
    whole = update_per_event(IntensityState.initial(geo, cfg), events)
    chunked = IntensityState.initial(geo, cfg)
    for chunk in np.split(events, sorted({min(c, events.shape[0]) for c in cuts})):
        update_per_event(chunked, chunk)
    assert np.array_equal(whole.frame, chunked.frame)
    assert np.array_equal(whole.last_event_t_us, chunked.last_event_t_us)


@given(batches(max_events=400), st.lists(st.integers(0, 399), max_size=3))
@settings(max_examples=40, deadline=None)
def test_split_run_sequence_intf_identical(tmp_path_factory, batch, cut_events):
    # each cut falls at the end of the segment holding the chosen event
    geo, events, _ = batch
    seg = SegmentConfig(100_000, 4)
    cfg = IntensityConfig(Method.PER_EVENT_DECAY, bin_duration_us=seg.bin_duration_us)
    T = seg.segment_duration_us
    total = int(events["t"][-1]) // T + 2 if events.shape[0] else 2
    bounds = sorted(
        {int(events["t"][i]) // T + 1 for i in cut_events if i < events.shape[0]}
        | {0, total}
    )
    _, single = run_sequence(events, geo, seg, cfg, num_segments=total)

    state, split = None, []
    for lo, hi in zip(bounds, bounds[1:]):
        part = events[(events["t"] >= lo * T) & (events["t"] < hi * T)]
        state, frames = run_sequence(part, geo, seg, cfg, resume=state, num_segments=hi - lo)
        split += frames

    out = tmp_path_factory.mktemp("split")
    write_intf(out / "single.intf", single, geo)
    write_intf(out / "split.intf", split, geo)
    assert (out / "single.intf").read_bytes() == (out / "split.intf").read_bytes()
