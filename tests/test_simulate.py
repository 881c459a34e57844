import hashlib
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprep import (
    MovingDisc,
    NoiseSpec,
    SceneSpec,
    SensorGeometry,
    render_logintensity,
    simulate_events,
    swept_region,
    trail_region,
)
from evprep.scenefile import load_scene
from conftest import disc_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def static_scene(**kw):
    return SceneSpec(
        geometry=SensorGeometry(16, 12),
        background_logintensity=0.3,
        objects=kw.pop("objects", []),
        duration_us=10_000,
        threshold=1.0,
        sample_interval_us=1000,
    )


def test_render_background_only():
    frame = render_logintensity(static_scene(), 0)
    assert frame.shape == (12, 16)
    assert (frame == 0.3).all()


def test_render_disc_center():
    disc = MovingDisc(knots=[(0, 8.0, 6.0)], radius=3.0, logintensity=-1.0)
    frame = render_logintensity(static_scene(objects=[disc]), 0)
    assert frame[6, 8] == -1.0
    assert frame[0, 0] == 0.3


def test_knot_interpolation():
    disc = MovingDisc(
        knots=[(0, 2.0, 3.0), (10_000, 12.0, 9.0)], radius=1.0, logintensity=1.0
    )
    assert disc.center_at(5_000) == (7.0, 6.0)
    # clamped outside the knot span
    assert disc.center_at(20_000) == (12.0, 9.0)


def test_topmost_disc_wins():
    lower = MovingDisc(knots=[(0, 8.0, 6.0)], radius=3.0, logintensity=1.0)
    upper = MovingDisc(knots=[(0, 8.0, 6.0)], radius=2.0, logintensity=2.0)
    frame = render_logintensity(static_scene(objects=[lower, upper]), 0)
    assert frame[6, 8] == 2.0


def test_static_scene_no_events():
    assert simulate_events(static_scene()).shape[0] == 0


def test_disc_pass_single_pixel_event_pair():
    # contrast magnitude in [C, 2C): exactly one event of each polarity
    scene = disc_scene(disc_level=1.5, threshold=1.0)
    events = simulate_events(scene)
    x, y = 16, 8
    mine = events[(events["x"] == x) & (events["y"] == y)]
    assert mine.shape[0] == 2
    assert list(mine["p"]) == [1, -1]  # brighter disc arrives, then leaves


def test_burst_emission():
    scene = disc_scene(disc_level=3.5, threshold=1.0)
    events = simulate_events(scene)
    x, y = 16, 8
    mine = events[(events["x"] == x) & (events["y"] == y)]
    assert (mine["p"] == 1).sum() == 3
    assert (mine["p"] == -1).sum() == 3


def test_roundtrip_at_threshold_granularity(scene):
    events = simulate_events(scene)
    start = render_logintensity(scene, 0)
    final = render_logintensity(scene, scene.duration_us)
    reference = start.copy()
    np.add.at(
        reference,
        (events["y"].astype(int), events["x"].astype(int)),
        events["p"].astype(np.float64) * scene.threshold,
    )
    assert np.abs(reference - final).max() < scene.threshold


def test_polarity_symmetry():
    bright = disc_scene(disc_level=1.5, background=0.0)
    dark = disc_scene(disc_level=0.0, background=1.5)
    ev_b = simulate_events(bright)
    ev_d = simulate_events(dark)
    assert ev_b.shape == ev_d.shape
    assert np.array_equal(ev_b["t"], ev_d["t"])
    assert np.array_equal(ev_b["x"], ev_d["x"])
    assert np.array_equal(ev_b["y"], ev_d["y"])
    assert np.array_equal(ev_b["p"], -ev_d["p"])


def test_stream_sorted_and_deterministic(scene):
    noise = NoiseSpec(hot_pixels=[(1, 1, 1, 500.0)], background_rate=2.0, rng_seed=42)
    a = simulate_events(scene, noise)
    b = simulate_events(scene, noise)
    assert np.array_equal(a, b)
    assert (np.diff(a["t"].astype(np.int64)) >= 0).all()


def test_hot_pixel_deterministic_count(scene):
    rate = 1000.0  # over 0.1 s -> exactly 100 events
    noise = NoiseSpec(hot_pixels=[(3, 3, -1, rate)], deterministic=True)
    base = simulate_events(scene)
    with_noise = simulate_events(scene, noise)
    extra = with_noise[(with_noise["x"] == 3) & (with_noise["y"] == 3)]
    base_here = base[(base["x"] == 3) & (base["y"] == 3)]
    assert extra.shape[0] - base_here.shape[0] == 100


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5000.0), st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_poisson_hot_pixel_times_in_duration_and_seeded(seed, rate, samples):
    scene = SceneSpec(SensorGeometry(8, 8), 0.0, [], samples * 1000, 1.0, 1000)
    noise = NoiseSpec(hot_pixels=[(3, 4, -1, rate)], rng_seed=seed)
    events = simulate_events(scene, noise)
    assert np.array_equal(events, simulate_events(scene, noise))
    assert (events["t"] < scene.duration_us).all()
    assert ((events["x"] == 3) & (events["y"] == 4) & (events["p"] == -1)).all()


@pytest.mark.parametrize(
    "noise, expected",
    [
        pytest.param(NoiseSpec(hot_pixels=[(1, 1, 1, 700.0)]), 700.0 * 0.01, id="hot-pixel"),
        pytest.param(NoiseSpec(background_rate=5.0), 5.0 * 0.01 * 16 * 12, id="background"),
    ],
)
def test_poisson_mean_count(noise, expected):
    """The mean count over 200 seeds is within 5 sigma of rate x duration."""
    scene = static_scene()
    counts = [simulate_events(scene, replace(noise, rng_seed=seed)).shape[0] for seed in range(200)]
    assert abs(np.mean(counts) - expected) <= 5 * np.sqrt(expected / len(counts))


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "poisson"])
def test_rate_zero_hot_pixel_no_events(deterministic):
    noise = NoiseSpec(hot_pixels=[(2, 3, 1, 0.0)], deterministic=deterministic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert simulate_events(static_scene(), noise).shape[0] == 0


def test_hot_pixel_outside_geometry_rejected(scene):
    from evprep.errors import GeometryError

    with pytest.raises(GeometryError):
        simulate_events(scene, NoiseSpec(hot_pixels=[(99, 0, 1, 10.0)]))


def oracle_intensity(scene: SceneSpec, times_us: list[int]) -> list[np.ndarray]:
    """Exact mean-centered log-intensity frames at the requested times.

    Mean-centering because event integration recovers intensity only up
    to an additive constant.
    """
    frames = []
    for t in times_us:
        frame = render_logintensity(scene, t)
        frames.append(frame - frame.mean())
    return frames


@pytest.mark.parametrize("t_us", [-1, 10_001])
def test_render_outside_duration_rejected(t_us):
    with pytest.raises(ValueError) as exc:
        render_logintensity(static_scene(), t_us)
    assert str(exc.value) == f"t={t_us}us outside scene duration"


def test_oracle_single_time(scene):
    frames = oracle_intensity(scene, [0])
    direct = render_logintensity(scene, 0)
    assert np.allclose(frames[0], direct - direct.mean())
    assert abs(frames[0].mean()) < 1e-12


def test_oracle_constant_scene():
    scene = static_scene()
    frames = oracle_intensity(scene, [0, 5000, 10_000])
    assert np.array_equal(frames[0], frames[1])
    assert np.array_equal(frames[1], frames[2])


def test_oracle_differs_on_swept_region(scene):
    f0, f1 = oracle_intensity(scene, [0, scene.duration_us])
    changed = ~np.isclose(f0, f1)
    moved = swept_region(scene, 0, 0) | swept_region(
        scene, scene.duration_us, scene.duration_us
    )
    assert changed.any()
    assert (changed <= moved).all()


def test_trail_region_excludes_later_footprint(scene):
    region = trail_region(scene, scene.duration_us // 2)
    late = swept_region(scene, scene.duration_us // 2 + 1000, scene.duration_us)
    assert region.any()
    assert not (region & late).any()


@pytest.mark.parametrize(
    "t0, t1, samples",
    [
        pytest.param(1500, 1500, [], id="t0-between-samples"),
        pytest.param(1500, 3000, [2000, 3000], id="t0-not-a-multiple"),
        pytest.param(100_001, 200_000, [], id="t0-past-duration"),
        pytest.param(100_000, 200_000, [100_000], id="t1-past-duration"),
        pytest.param(-5000, 1000, [0, 1000], id="t0-negative"),
    ],
)
def test_swept_region_covers_the_samples_in_the_interval(t0, t1, samples):
    scene = disc_scene()  # a bright disc on a 0.0 background
    expected = np.zeros((16, 32), dtype=bool)
    for t in samples:
        expected |= render_logintensity(scene, t) != 0.0
    assert np.array_equal(swept_region(scene, t0, t1), expected)


# sha256 of np.packbits over trail_region(scene, t) stacked for every
# multiple t of the sample interval in [0, duration]
TRAIL_DIGESTS = {
    "disc": "7bdebcd725f39f399560967b540cb4b3b0d2810619b791bf3537436c20950d13",
    "stop_motion": "88513f52d256680c5f4ca12fd117889c705d245041a02612fb984c50865657a4",
}


@pytest.mark.parametrize("name", sorted(TRAIL_DIGESTS))
def test_trail_region_is_covered_before_and_never_after(name):
    """For every t in [0, duration] in 250 us steps, the trail is the pixels a
    disc covers at some sample <= t and at no sample > t."""
    scene, _ = load_scene(SCENES / f"{name}.scene")
    si = scene.sample_interval_us
    times = range(0, scene.duration_us + 1, si)
    background = scene.background_logintensity
    covered = np.stack([render_logintensity(scene, t) != background for t in times])
    before = np.logical_or.accumulate(covered)  # [k]: samples 0..k
    after = np.logical_or.accumulate(covered[::-1])[::-1]  # [k]: samples k..
    pinned = []
    for t_after in range(0, scene.duration_us + 1, 250):
        k = t_after // si  # the last sample <= t_after
        later = after[k + 1] if k + 1 < len(times) else np.zeros_like(before[k])
        region = trail_region(scene, t_after)
        assert not (region & later).any()
        assert np.array_equal(region, before[k] & ~later)
        if t_after % si == 0:
            pinned.append(region)
    digest = hashlib.sha256(np.packbits(np.stack(pinned)).tobytes()).hexdigest()
    assert digest == TRAIL_DIGESTS[name]
