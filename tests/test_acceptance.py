"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from evprep import (
    DepthConfig,
    IntensityConfig,
    IntensityState,
    Method,
    MovingDisc,
    PatchGrid,
    SceneSpec,
    SegmentConfig,
    SensorGeometry,
    denormalize_depth,
    masked_mse,
    normalize_depth,
    normalize_patches,
    run_sequence,
    sample_tube_mask,
    segment_stream,
    simulate_events,
    swept_region,
    trail_energy,
    trail_region,
    update_adaptive_batch,
    update_per_event,
)
from evprep.events import build_histogram, make_events, signed_bin_accumulation
from evprep.formats import write_intf
from evprep.masking import serialize_mask
from evprep.scenefile import load_scene
from evprep.toymodel import (
    ToyModelConfig,
    backward_sequence,
    flatten_params,
    init_model,
    train_toy,
    unflatten_params,
)
from conftest import freeze_scene, synthetic_events, training_scene


def _passed(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


def wide_disc_scene(x_end=44.0):
    """Disc crossing a 48x16 frame; contrast in [C, 2C) so every swept
    pixel sees exactly one positive and one negative event. With
    ``x_end`` past the right edge the disc leaves the frame entirely."""
    return SceneSpec(
        geometry=SensorGeometry(48, 16),
        background_logintensity=0.0,
        objects=[
            MovingDisc(
                knots=[(0, 4.0, 8.0), (100_000, x_end, 8.0)],
                radius=2.5,
                logintensity=1.5,
            )
        ],
        duration_us=100_000,
        threshold=1.0,
        sample_interval_us=1000,
    )


def test_criterion_1_per_event_blur_closed_form():
    start = time.perf_counter()
    scene = wide_disc_scene(x_end=56.0)  # disc fully exits the frame
    alpha, C = 5.0, scene.threshold
    events = simulate_events(scene)
    cfg = IntensityConfig(Method.PER_EVENT_DECAY, alpha_per_s=alpha, threshold=C)
    state = IntensityState.initial(scene.geometry, cfg)
    update_per_event(state, events)
    # pixels covered at t=0 never see the arrival event; exclude them
    region = trail_region(scene, scene.duration_us) & ~swept_region(scene, 0, 0)
    ys, xs = np.nonzero(region)
    assert ys.size > 50
    worst = 0.0
    for y, x in zip(ys, xs):
        mine = events[(events["x"] == x) & (events["y"] == y)]
        assert mine.shape[0] == 2 and list(mine["p"]) == [1, -1]
        dt_s = (int(mine["t"][1]) - int(mine["t"][0])) * 1e-6
        expected = (math.exp(-alpha * dt_s) - 1.0) * C
        rel = abs(state.frame[y, x] - expected) / abs(expected)
        worst = max(worst, rel)
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(1, f"{ys.size} trail pixels match (e^-a.dt - 1)C, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_zero_event_fixed_point():
    start = time.perf_counter()
    geo = SensorGeometry(32, 24)
    cfg = IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000)
    zero = np.zeros((geo.height, geo.width), dtype=np.int64)
    rng = np.random.default_rng(123)
    for _ in range(100):
        state = IntensityState.initial(geo, cfg)
        state.frame[:] = rng.normal(scale=rng.uniform(0.1, 100.0), size=state.frame.shape)
        before = state.frame.copy()
        update_adaptive_batch(state, zero, 0)
        assert np.array_equal(state.frame, before)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"100 random states bit-identical under n=0, {elapsed:.2f}s")


def test_criterion_3_blur_elimination():
    start = time.perf_counter()
    scene = wide_disc_scene()
    events = simulate_events(scene)
    geo = scene.geometry
    seg = SegmentConfig(20_000, 4)  # dt = 5 ms, 20 bins over the scene
    alpha, N, C = 50.0, 5, 1.0
    region = trail_region(scene, 50_000)

    # bin-by-bin adaptive run, recording frames and global counts
    cfg = IntensityConfig(
        Method.ADAPTIVE_BATCH, alpha_per_s=alpha, normalizer=N, threshold=C,
        bin_duration_us=seg.bin_duration_us,
    )
    state = IntensityState.initial(geo, cfg)
    frames, counts = [], []
    for s in segment_stream(events, geo, seg, 5)[0]:
        hist = build_histogram(s, geo, seg)
        for tau in range(seg.bins_per_segment):
            n = int(hist.counts[:, tau].sum())
            update_adaptive_batch(state, signed_bin_accumulation(hist, tau), n)
            frames.append(state.frame.copy())
            counts.append(n)

    passage_bin = 50_000 // seg.bin_duration_us
    energies = trail_energy(frames[passage_bin:], region)
    assert all(b < a for a, b in zip(energies, energies[1:])), "not strictly decreasing"
    assert all(counts[passage_bin:]), "disc must keep emitting events"

    # solve the decay recurrence with the observed per-bin counts
    predicted = [energies[0]]
    for n in counts[passage_bin + 1 :]:
        predicted.append(predicted[-1] * math.exp(-alpha * 0.005 * n / N))
    k_obs = next(i for i, e in enumerate(energies) if e < 0.01 * C)
    k_pred = next(i for i, e in enumerate(predicted) if e < 0.01 * C)
    assert abs(k_obs - k_pred) <= 1

    # the per-event rule leaves the trail energy frozen over the same window
    dcfg = IntensityConfig(Method.PER_EVENT_DECAY, alpha_per_s=alpha, threshold=C)
    dstate = IntensityState.initial(geo, dcfg)
    dframes = []
    for s in segment_stream(events, geo, seg, 5)[0]:
        for tau in range(seg.bins_per_segment):
            lo = (s.index - 1) * seg.segment_duration_us + tau * seg.bin_duration_us
            hi = lo + seg.bin_duration_us
            chunk = s.events[(s.events["t"] >= lo) & (s.events["t"] < hi)]
            update_per_event(dstate, chunk)
            dframes.append(dstate.frame.copy())
    d_energies = trail_energy(dframes[passage_bin:], region)
    assert all(e == pytest.approx(d_energies[0], rel=1e-12) for e in d_energies)
    assert energies[-1] < d_energies[-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, f"trail < 0.01C at bin {k_obs} (predicted {k_pred}); per-event trail frozen at {d_energies[0]:.4f}, {elapsed:.2f}s")


def test_criterion_4_histogram_conservation_1m():
    start = time.perf_counter()
    geo = SensorGeometry(320, 240)
    seg = SegmentConfig(50_000, 10)
    events = synthetic_events(1_000_000, geo, 500_000, seed=9)
    total = 0
    for s in segment_stream(events, geo, seg, 10)[0]:
        hist = build_histogram(s, geo, seg)
        total += hist.total()
        assert (hist.counts >= 0).all()
    assert total == 1_000_000
    # independent bin-index bound check
    T, B = seg.segment_duration_us, seg.bins_per_segment
    rel = events["t"].astype(np.int64) % T
    tau = rel * B // T
    assert tau.min() >= 0 and tau.max() <= B - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(4, f"1M events conserved exactly, all bin indices in [0, {B - 1}], {elapsed:.2f}s")


def test_criterion_5_masking_contracts():
    grid = PatchGrid(patch_size=8, height=80, width=80)  # K = 100
    assert grid.num_patches == 100
    for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
        mask = sample_tube_mask(grid, ratio, seed=21)
        assert mask.num_masked == round(ratio * 100)

    mask = sample_tube_mask(grid, 0.5, seed=33)
    blobs = {serialize_mask(mask) for _stage in range(15)}
    assert len(blobs) == 1  # byte-equal across all 15 stages

    rng = np.random.default_rng(5)
    pred = rng.normal(size=(80, 80))
    target = rng.normal(size=(80, 80))
    base = masked_mse(pred, normalize_patches(target, grid), mask, grid)
    # per-patch positive affine transform of the target
    scales = np.repeat(np.repeat(rng.uniform(0.5, 4.0, (10, 10)), 8, 0), 8, 1)
    shifts = np.repeat(np.repeat(rng.normal(size=(10, 10)), 8, 0), 8, 1)
    warped = masked_mse(pred, normalize_patches(scales * target + shifts, grid), mask, grid)
    assert abs(warped - base) / base < 1e-5
    _passed(5, f"exact counts for 5 ratios; tube mask byte-stable over 15 stages; affine drift {abs(warped - base) / base:.2e}")


def test_criterion_6_gradient_oracle():
    start = time.perf_counter()
    grid = PatchGrid(patch_size=4, height=8, width=8)
    worst = 0.0
    checked = 0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 + seed)
        cfg = ToyModelConfig(
            patch_size=4, embed_dim=3, in_channels=5, recurrent=True, seed=seed
        )
        for stages in (1, 3):
            mask = sample_tube_mask(grid, 0.5, seed=seed)
            inputs = [rng.normal(size=(5, 8, 8)) for _ in range(stages)]
            targets = [rng.normal(size=(8, 8)) for _ in range(stages)]
            state = init_model(cfg)
            _, grads = backward_sequence(state, inputs, targets, mask)
            vec = flatten_params(state.params)
            gvec = flatten_params(grads)

            def loss_at(v):
                probe = init_model(cfg)
                probe.params = unflatten_params(v, state.params)
                l, _ = backward_sequence(probe, inputs, targets, mask)
                return l

            h = 1e-5
            for i in range(vec.size):
                vp = vec.copy(); vp[i] += h
                vm = vec.copy(); vm[i] -= h
                fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
                denom = max(abs(fd), abs(gvec[i]), 1e-8)
                rel = abs(fd - gvec[i]) / denom
                worst = max(worst, rel)
                checked += 1
                assert rel < 1e-4, f"seed {seed} M={stages} param {i}: {fd} vs {gvec[i]}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(6, f"{checked} gradients within 1e-4 of central differences (worst {worst:.2e}), {elapsed:.1f}s")


def test_criterion_7_toy_pretraining_signal():
    start = time.perf_counter()
    seg = SegmentConfig(20_000, 4)
    icfg = IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000)

    # frozen budget: 500 steps, lr 2.0, embed 16
    cfg = ToyModelConfig(patch_size=8, embed_dim=16, in_channels=9, recurrent=True, seed=0)
    scene = training_scene()
    curve, _ = train_toy(
        simulate_events(scene), scene.geometry, steps=500, lr=2.0, config=cfg,
        seg_config=seg, int_config=icfg, num_segments=5,
    )
    ratio = curve[-1] / curve[0]
    assert ratio < 0.5, f"loss ratio {ratio}"

    # recurrent vs feedforward on the move/freeze/move/freeze scene
    finals = {}
    scene = freeze_scene()
    events = simulate_events(scene)
    for recurrent in (True, False):
        c = ToyModelConfig(
            patch_size=8, embed_dim=32, in_channels=9, recurrent=recurrent, seed=0
        )
        cv, _ = train_toy(
            events, scene.geometry, steps=3000, lr=1.0, config=c,
            seg_config=seg, int_config=icfg, num_segments=4,
        )
        finals[recurrent] = cv[-1]
    assert finals[True] < finals[False]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(7, f"loss ratio {ratio:.3f} < 0.5; recurrent {finals[True]:.4f} < feedforward {finals[False]:.4f}, {elapsed:.0f}s")


def test_criterion_8_resumability(tmp_path):
    start = time.perf_counter()
    scene = wide_disc_scene()
    events = simulate_events(scene)
    geo = scene.geometry
    seg = SegmentConfig(20_000, 4)
    for method in Method:
        cfg = IntensityConfig(method, bin_duration_us=seg.bin_duration_us)
        _, combined = run_sequence(events, geo, seg, cfg, num_segments=5)
        cut = int(np.searchsorted(events["t"], 40_000))
        state, first = run_sequence(events[:cut], geo, seg, cfg, num_segments=2)
        _, second = run_sequence(events[cut:], geo, seg, cfg, resume=state, num_segments=3)
        single_path = tmp_path / f"single_{method.value}.intf"
        split_path = tmp_path / f"split_{method.value}.intf"
        write_intf(single_path, combined, geo)
        write_intf(split_path, first + second, geo)
        assert single_path.read_bytes() == split_path.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(8, f"split and single INTF outputs byte-identical for both methods, {elapsed:.2f}s")


def test_criterion_9_depth_roundtrip():
    cfg = DepthConfig(d_max=80.0, alpha=3.7)
    d = np.linspace(cfg.d_min, cfg.d_max, 1000)
    back = denormalize_depth(normalize_depth(d, cfg), cfg)
    worst = float(np.abs(back - d).max() / d.min())
    assert worst < 1e-12
    assert normalize_depth(cfg.d_max, cfg) == pytest.approx(1.0, abs=1e-15)
    assert normalize_depth(cfg.d_min, cfg) == pytest.approx(0.0, abs=1e-12)
    _passed(9, f"1000-depth round trip within 1e-12 relative (worst {worst:.2e})")


def test_criterion_10_throughput():
    geo = SensorGeometry(640, 480)
    seg = SegmentConfig(50_000, 10)
    events = synthetic_events(10_000_000, geo, 2_000_000, seed=4)
    start = time.perf_counter()
    segments, _ = segment_stream(events, geo, seg)
    for segment in segments:
        build_histogram(segment, geo, seg)
    rate = events.shape[0] / (time.perf_counter() - start)
    assert rate >= 5e6, f"{rate / 1e6:.2f} M events/s"
    _passed(10, f"segmentation+histogram {rate / 1e6:.1f} M events/s (target 5.0)")


def test_criterion_11_noise_robustness():
    start = time.perf_counter()
    scene, noise = load_scene(Path(__file__).resolve().parent.parent / "scenes" / "noisy_disc.scene")
    assert noise.hot_pixels == [(2, 2, 1, 500.0)]
    seg = SegmentConfig(10_000, 5)
    noisy, clean = simulate_events(scene, noise), simulate_events(scene, None)
    elsewhere = np.ones((scene.geometry.height, scene.geometry.width), dtype=bool)
    elsewhere[2, 2] = False

    def scores(method, alpha, normalizer):
        """(|last frame at the hot pixel|, RMS of the last frame against the
        noise-free run's everywhere else)."""
        cfg = IntensityConfig(method, alpha_per_s=alpha, normalizer=normalizer,
                              bin_duration_us=seg.bin_duration_us)
        last_noisy, last_clean = (
            run_sequence(ev, scene.geometry, seg, cfg, num_segments=10)[1][-1].astype(np.float64)
            for ev in (noisy, clean)
        )
        rms = math.sqrt(np.mean((last_noisy - last_clean)[elsewhere] ** 2))
        return abs(last_noisy[2, 2]), rms

    # with N near the events per bin, the adaptive target suppresses the hot pixel
    # and the background noise better than exponential decay does
    decay = scores(Method.PER_EVENT_DECAY, 50.0, 5)
    adaptive = scores(Method.ADAPTIVE_BATCH, 50.0, 5)
    assert adaptive[0] < decay[0] and adaptive[1] < decay[1], (adaptive, decay)
    assert adaptive == (pytest.approx(7.23, abs=0.01), pytest.approx(0.106, abs=0.001))
    assert decay == (pytest.approx(10.43, abs=0.01), pytest.approx(0.306, abs=0.001))
    # at the defaults (alpha 5, N 5000) it is worse on both: the claim does not hold there
    decay_default = scores(Method.PER_EVENT_DECAY, 5.0, 5000)
    adaptive_default = scores(Method.ADAPTIVE_BATCH, 5.0, 5000)
    assert adaptive_default[0] > decay_default[0] and adaptive_default[1] > decay_default[1]
    assert adaptive_default == (pytest.approx(48.98, abs=0.01), pytest.approx(0.331, abs=0.001))
    assert decay_default == (pytest.approx(38.93, abs=0.01), pytest.approx(0.319, abs=0.001))
    elapsed = time.perf_counter() - start
    _passed(11, f"alpha 50, N 5: adaptive residue {adaptive[0]:.1f} < {decay[0]:.1f}, "
                f"RMS {adaptive[1]:.3f} < {decay[1]:.3f}; at the defaults adaptive is worse "
                f"({adaptive_default[0]:.1f} > {decay_default[0]:.1f}, "
                f"{adaptive_default[1]:.3f} > {decay_default[1]:.3f}), {elapsed:.2f}s")
