"""Throughput measurement for the hot kernels."""

from __future__ import annotations

import time

import numpy as np

from evprep import _kernels
from evprep.events import SegmentConfig, SensorGeometry, event_fields
from evprep.intensity import IntensityConfig, Method, run_sequence


def bench_histogram(
    events: np.ndarray, geometry: SensorGeometry, seg_config: SegmentConfig
) -> float:
    """Events/second for segmentation + histogram building."""
    n = events.shape[0]
    if n == 0:
        return 0.0
    t, x, y, p = event_fields(events)
    T = seg_config.segment_duration_us
    B = seg_config.bins_per_segment
    num_segments = max(1, int(t[-1] // T) + 1)
    boundaries = np.arange(0, (num_segments + 1) * T, T, dtype=np.int64)
    splits = np.searchsorted(t, boundaries, side="left")
    start = time.perf_counter()
    for i in range(num_segments):
        lo, hi = splits[i], splits[i + 1]
        counts = np.zeros((2, B, geometry.height, geometry.width), dtype=np.int64)
        _kernels.histogram_fill(t[lo:hi], x[lo:hi], y[lo:hi], p[lo:hi], i * T, T, B, counts)
    return n / (time.perf_counter() - start)


def bench_adaptive(
    events: np.ndarray, geometry: SensorGeometry, seg_config: SegmentConfig
) -> float:
    """Events/second for the full adaptive intensity pipeline."""
    n = events.shape[0]
    if n == 0:
        return 0.0
    config = IntensityConfig(
        method=Method.ADAPTIVE_BATCH, bin_duration_us=seg_config.bin_duration_us
    )
    start = time.perf_counter()
    run_sequence(events, geometry, seg_config, config)
    return n / (time.perf_counter() - start)


def synthetic_events(
    n: int, geometry: SensorGeometry, duration_us: int, seed: int = 0
) -> np.ndarray:
    """Uniform random sorted stream for benchmarking."""
    from evprep.events import make_events

    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, duration_us, size=n))
    return make_events(
        t,
        rng.integers(0, geometry.width, size=n),
        rng.integers(0, geometry.height, size=n),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
    )
