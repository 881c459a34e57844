"""Throughput measurement for the hot kernels."""

from __future__ import annotations

import time

import numpy as np

from evprep.events import SegmentConfig, SensorGeometry, build_histogram, segment_stream
from evprep.intensity import IntensityConfig, Method, iter_sequence


def bench_histogram(
    events: np.ndarray, geometry: SensorGeometry, seg_config: SegmentConfig
) -> float:
    """Events/second for segmentation + histogram building."""
    n = events.shape[0]
    if n == 0:
        return 0.0
    start = time.perf_counter()
    segments, _ = segment_stream(events, geometry, seg_config)
    for seg in segments:
        build_histogram(seg, geometry, seg_config)
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
    _, frames = iter_sequence(events, geometry, seg_config, config)
    for _ in frames:
        pass
    return n / (time.perf_counter() - start)
