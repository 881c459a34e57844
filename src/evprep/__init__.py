"""Event-camera pre-training artifact toolkit.

Turns raw event streams into binned event histograms, pseudo-grayscale
intensity videos, tube masks, and patch-normalized masked-reconstruction
targets, with an exact synthetic simulator and a toy recurrent
masked-autoencoder for end-to-end checks.

Each name below is imported from its module the first time it is read, so
a command starts with only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "events": "EVENT_DTYPE EventSegment SegmentConfig SensorGeometry StageHistogram bin_edges "
        "build_histogram flatten_histogram make_events segment_stream signed_bin_accumulation",
        "intensity": "IntensityConfig IntensityState Method run_sequence update_adaptive_batch "
        "update_per_event",
        "masking": "PatchGrid TubeMask apply_mask normalize_patches sample_tube_mask",
        "losses": "DepthConfig denormalize_depth masked_mse normalize_depth trail_energy",
        "simulate": "MovingDisc NoiseSpec SceneSpec render_logintensity simulate_events "
        "swept_region trail_region",
    }.items()
    for name in names.split()
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # an AttributeError lets `from evprep import cli` import the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"evprep.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
