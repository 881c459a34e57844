"""Event-camera pre-training artifact toolkit.

Turns raw event streams into binned event histograms, pseudo-grayscale
intensity videos, tube masks, and patch-normalized masked-reconstruction
targets, with an exact synthetic simulator and a toy recurrent
masked-autoencoder for end-to-end checks.
"""

from evprep.events import (
    EVENT_DTYPE,
    EventSegment,
    SegmentConfig,
    SensorGeometry,
    StageHistogram,
    bin_edges,
    build_histogram,
    flatten_histogram,
    make_events,
    segment_stream,
    signed_bin_accumulation,
)
from evprep.intensity import (
    IntensityConfig,
    IntensityState,
    Method,
    run_sequence,
    update_adaptive_batch,
    update_per_event,
)
from evprep.masking import (
    PatchGrid,
    TubeMask,
    apply_mask,
    normalize_patches,
    sample_tube_mask,
)
from evprep.losses import (
    DepthConfig,
    denormalize_depth,
    masked_mse,
    normalize_depth,
    trail_energy,
)
from evprep.simulate import (
    MovingDisc,
    NoiseSpec,
    SceneSpec,
    render_logintensity,
    simulate_events,
    swept_region,
    trail_region,
)

__version__ = "0.1.0"
