"""Golden set for toy pre-training: sha256 digests of short ``train_toy`` runs.

Pinned: the loss curve and the final parameters (in ``PARAM_ORDER``, as
little-endian float64) of a recurrent and a feedforward model on each of
the two lockstep scenes, at the criterion-7 settings with fewer steps, and
the TOYP blob ``serialize_params`` makes of those parameters. A refactor of
the trainer or of the blob format must leave each digest unchanged.

The simulator's float math may round differently under another numpy, so
the digests hold only for the numpy version they were recorded with.
"""

import hashlib

import numpy as np
import pytest

from evprep import IntensityConfig, Method, SegmentConfig, simulate_events
from evprep.toymodel import ToyModelConfig, flatten_params, serialize_params, train_toy
from conftest import freeze_scene, training_scene

NUMPY_VERSION = "2.4.6"
SEG = SegmentConfig(20_000, 4)
STEPS = 40
# scene -> (scene factory, lr, embed_dim, num_segments), as in criterion 7
RUNS = {
    "training": (training_scene, 2.0, 16, 5),
    "freeze": (freeze_scene, 1.0, 32, 4),
}

GOLDEN = {
    ("training", True): (
        "0b379ce83e0f3188865502a15696f8d67cb4e0397630411591a115d63a9e85fc",
        "fc0837903a2b9c276aee18feb7075f487f459924f65de0f9b3b22489a5755c3e",
    ),
    ("training", False): (
        "a3bb5dbc416800a29b89d7a4c0eba651e78d0925969d7713c77327c57e63ed9a",
        "547c3d3da12fc1db5fd9977feefb90c17348019cec26097d032320da86fc0572",
    ),
    ("freeze", True): (
        "7ae074b4647e8a4cdb0ec0b0608906c99cab51d6a6cb459cde3519de7653291d",
        "772835067437ed6273cdf17132340d703eea619bcf4712d6b82e3a0066152d29",
    ),
    ("freeze", False): (
        "e857d87fe010767d947fb75831c640d0aa80404be9743823078c491c4572480d",
        "38b424fd5f91bf6e3008608fd8a6e3223f8f827e537cce853a704122781dfcee",
    ),
}
# sha256 of serialize_params(state) after each run above
TOYP = {
    ("training", True): "93a328c082fb1875ffcd305c33500e595b27f56cd0926071609ef8bcda2c9c44",
    ("training", False): "217c3e4a4a75a6c692dcef60c5d2b4bdfa95e0fa8b9e623cee13a0383516515d",
    ("freeze", True): "641ed6063282ba2559f49de7313d1ed2fbac530fbee16c2f1bcb89f2267dcd40",
    ("freeze", False): "39b82a03b970b04b9f132e19bc290f01368224954e59fbfcb1ad0010cb6197c9",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests were recorded with numpy {NUMPY_VERSION}, this is {np.__version__}",
)


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("recurrent", [True, False], ids=["recurrent", "feedforward"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_train_toy_curve_and_params(name, recurrent):
    scene, lr, embed_dim, num_segments = RUNS[name]
    config = ToyModelConfig(
        patch_size=8, embed_dim=embed_dim, in_channels=9, recurrent=recurrent, seed=0
    )
    spec = scene()
    curve, state = train_toy(
        simulate_events(spec), spec.geometry, steps=STEPS, lr=lr, config=config, seg_config=SEG,
        int_config=IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000),
        num_segments=num_segments,
    )
    assert (sha256(curve), sha256(flatten_params(state.params))) == GOLDEN[name, recurrent]


@pytest.mark.parametrize("recurrent", [True, False], ids=["recurrent", "feedforward"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_param_blob_bytes(name, recurrent):
    """The same runs, pinned as the whole blob: the TOYP header, then the weights."""
    scene, lr, embed_dim, num_segments = RUNS[name]
    config = ToyModelConfig(
        patch_size=8, embed_dim=embed_dim, in_channels=9, recurrent=recurrent, seed=0
    )
    spec = scene()
    _, state = train_toy(
        simulate_events(spec), spec.geometry, steps=STEPS, lr=lr, config=config, seg_config=SEG,
        int_config=IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000),
        num_segments=num_segments,
    )
    assert hashlib.sha256(serialize_params(state)).hexdigest() == TOYP[name, recurrent]
