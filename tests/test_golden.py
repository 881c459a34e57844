"""Golden set: sha256 digests of the bytes the pipeline produces for the two
noise-free scene files.

Pinned: the INTF file of both estimators, run once and run split after
segment 3 and resumed; the TUBE mask blob; the flattened, masked
histograms of every segment; and the patch-normalized adaptive frames.
Patch sizes 8 and 5 give a 4x2 grid of full patches and a 7x4 grid with
ragged bottom and right edges. The simulator's noisy streams are pinned
as EVT1 record bytes: ``noisy_disc``'s own noise, and deterministic hot
pixels (one of rate 0) plus seeded background on the conftest disc. The
EVT1 files `evprep simulate` writes for the three scene files are pinned
whole, header included. A refactor must leave each digest unchanged.
State files are not pinned: their key set is not part of the contract.

The simulator's float math may round differently under another numpy, so
the digests hold only for the numpy version they were recorded with.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from evprep import (
    IntensityConfig,
    Method,
    NoiseSpec,
    PatchGrid,
    SegmentConfig,
    apply_mask,
    build_histogram,
    flatten_histogram,
    normalize_patches,
    run_sequence,
    sample_tube_mask,
    segment_stream,
    simulate_events,
)
from evprep.cli import main
from evprep.formats import write_intf
from evprep.masking import serialize_mask
from evprep.scenefile import load_scene
from conftest import disc_scene

NUMPY_VERSION = "2.4.6"
SCENES = Path(__file__).resolve().parent.parent / "scenes"
SEG = SegmentConfig(10_000, 5)
SPLIT = 3
PATCHES = (8, 5)
# scene duration / T: stop_motion's last 5 segments are silent
SEGMENTS = {"disc": 10, "stop_motion": 12}

GOLDEN = {
    "disc": {
        "decay": "39e6742504bef7706ae855157e33af52105307d1f8802ef736fff018a9031cdf",
        "adaptive": "eeea171735875b619ed37f51bcd4c3201ff9008370ea6dd57e9241a86f046458",
        "masked_histograms_p8": "cc1e00f243fc8cdfc585c038097e9516d0bf2c357d32726cc2419ed79958f9c2",
        "masked_histograms_p5": "1a57cd5c332583230954cbb18c928c8ae12af79513da4562fa0fa5dbc6dcb08d",
        "targets_p8": "ff7b416c1d1566a4b0a0c4fbc836cfc2603c79d2ce9bf83ebf737e6c1bf6f221",
        "targets_p5": "6881484de04e56988d593fd4a4bc7d24bf6f6eaeb1aaaf570e0b9b021af60643",
    },
    "stop_motion": {
        "decay": "d7fe8804fb53bed9c2cd8fa0e4c50a912808f14bdcd43e6feb966226e6a8df15",
        "adaptive": "bf75446ed16f81b42070b5bd9f5eced3c0cfb1622aa0fb82ac3b960644b3bf71",
        "masked_histograms_p8": "709e64a1f88091235f6413fcb59f36760c318e8b9532c59263bb339c4fde2f87",
        "masked_histograms_p5": "1eccf93b3de22ba4ef3ef5ccf1e2d0cd3354f8abc2c3018273cf2a52c92c3458",
        "targets_p8": "4add3b69fafc2d478ae98b50113889a38aca0db698b7a35425671c6b66477c07",
        "targets_p5": "079982d91a4c2e28df001ede70c87aae46d5d22ce550efb7a07470b2dbecfc21",
    },
}
# both scenes are 32x16, so they share each patch grid and its mask
TUBE = {
    8: "d3209274c39d05f9c9d7e6a2d4d3264badafaae0a698bca78c2d6272aaf25db2",
    5: "6fe0d566356f63e1dc32b808d653731b1d5f9be789c2721afc49a5c76243dcc9",
}
NOISE = {
    "noisy_disc": "92af4c320d8e05ea82e3838155ef44ec6d4649bfdd35e1f3fd921693fc9efd6b",
    "deterministic_hot_pixels": "7750200bd95e4fabc54a1e263b43aafe386517a66abbfab4c86859e40dd9c62d",
}
# the EVT1 file of `evprep simulate SCENE.scene`
EVT1 = {
    "disc": "16159f6b655dfe23d5a76937b0421013fd8eb5899e3d415118ae74c45a5c6a50",
    "noisy_disc": "1fc4de60e390906aad08bbbd2b3dec50792098746fbb31f95fb07f7d49b4bb5d",
    "stop_motion": "dbb4d8489667919e6522db77654d1d383a09618ed352606cb00e40539d0cad1a",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden digests were recorded with numpy {NUMPY_VERSION}, this is {np.__version__}",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scene_events(name):
    scene, _ = load_scene(SCENES / f"{name}.scene")
    return scene.geometry, simulate_events(scene)


def intf_digest(tmp_path, frames, geometry) -> str:
    path = tmp_path / "frames.intf"
    write_intf(path, frames, geometry)
    return sha256(path.read_bytes())


@pytest.mark.parametrize("method", ["decay", "adaptive"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_intensity_single_and_split(tmp_path, name, method):
    geometry, events = scene_events(name)
    config = IntensityConfig(Method(method), bin_duration_us=SEG.bin_duration_us)
    M = SEGMENTS[name]
    _, single = run_sequence(events, geometry, SEG, config, num_segments=M)
    state, head = run_sequence(events, geometry, SEG, config, num_segments=SPLIT)
    _, tail = run_sequence(events, geometry, SEG, config, resume=state, num_segments=M - SPLIT)
    assert intf_digest(tmp_path, single, geometry) == GOLDEN[name][method]
    assert intf_digest(tmp_path, head + tail, geometry) == GOLDEN[name][method]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tube_and_masked_histograms(name):
    geometry, events = scene_events(name)
    segments, dropped = segment_stream(events, geometry, SEG, SEGMENTS[name])
    assert dropped == 0
    for patch in PATCHES:
        grid = PatchGrid(patch, geometry.height, geometry.width)
        mask = sample_tube_mask(grid, 0.5, seed=7)
        masked = b"".join(
            apply_mask(
                flatten_histogram(build_histogram(seg, geometry, SEG, clip_max=10)), mask, grid
            ).tobytes()
            for seg in segments
        )
        assert sha256(serialize_mask(mask)) == TUBE[patch]
        assert sha256(masked) == GOLDEN[name][f"masked_histograms_p{patch}"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_normalized_targets(name):
    """Both the float32 frames of run_sequence and their float64 casts."""
    geometry, events = scene_events(name)
    config = IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=SEG.bin_duration_us)
    _, frames = run_sequence(events, geometry, SEG, config, num_segments=SEGMENTS[name])
    for patch in PATCHES:
        grid = PatchGrid(patch, geometry.height, geometry.width)
        targets = b"".join(
            normalize_patches(frame.astype(dtype), grid).tobytes()
            for dtype in (np.float32, np.float64)
            for frame in frames
        )
        assert sha256(targets) == GOLDEN[name][f"targets_p{patch}"]


def noisy_events(name):
    if name == "noisy_disc":
        return simulate_events(*load_scene(SCENES / "noisy_disc.scene"))
    hot_pixels = [(1, 1, 1, 500.0), (5, 9, -1, 1234.5), (7, 3, 1, 0.0)]
    noise = NoiseSpec(hot_pixels, background_rate=3.0, rng_seed=11, deterministic=True)
    return simulate_events(disc_scene(), noise)


@pytest.mark.parametrize("name", sorted(NOISE))
def test_noise_streams(name):
    assert sha256(noisy_events(name).tobytes()) == NOISE[name]


@pytest.mark.parametrize("name", sorted(EVT1))
def test_simulate_evt1_files(tmp_path, name):
    out = tmp_path / f"{name}.evt1"
    assert main(["simulate", str(SCENES / f"{name}.scene"), "-o", str(out)]) == 0
    assert sha256(out.read_bytes()) == EVT1[name]
