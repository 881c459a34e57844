from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprep import simulate_events
from evprep.cli import main
from evprep.errors import FormatError
from evprep.scenefile import load_scene, parse_scene_text
from conftest import disc_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def test_disc_scene_file_matches_programmatic():
    scene, noise = load_scene(SCENES / "disc.scene")
    assert noise is None
    ref = disc_scene()
    assert scene.geometry == ref.geometry
    assert scene.objects[0].knots == ref.objects[0].knots
    assert np.array_equal(simulate_events(scene), simulate_events(ref))


def test_noise_section():
    _, noise = load_scene(SCENES / "noisy_disc.scene")
    assert noise is not None
    assert noise.hot_pixels == [(2, 2, 1, 500.0)]
    assert noise.background_rate == 1.0
    assert noise.rng_seed == 7
    assert noise.deterministic


def test_missing_section():
    with pytest.raises(FormatError, match=r"\[scene\]"):
        parse_scene_text("[geometry]\nwidth = 4\nheight = 4\n")


def test_missing_key_named():
    text = (
        "[geometry]\nwidth = 4\nheight = 4\n"
        "[scene]\nbackground = 0\nthreshold = 1\nduration_us = 1000\n"
    )
    with pytest.raises(FormatError, match="sample_interval_us"):
        parse_scene_text(text)


def test_bad_value_named():
    text = (
        "[geometry]\nwidth = abc\nheight = 4\n"
        "[scene]\nbackground = 0\nthreshold = 1\nduration_us = 1000\n"
        "sample_interval_us = 100\n"
    )
    with pytest.raises(FormatError, match="width"):
        parse_scene_text(text)


def test_bad_knot_entry():
    text = (
        "[geometry]\nwidth = 4\nheight = 4\n"
        "[scene]\nbackground = 0\nthreshold = 1\nduration_us = 1000\n"
        "sample_interval_us = 100\n"
        "[disc1]\nradius = 1\nlogintensity = 1\nknots = 0-3,4\n"
    )
    with pytest.raises(FormatError, match="knots"):
        parse_scene_text(text)


def test_missing_file():
    with pytest.raises(FormatError):
        load_scene("/nonexistent/path.scene")


VALID = """\
[geometry]
width = 32
height = 16

[scene]
background = 0.0
threshold = 1.0
duration_us = 1000
sample_interval_us = 100

[disc1]
radius = 2.5
logintensity = 1.5
knots = 0:4,8 1000:28,8

[noise]
hot_pixels = 2,2,1,500
background_rate = 1.0
seed = 7
deterministic = true
"""


def with_value(key, value):
    """VALID with ``key``'s value replaced."""
    lines = VALID.splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
    return "\n".join(lines) + "\n"


def test_valid_text_parses():
    scene, noise = parse_scene_text(VALID)
    assert scene.objects[0].knots == [(0, 4.0, 8.0), (1000, 28.0, 8.0)]
    assert noise.hot_pixels == [(2, 2, 1, 500.0)]


@pytest.mark.parametrize(
    "key, value, section",
    [
        ("radius", "0", "disc1"),
        ("radius", "nan", "disc1"),
        ("knots", "1000:4,8 0:28,8", "disc1"),
        ("knots", "0:4,inf", "disc1"),
        ("knots", "", "disc1"),
        ("hot_pixels", "2,2,2,500", "noise"),
        ("hot_pixels", "2,2:1,500", "noise"),
        ("hot_pixels", "2,2,1,inf", "noise"),
        ("background_rate", "abc", "noise"),
        ("seed", "x", "noise"),
        ("deterministic", "maybe", "noise"),
        ("sample_interval_us", "0", "scene"),
        ("duration_us", "-1000", "scene"),
        ("threshold", "nan", "scene"),
        ("background", "5%", "scene"),
        ("width", "0", "geometry"),
    ],
)
def test_malformed_value_names_file_and_section(key, value, section):
    with pytest.raises(FormatError) as exc:
        parse_scene_text(with_value(key, value), name="bad.scene")
    assert str(exc.value).startswith(f"bad.scene [{section}]: ")


@pytest.mark.parametrize(
    "text, message",
    [
        (with_value("background_rate", "-1"), "{path} [noise]: background_rate must be >= 0"),
        (with_value("hot_pixels", "2,2,1,-5"), "{path} [noise]: hot pixel rate must be >= 0"),
        (with_value("threshold", "0"), "{path} [scene]: threshold must be positive"),
        (with_value("sample_interval_us", "300"),
         "{path} [scene]: sample_interval must divide duration"),
        (VALID + "[scene]\n",
         "While reading from '{path}' [line 21]: section 'scene' already exists"),
    ],
    ids=["background-rate", "hot-pixel-rate", "threshold", "sample-interval", "duplicate-section"],
)
def test_invalid_scene_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.scene"
    path.write_text(text)
    message = message.format(path=path)
    with pytest.raises(FormatError) as exc:
        load_scene(path)
    assert str(exc.value) == message
    out = tmp_path / "out.evt1"
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"evprep: error: {message}\n"
    assert not out.exists()


KEYS = [line.split(" =")[0] for line in VALID.splitlines() if " = " in line]


@given(st.sampled_from(KEYS), st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))))
@settings(max_examples=300, deadline=None)
def test_any_value_parses_or_names_its_section(key, value):
    try:
        parse_scene_text(with_value(key, value), name="fuzz.scene")
    except FormatError as exc:
        assert str(exc).startswith("fuzz.scene [")
