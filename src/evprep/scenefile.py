"""Scene description files for the simulator.

INI-style key-value sections::

    [geometry]
    width = 64
    height = 48

    [scene]
    background = 0.0
    threshold = 1.0
    duration_us = 200000
    sample_interval_us = 1000

    [disc1]                      ; any section named disc* is one disc
    radius = 4
    logintensity = 1.5
    knots = 0:8,24 200000:56,24  ; t:cx,cy triples, whitespace-separated

    [noise]                      ; optional
    hot_pixels = 5,5,1,1000      ; x,y,p,rate entries, whitespace-separated
    background_rate = 0.0
    seed = 7
    deterministic = true
"""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager

from evprep.errors import FormatError, GeometryError
from evprep.events import SensorGeometry
from evprep.simulate import MovingDisc, NoiseSpec, SceneSpec


def _get(section, key, cast, default=None):
    """``cast`` of the key's value; a key without a default is required."""
    if key not in section and default is None:
        raise ValueError(f"missing key '{key}'")
    try:
        return cast(section[key]) if key in section else default
    except (ValueError, configparser.InterpolationError) as exc:
        raise ValueError(f"key '{key}': {exc}") from exc


def _entries(form: str, *casts):
    """Cast for whitespace-separated entries of ``form``: ``t:cx,cy`` or ``x,y,p,rate``."""
    pattern = re.compile(re.sub(r"\w+", "([^:,]*)", form))

    def entry(item: str) -> tuple:
        match = pattern.fullmatch(item)
        try:
            if not match:
                raise ValueError
            return tuple(cast(v) for cast, v in zip(casts, match.groups()))
        except ValueError:
            raise ValueError(f"bad entry '{item}' (want {form})") from None

    return lambda text: [entry(item) for item in text.split()]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text}") from None


@contextmanager
def _section(parser, name: str, section: str):
    """Yield ``parser[section]``. A missing section, or a bad value met while
    the caller builds from it, is a FormatError naming the file and section."""
    if section not in parser:
        raise FormatError(f"{name}: missing [{section}] section")
    try:
        yield parser[section]
    except (ValueError, GeometryError) as exc:
        raise FormatError(f"{name} [{section}]: {exc}") from exc


def parse_scene_text(text: str, name: str = "<scene>") -> tuple[SceneSpec, NoiseSpec | None]:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise FormatError(str(exc)) from exc

    with _section(parser, name, "geometry") as sec:
        geometry = SensorGeometry(_get(sec, "width", int), _get(sec, "height", int))
    discs = []
    for sec_name in parser.sections():
        if not sec_name.startswith("disc"):
            continue
        with _section(parser, name, sec_name) as sec:
            discs.append(
                MovingDisc(
                    knots=_get(sec, "knots", _entries("t:cx,cy", int, _finite, _finite)),
                    radius=_get(sec, "radius", _finite),
                    logintensity=_get(sec, "logintensity", _finite),
                )
            )
    with _section(parser, name, "scene") as sec:
        scene = SceneSpec(
            geometry=geometry,
            background_logintensity=_get(sec, "background", _finite),
            objects=discs,
            duration_us=_get(sec, "duration_us", int),
            threshold=_get(sec, "threshold", _finite),
            sample_interval_us=_get(sec, "sample_interval_us", int),
        )

    noise = None
    if "noise" in parser:
        with _section(parser, name, "noise") as sec:
            hot_pixels = _entries("x,y,p,rate", int, int, int, _finite)
            noise = NoiseSpec(
                hot_pixels=_get(sec, "hot_pixels", hot_pixels, []),
                background_rate=_get(sec, "background_rate", _finite, 0.0),
                rng_seed=_get(sec, "seed", int, 0),
                deterministic=_get(sec, "deterministic", _boolean, False),
            )
    return scene, noise


def load_scene(path) -> tuple[SceneSpec, NoiseSpec | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return parse_scene_text(text, name=str(path))
