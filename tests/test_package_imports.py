"""The package's public names, and the modules each entry point loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evprep

ROOT = Path(__file__).resolve().parent.parent

# every name `evprep` exports, by the module that defines it
EXPORTS = {
    "events": [
        "EVENT_DTYPE", "EventSegment", "SegmentConfig", "SensorGeometry", "StageHistogram",
        "bin_edges", "build_histogram", "flatten_histogram", "make_events", "segment_stream",
        "signed_bin_accumulation",
    ],
    "intensity": [
        "IntensityConfig", "IntensityState", "Method", "run_sequence", "update_adaptive_batch",
        "update_per_event",
    ],
    "masking": ["PatchGrid", "TubeMask", "apply_mask", "normalize_patches", "sample_tube_mask"],
    "losses": ["DepthConfig", "denormalize_depth", "masked_mse", "normalize_depth", "trail_energy"],
    "simulate": [
        "MovingDisc", "NoiseSpec", "SceneSpec", "render_logintensity", "simulate_events",
        "swept_region", "trail_region",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that finds evprep in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_all_is_the_exports():
    assert len(NAMES) == 34
    assert sorted(evprep.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_defining_modules(module, name):
    assert getattr(evprep, name) is getattr(importlib.import_module(f"evprep.{module}"), name)


def test_dir_lists_the_exports():
    assert {name for _, name in NAMES} <= set(dir(evprep))
    assert "__version__" in dir(evprep)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        evprep.no_such_name


def test_from_import_of_a_submodule():
    from evprep import cli
    from evprep import events as m

    assert cli is sys.modules["evprep.cli"]
    assert m is sys.modules["evprep.events"]


def test_import_evprep_loads_no_numpy():
    result = run_fresh("import sys, evprep; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


CLI_START = """\
import sys
import evprep.cli
print(sorted(name for name in sys.modules if name.partition(".")[0] == "evprep"))
print("json" in sys.modules)
sys.exit(evprep.cli.main(["simulate", sys.argv[1], "-o", sys.argv[2]]))
"""


def test_cli_starts_with_the_intensity_modules(tmp_path):
    out = tmp_path / "d.evt1"
    result = run_fresh(CLI_START, str(ROOT / "scenes" / "disc.scene"), str(out))
    assert result.returncode == 0, result.stderr
    modules, has_json, wrote = result.stdout.splitlines()
    assert modules == repr(["evprep", "evprep.cli", "evprep.errors", "evprep.events",
                            "evprep.formats", "evprep.intensity"])
    assert has_json == "False"
    assert wrote.startswith("wrote ") and out.stat().st_size > 0
