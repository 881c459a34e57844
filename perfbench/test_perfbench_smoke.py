"""Smoke test of the pipeline benchmark itself, on 64x48 inputs of a few thousand events.

Covers every workload, the traced run and its byte-identity with the
untraced output, a deliberately corrupted output counted as failed, the
metric names against BENCHMARK.json, and the refusal to run without the
program's source. Takes about 12 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.fixture(scope="module")
def traced_all():
    proc = _bench("--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_workload_traced_and_correct(traced_all):
    result = json.loads(traced_all[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.FULL) * (run.MIN_RUNS + 1)
    for name in workloads.FULL:
        assert f"[{name}] check traced_output_identical: ok" in traced_all
        assert not any(line.startswith(f"[{name}] check") and "FAILED" in line for line in traced_all)
        layers = {k[len(name) + 1:]: v["unit"] for k, v in result["metrics"].items()
                  if k.startswith(name + ".")}
        assert layers == _declared("per_layer")


def test_traced_counts_are_exact(traced_all):
    metrics = json.loads(traced_all[-1])["metrics"]
    for name, w in workloads.TINY.items():
        assert metrics[f"{name}.events.in_window"]["value"] == w.events
        assert metrics[f"{name}.events.dropped"]["value"] == 0
    assert metrics["decay_hotpix.intensity.max_events_per_pixel"]["value"] >= 250
    assert metrics["sparse_bursty.intensity.silent_bins"]["value"] >= 500


def test_corrupted_output_counts_as_failed():
    proc = _bench("--workload", "sparse_bursty", "--trace", "0", "--corrupt-output")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_RUNS
    assert "[sparse_bursty] check adaptive_reference_pixels: FAILED" in proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dense_artifacts", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
