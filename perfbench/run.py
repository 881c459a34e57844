"""Pipeline benchmark of evprep: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_artifacts --seed 4 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one after another

Per workload it generates (or reuses) the seeded input, then runs the
untraced pipeline in fresh single-threaded worker processes, one at a
time, until ``--seconds`` have passed and at least ``MIN_RUNS`` ran. Before
each run, ``PROBES`` import-only processes time interpreter start-up plus
``import evprep.cli``. With
``--trace 1`` it also runs the traced pipeline once and reports per-layer
metrics instead of end-to-end ones. Every run's outputs are checked; a run
that exits non-zero, fails a check or writes output differing from the
other runs counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
PROBES = 2  # import-only starts before each pipeline run, for setup_s
DEADLINE_S = 170  # every worker of one workload ends within this, or is killed
MIB = 1 << 20
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# spans recorded by the traced run, one per public function called
SPANS = (
    "formats.read_evt1",
    "formats.write_intf",
    "formats.save_state",
    "events.validate_stream",
    "events.segment_stream",
    "events.build_histogram",
    "events.flatten_histogram",
    "masking.apply_mask",
    "masking.normalize_patches",
    "masking.sample_tube_mask",
    "intensity.run_sequence",
    "intensity.signed_bin_accumulation",
    "intensity.update_adaptive_batch",
    "intensity.update_per_event",
)
COUNTS = (
    "events.in_window",
    "events.dropped",
    "intensity.silent_bins",
    "intensity.max_events_per_pixel",
    "formats.bytes_read",
    "formats.bytes_written",
)
# every per-layer metric with its unit, in report order
PER_LAYER = {
    **{f"{name}.s": "s" for name in SPANS},
    "formats.read_evt1.mb_per_s": "MiB/s",
    "formats.write_intf.mb_per_s": "MiB/s",
    "events.build_histogram.ev_per_s": "1/s",
    "events.build_histogram.ms_per_segment": "ms",
    "events.build_histogram.alloc_mb": "MiB",
    "intensity.update_adaptive_batch.us_per_bin": "us",
    "intensity.update_per_event.ev_per_s": "1/s",
    **{name: "count" for name in COUNTS},
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Runner:
    """Starts worker processes for one checkout, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.env.update({k: "1" for k in THREAD_ENV})

    def _start(self, job: dict, stdout) -> tuple[float, subprocess.CompletedProcess | None]:
        """Run one worker to completion; None if it outlived the deadline and was killed."""
        cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=stdout, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return spawned, None
        return spawned, proc

    def prepare(self, w: workloads.Workload, size: str, seed: int) -> tuple[Path, dict]:
        """Generate the input in a process of its own; return its cache entry and properties.

        Linux carries the RSS peak of the image that exec replaces into
        ru_maxrss, and subprocess starts workers by vfork. A worker's
        peak_rss_mb therefore starts at this process's peak, which must
        not hold the generator's arrays.
        """
        subprocess.run([sys.executable, str(HERE / "workloads.py"), str(self.root), w.name, size,
                        str(seed)], check=True, timeout=max(1.0, self.deadline - time.monotonic()))
        entry = workloads.cache_entry(self.root, w, size, seed)
        return entry, json.loads((entry / "props.json").read_text())

    def probe(self) -> float | None:
        """Seconds from spawning an interpreter until ``import evprep.cli`` completes."""
        spawned, proc = self._start({"mode": "probe"}, subprocess.PIPE)
        if proc is None or proc.returncode != 0:
            return None
        return float(proc.stdout.split()[-1]) - spawned

    def pipeline(self, job: dict) -> dict | None:
        """One pipeline run; None when the worker exits non-zero."""
        tag = f"{job['workload']}-{job['mode']}-{os.getpid()}"
        out = self.work / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result = self.work / f"result-{tag}.json"
        result.unlink(missing_ok=True)
        job = dict(job, out=str(out), result=str(result))
        try:
            spawned, proc = self._start(job, subprocess.DEVNULL)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc is None or proc.returncode != 0:
            return None
        res = json.loads(result.read_text())
        result.unlink()
        res["setup_s"] = res["ready"] - spawned
        return res


def machine_facts() -> dict:
    # find_spec rather than import: importing numba here would raise every worker's ru_maxrss
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
    }


def run_workload(root: Path, name: str, args) -> dict:
    runner = Runner(root, root / ".perfbench" / "work")
    w = workloads.SIZES[args.size][name]
    entry, props = runner.prepare(w, args.size, args.seed)
    job = {"workload": name, "size": args.size, "seed": args.seed, "entry": str(entry),
           "input": str(entry / "input.evt1"), "corrupt": args.corrupt_output}

    setups, runs, attempted = [], [], 0
    deadline = time.monotonic() + args.seconds
    while attempted < MIN_RUNS or time.monotonic() < deadline:
        setups += [s for s in (runner.probe() for _ in range(PROBES)) if s is not None]
        attempted += 1
        runs.append(runner.pipeline(dict(job, mode="run")))
    traced = None
    if args.trace:
        attempted += 1
        traced = runner.pipeline(dict(job, mode="trace"))

    done = [r for r in runs if r is not None]
    digests = {r["digest"] for r in done}
    failed = sum(r is None or not all(r["checks"].values()) for r in runs)
    if len(digests) > 1:
        failed = len(runs)  # runs of one input disagree: none can be trusted
    if args.trace and (traced is None or not all(traced["checks"].values())
                       or {traced["digest"]} != digests):
        failed += 1
    report = {"workload": name, "props": props, "attempted": attempted, "failed": failed,
              "checks": {}, "metrics": {}, "layers": {}}
    for r in done + ([traced] if traced else []):
        for check, ok in r["checks"].items():
            report["checks"][check] = report["checks"].get(check, True) and ok
    report["checks"]["untraced_outputs_identical"] = len(digests) <= 1
    if traced:
        report["checks"]["traced_output_identical"] = {traced["digest"]} == digests
    if not done:
        return report

    wall = statistics.median(r["wall_s"] for r in done)
    setups += [r["setup_s"] for r in done]
    walls = sorted(round(r["wall_s"], 3) for r in done)
    report["samples"] = {"wall_s": f"{len(done)} runs: {walls}", "events_per_s": f"{len(done)} runs",
                         "peak_rss_mb": f"{len(done)} runs", "setup_s": f"{len(setups)} starts"}
    report["metrics"] = {
        "wall_s": wall,
        "events_per_s": props["events"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in done) / 1024,
        "setup_s": statistics.median(setups),
    }
    if traced:
        report["layers"] = layer_metrics(traced, wall, w)
    return report


def layer_metrics(traced: dict, untraced_wall: float, w: workloads.Workload) -> dict:
    """Per-layer metrics of the traced run; layers the workload never calls read 0."""
    spans = traced["trace"]["spans"]
    counts = traced["counts"]

    def secs(name):
        return spans.get(name, (0.0, 0))[0]

    def per(amount, name, scale=1.0):
        return amount / secs(name) * scale if secs(name) else 0.0

    hist_calls = spans.get("events.build_histogram", (0.0, 0))[1]
    bins = spans.get("intensity.update_adaptive_batch", (0.0, 0))[1]
    out = {f"{name}.s": secs(name) for name in SPANS}
    out.update({
        "formats.read_evt1.mb_per_s": per(counts["formats.bytes_read"] / MIB, "formats.read_evt1"),
        "formats.write_intf.mb_per_s": per(counts["formats.intf_bytes"] / MIB, "formats.write_intf"),
        "events.build_histogram.ev_per_s": per(
            counts.get("events.build_histogram.events", 0), "events.build_histogram"),
        "events.build_histogram.ms_per_segment": (
            secs("events.build_histogram") / hist_calls * 1e3 if hist_calls else 0.0),
        "events.build_histogram.alloc_mb": hist_calls * 2 * w.bins * w.height * w.width * 8 / MIB,
        "intensity.update_adaptive_batch.us_per_bin": (
            secs("intensity.update_adaptive_batch") / bins * 1e6 if bins else 0.0),
        "intensity.update_per_event.ev_per_s": per(
            counts.get("intensity.update_per_event.events", 0), "intensity.update_per_event"),
    })
    out.update({name: counts[name] for name in COUNTS})
    out["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    out["trace.unattributed_s"] = traced["wall_s"] - traced["trace"]["top_level_s"]
    return {name: out[name] for name in PER_LAYER}


def print_report(report: dict) -> None:
    name = report["workload"]
    props = {k: v for k, v in report["props"].items() if k not in ("workload", "generator")}
    print(f"[{name}] input: {json.dumps(props)}")
    for check, ok in report["checks"].items():
        print(f"[{name}] check {check}: {'ok' if ok else 'FAILED'}")
    print(f"[{name}] failed_frac {report['failed'] / report['attempted']:.6g}"
          f" ({report['failed']} of {report['attempted']} runs failed)")
    for metric, value in report["metrics"].items():
        print(f"[{name}] {metric} {value:.6g} {END_TO_END[metric]}"
              f" (median of {report['samples'][metric]})")
    for metric, value in report["layers"].items():
        print(f"[{name}] {metric} {value:.6g} {PER_LAYER[metric]} (traced run)")


def result_line(reports: list[dict], trace: bool) -> dict:
    """The final JSON line; with several workloads, metric names get a workload prefix."""
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        values, units = (report["layers"], PER_LAYER) if trace else (report["metrics"], END_TO_END)
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0 and all(all(r["checks"].values()) for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.FULL, "all"])
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure untraced runs for this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' shrinks every workload to 64x48 (smoke test)")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="corrupt one output value before its check (smoke test)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = HERE.parent
    if not (root / "src" / "evprep" / "cli.py").is_file():
        print(f"perfbench: no evprep source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(machine_facts())}")
    names = list(workloads.FULL) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(root, name, args)
        if not report["metrics"] or (args.trace and not report["layers"]):
            print(f"perfbench: {name}: no successful run to report", file=sys.stderr)
            return 1
        print_report(report)
        reports.append(report)
    print(json.dumps(result_line(reports, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
