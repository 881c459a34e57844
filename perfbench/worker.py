"""One pipeline run of one workload, in a fresh process.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json job>'``; never
imported by it. The job names the cached input, the output directory and
the mode:

* ``probe``: import ``evprep.cli`` and print ``time.monotonic()``, so the
  parent can time interpreter start-up plus import (``setup_s``).
* ``run``: the untraced pipeline. For the CLI workloads this is
  ``evprep.cli.main([...])``; for ``dense_artifacts`` the artifact path.
* ``trace``: the same pipeline rebuilt from the package's public functions,
  with a span around every call into ``formats``, ``events``,
  ``intensity`` and ``masking``.

Only the pipeline sections are timed; the output checks run between and
after them. The result, including ``ru_maxrss`` at the end of the last
timed section, is written as JSON to the job's ``result`` path.
"""

import os
import sys
import time

# Everything up to READY is what ``setup_s`` measures, so this file imports
# nothing else before evprep.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
import evprep.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import struct  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from evprep import (  # noqa: E402
    IntensityConfig,
    IntensityState,
    Method,
    PatchGrid,
    SegmentConfig,
    apply_mask,
    build_histogram,
    flatten_histogram,
    normalize_patches,
    run_sequence,
    sample_tube_mask,
    segment_stream,
    signed_bin_accumulation,
    update_adaptive_batch,
    update_per_event,
)
from evprep.events import validate_stream  # noqa: E402
from evprep.formats import read_evt1, save_state, write_intf  # noqa: E402
from evprep.masking import serialize_mask  # noqa: E402

from workloads import SIZES  # noqa: E402

# |frame - reference| <= REL_TOL * max(1, |reference|): about 8 float32 ulps,
# loose enough for ulp-level float64 differences from a reordered update
REL_TOL = 1e-6
INTF_HEADER = struct.Struct("<4sHHI")


class Tracer:
    """Timed pipeline sections, plus named spans and counters when traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.peak_kb = 0  # ru_maxrss at the end of the last timed section
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    @contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - t0
            self.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def totals(self) -> dict:
        """Per span name: inclusive seconds and calls; plus top-level seconds."""
        out = {}
        top = 0.0
        for name, start, end, parent in self.spans:
            s, calls = out.get(name, (0.0, 0))
            out[name] = (s + end - start, calls + 1)
            if parent < 0:
                top += end - start
        return {"spans": out, "top_level_s": top}


def estimate(tr: Tracer, events, geometry, w, seg_cfg, int_cfg):
    """The intensity estimator: ``run_sequence``, or its public steps when traced."""
    if not tr.traced:
        return run_sequence(events, geometry, seg_cfg, int_cfg, num_segments=w.segments)
    with tr.span("intensity.run_sequence"):
        with tr.span("events.validate_stream"):
            validate_stream(events, geometry)
        with tr.span("events.segment_stream"):
            segments, _ = segment_stream(events, geometry, seg_cfg, w.segments)
        state = IntensityState.initial(geometry, int_cfg)
        frames = []
        for seg in segments:
            if int_cfg.method is Method.PER_EVENT_DECAY:
                with tr.span("intensity.update_per_event"):
                    update_per_event(state, seg.events)
                tr.count("intensity.update_per_event.events", seg.num_events)
            else:
                with tr.span("events.build_histogram"):
                    hist = build_histogram(seg, geometry, seg_cfg)
                tr.count("events.build_histogram.events", seg.num_events)
                for tau in range(seg_cfg.bins_per_segment):
                    with tr.span("intensity.signed_bin_accumulation"):
                        signed = signed_bin_accumulation(hist, tau)
                    n = int(hist.counts[:, tau].sum())
                    tr.count("check.histogram_total", n)
                    with tr.span("intensity.update_adaptive_batch"):
                        update_adaptive_batch(state, signed, n)
            state.segments_done = seg.index
            frames.append(state.frame.astype(np.float32))
    return state, frames


def configs(w):
    seg_cfg = SegmentConfig(w.segment_us, w.bins)
    method = Method.PER_EVENT_DECAY if w.method == "decay" else Method.ADAPTIVE_BATCH
    return seg_cfg, IntensityConfig(method=method, bin_duration_us=seg_cfg.bin_duration_us)


def run_artifacts(tr: Tracer, job, w, facts, checks):
    """dense_artifacts: histograms, tube-masked inputs, intensity targets, INTF."""
    seg_cfg, int_cfg = configs(w)
    out = Path(job["out"])
    with tr.timed():
        with tr.span("formats.read_evt1"):
            events, geometry = read_evt1(job["input"])
        with tr.span("events.segment_stream"):
            segments, _ = segment_stream(events, geometry, seg_cfg, w.segments)
        grid = PatchGrid(w.patch, geometry.height, geometry.width)
        with tr.span("masking.sample_tube_mask"):
            mask = sample_tube_mask(grid, w.mask_ratio, seed=job["seed"])
    pix = np.repeat(np.repeat(mask.masked, w.patch, 0), w.patch, 1)[: w.height, : w.width]
    hist_total = 0
    masked_ok = indicator_ok = True
    for seg in segments:
        with tr.timed():
            with tr.span("events.build_histogram"):
                hist = build_histogram(seg, geometry, seg_cfg, clip_max=w.clip_max)
            with tr.span("events.flatten_histogram"):
                flat = flatten_histogram(hist)
            with tr.span("masking.apply_mask"):
                masked = apply_mask(flat, mask, grid)
        tr.count("events.build_histogram.events", seg.num_events)
        hist_total += hist.total()
        del hist, flat
        masked_ok &= not np.any(masked[:-1, pix])
        indicator_ok &= np.array_equal(masked[-1], pix.astype(np.float32))
        del masked
    checks["histogram_conservation"] = hist_total == int(facts["in_window"])
    checks["masked_patches_zero"] = bool(masked_ok)
    checks["indicator_is_pixel_mask"] = bool(indicator_ok)
    with tr.timed():
        _, frames = estimate(tr, events, geometry, w, seg_cfg, int_cfg)
        targets = []
        for frame in frames:
            with tr.span("masking.normalize_patches"):
                targets.append(normalize_patches(frame.astype(np.float64), grid))
        with tr.span("formats.write_intf"):
            write_intf(out / "targets.intf", targets, geometry)
        with tr.span("masking.serialize_mask"):
            blob = serialize_mask(mask)
        (out / "mask.tube").write_bytes(blob)
    return events, segments, np.stack(frames), ["targets.intf", "mask.tube"]


def run_cli(tr: Tracer, job, w, facts, checks):
    """sparse_bursty / decay_hotpix: ``evprep intensity`` or its traced rebuild."""
    seg_cfg, int_cfg = configs(w)
    out = Path(job["out"])
    intf = out / "frames.intf"
    state_path = out / "state.npz" if w.method == "adaptive" else None
    if not tr.traced:
        argv = ["intensity", job["input"], "-o", str(intf), "--method", w.method,
                "--segment-ms", str(w.segment_us / 1000), "--bins", str(w.bins),
                "--segments", str(w.segments)]
        if state_path:
            argv += ["--save-state", str(state_path)]
        with tr.timed():
            code = evprep.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"evprep intensity exited {code}")
        events = segments = None
    else:
        with tr.timed():
            with tr.span("formats.read_evt1"):
                events, geometry = read_evt1(job["input"])
            state, frames = estimate(tr, events, geometry, w, seg_cfg, int_cfg)
            with tr.span("formats.write_intf"):
                write_intf(intf, frames, geometry)
            if state_path:
                with tr.span("formats.save_state"):
                    save_state(state_path, state)
        segments, _ = segment_stream(events, geometry, seg_cfg, w.segments)
    outputs = ["frames.intf"] + (["state.npz"] if state_path else [])
    return events, segments, read_frames(intf, w), outputs


def read_frames(path: Path, w) -> np.ndarray:
    """INTF frames as a (count, H, W) float32 array, read without evprep."""
    raw = path.read_bytes()
    magic, width, height, count = INTF_HEADER.unpack_from(raw)
    if (magic, width, height) != (b"INTF", w.width, w.height):
        raise ValueError(f"{path}: unexpected INTF header {magic!r} {width}x{height}")
    return np.frombuffer(raw, "<f4", offset=INTF_HEADER.size).reshape(count, height, width).copy()


def _pixel_history(facts, q):
    sel = facts["sample_pix"] == q
    return facts["sample_t"][sel].tolist(), facts["sample_p"][sel].tolist()


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def check_adaptive(frames, facts, w, cfg) -> bool:
    """Sampled pixels against the batch rule replayed from the generator's bin totals."""
    bins = facts["bin_totals"].tolist()
    dt_s = cfg.bin_duration_us * 1e-6
    for q in facts["sampled_pixels"].tolist():
        ts, ps = _pixel_history(facts, q)
        signed = [0] * len(bins)
        for t, p in zip(ts, ps):
            signed[t // w.bin_us] += p
        f = 0.0
        for k in range(w.segments):
            for b in range(k * w.bins, (k + 1) * w.bins):
                if bins[b]:
                    f = f * math.exp(-cfg.alpha_per_s * dt_s * bins[b] / cfg.normalizer)
                    f += signed[b] * cfg.threshold
            if not _close(float(frames[k, q // w.width, q % w.width]), f):
                return False
    return True


def check_decay(frames, facts, w, cfg) -> bool:
    """Sampled pixels, hot pixels included, against a pure-Python per-event recursion."""
    for q in facts["sampled_pixels"].tolist():
        ts, ps = _pixel_history(facts, q)
        f, last, j = 0.0, 0, 0
        for k in range(w.segments):
            end = (k + 1) * w.segment_us
            while j < len(ts) and ts[j] < end:
                f = math.exp(-cfg.alpha_per_s * (ts[j] - last) * 1e-6) * f + ps[j] * cfg.threshold
                last = ts[j]
                j += 1
            if not _close(float(frames[k, q // w.width, q % w.width]), f):
                return False
    return True


def check_silent_segments(frames, facts) -> bool:
    """A segment without events leaves the frame bit-identical."""
    for k in np.flatnonzero(facts["segment_events"] == 0).tolist():
        prev = frames[k - 1] if k else np.zeros_like(frames[0])
        if frames[k].tobytes() != prev.tobytes():
            return False
    return True


def layer_counts(tr: Tracer, events, segments, w, job, outputs) -> None:
    """Exact counts of the traced run, taken outside the timed sections."""
    in_window = sum(s.num_events for s in segments)
    tr.counts["events.in_window"] = in_window
    tr.counts["events.dropped"] = events.shape[0] - in_window
    silent = 0
    per_pixel = np.zeros(w.width * w.height, dtype=np.int64)
    for s in segments:
        t = s.events["t"].astype(np.int64) - (s.index - 1) * w.segment_us
        tau = np.minimum(t * w.bins // w.segment_us, w.bins - 1)
        silent += int(np.count_nonzero(np.bincount(tau, minlength=w.bins) == 0))
        per_pixel += np.bincount(
            s.events["y"].astype(np.int64) * w.width + s.events["x"], minlength=per_pixel.size
        )
    tr.counts["intensity.silent_bins"] = silent
    tr.counts["intensity.max_events_per_pixel"] = int(per_pixel.max())
    tr.counts["formats.bytes_read"] = os.path.getsize(job["input"])
    tr.counts["formats.bytes_written"] = sum(
        os.path.getsize(Path(job["out"]) / name) for name in outputs
    )
    tr.counts["formats.intf_bytes"] = os.path.getsize(Path(job["out"]) / outputs[0])


def run_job(job) -> dict:
    w = SIZES[job["size"]][job["workload"]]
    facts = dict(np.load(Path(job["entry"]) / "facts.npz"))
    tr = Tracer(job["mode"] == "trace")
    checks = {}
    runner = run_artifacts if w.kind == "artifacts" else run_cli
    events, segments, frames, outputs = runner(tr, job, w, facts, checks)

    _, int_cfg = configs(w)
    if job.get("corrupt"):
        q = int(facts["sampled_pixels"][0])
        frames[-1, q // w.width, q % w.width] += 1.0
    checks["frame_count"] = frames.shape[0] == w.segments
    check = check_decay if w.method == "decay" else check_adaptive
    checks[f"{w.method}_reference_pixels"] = check(frames, facts, w, int_cfg)
    if w.silent_segments:
        checks["silent_segments_unchanged"] = check_silent_segments(frames, facts)
    if tr.traced:
        if w.method == "adaptive":
            total = tr.counts.get("check.histogram_total", 0)
        else:
            total = sum(s.num_events for s in segments)
        checks["estimator_conservation"] = total == int(facts["in_window"])
        layer_counts(tr, events, segments, w, job, outputs)
        trace_path = Path(job["out"]).parent / f"trace-{w.name}-seed{job['seed']}.json"
        trace_path.write_text(json.dumps(tr.spans))

    # the state file is a zip archive with timestamps, so it is left out
    digest = hashlib.sha256()
    for name in outputs:
        if not name.endswith(".npz"):
            digest.update((Path(job["out"]) / name).read_bytes())
    return {
        "ready": READY,
        "wall_s": tr.wall,
        "peak_rss_kb": tr.peak_kb,
        "checks": {k: bool(v) for k, v in checks.items()},
        "digest": digest.hexdigest(),
        "trace": tr.totals() if tr.traced else None,
        "counts": tr.counts,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    if job["mode"] == "probe":
        print(READY)
        return 0
    if os.path.dirname(os.path.abspath(evprep.cli.__file__)) != os.path.join(_ROOT, "src", "evprep"):
        print(f"worker: evprep imported from {evprep.cli.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    try:
        result = run_job(job)
    except Exception:  # a failed run is reported to the parent, which counts it
        traceback.print_exc()
        return 1
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
