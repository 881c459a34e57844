"""Workload definitions and seeded input generators for the pipeline benchmark.

Each workload is an EVT1 event file plus a small ``facts.npz`` of what the
generator knows about it: the events it put in the window, the per-bin
event totals and the full event history of a few sampled pixels. The
output checks compare the program's results against these facts, so they
never depend on the program's own readers.

Inputs are cached under ``.perfbench/cache/<workload>-<size>-seed<n>-<generator>``
in the checkout. This module imports numpy only, never evprep.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

# bump when a generator changes, so stale cache entries are not reused
GENERATOR = "g1"

EVT1_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
EVT1_HEADER = struct.Struct("<4sHHII")
SAMPLED_PIXELS = 64
CACHE_KEEP = 2  # cache entries kept per workload and size


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "artifacts" (library path) or "cli" (evprep intensity)
    method: str  # intensity estimator: "adaptive" or "decay"
    width: int
    height: int
    events: int
    duration_us: int
    segments: int
    segment_us: int = 50_000
    bins: int = 10
    hot_pixels: int = 0
    hot_events: int = 0  # events per hot pixel, counted in ``events``
    silent_segments: int = 0
    silent_bin_share: float = 0.0
    patch: int = 16
    mask_ratio: float = 0.75
    clip_max: int = 10

    @property
    def bin_us(self) -> int:
        return self.segment_us // self.bins


FULL = {
    w.name: w
    for w in (
        Workload("dense_artifacts", "artifacts", "adaptive", 640, 480,
                 10_000_000, 2_000_000, 40),
        Workload("sparse_bursty", "cli", "adaptive", 640, 480,
                 1_000_000, 5_000_000, 100, silent_segments=10,
                 silent_bin_share=0.5),
        Workload("decay_hotpix", "cli", "decay", 640, 480,
                 1_000_000, 2_000_000, 40, hot_pixels=4, hot_events=25_000),
    )
}

# the same streams at 64x48 with a few thousand events, for the smoke test
TINY = {
    "dense_artifacts": replace(FULL["dense_artifacts"], width=64, height=48, events=4_000),
    "sparse_bursty": replace(FULL["sparse_bursty"], width=64, height=48, events=3_000),
    "decay_hotpix": replace(FULL["decay_hotpix"], width=64, height=48, events=3_000,
                            hot_events=250),
}

SIZES = {"full": FULL, "tiny": TINY}


def _uniform(rng, w: Workload, n: int, t_lo: int, t_hi: int):
    t = rng.integers(t_lo, t_hi, size=n, dtype=np.int64)
    x = rng.integers(0, w.width, size=n, dtype=np.uint16)
    y = rng.integers(0, w.height, size=n, dtype=np.uint16)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return t, x, y, p


# Pixels and polarities are drawn independently of time, so sorting the
# timestamps alone yields a sorted stream with the same distribution.


def _gen_dense(rng, w: Workload):
    t, x, y, p = _uniform(rng, w, w.events, 0, w.duration_us)
    t.sort()
    return t, x, y, p


def _gen_sparse(rng, w: Workload):
    """Bursts in a random half of the bins; some whole segments silent."""
    total_bins = w.segments * w.bins
    silent_seg = rng.choice(w.segments, size=w.silent_segments, replace=False)
    seg_of_bin = np.arange(total_bins) // w.bins
    open_bins = np.flatnonzero(~np.isin(seg_of_bin, silent_seg))
    n_active = total_bins - int(round(w.silent_bin_share * total_bins))
    active = np.sort(rng.choice(open_bins, size=n_active, replace=False))
    per_bin = rng.multinomial(w.events, np.full(n_active, 1.0 / n_active))
    bin_of_event = np.repeat(active, per_bin)
    t, x, y, p = _uniform(rng, w, w.events, 0, w.bin_us)
    t += bin_of_event * w.bin_us
    t.sort()
    return t, x, y, p


def _gen_hotpix(rng, w: Workload):
    """Uniform background plus a few hot pixels with many events each."""
    n_bg = w.events - w.hot_pixels * w.hot_events
    t, x, y, p = _uniform(rng, w, n_bg, 0, w.duration_us)
    hot = rng.choice(w.width * w.height, size=w.hot_pixels, replace=False)
    n_hot = w.hot_pixels * w.hot_events
    ht = rng.integers(0, w.duration_us, size=n_hot, dtype=np.int64)
    hp = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_hot)
    hpix = np.repeat(hot, w.hot_events)
    t = np.concatenate([t, ht])
    order = np.argsort(t, kind="stable")
    return (
        t[order],
        np.concatenate([x, (hpix % w.width).astype(np.uint16)])[order],
        np.concatenate([y, (hpix // w.width).astype(np.uint16)])[order],
        np.concatenate([p, hp])[order],
    )


GENERATORS = {
    "dense_artifacts": _gen_dense,
    "sparse_bursty": _gen_sparse,
    "decay_hotpix": _gen_hotpix,
}


def generate(w: Workload, seed: int):
    """Sorted event arrays (t, x, y, p) of one workload; same seed, same events."""
    return GENERATORS[w.name](np.random.default_rng([seed, 0]), w)


def _facts(w: Workload, seed: int, t, x, y, p) -> tuple[dict, dict]:
    """Reference facts for the output checks, and the workload's properties."""
    window = w.segments * w.segment_us
    in_window = t < window
    bins = np.bincount(t[in_window] // w.bin_us, minlength=w.segments * w.bins)
    pix = y.astype(np.int64) * w.width + x
    per_pixel = np.bincount(pix[in_window], minlength=w.width * w.height)
    # hot pixels are the most active ones; sample the rest at random
    n_hot = w.hot_pixels
    hot = np.argsort(per_pixel, kind="stable")[::-1][:n_hot] if n_hot else []
    rng = np.random.default_rng([seed, 1])
    sampled = np.unique(
        np.concatenate([hot, rng.choice(w.width * w.height, SAMPLED_PIXELS, replace=False)])
    ).astype(np.int64)
    sel = np.isin(pix, sampled) & in_window
    seg_events = np.bincount(
        t[in_window] // w.segment_us, minlength=w.segments
    )
    facts = {
        "in_window": np.int64(in_window.sum()),
        "bin_totals": bins.astype(np.int64),
        "segment_events": seg_events.astype(np.int64),
        "sampled_pixels": sampled,
        "sample_pix": pix[sel],
        "sample_t": t[sel],
        "sample_p": p[sel].astype(np.int64),
    }
    props = {
        "events": int(t.shape[0]),
        "events_in_window": int(facts["in_window"]),
        "segments": w.segments,
        "events_per_segment": float(in_window.sum()) / w.segments,
        "silent_segments": int((seg_events == 0).sum()),
        "silent_bin_share": float((bins == 0).mean()),
        "max_events_per_pixel": int(per_pixel.max()),
        "input_bytes": EVT1_HEADER.size + int(t.shape[0]) * EVT1_DTYPE.itemsize,
    }
    return facts, props


def _write_evt1(path: Path, w: Workload, t, x, y, p) -> None:
    rec = np.empty(t.shape[0], dtype=EVT1_DTYPE)
    rec["t"] = t
    rec["x"] = x
    rec["y"] = y
    rec["p"] = p
    with open(path, "wb") as fh:
        fh.write(EVT1_HEADER.pack(b"EVT1", w.width, w.height, 0, t.shape[0]))
        rec.tofile(fh)


def cache_entry(root: Path, w: Workload, size: str, seed: int) -> Path:
    """Cache directory of (workload, size, seed): ``input.evt1``, ``facts.npz``, ``props.json``."""
    return root / ".perfbench" / "cache" / f"{w.name}-{size}-seed{seed}-{GENERATOR}"


def prepare(root: Path, w: Workload, size: str, seed: int) -> None:
    """Generate the cache entry of (workload, size, seed) unless it exists."""
    entry = cache_entry(root, w, size, seed)
    cache, key = entry.parent, entry.name
    if not (entry / "props.json").exists():
        tmp = cache / f".tmp-{key}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t, x, y, p = generate(w, seed)
        _write_evt1(tmp / "input.evt1", w, t, x, y, p)
        facts, props = _facts(w, seed, t, x, y, p)
        del t, x, y, p
        np.savez(tmp / "facts.npz", **facts)
        props = {"workload": asdict(w), "seed": seed, "generator": GENERATOR, **props}
        (tmp / "props.json").write_text(json.dumps(props, indent=1))
        shutil.rmtree(entry, ignore_errors=True)
        tmp.rename(entry)
        _evict(cache, f"{w.name}-{size}-", keep=entry)


def _evict(cache: Path, prefix: str, keep: Path) -> None:
    entries = sorted(
        (e for e in cache.glob(prefix + "*") if e != keep),
        key=lambda e: e.stat().st_mtime,
        reverse=True,
    )
    for old in entries[CACHE_KEEP - 1 :]:
        shutil.rmtree(old, ignore_errors=True)


if __name__ == "__main__":
    # python3 perfbench/workloads.py <checkout root> <workload> <size> <seed>
    root, name, size, seed = sys.argv[1:]
    prepare(Path(root), SIZES[size][name], size, int(seed))
