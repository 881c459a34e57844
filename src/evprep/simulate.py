"""Exact synthetic event generation from piecewise-constant disc scenes.

Integrate-and-fire trigger semantics: the scene is rasterized at a fixed
sample interval and each pixel keeps a reference log-level; whenever the
rendered level drifts from the reference by at least the threshold C,
floor(|diff| / C) events fire and the reference advances by that many
threshold steps. Noise-free streams are exactly reproducible, which is
what the intensity-estimator oracle tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from evprep.errors import GeometryError
from evprep.events import EVENT_DTYPE, MAX_EVENTS, SensorGeometry, make_events


@dataclass
class MovingDisc:
    """A flat disc following a piecewise-linear trajectory of (t, cx, cy) knots."""

    knots: list[tuple[int, float, float]]
    radius: float
    logintensity: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
        if not self.knots:
            raise ValueError("disc needs at least one knot")
        times = [k[0] for k in self.knots]
        if times != sorted(times):
            raise ValueError("disc knots must be sorted by time")

    def center_at(self, t_us: int) -> tuple[float, float]:
        """Linear interpolation between knots; clamps outside the knot span."""
        knots = self.knots
        if t_us <= knots[0][0]:
            return knots[0][1], knots[0][2]
        if t_us >= knots[-1][0]:
            return knots[-1][1], knots[-1][2]
        # the first knot at or after t_us ends its pair, whose start is before t_us
        for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
            if t_us <= t1:
                w = (t_us - t0) / (t1 - t0)
                return x0 + w * (x1 - x0), y0 + w * (y1 - y0)


@dataclass
class NoiseSpec:
    """Hot pixels and uniform background noise.

    ``deterministic`` makes every hot pixel fire at its exact period
    (1/rate), giving exactly floor(rate * duration) events; otherwise
    each hot pixel, like the background, is a seeded Poisson process.
    """

    hot_pixels: list[tuple[int, int, int, float]] = field(default_factory=list)
    background_rate: float = 0.0
    rng_seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.background_rate < 0:
            raise ValueError("background_rate must be >= 0")
        for x, y, p, rate in self.hot_pixels:
            if rate < 0:
                raise ValueError("hot pixel rate must be >= 0")
            if p not in (-1, 1):
                raise ValueError("hot pixel polarity must be -1 or +1")


@dataclass
class SceneSpec:
    geometry: SensorGeometry
    background_logintensity: float
    objects: list[MovingDisc]
    duration_us: int
    threshold: float
    sample_interval_us: int

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.duration_us < 0 or self.sample_interval_us <= 0:
            raise ValueError("duration must be >= 0 and sample_interval positive")
        if self.duration_us % self.sample_interval_us != 0:
            raise ValueError("sample_interval must divide duration")


def _disc_coverage(scene: SceneSpec, t_us: int):
    """Yield each disc at time t, bottom to top, with the pixels it covers:
    those whose center lies within its radius. No anti-aliasing."""
    geo = scene.geometry
    ys, xs = np.mgrid[0 : geo.height, 0 : geo.width]
    for disc in scene.objects:
        cx, cy = disc.center_at(t_us)
        yield disc, (xs - cx) ** 2 + (ys - cy) ** 2 <= disc.radius**2


def render_logintensity(scene: SceneSpec, t_us: int) -> np.ndarray:
    """Rasterize the scene's log-intensity at time t; the last disc in the
    object list is topmost."""
    if not 0 <= t_us <= scene.duration_us:
        raise ValueError(f"t={t_us}us outside scene duration")
    geo = scene.geometry
    frame = np.full(
        (geo.height, geo.width), scene.background_logintensity, dtype=np.float64
    )
    for disc, inside in _disc_coverage(scene, t_us):
        frame[inside] = disc.logintensity
    return frame


def _sample_times(scene: SceneSpec, t0_us: int, t1_us: int) -> range:
    """The sample times in [t0, t1]: multiples of the sample interval in [0, duration]."""
    si = scene.sample_interval_us
    return range(-(-max(t0_us, 0) // si) * si, min(t1_us, scene.duration_us) + 1, si)


def _noise_events(noise: NoiseSpec, geometry: SensorGeometry, duration_us: int) -> list[np.ndarray]:
    """Each hot pixel in list order, then the background: a seeded Poisson count
    of uniform times in [0, duration), or a deterministic hot pixel's k/rate."""
    rng = np.random.default_rng(noise.rng_seed)

    def poisson_times(expected_count: float) -> np.ndarray:
        return rng.integers(0, duration_us, size=rng.poisson(expected_count), dtype=np.int64)

    streams = []
    for x, y, p, rate in noise.hot_pixels:
        if noise.deterministic:
            times = np.floor(np.arange(1, int(rate * duration_us * 1e-6) + 1) * 1e6 / rate)
        else:
            times = poisson_times(rate * duration_us * 1e-6)
        streams.append(make_events(times, x, y, p))
    w, h = geometry.width, geometry.height
    t = poisson_times(noise.background_rate * duration_us * 1e-6 * w * h)
    x = rng.integers(0, w, size=t.shape[0])
    y = rng.integers(0, h, size=t.shape[0])
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=t.shape[0])
    return streams + [make_events(t, x, y, p)]


def _canonical_sort(events: np.ndarray) -> np.ndarray:
    # tie-break order (t, y, x, p) for deterministic streams
    order = np.lexsort((events["p"], events["x"], events["y"], events["t"]))
    return events[order]


def _count(total: float, more: float) -> float:
    """``total + more`` events, or ValueError past what an EVT1 file can count."""
    if not total + more <= MAX_EVENTS:
        raise ValueError(f"the scene makes over {MAX_EVENTS} events, more than EVT1 can count")
    return total + more


def simulate_events(scene: SceneSpec, noise: NoiseSpec | None = None) -> np.ndarray:
    """Generate the time-ordered event stream for a scene.

    Sampling at every sample_interval, each pixel compares the rendered
    log-level against its reference; a drift of magnitude >= C emits
    floor(|diff| / C) events of that polarity and advances the reference
    by the emitted multiple of C. Raises ValueError, before allocating them,
    if the events would outgrow an EVT1 file (noise at its expected count)
    or if a drift is not finite in units of C.
    """
    C = scene.threshold
    geo, duration_s = scene.geometry, scene.duration_us * 1e-6
    total = 0.0
    if noise is not None:
        for x, y, _, rate in noise.hot_pixels:
            if not (0 <= x < geo.width and 0 <= y < geo.height):
                raise GeometryError(f"hot pixel ({x}, {y}) outside sensor")
            total = _count(total, rate * duration_s)
        total = _count(total, noise.background_rate * geo.width * geo.height * duration_s)
    reference = render_logintensity(scene, 0)
    chunks = []
    for t in _sample_times(scene, 1, scene.duration_us):
        with np.errstate(over="ignore", invalid="ignore"):
            diff = render_logintensity(scene, t) - reference
            steps = np.floor(np.abs(diff) / C)
            more = steps.sum()
        if not np.isfinite(steps).all():
            raise ValueError(f"at t={t}us a level drift is not finite in units of C={C:g}")
        total = _count(total, more)
        counts = steps.astype(np.int64)
        fired = counts > 0
        if not fired.any():
            continue
        sign = np.sign(diff[fired])
        n = counts[fired]
        reference[fired] += sign * n * C
        ys, xs = np.nonzero(fired)
        chunks.append(
            make_events(
                np.full(int(n.sum()), t),
                np.repeat(xs, n),
                np.repeat(ys, n),
                np.repeat(sign.astype(np.int8), n),
            )
        )
    if noise is not None:
        chunks.extend(_noise_events(noise, geo, scene.duration_us))
    if not chunks:
        return np.empty(0, dtype=EVENT_DTYPE)
    return _canonical_sort(np.concatenate(chunks))


def swept_region(scene: SceneSpec, t0_us: int, t1_us: int) -> np.ndarray:
    """Pixels covered by any disc at any sample time in [t0, t1], as
    :func:`render_logintensity` covers them."""
    covered = np.zeros((scene.geometry.height, scene.geometry.width), dtype=bool)
    for t in _sample_times(scene, t0_us, t1_us):
        for _, inside in _disc_coverage(scene, t):
            covered |= inside
    return covered


def trail_region(scene: SceneSpec, t_after_us: int) -> np.ndarray:
    """Pixels covered at a sample time <= ``t_after_us`` and at none after it.

    This is the region where motion-blur residue lives: it saw events
    during the disc's passage but receives none later.
    """
    after = swept_region(scene, t_after_us + 1, scene.duration_us)
    return swept_region(scene, 0, t_after_us) & ~after
