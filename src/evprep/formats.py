"""Binary and text file formats: the four binary headers, EVT1 event files,
INTF frame stacks, PGM previews, text event lists, and estimator state."""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from evprep.errors import FormatError, GeometryError
from evprep.events import EVENT_DTYPE, MAX_SEGMENTS, SensorGeometry
from evprep.intensity import IntensityConfig, IntensityState, Method

# a state file's settings beside its method, each with its default's type
_SETTINGS = {f.name: type(f.default) for f in fields(IntensityConfig) if f.name != "method"}


class Header:
    """A 4-byte magic, then little-endian fields that fix the payload's size."""

    def __init__(self, magic: bytes, fields: str):
        self.magic, self.fields = magic, struct.Struct("<" + fields)
        self.size = len(magic) + self.fields.size

    def pack(self, *values: int) -> bytes:
        return self.magic + self.fields.pack(*values)

    def unpack(self, data: bytes, path=None) -> tuple[int, ...]:
        """The fields at the start of ``data``: a FormatError if it is short or has no magic."""
        where, name = ("" if path is None else f"{path}: "), self.magic.decode()
        if len(data) < self.size:
            raise FormatError(f"{where}truncated {name} header")
        if data[:4] != self.magic:
            raise FormatError(f"{where}bad magic {bytes(data[:4])!r}, expected {name}")
        return self.fields.unpack_from(data, 4)


EVT1 = Header(b"EVT1", "HHII")  # width, height, 0, count; then 13-byte records
INTF = Header(b"INTF", "HHI")  # width, height, count; then f32 frames
TUBE = Header(b"TUBE", "HHI")  # grid width, grid height, seed; then packed mask bits
TOYP = Header(b"TOYP", "HHHB")  # patch, embed, channels, recurrent; then f64 weights


def write_evt1(path, events: np.ndarray, geometry: SensorGeometry) -> None:
    with open(path, "wb") as fh:
        fh.write(EVT1.pack(geometry.width, geometry.height, 0, events.shape[0]))
        fh.write(np.ascontiguousarray(events, dtype=EVENT_DTYPE).tobytes())


def _version(fh) -> tuple[int, int, int]:
    st = os.fstat(fh.fileno())
    return st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class EVT1Records:
    """The records of an EVT1 file, read on demand: ``len()`` is their
    count, and ``[lo:hi]`` reads those records into a new array.

    Records checked in one read are trusted in the next, so a read of a
    file that changed since :func:`open_evt1` raises FormatError.
    """

    path: str
    count: int
    version: tuple[int, int, int]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, step = key.indices(self.count)
        if step != 1:
            raise ValueError("EVT1 records are read in contiguous slices")
        with open(self.path, "rb") as fh:
            if _version(fh) != self.version:
                raise FormatError(f"{self.path}: file changed while it was read")
            fh.seek(EVT1.size + lo * EVENT_DTYPE.itemsize)
            return np.fromfile(fh, dtype=EVENT_DTYPE, count=max(0, hi - lo))


def open_evt1(path) -> tuple[EVT1Records, SensorGeometry]:
    """Check an EVT1 file's framing and return its records, unread.

    The header's count must equal the number of whole 13-byte records that
    follow it. The records themselves are checked by whoever segments them,
    as text-file records are.
    """
    with open(path, "rb") as fh:
        width, height, _, hint = EVT1.unpack(fh.read(EVT1.size), path)
        version = _version(fh)
    count, rest = divmod(version[1] - EVT1.size, EVENT_DTYPE.itemsize)
    if rest:
        raise FormatError(f"{path}: event payload not a whole number of records")
    if hint != count:
        raise FormatError(f"{path}: header counts {hint} events, payload holds {count}")
    return EVT1Records(os.fspath(path), count, version), SensorGeometry(width, height)


def read_evt1(path) -> tuple[np.ndarray, SensorGeometry]:
    """Read all records of an EVT1 file into one array.

    Only the framing is checked here, by :func:`open_evt1`; the records are
    checked by the scan behind :func:`evprep.events.iter_segments`.
    `evprep intensity` reads a file through :func:`open_evt1` instead, one
    block at a time.
    """
    records, geometry = open_evt1(path)
    return records[:], geometry


def _parse_text_lines(path) -> Iterator[tuple[int, int, int, int]]:
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:  # a line that is not UTF-8 fails as a ValueError too
                line = raw.decode().strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
                t, x, y, p = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if p not in (-1, 1):
                raise FormatError(f"{path}:{lineno}: polarity must be -1 or 1, got {p}")
            if not (0 <= t < 2**64 and 0 <= x < 2**16 and 0 <= y < 2**16):
                raise FormatError(f"{path}:{lineno}: t, x or y out of range: {line!r}")
            yield t, x, y, p


def read_text_events(path) -> np.ndarray:
    """One event per line: `t x y p`, whitespace-separated, p in {-1, 1}."""
    return np.fromiter(_parse_text_lines(path), dtype=EVENT_DTYPE)


def write_intf(path, frames: Iterable[np.ndarray], geometry: SensorGeometry) -> int:
    """Stream ``frames`` to an INTF file and return how many it wrote.

    The header's count is written as ``MAX_SEGMENTS`` and set once the frames run
    out, so ``path`` must be seekable. A run that dies before that, even
    before its first frame, leaves a count that disagrees with a payload of
    fewer frames, which :func:`read_intf` rejects.
    """
    shape = (geometry.height, geometry.width)
    count = 0
    with open(path, "wb") as fh:
        if not fh.seekable():
            raise OSError(f"{path}: INTF output must be a seekable file")
        fh.write(INTF.pack(geometry.width, geometry.height, MAX_SEGMENTS))
        for count, frame in enumerate(frames, start=1):
            frame = np.ascontiguousarray(frame, dtype="<f4")
            if frame.shape != shape:
                raise GeometryError(f"frame {count - 1} is {frame.shape}, expected {shape}")
            fh.write(frame)
        fh.seek(0)
        fh.write(INTF.pack(geometry.width, geometry.height, count))
    return count


def read_intf(path) -> tuple[list[np.ndarray], SensorGeometry]:
    """The frames of an INTF file, all finite, as views of one (count, H, W) array."""
    with open(path, "rb") as fh:
        width, height, count = INTF.unpack(fh.read(INTF.size), path)
        geometry = SensorGeometry(width, height)  # before a zero dimension hides the count
        payload = os.fstat(fh.fileno()).st_size - INTF.size
        values = count * height * width
        if payload != 4 * values:
            raise FormatError(f"{path}: payload holds {payload} bytes, expected {4 * values}")
        frames = np.fromfile(fh, dtype="<f4", count=values).reshape(count, height, width)
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=(1, 2)))
    if bad.size:
        raise FormatError(f"{path}: frame {bad[0]} holds non-finite values")
    return list(frames), geometry


def write_pgm(path, frame: np.ndarray) -> None:
    """8-bit binary PGM (P5) after per-frame affine rescale to [0, 255].

    Visualization only; loss computation always reads raw INTF values.
    """
    lo, hi = float(frame.min()), float(frame.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = ((np.asarray(frame, np.float64) - lo) * scale).round().astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def save_state(path, state: IntensityState) -> None:
    decay = state.config.method is Method.PER_EVENT_DECAY  # the batch rule's last_event_t_us is 0
    with open(path, "wb") as fh:  # np.savez would append .npz to a path
        np.savez(
            fh,
            frame=state.frame,
            last_update_time_us=np.int64(state.last_update_time_us),
            **({"last_event_t_us": state.last_event_t_us} if decay else {}),
            width=np.int64(state.geometry.width),
            height=np.int64(state.geometry.height),
            method=np.bytes_(state.config.method.value.encode()),
            **{key: np.array(getattr(state.config, key), kind) for key, kind in _SETTINGS.items()},
        )


def load_state(path) -> IntensityState:
    """Read a ``save_state`` file, ignoring extra arrays; a missing or
    malformed one, or a value no run could have saved, is a FormatError.
    A batch-rule state without ``last_event_t_us`` gets it as zeros."""
    try:
        data = np.load(path)
        config = IntensityConfig(
            Method(bytes(data["method"]).decode()),
            **{key: kind(data[key]) for key, kind in _SETTINGS.items()},
        )
        frame = data["frame"]
        geometry = SensorGeometry(int(data["width"]), int(data["height"]))
        state = IntensityState(
            frame=frame,
            last_update_time_us=int(data["last_update_time_us"]),
            config=config,
            last_event_t_us=(
                data["last_event_t_us"]
                if config.method is Method.PER_EVENT_DECAY or "last_event_t_us" in data
                else np.zeros_like(frame, dtype=np.int64)
            ),
        )
    except Exception as exc:
        raise FormatError(f"{path}: cannot read state file: {exc}") from exc
    shape = (geometry.height, geometry.width)
    for name, dtype in (("frame", np.float64), ("last_event_t_us", np.int64)):
        array = getattr(state, name)
        if array.dtype != dtype or array.shape != shape:
            raise FormatError(
                f"{path}: {name} is {array.dtype} {array.shape}, "
                f"expected {np.dtype(dtype)} {shape}"
            )
    clock = state.last_update_time_us
    if clock < 0:
        raise FormatError(f"{path}: last_update_time_us is {clock}, expected >= 0")
    if not np.isfinite(state.frame).all():
        raise FormatError(f"{path}: frame holds non-finite values")
    if state.last_event_t_us.min() < 0 or state.last_event_t_us.max() > clock:
        raise FormatError(f"{path}: last_event_t_us lies outside [0, {clock}], the clock")
    return state
