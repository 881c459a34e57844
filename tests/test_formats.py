import hashlib
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evprep import IntensityConfig, IntensityState, Method, SensorGeometry
from evprep.errors import FormatError, GeometryError, StreamOrderError
from evprep.cli import main
from evprep.events import EVENT_DTYPE, SegmentConfig, make_events, segment_stream
from evprep.formats import (
    load_state,
    open_evt1,
    read_evt1,
    read_intf,
    read_text_events,
    save_state,
    write_evt1,
    write_intf,
    write_pgm,
)
from evprep.masking import deserialize_mask
from evprep.scenefile import load_scene
from evprep.toymodel import deserialize_params

from conftest import synthetic_events

GEO = SensorGeometry(32, 24)
SCENE = str(Path(__file__).resolve().parent.parent / "scenes" / "disc.scene")


def test_event_record_is_13_bytes():
    assert EVENT_DTYPE.itemsize == 13


def test_evt1_roundtrip(tmp_path, rng):
    n = 1000
    ev = make_events(
        np.sort(rng.integers(0, 1_000_000, n)),
        rng.integers(0, GEO.width, n),
        rng.integers(0, GEO.height, n),
        rng.choice([-1, 1], n),
    )
    path = tmp_path / "stream.evt1"
    write_evt1(path, ev, GEO)
    assert path.stat().st_size == 16 + 13 * n
    back, geo = read_evt1(path)
    assert geo == GEO
    assert np.array_equal(back, ev)


def test_evt1_bad_magic(tmp_path):
    path = tmp_path / "bad.evt1"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        read_evt1(path)


def test_evt1_truncated_payload(tmp_path):
    path = tmp_path / "trunc.evt1"
    ev = make_events([1], [2], [3], [1])
    write_evt1(path, ev, GEO)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="records"):
        read_evt1(path)


@pytest.mark.parametrize("hint, records", [(3, 2), (2, 3), (0, 3)])
def test_evt1_count_hint_must_match_payload(tmp_path, capsys, hint, records):
    # a file cut at a record boundary, or with records appended
    path = tmp_path / "hint.evt1"
    write_evt1(path, make_events(range(3), [0] * 3, [0] * 3, [1] * 3)[:records], GEO)
    raw = bytearray(path.read_bytes())
    raw[12:16] = hint.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    message = f"{path}: header counts {hint} events, payload holds {records}"
    for read in (read_evt1, open_evt1):
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == message
    assert main(["intensity", str(path), "-o", str(tmp_path / "o.intf")]) == 2
    assert capsys.readouterr().err == f"evprep: error: {message}\n"
    assert not (tmp_path / "o.intf").exists()


def test_evt1_records_read_in_slices(tmp_path, rng):
    n = 50
    ev = make_events(np.arange(n), rng.integers(0, GEO.width, n), rng.integers(0, GEO.height, n),
                     rng.choice([-1, 1], n))
    path = tmp_path / "stream.evt1"
    write_evt1(path, ev, GEO)
    records, geometry = open_evt1(path)
    assert geometry == GEO and len(records) == n
    for lo, hi in [(0, n), (0, 0), (7, 8), (13, 40), (45, 99), (-5, None), (30, 10)]:
        assert records[lo:hi].tobytes() == ev[lo:hi].tobytes()
    with pytest.raises(ValueError, match="contiguous"):
        records[::2]
    raw = bytearray(path.read_bytes())
    raw[16 + 13 * 20] ^= 1  # the file is rewritten in place after it was opened
    path.write_bytes(bytes(raw))
    os.utime(path, ns=(0, 0))  # a clock too coarse to tell the writes apart
    with pytest.raises(FormatError, match="changed while it was read"):
        records[10:30]
    path.write_bytes(bytes(raw[: 16 + 13 * 20]))  # or cut short
    with pytest.raises(FormatError, match="changed while it was read"):
        records[0:5]


def assert_records_checked_downstream(tmp_path, capsys, events, error, message):
    """read_evt1 checks the framing only: it returns well-framed bad records
    as they are; segment_stream rejects them with ``error(message)``, and
    `evprep intensity` with that message and exit 2."""
    path = tmp_path / "bad.evt1"
    write_evt1(path, events, GEO)
    back, geometry = read_evt1(path)
    assert geometry == GEO and back.tobytes() == events.tobytes()
    with pytest.raises(error) as exc:
        segment_stream(back, geometry, SegmentConfig(10_000, 5))
    assert str(exc.value) == message
    assert main(["intensity", str(path), "-o", str(tmp_path / "o.intf")]) == 2
    assert capsys.readouterr().err == f"evprep: error: {message}\n"


def test_evt1_bad_polarity(tmp_path, capsys):
    ev = make_events([1], [2], [3], [1])
    ev["p"] = 0  # zero polarity does not exist
    assert_records_checked_downstream(
        tmp_path, capsys, ev, FormatError, "event 0 has polarity 0, not -1 or +1"
    )


def test_text_events(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("# comment\n10 3 4 1\n20 5 6 -1\n\n")
    ev = read_text_events(path)
    assert ev.shape[0] == 2
    assert ev["t"][1] == 20 and ev["p"][1] == -1


def test_text_events_bad_line(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("10 3 4 1\n20 5 6\n")
    with pytest.raises(FormatError, match=":2"):
        read_text_events(path)


def test_text_events_bad_polarity(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("10 3 4 2\n")
    with pytest.raises(FormatError, match="polarity"):
        read_text_events(path)


@pytest.mark.parametrize(
    "line", ["-5 3 4 1", "10 65536 4 1", "10 3 70000 1", "10 -1 4 1", f"{2**64} 3 4 1"]
)
def test_text_events_out_of_range(tmp_path, line):
    path = tmp_path / "events.txt"
    path.write_text(f"10 3 4 1\n{line}\n")
    with pytest.raises(FormatError, match=":2: .*out of range"):
        read_text_events(path)


def test_text_events_memory(tmp_path):
    # 200k events are 2.5 MiB of records; as four lists of Python ints they were 21.6 MiB
    n = 200_000
    ev = synthetic_events(n, SensorGeometry(640, 480), 10**7, seed=1)
    path = tmp_path / "events.txt"
    with open(path, "w") as fh:
        fh.writelines(f"{t} {x} {y} {p}\n" for t, x, y, p in ev.tolist())
    tracemalloc.start()
    try:
        back = read_text_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, ev)
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize(
    "data, reader, message, command",
    [
        (b"EVT1\x20\x00", read_evt1, ": truncated EVT1 header", ["intensity", "-o", "o.intf"]),
        (b"INTF\x20\x00", read_intf, ": truncated INTF header", ["report", SCENE]),
        (b"NOPE" + bytes(8), read_intf, ": bad magic b'NOPE', expected INTF", ["report", SCENE]),
        (
            b"10 3 4 1\n20 x 6 -1\n",
            read_text_events,
            ":2: invalid literal for int() with base 10: 'x'",
            ["intensity", "-o", "o.intf", "--geometry", "32x16"],
        ),
        (
            b"10 3 4 1\n\xff 3 4 1\n",
            read_text_events,
            ":2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ["intensity", "-o", "o.intf", "--geometry", "32x16"],
        ),
        (
            b"[geometry]\nwidth = \xff\n",
            load_scene,
            ": 'utf-8' codec can't decode byte 0xff in position 19: invalid start byte",
            ["simulate", "-o", "o.intf"],
        ),
    ],
)
def test_unreadable_input_exit_2(tmp_path, capsys, monkeypatch, data, reader, message, command):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}{message}"
    monkeypatch.chdir(tmp_path)
    assert main([command[0], str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == f"evprep: error: {path}{message}\n"
    assert not (tmp_path / "o.intf").exists()


@pytest.mark.parametrize(
    "magic, size, reader, from_file",
    [
        (b"EVT1", 16, open_evt1, True),
        (b"EVT1", 16, read_evt1, True),
        (b"INTF", 12, read_intf, True),
        (b"TUBE", 12, deserialize_mask, False),
        (b"TOYP", 11, deserialize_params, False),
    ],
    ids=["open_evt1", "read_evt1", "read_intf", "deserialize_mask", "deserialize_params"],
)
def test_every_header_checks_length_then_magic(tmp_path, magic, size, reader, from_file):
    path = tmp_path / "input"

    def message(data):
        if from_file:
            path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            reader(path if from_file else data)
        return str(exc.value)

    prefix, name = f"{path}: " if from_file else "", magic.decode()
    for length in range(size):
        assert message((magic + bytes(size))[:length]) == f"{prefix}truncated {name} header"
    assert message(b"NOPE" + bytes(size)) == f"{prefix}bad magic b'NOPE', expected {name}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_intf_rejects_non_finite_frames(tmp_path, capsys, value):
    geometry = SensorGeometry(32, 16)
    frames = [np.zeros((geometry.height, geometry.width), np.float32) for _ in range(4)]
    frames[2][:] = value
    frames[3][5, 7] = value
    path = tmp_path / "bad.intf"
    write_intf(path, frames, geometry)
    message = f"{path}: frame 2 holds non-finite values"
    with pytest.raises(FormatError) as exc:
        read_intf(path)
    assert str(exc.value) == message
    assert main(["report", str(path), SCENE]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"evprep: error: {message}\n"


def test_intf_roundtrip(tmp_path, rng):
    frames = [rng.normal(size=(GEO.height, GEO.width)).astype(np.float32) for _ in range(4)]
    path = tmp_path / "frames.intf"
    assert write_intf(path, iter(frames), GEO) == 4
    back, geo = read_intf(path)
    assert geo == GEO
    assert len(back) == 4
    for a, b in zip(back, frames):
        assert np.array_equal(a, b)
    # the frames are views of one array holding the whole payload
    assert all(f.base is back[0].base and f.base.size == 4 * GEO.height * GEO.width for f in back)


def test_intf_rejects_wrong_frame_shape(tmp_path):
    good = np.zeros((GEO.height, GEO.width), np.float32)
    path = tmp_path / "frames.intf"
    with pytest.raises(GeometryError, match=r"frame 1 is \(24, 31\), expected \(24, 32\)"):
        write_intf(path, [good, good[:, :-1], good], GEO)
    # the first frame was written under the placeholder count
    assert path.stat().st_size == 12 + good.nbytes
    with pytest.raises(FormatError, match="payload"):
        read_intf(path)


def test_intf_death_before_first_frame_is_unreadable(tmp_path):
    path = tmp_path / "frames.intf"
    with pytest.raises(GeometryError, match="frame 0"):
        write_intf(path, [np.zeros((GEO.height, 1), np.float32)], GEO)
    assert path.read_bytes() == b"INTF" + struct.pack("<HHI", GEO.width, GEO.height, 2**32 - 1)
    with pytest.raises(FormatError, match="payload holds 0 bytes"):
        read_intf(path)


def test_intf_complete_empty_write_counts_zero(tmp_path):
    path = tmp_path / "frames.intf"
    assert write_intf(path, [], GEO) == 0
    assert path.read_bytes() == b"INTF" + struct.pack("<HHI", GEO.width, GEO.height, 0)
    assert read_intf(path) == ([], GEO)


def test_intf_refuses_a_pipe_before_writing():
    """The header's count is set by seeking back, so a pipe is refused at once."""
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    frames = [np.zeros((GEO.height, GEO.width), np.float32)]
    with os.fdopen(read_end, "rb", buffering=0) as reader, os.fdopen(write_end, "wb"):
        with pytest.raises(OSError, match=f"/dev/fd/{write_end}: INTF output must be a seekable"):
            write_intf(f"/dev/fd/{write_end}", frames, GEO)
        assert reader.read() is None  # nothing to read: the pipe is empty


def test_intf_payload_size_check(tmp_path, rng):
    path = tmp_path / "frames.intf"
    write_intf(path, [np.zeros((GEO.height, GEO.width), np.float32)], GEO)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="payload"):
        read_intf(path)


def test_pgm_writer(tmp_path):
    frame = np.linspace(-1.0, 1.0, 24 * 32).reshape(24, 32)
    path = tmp_path / "preview.pgm"
    write_pgm(path, frame)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n32 24\n255\n")
    pixels = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8)
    assert pixels.min() == 0 and pixels.max() == 255


def test_pgm_rescales_float32_extremes(tmp_path):
    path = tmp_path / "extremes.pgm"
    write_pgm(path, np.array([[-3e38, 3e38]], dtype=np.float32))
    pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
    assert list(pixels) == [0, 255]


def test_pgm_constant_frame(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((4, 4), 2.5))
    pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
    assert (pixels == 0).all()


def test_state_roundtrip(tmp_path, rng):
    cfg = IntensityConfig(Method.PER_EVENT_DECAY, alpha_per_s=7.0, threshold=0.5)
    state = IntensityState.initial(GEO, cfg)
    state.frame[:] = rng.normal(size=state.frame.shape)
    state.last_event_t_us[:] = rng.integers(0, 1000, state.frame.shape)
    state.last_update_time_us = 150_000
    path = tmp_path / "state.npz"
    save_state(path, state)
    back = load_state(path)
    assert back.config == cfg
    assert back.geometry == GEO
    assert back.last_update_time_us == 150_000
    assert np.array_equal(back.frame, state.frame)
    assert np.array_equal(back.last_event_t_us, state.last_event_t_us)


def test_adaptive_state_omits_last_event_times(tmp_path, rng):
    # the batch rule never reads last_event_t_us, so its all-zero array is
    # not saved, and a state without it loads with zeros
    cfg = IntensityConfig(Method.ADAPTIVE_BATCH, threshold=0.5)
    state = IntensityState.initial(GEO, cfg)
    state.frame[:] = rng.normal(size=state.frame.shape)
    state.last_update_time_us = 150_000
    path = tmp_path / "state.npz"
    save_state(path, state)
    with np.load(path) as data:
        assert "last_event_t_us" not in data.files
    back = load_state(path)
    assert back.config == cfg
    assert np.array_equal(back.frame, state.frame)
    assert back.last_event_t_us.dtype == np.int64
    assert back.last_event_t_us.shape == state.frame.shape
    assert not back.last_event_t_us.any()
    # older versions saved the zeros; such a state still loads
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(tmp_path / "old.npz", last_event_t_us=np.zeros_like(state.frame, np.int64), **arrays)
    assert np.array_equal(load_state(tmp_path / "old.npz").frame, state.frame)


def test_load_state_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not an archive")
    with pytest.raises(FormatError):
        load_state(path)


def saved_state_arrays(tmp_path):
    """The arrays of a saved 3x2 decay state, as a dict to tamper with."""
    geo = SensorGeometry(3, 2)
    path = tmp_path / "good.npz"
    save_state(path, IntensityState.initial(geo, IntensityConfig(Method.PER_EVENT_DECAY)))
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def test_state_from_older_version_loads(tmp_path):
    # older versions also saved a segment count; the clock replaces it
    arrays = saved_state_arrays(tmp_path)
    assert "segments_done" not in arrays
    arrays["segments_done"] = np.int64(3)
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    assert load_state(path).last_update_time_us == 0


def test_evt1_records_validated(tmp_path, capsys):
    assert_records_checked_downstream(
        tmp_path, capsys, make_events([5, 3], [0, 0], [0, 0], [1, 1]),
        StreamOrderError, "event stream unsorted: inversion at index 1",
    )
    assert_records_checked_downstream(
        tmp_path, capsys, make_events([1], [GEO.width], [0], [1]),
        GeometryError, "event 0 at (32, 0) outside 32x24 sensor",
    )


@pytest.mark.parametrize(
    "name, value",
    [
        ("frame", None),
        ("last_update_time_us", None),
        ("frame", np.zeros((3, 3))),
        ("frame", np.zeros((2, 3), dtype=np.int64)),
        ("frame", np.zeros(6)),
        ("last_event_t_us", np.zeros((2, 2), dtype=np.int64)),
        ("last_event_t_us", np.zeros((2, 3))),
        ("frame", np.full((2, 3), np.nan)),
        ("last_update_time_us", np.int64(-1)),
        ("last_event_t_us", np.ones((2, 3), dtype=np.int64)),  # past the clock, 0
        ("last_event_t_us", None),  # a decay state needs it
    ],
)
def test_load_state_checks_arrays(tmp_path, name, value):
    arrays = saved_state_arrays(tmp_path)
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(FormatError, match=name):
        load_state(path)


# sha256 of the bytes save_state writes for two fixed states, recorded with
# this numpy: the members, their order and their dtypes are pinned
STATE_NUMPY_VERSION = "2.4.6"
STATE_DIGESTS = {
    "decay": "802befa4f99a83bc41be01cb6a055f1c75f2a6465adff38702f872c2d1904f81",
    "adaptive": "cd094cfea9a1ba68bd15e0bee12fff5021e620a057cef07d630cd8a71094f05c",
}


@pytest.mark.skipif(
    np.__version__ != STATE_NUMPY_VERSION,
    reason=f"state digests were recorded with numpy {STATE_NUMPY_VERSION}, this is {np.__version__}",
)
@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_saved_state_bytes(tmp_path, method):
    geo = SensorGeometry(3, 2)
    if method == "decay":
        state = IntensityState.initial(
            geo, IntensityConfig(Method.PER_EVENT_DECAY, alpha_per_s=7.0, threshold=0.5))
        state.frame[:] = np.arange(6).reshape(2, 3) * 0.25 - 0.5
        state.last_event_t_us[:] = np.arange(6).reshape(2, 3) * 10
        state.last_update_time_us = 100
    else:
        state = IntensityState.initial(geo, IntensityConfig(
            Method.ADAPTIVE_BATCH, threshold=0.5, normalizer=300, bin_duration_us=2000))
        state.frame[:] = np.arange(6).reshape(2, 3) * -1.5
        state.last_update_time_us = 4000
    path = tmp_path / "state.npz"
    save_state(path, state)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STATE_DIGESTS[method]
