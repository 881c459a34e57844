import argparse
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evprep import IntensityConfig, Method
from evprep import cli
from evprep import events as events_module
from evprep.cli import build_parser, main
from evprep.formats import read_evt1, read_intf, save_state, write_evt1
from evprep.events import make_events
from evprep import SensorGeometry

SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.fixture
def evt1(tmp_path):
    out = tmp_path / "disc.evt1"
    assert main(["simulate", str(SCENES / "disc.scene"), "-o", str(out)]) == 0
    return out


def test_simulate_writes_events(evt1, capsys):
    events, geo = read_evt1(evt1)
    assert events.shape[0] > 0
    assert (geo.width, geo.height) == (32, 16)


def test_simulate_matches_library_call(evt1):
    from evprep import simulate_events
    from evprep.scenefile import load_scene

    scene, _ = load_scene(SCENES / "disc.scene")
    events, _ = read_evt1(evt1)
    assert np.array_equal(events, simulate_events(scene))


def test_simulate_no_noise_drops_noise_section(tmp_path):
    from evprep import simulate_events
    from evprep.scenefile import load_scene

    scene, noise = load_scene(SCENES / "noisy_disc.scene")
    out = tmp_path / "clean.evt1"
    assert main(["simulate", str(SCENES / "noisy_disc.scene"), "-o", str(out), "--no-noise"]) == 0
    events, _ = read_evt1(out)
    assert np.array_equal(events, simulate_events(scene, None))
    assert events.shape[0] < simulate_events(scene, noise).shape[0]


def test_simulate_static_scene(tmp_path):
    scene = tmp_path / "static.scene"
    scene.write_text(
        "[geometry]\nwidth = 8\nheight = 8\n"
        "[scene]\nbackground = 0\nthreshold = 1\nduration_us = 1000\n"
        "sample_interval_us = 100\n"
    )
    out = tmp_path / "static.evt1"
    assert main(["simulate", str(scene), "-o", str(out)]) == 0
    events, _ = read_evt1(out)
    assert events.shape[0] == 0


TOO_MANY_EVENTS = "the scene makes over 4294967295 events, more than EVT1 can count"


@pytest.mark.parametrize(
    "scene, values, message",
    [
        pytest.param("disc", {"logintensity": "1e300", "threshold": "1e-300"},
                     "at t=2000us a level drift is not finite in units of C=1e-300",
                     id="drift-not-finite"),
        pytest.param("disc", {"logintensity": "1e6", "threshold": "1e-6"}, TOO_MANY_EVENTS,
                     id="drift-events"),
        pytest.param("noisy_disc", {"hot_pixels": "2,2,1,1e15"}, TOO_MANY_EVENTS,
                     id="hot-pixel-events"),
        pytest.param("noisy_disc", {"background_rate": "1e13"}, TOO_MANY_EVENTS,
                     id="background-events"),
    ],
)
def test_unrenderable_scene_exit_2(tmp_path, capsys, scene, values, message):
    # only values past the limit: a count below it can still be tens of GB of events
    lines = (SCENES / f"{scene}.scene").read_text().splitlines()
    path = tmp_path / "big.scene"
    path.write_text("\n".join(
        f"{key} = {values[key]}" if (key := line.split(" =")[0]) in values else line
        for line in lines
    ))
    out = tmp_path / "big.evt1"
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"evprep: error: {message}\n"
    assert not out.exists()


def test_corrupt_scene_exit_2(tmp_path, capsys):
    scene = tmp_path / "bad.scene"
    scene.write_text("[geometry]\nwidth = oops\nheight = 4\n[scene]\n")
    assert main(["simulate", str(scene), "-o", str(tmp_path / "x.evt1")]) == 2
    assert "width" in capsys.readouterr().err


def test_bad_scene_value_names_file_and_section(tmp_path, capsys):
    scene = tmp_path / "bad.scene"
    text = (SCENES / "noisy_disc.scene").read_text()
    scene.write_text(text.replace("hot_pixels = 2,2,1,500", "hot_pixels = 2,2,2,500"))
    assert main(["simulate", str(scene), "-o", str(tmp_path / "x.evt1")]) == 2
    err = capsys.readouterr().err
    assert f"{scene} [noise]: hot pixel polarity must be -1 or +1" in err
    assert not (tmp_path / "x.evt1").exists()


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--alpha", "nan"),
        ("--alpha", "inf"),
        ("--threshold", "inf"),
        ("--threshold", "-inf"),
        # float32 frames cannot hold one event's step
        ("--threshold", "1e300"),
        ("--threshold", "0"),
        ("--threshold", "-0"),
        ("--threshold", "-1.5"),
        ("--bins", "0"),
        ("--segments", "0"),
        ("--segments", "-3"),
        ("--segment-ms", "0"),
        ("--segment-ms", "-5"),
        ("--segment-ms", "nan"),
        ("--segment-ms", "inf"),
        ("--segment-ms", "0.0004"),
        ("--segment-ms", "1e17"),
        ("--bins", "3"),
        ("--normalizer", "0"),
        # a state file stores the normalizer as int64
        ("--normalizer", "99999999999999999999"),
        ("--normalizer", str(2**63)),
        ("--alpha", "-1"),
        ("--geometry", "abc"),
        ("--geometry", "8x"),
        ("--geometry", "8x8x8"),
        ("--geometry", "0x8"),
        ("--geometry", "8x-2"),
        ("--geometry", "70000x10"),
        # too large for a float: math.isfinite raises OverflowError
        pytest.param("--bins", "9" * 400, id="--bins-400-digits"),
    ],
)
def test_bad_numeric_flag_exit_1(evt1, tmp_path, capsys, flag, value):
    out = tmp_path / "frames.intf"
    with pytest.raises(SystemExit) as exc:
        main(["intensity", str(evt1), "-o", str(out), flag, value])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("pretrain-toy", "--segment-ms", "nan"),
        ("pretrain-toy", "--bins", "3"),
        ("pretrain-toy", "--normalizer", "0"),
        ("pretrain-toy", "--alpha", "-1"),
        ("pretrain-toy", "--threshold", "0"),
        ("pretrain-toy", "--patch", "0"),
        ("pretrain-toy", "--ratio", "1.5"),
        ("pretrain-toy", "--ratio", "nan"),
        # round(ratio * 8) masks none of the 8 patches of the 32x16 scene
        ("pretrain-toy", "--ratio", "0"),
        ("pretrain-toy", "--ratio", "0.01"),
        ("pretrain-toy", "--steps", "0"),
        ("pretrain-toy", "--embed", "0"),
        # the TOYP header stores patch, embed and channels (2 * bins + 1) as u16
        ("pretrain-toy", "--embed", "65536"),
        ("pretrain-toy", "--patch", "65536"),
        ("pretrain-toy", "--lr", "nan"),
        ("pretrain-toy", "--seed", "-1"),
        ("report", "--after-us", "-1000000"),
    ],
)
def test_bad_flag_exit_1_other_commands(tmp_path, capsys, monkeypatch, command, flag, value):
    def no_simulation(*args):
        raise AssertionError("a usage error must be found before simulating")

    monkeypatch.setattr("evprep.simulate.simulate_events", no_simulation)
    out = tmp_path / "curve.txt"
    if command == "pretrain-toy":
        argv = [command, str(SCENES / "disc.scene"), "-o", str(out), "--steps", "1"]
    else:
        argv = [command, str(tmp_path / "frames.intf"), str(SCENES / "disc.scene")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def test_text_event_out_of_range_exit_2(tmp_path, capsys):
    text = tmp_path / "events.txt"
    text.write_text("-5 3 4 1\n")
    rc = main(["intensity", str(text), "-o", str(tmp_path / "o.intf"), "--geometry", "32x16"])
    assert rc == 2
    assert f"{text}:1:" in capsys.readouterr().err


def test_missing_input_exit_2(tmp_path):
    assert main(["intensity", str(tmp_path / "nope.evt1"), "-o", str(tmp_path / "o.intf")]) == 2


def test_intensity_adaptive(evt1, tmp_path):
    out = tmp_path / "frames.intf"
    rc = main(
        ["intensity", str(evt1), "-o", str(out),
         "--method", "adaptive", "--segment-ms", "10", "--bins", "2",
         "--segments", "10"]
    )
    assert rc == 0
    frames, geo = read_intf(out)
    assert len(frames) == 10
    assert geo == SensorGeometry(32, 16)


def test_intensity_matches_library(evt1, tmp_path, monkeypatch):
    from evprep import IntensityConfig, Method, SegmentConfig, run_sequence
    from evprep.formats import write_intf

    events, geo = read_evt1(evt1)
    for method in Method:
        library = tmp_path / f"{method.value}-library.intf"
        _, expected = run_sequence(
            events, geo, SegmentConfig(10_000, 2),
            IntensityConfig(method, bin_duration_us=5000),
            num_segments=10,
        )
        assert write_intf(library, expected, geo) == 10
        # the CLI reads the file in blocks of this many records: one block, or many
        for block in (events_module.SCAN_BLOCK, 7):
            monkeypatch.setattr(events_module, "SCAN_BLOCK", block)
            out = tmp_path / f"{method.value}-{block}.intf"
            assert main(["intensity", str(evt1), "-o", str(out), "--method", method.value,
                         "--segment-ms", "10", "--bins", "2", "--segments", "10"]) == 0
            assert len(read_intf(out)[0]) == 10
            assert out.read_bytes() == library.read_bytes()
        monkeypatch.undo()


def test_resume_split_equals_single(evt1, tmp_path):
    events, geo = read_evt1(evt1)
    cut = int(np.searchsorted(events["t"], 40_000))
    first = tmp_path / "a.evt1"
    second = tmp_path / "b.evt1"
    write_evt1(first, events[:cut], geo)
    write_evt1(second, events[cut:], geo)

    for method in ("decay", "adaptive"):
        def run(evt, name, *flags):
            out = tmp_path / f"{method}-{name}.intf"
            assert main(["intensity", str(evt), "-o", str(out), "--method", method,
                         "--segment-ms", "20", "--bins", "4", *flags]) == 0
            return [f.tobytes() for f in read_intf(out)[0]]

        state = str(tmp_path / f"{method}.npz")
        single = run(evt1, "single", "--segments", "5")
        split = run(first, "a", "--segments", "2", "--save-state", state)
        split += run(second, "b", "--segments", "3", "--resume", state)
        assert len(single) == 5
        assert split == single


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_intensity_memory_flat_in_segments(tmp_path, method):
    # frames are written as they are made: at 640x480 one float32 frame is
    # 1.2 MiB, so 90 more segments held in memory would add 105 MiB
    evt1 = tmp_path / "sparse.evt1"
    n = 100
    write_evt1(evt1, make_events(np.arange(n) * 10_000 + 7, np.arange(n), np.arange(n),
                                 np.ones(n)), SensorGeometry(640, 480))
    peaks = []
    for segments in (10, 100):
        argv = ["intensity", str(evt1), "-o", str(tmp_path / "frames.intf"), "--method",
                method, "--segment-ms", "10", "--bins", "2", "--segments", str(segments)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4 * 2**20, peaks


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_intensity_memory_flat_in_events(tmp_path, method):
    # the EVT1 input is read one block of records at a time: N and 8N events
    # (8 times the segments, each as full) differ by 23 MiB of records
    n = events_module.SCAN_BLOCK
    peaks = []
    for events in (n, 8 * n):
        evt1 = tmp_path / f"{events}.evt1"
        i = np.arange(events)
        write_evt1(evt1, make_events(i * 10_000 // n, i % 64, i // 64 % 48, 1 - 2 * (i % 2)),
                   SensorGeometry(64, 48))
        del i
        argv = ["intensity", str(evt1), "-o", str(tmp_path / "frames.intf"), "--method",
                method, "--segment-ms", "1.25", "--bins", "5"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        evt1.unlink()
    assert len(read_intf(tmp_path / "frames.intf")[0]) == 64
    assert abs(peaks[1] - peaks[0]) < 4 * 2**20, peaks


@pytest.mark.parametrize("flags", [[], ["--segments", str(10**12)]])
def test_intensity_too_many_segments_exit_2(tmp_path, capsys, flags):
    # 2**62 us at 50 ms is 9.2e13 segments; an INTF file counts frames in a u32
    evt1 = tmp_path / "far.evt1"
    write_evt1(evt1, make_events([0, 2**62], [0, 1], [0, 1], [1, -1]), SensorGeometry(4, 4))
    out = tmp_path / "frames.intf"
    assert main(["intensity", str(evt1), "-o", str(out), *flags]) == 2
    segments = flags[1] if flags else "92233720368548"
    assert capsys.readouterr().err == (
        f"evprep: error: {segments} segments of 50000us: "
        "an INTF file holds at most 4294967295 frames\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, text, message",
    [
        # each ended in an OverflowError traceback: in bin_edges, or in
        # save_state after the INTF was written
        pytest.param(["--segment-ms", "4e15", "--bins", "1", "--segments", "6"], None,
                     "6 segments of 4000000000000000000us end at 24000000000000000000us",
                     id="bin-edges"),
        pytest.param(["--segment-ms", "4e15", "--bins", "1", "--segments", "3",
                      "--save-state", "s.npz"], None,
                     "3 segments of 4000000000000000000us end at 12000000000000000000us",
                     id="save-state"),
        # wrote 9224 frames, one holding NaN, and exited 0: t wrapped in an int64 cast
        pytest.param(["--geometry", "4x4", "--method", "decay", "--segment-ms", "1e12",
                      "--bins", "1"], "9223372036854775900 1 1 1\n",
                     "9224 segments of 1000000000000000us end at 9224000000000000000us",
                     id="text-events-past-2**63"),
    ],
)
def test_window_past_int64_clock_exit_2(evt1, tmp_path, capsys, monkeypatch, flags, text, message):
    monkeypatch.chdir(tmp_path)
    source = evt1
    if text is not None:
        source = tmp_path / "events.txt"
        source.write_text(text)
    assert main(["intensity", str(source), "-o", "x.intf", *flags]) == 2
    assert capsys.readouterr().err == (
        f"evprep: error: {message}, past the int64 clock's 9223372036854775807us\n"
    )
    assert not (tmp_path / "x.intf").exists() and not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_frame_beyond_float32_exit_2(tmp_path, capsys, method):
    # with no decay, the second event on pixel (1, 1) takes it to 6e38
    text = tmp_path / "events.txt"
    text.write_text("10 1 1 1\n60000 1 1 1\n")
    out, state = tmp_path / "x.intf", tmp_path / "s.npz"
    argv = ["intensity", str(text), "--geometry", "8x8", "--method", method, "-o", str(out),
            "--threshold", "3e38", "--alpha", "0", "--segments", "3", "--save-state", str(state)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "evprep: error: segment 2: a frame value is beyond float32's range\n"
    )
    # the frame of segment 1 was made, but no output moves into place, and none is left half-made
    assert not out.exists() and not state.exists()
    assert [path.name for path in tmp_path.iterdir()] == ["events.txt"]


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_frame_beyond_float32_in_first_segment_keeps_earlier_output(tmp_path, capsys, method):
    # both events fall in segment 1, so no frame is made
    text = tmp_path / "two.txt"
    text.write_text("0 1 1 1\n1 1 1 1\n")
    out = tmp_path / "y.intf"
    out.write_bytes(b"an earlier run's frames")
    argv = ["intensity", str(text), "--geometry", "4x4", "--method", method, "-o", str(out),
            "--threshold", "3e38"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "evprep: error: segment 1: a frame value is beyond float32's range\n"
    )
    assert out.read_bytes() == b"an earlier run's frames"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["two.txt", "y.intf"]


@pytest.mark.parametrize(
    "t, x, p, message",
    [
        ([10, 30, 20], [1, 1, 1], [1, 1, 1], "event stream unsorted: inversion at index 2"),
        ([10, 20, 30], [1, 32, 1], [1, 1, 1], "event 1 at (32, 1) outside 32x16 sensor"),
        ([10, 20, 30], [1, 1, 1], [1, 1, 0], "event 2 has polarity 0, not -1 or +1"),
    ],
)
def test_bad_stream_leaves_outputs_alone(tmp_path, capsys, t, x, p, message):
    evt1 = tmp_path / "bad.evt1"
    write_evt1(evt1, make_events(t, x, [1, 1, 1], p), SensorGeometry(32, 16))
    out = tmp_path / "frames.intf"
    out.write_bytes(b"an earlier run's frames")
    state, previews = tmp_path / "state.npz", tmp_path / "previews"
    argv = ["intensity", str(evt1), "-o", str(out), "--save-state", str(state),
            "--pgm-dir", str(previews)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"evprep: error: {message}\n"
    assert out.read_bytes() == b"an earlier run's frames"
    assert not state.exists() and not previews.exists()


def test_pgm_dir_not_a_directory_leaves_output_alone(evt1, tmp_path, capsys):
    out, not_a_dir = tmp_path / "frames.intf", tmp_path / "notes.txt"
    out.write_bytes(b"an earlier run's frames")
    not_a_dir.write_text("a file")
    assert main(["intensity", str(evt1), "-o", str(out), "--pgm-dir", str(not_a_dir)]) == 2
    assert "File exists" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier run's frames"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_intensity_unseekable_output_exit_2(evt1, tmp_path, capsys):
    read_end, write_end = os.pipe()
    try:
        assert main(["intensity", str(evt1), "-o", f"/dev/fd/{write_end}"]) == 2
    finally:
        os.close(read_end)
        os.close(write_end)
    assert capsys.readouterr().err == (
        f"evprep: error: -o '/dev/fd/{write_end}' is not a regular file\n"
    )


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_resume_at_other_segment_duration(evt1, tmp_path, capsys, method):
    # 5 ms bins throughout: 10 ms segments of 2 bins, then 20 ms of 4
    def run(name, segment_ms, bins, *flags):
        out = tmp_path / f"{name}.intf"
        argv = ["intensity", str(evt1), "-o", str(out), "--method", method,
                "--segment-ms", segment_ms, "--bins", bins, *flags]
        return main(argv), out

    _, single = run("single", "10", "2", "--segments", "10")
    for segments in ("3", "4"):
        state = tmp_path / f"after{segments}.npz"
        assert run(f"first{segments}", "10", "2", "--segments", segments,
                   "--save-state", str(state))[0] == 0
        with np.load(state) as data:
            assert int(data["last_update_time_us"]) == int(segments) * 10_000

    # 40 ms is the start of the third 20 ms segment; the disc scene's last
    # event is at 99 ms, so the resumed run ends at 100 ms
    code, out = run("resumed", "20", "4", "--resume", str(tmp_path / "after4.npz"))
    assert code == 0
    frames = read_intf(single)[0]
    assert [f.tobytes() for f in read_intf(out)[0]] == [frames[k].tobytes() for k in (5, 7, 9)]

    capsys.readouterr()
    code, out = run("rejected", "20", "4", "--resume", str(tmp_path / "after3.npz"))
    assert code == 2
    assert "clock 30000us" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("simulate", "-o"),
        ("intensity", "-o"),
        ("intensity", "--save-state"),
        ("pretrain-toy", "-o"),
        ("pretrain-toy", "--params"),
        ("report", "--report"),
    ],
)
def test_output_written_at_exact_path(evt1, tmp_path, command, flag):
    """A path without a suffix gets no suffix added, and no other file appears beside it."""
    frames = tmp_path / "frames.intf"
    argv = {
        "simulate": ["simulate", str(SCENES / "disc.scene")],
        "intensity": ["intensity", str(evt1), "--segment-ms", "10", "--bins", "2",
                      "--segments", "3"],
        "pretrain-toy": ["pretrain-toy", str(SCENES / "disc.scene"), "--steps", "1"],
        "report": ["report", str(frames), str(SCENES / "disc.scene")],
    }[command]
    if command == "report":
        assert main(["intensity", str(evt1), "-o", str(frames), "--segments", "2"]) == 0
    elif flag != "-o":
        argv += ["-o", str(tmp_path / "main-output")]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(argv + [flag, str(out_dir / "result")]) == 0
    assert [path.name for path in out_dir.iterdir()] == ["result"]


@pytest.fixture
def named_files(tmp_path, monkeypatch):
    """A scene, its events, frames and state, a hard link to the events and a
    copy of them under a preview's name, in the working directory."""
    monkeypatch.chdir(tmp_path)
    Path("s.scene").write_bytes((SCENES / "disc.scene").read_bytes())
    assert main(["simulate", "s.scene", "-o", "d.evt1"]) == 0
    assert main(["intensity", "d.evt1", "-o", "r.intf", "--segments", "2",
                 "--save-state", "st.npz"]) == 0
    os.link("d.evt1", "link.evt1")
    Path("frame_00000.pgm").write_bytes(Path("d.evt1").read_bytes())
    return tmp_path


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["intensity", "d.evt1", "-o", "d.evt1"],
                     "-o 'd.evt1' names the same file as input 'd.evt1'", id="intensity-input"),
        pytest.param(["report", "r.intf", "s.scene", "--report", "r.intf"],
                     "--report 'r.intf' names the same file as frames 'r.intf'", id="report-frames"),
        pytest.param(["simulate", "s.scene", "-o", "s.scene"],
                     "-o 's.scene' names the same file as scene 's.scene'", id="simulate-scene"),
        pytest.param(["intensity", "d.evt1", "-o", "st.npz", "--save-state", "st.npz"],
                     "--save-state 'st.npz' names the same file as -o 'st.npz'",
                     id="intensity-two-outputs"),
        pytest.param(["intensity", "d.evt1", "-o", "link.evt1"],
                     "-o 'link.evt1' names the same file as input 'd.evt1'", id="hard-link"),
        pytest.param(["intensity", "d.evt1", "-o", "./st.npz", "--resume", "st.npz"],
                     "-o './st.npz' names the same file as --resume 'st.npz'", id="intensity-resume"),
        pytest.param(["report", "r.intf", "s.scene", "--report", "s.scene"],
                     "--report 's.scene' names the same file as scene 's.scene'", id="report-scene"),
        pytest.param(["pretrain-toy", "s.scene", "-o", "new.txt", "--params", "new.txt"],
                     "--params 'new.txt' names the same file as -o 'new.txt'",
                     id="pretrain-toy-two-outputs"),
        # the previews directory is made after -o is opened, so a clash found
        # only then would leave -o cut to its header
        pytest.param(["intensity", "d.evt1", "-o", "r.intf", "--pgm-dir", "r.intf"],
                     "--pgm-dir 'r.intf' names the same file as -o 'r.intf'",
                     id="pgm-dir-output"),
        pytest.param(["intensity", "d.evt1", "-o", "new.intf", "--pgm-dir", "d.evt1"],
                     "--pgm-dir 'd.evt1' names the same file as input 'd.evt1'",
                     id="pgm-dir-input"),
        # a path under the name of one of the previews, which would overwrite it
        pytest.param(["intensity", "frame_00000.pgm", "-o", "new.intf", "--pgm-dir", "."],
                     "--pgm-dir '.' would write a preview over input 'frame_00000.pgm'",
                     id="preview-input"),
        pytest.param(["intensity", "d.evt1", "-o", "prev/frame_00001.pgm", "--pgm-dir", "prev"],
                     "--pgm-dir 'prev' would write a preview over -o 'prev/frame_00001.pgm'",
                     id="preview-output"),
        pytest.param(["intensity", "d.evt1", "-o", "new.intf",
                      "--save-state", "prev/frame_00002.pgm", "--pgm-dir", "prev"],
                     "--pgm-dir 'prev' would write a preview over "
                     "--save-state 'prev/frame_00002.pgm'",
                     id="preview-state"),
    ],
)
def test_output_naming_another_file_exit_1(named_files, capsys, argv, message):
    before = {path.name: path.read_bytes() for path in named_files.iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"evprep: error: {message}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in named_files.iterdir()} == before


def test_other_names_in_pgm_dir_allowed(named_files):
    assert main(["intensity", "d.evt1", "-o", "prev/frames.intf", "--segments", "3",
                 "--save-state", "prev/state.npz", "--pgm-dir", "prev"]) == 0
    assert sorted(path.name for path in Path("prev").iterdir()) == [
        "frame_00000.pgm", "frame_00001.pgm", "frame_00002.pgm", "frames.intf", "state.npz"
    ]


@pytest.mark.parametrize(
    "name, preview",
    [
        pytest.param("frame_100000.pgm", True, id="six-digits"),
        pytest.param("frame_000001.pgm", False, id="six-digits-leading-zero"),
        pytest.param("frame_1.pgm", False, id="one-digit"),
        pytest.param("frame_.pgm", False, id="no-digits"),
        # int() reads these decimal digits, which a preview's name never holds
        pytest.param("frame_\u0660\u0660\u0660\u0660\u0661.pgm", False, id="arabic-indic-digits"),
        # str.isdigit() holds for these, but int() rejects them
        pytest.param("frame_\u00b9\u00b2\u00b3\u2074\u2075.pgm", False, id="superscript-digits"),
    ],
)
def test_preview_names(named_files, capsys, name, preview):
    """-o in --pgm-dir is a usage error only under a name a preview gets."""
    argv = ["intensity", "d.evt1", "-o", f"prev/{name}", "--segments", "1", "--pgm-dir", "prev"]
    if not preview:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"would write a preview over -o 'prev/{name}'" in capsys.readouterr().err


def test_pgm_dir_parent_of_output_counts_as_present(named_files):
    assert main(["intensity", "d.evt1", "-o", "a/x.intf", "--segments", "2",
                 "--pgm-dir", "a/b"]) == 0
    assert sorted(path.name for path in Path("a").iterdir()) == ["b", "x.intf"]
    assert len(list(Path("a/b").iterdir())) == 2


NO_DIR = "[Errno 2] No such file or directory"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["intensity", "d.evt1", "-o", "new.intf", "--segments", "3",
                      "--save-state", "nodir/s.npz"], f"{NO_DIR}: 'nodir/s.npz'",
                     id="intensity-save-state"),
        pytest.param(["pretrain-toy", "s.scene", "--steps", "1", "-o", "nodir/curve.txt"],
                     f"{NO_DIR}: 'nodir/curve.txt'", id="pretrain-toy-output"),
        pytest.param(["pretrain-toy", "s.scene", "--steps", "1", "-o", "curve.txt",
                      "--params", "nodir/p.bin"], f"{NO_DIR}: 'nodir/p.bin'",
                     id="pretrain-toy-params"),
        pytest.param(["report", "r.intf", "s.scene", "--report", "nodir/r.json"],
                     f"{NO_DIR}: 'nodir/r.json'", id="report-json"),
        pytest.param(["intensity", "d.evt1", "-o", "s.scene/r.intf"],
                     "[Errno 20] Not a directory: 's.scene/r.intf'", id="directory-is-a-file"),
    ],
)
def test_output_in_missing_directory_exit_2_before_work(named_files, capsys, monkeypatch,
                                                        argv, message):
    for name in ("cli.iter_sequence", "toymodel.train_toy", "cli.read_intf"):  # the command's work
        monkeypatch.setattr(f"evprep.{name}",
                            lambda *a, name=name, **kw: pytest.fail(f"{name} ran"))
    before = {path: path.read_bytes() for path in Path(".").rglob("*")}
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"evprep: error: {message}\n"
    assert out == ""
    assert {path: path.read_bytes() for path in Path(".").rglob("*")} == before


@pytest.mark.parametrize(
    "link, name",
    [
        pytest.param("symlink-to-input", "frame_00000.pgm", id="symlink-to-input"),
        pytest.param("hard-link-to-input", "frame_00000.pgm", id="hard-link-to-input"),
        pytest.param("symlink-elsewhere", "frame_00000.pgm", id="symlink-elsewhere"),
        pytest.param("symlink-elsewhere", "out.intf", id="symlink-at-output"),
    ],
)
def test_preview_replaces_a_link_of_its_name(named_files, link, name):
    """A preview, or -o, is made as a new file, so a link under its name keeps its target."""
    assert main(["intensity", "d.evt1", "-o", "ref/out.intf", "--segments", "3",
                 "--pgm-dir", "ref"]) == 0
    Path("prev").mkdir()
    Path("notes.txt").write_text("not a preview")
    target = "notes.txt" if link == "symlink-elsewhere" else "d.evt1"
    kept = Path(target).read_bytes()
    if link.startswith("symlink"):
        os.symlink(f"../{target}", f"prev/{name}")
    else:
        os.link(target, f"prev/{name}")
    assert main(["intensity", "d.evt1", "-o", "prev/out.intf", "--segments", "3",
                 "--pgm-dir", "prev"]) == 0
    assert Path(target).read_bytes() == kept
    written = Path("prev", name)
    assert written.is_file() and not written.is_symlink()
    assert written.read_bytes() == Path("ref", name).read_bytes()


@pytest.mark.parametrize(
    "name, flags",
    [
        pytest.param("frame_00002.pgm", ["--segments", "3"], id="third-of-three"),
        pytest.param("frame_00001.pgm", [], id="last-of-the-stream"),
        pytest.param("frame_00002.pgm", ["--resume", "st.npz", "--segments", "1"], id="resumed"),
    ],
)
def test_directory_under_a_preview_name_exit_2_before_output(named_files, capsys, name, flags):
    Path("prev", name).mkdir(parents=True)
    before = {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main(["intensity", "d.evt1", "-o", "r.intf", "--pgm-dir", "prev", *flags]) == 2
    assert capsys.readouterr().err == f"evprep: error: [Errno 21] Is a directory: 'prev/{name}'\n"
    assert {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()} == before


@pytest.mark.parametrize(
    "name, flags",
    [
        pytest.param("frame_00003.pgm", ["--segments", "3"], id="after-the-last"),
        pytest.param("frame_00002.pgm", [], id="after-the-stream"),
        pytest.param("frame_00001.pgm", ["--resume", "st.npz", "--segments", "1"], id="before-resumed"),
        pytest.param("frame_000001.pgm", ["--segments", "3"], id="not-a-preview-name"),
    ],
)
def test_directory_under_another_name_in_pgm_dir_allowed(named_files, name, flags):
    Path("prev", name).mkdir(parents=True)
    assert main(["intensity", "d.evt1", "-o", "r.intf", "--pgm-dir", "prev", *flags]) == 0
    assert Path("prev", name).is_dir()


def test_estimator_defaults_are_the_configs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "cmd_intensity", lambda args: seen.append(args.int_config) or 0)
    assert main(["intensity", "x", "-o", "y"]) == 0
    assert seen == [IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000)]


def test_save_state_updates_resume_in_place(named_files):
    assert main(["intensity", "d.evt1", "-o", "a.intf", "--segments", "1",
                 "--resume", "st.npz", "--save-state", "next.npz"]) == 0
    assert main(["intensity", "d.evt1", "-o", "b.intf", "--segments", "1",
                 "--resume", "st.npz", "--save-state", "st.npz"]) == 0
    assert Path("st.npz").read_bytes() == Path("next.npz").read_bytes()
    assert Path("a.intf").read_bytes() == Path("b.intf").read_bytes()


@pytest.mark.parametrize("method", ["decay", "adaptive"])
def test_resume_from_state_path_without_suffix(evt1, tmp_path, method):
    def run(name, *flags):
        out = tmp_path / f"{name}.intf"
        assert main(["intensity", str(evt1), "-o", str(out), "--method", method,
                     "--segment-ms", "10", "--bins", "2", *flags]) == 0
        return [f.tobytes() for f in read_intf(out)[0]]

    state = str(tmp_path / "s")
    split = run("a", "--segments", "3", "--save-state", state)
    split += run("b", "--segments", "4", "--resume", state)
    assert split == run("single", "--segments", "7")


def test_negative_exponent_value_parses(evt1, tmp_path, capsys):
    """``--threshold -1e3`` is the value -1e3, as ``--threshold=-1e3`` is:
    both reach the range check."""
    errors = []
    for flags in (["--threshold", "-1e3"], ["--threshold=-1e3"]):
        out = tmp_path / "frames.intf"
        with pytest.raises(SystemExit) as exc:
            main(["intensity", str(evt1), "-o", str(out), *flags])
        assert exc.value.code == 1 and not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "--threshold -1000 " in errors[0] and "threshold must be finite, > 0" in errors[0]
    assert "expected one argument" not in errors[0]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--threshold", "-inf", "threshold must be finite"),
        ("--alpha", "-1e3", "alpha must be finite and >= 0"),
    ],
)
def test_negative_float_value_reaches_range_check(evt1, tmp_path, capsys, flag, value, message):
    out = tmp_path / "frames.intf"
    with pytest.raises(SystemExit) as exc:
        main(["intensity", str(evt1), "-o", str(out), flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"{flag} {float(value):g}" in err and message in err
    assert "expected one argument" not in err
    assert not out.exists()


def test_pgm_previews(evt1, tmp_path):
    out = tmp_path / "frames.intf"
    pgm_dir = tmp_path / "previews"
    main(["intensity", str(evt1), "-o", str(out), "--segments", "2",
          "--pgm-dir", str(pgm_dir)])
    files = sorted(pgm_dir.glob("*.pgm"))
    assert len(files) == 2
    assert files[0].read_bytes().startswith(b"P5\n")


def test_resumed_previews_follow_the_first_runs(evt1, tmp_path):
    def run(pgm_dir, *flags):
        assert main(["intensity", str(evt1), "-o", str(tmp_path / "frames.intf"),
                     "--segment-ms", "10", "--bins", "2", "--pgm-dir", str(pgm_dir), *flags]) == 0
        return {path.name: path.read_bytes() for path in pgm_dir.iterdir()}

    state = str(tmp_path / "state.npz")
    run(tmp_path / "split", "--segments", "3", "--save-state", state)
    split = run(tmp_path / "split", "--segments", "3", "--resume", state)
    assert split == run(tmp_path / "single", "--segments", "6")
    assert sorted(split) == [f"frame_{i:05d}.pgm" for i in range(6)]


def test_report_table_and_json(evt1, tmp_path, capsys):
    frames = tmp_path / "frames.intf"
    main(["intensity", str(evt1), "-o", str(frames), "--segment-ms", "10",
          "--bins", "2", "--segments", "10"])
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["report", str(frames), str(SCENES / "disc.scene"),
               "--after-us", "60000", "--report", str(report)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 10
    idx, val = lines[0].split()
    assert idx == "1"
    float(val)
    payload = json.loads(report.read_text())
    assert len(payload["energies"]) == 10
    assert payload["trail_pixels"] > 0


@pytest.mark.parametrize("after_us", ["99000", "99500"])
def test_report_trail_after_the_last_interval(evt1, tmp_path, after_us):
    # the disc covers 21 pixels at t = 100000, the last sample after either time
    frames = tmp_path / "frames.intf"
    main(["intensity", str(evt1), "-o", str(frames), "--segments", "2"])
    report = tmp_path / "report.json"
    assert main(["report", str(frames), str(SCENES / "disc.scene"),
                 "--after-us", after_us, "--report", str(report)]) == 0
    assert json.loads(report.read_text())["trail_pixels"] == 120


def test_previews_and_report_of_frames_near_float32_max(evt1, tmp_path, capsys):
    frames = tmp_path / "frames.intf"
    pgm_dir = tmp_path / "previews"
    assert main(["intensity", str(evt1), "-o", str(frames), "--segment-ms", "10",
                 "--bins", "2", "--threshold", "3e38", "--pgm-dir", str(pgm_dir)]) == 0
    for path, frame in zip(sorted(pgm_dir.glob("*.pgm")), read_intf(frames)[0], strict=True):
        pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)
        if frame.min() < frame.max():
            assert pixels.min() == 0 and pixels.max() == 255
    capsys.readouterr()
    assert main(["report", str(frames), str(SCENES / "disc.scene")]) == 0
    energies = [float(line.split()[1]) for line in capsys.readouterr().out.splitlines()]
    assert len(energies) == 10
    assert all(0 < e < 3.5e38 for e in energies)


def test_decay_resume_under_other_bins_and_normalizer(evt1, tmp_path):
    def run(name, *flags):
        out = tmp_path / f"{name}.intf"
        assert main(["intensity", str(evt1), "-o", str(out), "--method", "decay",
                     "--segment-ms", "10", *flags]) == 0
        return [f.tobytes() for f in read_intf(out)[0]]

    state = str(tmp_path / "s1")
    split = run("first", "--bins", "2", "--segments", "4", "--save-state", state)
    split += run("resumed", "--bins", "5", "--normalizer", "7", "--resume", state)
    assert split == run("single", "--bins", "5")


@pytest.mark.parametrize(
    "method, first, resumed, saved_field, run_field",
    [
        ("adaptive", ["--bins", "2"], ["--bins", "5"],
         "bin_duration_us=5000", "bin_duration_us=2000"),
        ("adaptive", ["--normalizer", "5000"], ["--normalizer", "7"],
         "normalizer=5000", "normalizer=7"),
        ("decay", ["--alpha", "5"], ["--alpha", "7"], "alpha_per_s=5.0", "alpha_per_s=7.0"),
        ("decay", ["--threshold", "1"], ["--threshold", "2"], "threshold=1.0", "threshold=2.0"),
    ],
    ids=["adaptive-bins", "adaptive-normalizer", "decay-alpha", "decay-threshold"],
)
def test_resume_config_mismatch_names_both(
    evt1, tmp_path, capsys, method, first, resumed, saved_field, run_field
):
    state = tmp_path / "s1"
    argv = ["intensity", str(evt1), "--method", method, "--segment-ms", "10"]
    assert main(argv + ["-o", str(tmp_path / "a.intf"), "--segments", "4", *first,
                        "--save-state", str(state)]) == 0
    capsys.readouterr()
    out = tmp_path / "b.intf"
    assert main(argv + ["-o", str(out), *resumed, "--resume", str(state)]) == 2
    saved, run = capsys.readouterr().err.split(", run IntensityConfig(")
    assert "resume state config mismatch: state IntensityConfig(" in saved
    assert saved_field in saved and run_field in run
    assert not out.exists()


def test_report_geometry_mismatch(tmp_path, evt1):
    from evprep.formats import write_intf

    frames = tmp_path / "wrong.intf"
    write_intf(frames, [np.zeros((4, 4), np.float32)], SensorGeometry(4, 4))
    assert main(["report", str(frames), str(SCENES / "disc.scene")]) == 2


def test_pretrain_toy_smoke(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    params = tmp_path / "model.toyp"
    rc = main(
        ["pretrain-toy", str(SCENES / "disc.scene"), "-o", str(curve),
         "--steps", "5", "--lr", "0.1", "--patch", "8", "--embed", "4",
         "--segment-ms", "20", "--bins", "4", "--segments", "5",
         "--params", str(params)]
    )
    assert rc == 0
    lines = curve.read_text().splitlines()
    assert len(lines) == 5
    assert params.read_bytes()[:4] == b"TOYP"


@pytest.mark.parametrize("flags, recurrent", [([], 1), (["--feedforward"], 0)])
def test_pretrain_toy_feedforward_params(tmp_path, flags, recurrent):
    params = tmp_path / "model.toyp"
    argv = ["pretrain-toy", str(SCENES / "disc.scene"), "-o", str(tmp_path / "curve.txt"),
            "--steps", "1", "--params", str(params)]
    assert main(argv + flags) == 0
    blob = params.read_bytes()
    assert blob[:4] == b"TOYP" and blob[10] == recurrent


def test_pretrain_toy_trains_on_noisy_events(tmp_path):
    """The curve is train_toy's on the scene's events, its noise included."""
    from evprep import IntensityConfig, Method, SegmentConfig, simulate_events
    from evprep.scenefile import load_scene
    from evprep.toymodel import ToyModelConfig, train_toy

    curve = tmp_path / "curve.txt"
    argv = ["pretrain-toy", str(SCENES / "noisy_disc.scene"), "-o", str(curve), "--steps", "5"]
    assert main(argv) == 0
    scene, noise = load_scene(SCENES / "noisy_disc.scene")
    # the defaults: T = 50 ms, B = 10, patch 8, embed 16, lr 0.5, ratio 0.5
    seg = SegmentConfig(50_000, 10)
    icfg = IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=seg.bin_duration_us)
    losses = {
        name: train_toy(simulate_events(scene, spec), scene.geometry, 5, 0.5,
                        ToyModelConfig(8, 16, 21), seg, icfg, 2, mask_ratio=0.5)[0]
        for name, spec in (("noisy", noise), ("clean", None))
    }
    assert curve.read_text() == "".join(f"{i} {v:.9g}\n" for i, v in enumerate(losses["noisy"]))
    assert losses["noisy"] != losses["clean"]


def test_pretrain_toy_diverged_exit_2(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    argv = ["pretrain-toy", str(SCENES / "disc.scene"), "-o", str(curve),
            "--steps", "40", "--lr", "1e6"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "evprep: error: training diverged at step" in err and "Traceback" not in err
    assert not curve.exists()


@pytest.mark.parametrize(
    "method, name, value",
    [
        # each used to end in a traceback, except the first: a 3x3 frame in an
        # 8x8 state wrote an unreadable 48-byte INTF and exited 0
        ("adaptive", "frame", np.zeros((3, 3))),
        ("adaptive", "frame", np.zeros((8, 8), dtype=np.int64)),
        ("decay", "last_event_t_us", np.zeros((2, 2), dtype=np.int64)),
        ("decay", "last_update_time_us", None),
        ("adaptive", "normalizer", np.int64(0)),
        # each of these resumed with exit 0 and wrote non-finite frames, or
        # failed with a message that did not name the field
        ("adaptive", "frame", np.full((8, 8), np.nan)),
        ("adaptive", "frame", np.full((8, 8), np.inf)),
        ("decay", "last_event_t_us", np.full((8, 8), 10**12, dtype=np.int64)),
        ("decay", "last_event_t_us", np.full((8, 8), -1, dtype=np.int64)),
        ("decay", "last_update_time_us", np.int64(-50_000)),
        # values no run can save: a frame step beyond float32 or not above 0, a normalizer
        # past int64
        ("decay", "threshold", np.float64(1e300)),
        ("adaptive", "normalizer", np.uint64(2**63)),
        ("decay", "threshold", np.float64(-1.5)),
        ("adaptive", "threshold", np.float64(0.0)),
        ("decay", "last_event_t_us", None),  # only an adaptive state may omit it
    ],
)
def test_resume_bad_state_exit_2(tmp_path, capsys, method, name, value):
    text = tmp_path / "ev.txt"
    text.write_text("10 1 1 1\n20 2 2 -1\n60000 1 1 1\n70000 2 2 -1\n")
    state = tmp_path / "s.npz"
    argv = ["intensity", str(text), "--geometry", "8x8", "--method", method,
            "--segments", "1"]
    assert main(argv + ["-o", str(tmp_path / "a.intf"), "--save-state", str(state)]) == 0
    with np.load(state) as data:
        arrays = {key: data[key] for key in data.files}
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    np.savez(state, **arrays)
    out = tmp_path / "b.intf"
    assert main(argv + ["-o", str(out), "--resume", str(state)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_resume_decay_state_at_its_last_event_exit_2(tmp_path, capsys):
    """A state whose clock is the time of a pixel's last event, as
    ``update_per_event`` leaves it, would apply the events at that time again."""
    from evprep.intensity import IntensityState, update_per_event

    geometry = SensorGeometry(4, 4)
    events = make_events([10, 50_000, 60_000], [1, 1, 1], [1, 1, 1], [1, 1, 1])
    write_evt1(tmp_path / "e.evt1", events, geometry)
    state = IntensityState.initial(geometry, IntensityConfig(Method.PER_EVENT_DECAY))
    update_per_event(state, events[:2])
    save_state(tmp_path / "s.npz", state)
    out = tmp_path / "o.intf"
    assert main(["intensity", str(tmp_path / "e.evt1"), "-o", str(out), "--method", "decay",
                 "--resume", str(tmp_path / "s.npz"), "--segments", "1"]) == 2
    assert capsys.readouterr() == (
        "", "evprep: error: resume state clock 50000us is the time of a pixel's last event\n")
    assert not out.exists()


def test_every_path_argument_is_checked_for_clashes():
    """Each argument that takes a path (a value with no type and no choices)
    is in its command's reads or writes, so an output cannot name it."""
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unchecked = [
        f"{name} {(action.option_strings or [action.dest])[0]}"
        for name, command in commands.choices.items()
        for action in command._actions
        if action.nargs != 0 and action.type is None and action.choices is None
        and not set(action.option_strings or [action.dest]) & set(
            command.get_default("reads") + command.get_default("writes"))
    ]
    assert unchecked == []


def path_arguments():
    """Each command's path arguments, with one of them to leave empty."""
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [pytest.param(name, paths, flag, id=f"{name}-{flag.lstrip('-')}")
            for name, command in commands.choices.items()
            for paths in [command.get_default("reads") + command.get_default("writes")]
            for flag in paths]


# files of named_files a path argument reads; an output gets a new name
READS = {"input": "d.evt1", "scene": "s.scene", "frames": "r.intf", "--resume": "st.npz"}


@pytest.mark.parametrize("command, paths, flag", path_arguments())
def test_empty_path_exit_1_before_work(named_files, capsys, command, paths, flag):
    values = {path: "" if path == flag else READS.get(path, f"new-{path.lstrip('-')}")
              for path in paths}
    argv = [command, *(values[path] for path in paths if not path.startswith("-"))]
    argv += [word for path in paths if path.startswith("-") for word in (path, values[path])]
    before = {path.name: path.read_bytes() for path in named_files.iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"evprep: error: {flag} is an empty path\n")
    assert {path.name: path.read_bytes() for path in named_files.iterdir()} == before


def test_bench_is_gone(evt1, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(evt1)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'bench'" in err and "Traceback" not in err


def test_every_option_has_a_test():
    """Each option of each subcommand appears, quoted, in some test file."""
    sources = "".join(path.read_text() for path in Path(__file__).parent.glob("*.py"))
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    untested = [
        f"{name} {action.option_strings[-1]}"
        for name, command in commands.choices.items()
        for action in command._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and not any(f'"{s}"' in sources or f"'{s}'" in sources for s in action.option_strings)
    ]
    assert untested == []
