import json
from pathlib import Path

import numpy as np
import pytest

from evprep.cli import main
from evprep.formats import read_evt1, read_intf, write_evt1
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


def test_corrupt_scene_exit_2(tmp_path, capsys):
    scene = tmp_path / "bad.scene"
    scene.write_text("[geometry]\nwidth = oops\nheight = 4\n[scene]\n")
    assert main(["simulate", str(scene), "-o", str(tmp_path / "x.evt1")]) == 2
    assert "width" in capsys.readouterr().err


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
        ("--alpha", "-1"),
        ("--geometry", "abc"),
        ("--geometry", "8x"),
        ("--geometry", "8x8x8"),
        ("--geometry", "0x8"),
        ("--geometry", "8x-2"),
        ("--geometry", "70000x10"),
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
        ("pretrain-toy", "--patch", "0"),
        ("pretrain-toy", "--ratio", "1.5"),
        ("pretrain-toy", "--ratio", "nan"),
        # round(ratio * 8) masks none of the 8 patches of the 32x16 scene
        ("pretrain-toy", "--ratio", "0"),
        ("pretrain-toy", "--ratio", "0.01"),
        ("pretrain-toy", "--steps", "0"),
        ("pretrain-toy", "--embed", "0"),
        ("pretrain-toy", "--lr", "nan"),
        ("bench", "--segment-ms", "0"),
        ("bench", "--segment-ms", "0.0004"),
        ("bench", "--bins", "3"),
    ],
)
def test_bad_flag_exit_1_other_commands(
    evt1, tmp_path, capsys, monkeypatch, command, flag, value
):
    def no_simulation(*args):
        raise AssertionError("a usage error must be found before simulating")

    monkeypatch.setattr("evprep.toymodel.simulate_events", no_simulation)
    out = tmp_path / "curve.txt"
    if command == "pretrain-toy":
        argv = [command, str(SCENES / "disc.scene"), "-o", str(out), "--steps", "1"]
    else:
        argv = [command, str(evt1)]
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


def test_intensity_matches_library(evt1, tmp_path):
    from evprep import IntensityConfig, Method, SegmentConfig, run_sequence

    out = tmp_path / "frames.intf"
    main(["intensity", str(evt1), "-o", str(out), "--method", "decay",
          "--segment-ms", "10", "--bins", "2", "--segments", "10"])
    events, geo = read_evt1(evt1)
    _, expected = run_sequence(
        events, geo, SegmentConfig(10_000, 2),
        IntensityConfig(Method.PER_EVENT_DECAY, bin_duration_us=5000),
        num_segments=10,
    )
    frames, _ = read_intf(out)
    for a, b in zip(frames, expected):
        assert np.array_equal(a, b)


def test_resume_split_equals_single(evt1, tmp_path):
    events, geo = read_evt1(evt1)
    cut = int(np.searchsorted(events["t"], 40_000))
    first = tmp_path / "a.evt1"
    second = tmp_path / "b.evt1"
    write_evt1(first, events[:cut], geo)
    write_evt1(second, events[cut:], geo)

    single = tmp_path / "single.intf"
    main(["intensity", str(evt1), "-o", str(single), "--segment-ms", "20",
          "--bins", "4", "--segments", "5"])

    state = tmp_path / "state.npz"
    out_a = tmp_path / "a.intf"
    out_b = tmp_path / "b.intf"
    main(["intensity", str(first), "-o", str(out_a), "--segment-ms", "20",
          "--bins", "4", "--segments", "2", "--save-state", str(state)])
    main(["intensity", str(second), "-o", str(out_b), "--segment-ms", "20",
          "--bins", "4", "--segments", "3", "--resume", str(state)])

    combined = read_intf(out_a)[0] + read_intf(out_b)[0]
    for a, b in zip(combined, read_intf(single)[0]):
        assert np.array_equal(a, b)


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


def test_pgm_previews(evt1, tmp_path):
    out = tmp_path / "frames.intf"
    pgm_dir = tmp_path / "previews"
    main(["intensity", str(evt1), "-o", str(out), "--segments", "2",
          "--pgm-dir", str(pgm_dir)])
    files = sorted(pgm_dir.glob("*.pgm"))
    assert len(files) == 2
    assert files[0].read_bytes().startswith(b"P5\n")


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


def test_pretrain_toy_diverged_exit_2(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    argv = ["pretrain-toy", str(SCENES / "disc.scene"), "-o", str(curve),
            "--steps", "40", "--lr", "1e6"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "evprep: error: training diverged at step" in err and "Traceback" not in err
    assert not curve.exists()


def test_bench_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.evt1"
    write_evt1(empty, make_events([], [], [], []), SensorGeometry(8, 8))
    assert main(["bench", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "events: 0" in out
    assert "histogram_events_per_s: 0" in out


def test_bench_reports_rates(evt1, capsys):
    assert main(["bench", str(evt1)]) == 0
    out = capsys.readouterr().out
    assert "M events/s" in out
    assert "histogram_events_per_s" in out


@pytest.mark.parametrize(
    "method, name, value",
    [
        # each used to end in a traceback, except the first: a 3x3 frame in an
        # 8x8 state wrote an unreadable 48-byte INTF and exited 0
        ("adaptive", "frame", np.zeros((3, 3))),
        ("adaptive", "frame", np.zeros((8, 8), dtype=np.int64)),
        ("decay", "last_event_t_us", np.zeros((2, 2), dtype=np.int64)),
        ("decay", "last_update_time_us", None),
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
