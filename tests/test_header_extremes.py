"""EVT1 and INTF headers whose fields are 0, 1 or their maximum, in every
combination, with and without a payload, run through the CLI in a child
process whose address space is capped at 1 GiB: a header that makes evprep
size a huge array fails there with a MemoryError instead of taking the
machine's memory, and the CLI exits 2 before it opens any output.

A valid 65535x65535 EVT1 needs a 32 GiB frame, as does a 65535x65535
scene for `simulate` and `pretrain-toy`: those cases must exit 2 with
numpy's allocation message and leave no output file.
"""

import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENE = str(ROOT / "scenes" / "disc.scene")
U16, U32 = 2**16 - 1, 2**32 - 1
CAP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""
EVT1_RECORD = struct.pack("<QHHb", 0, 0, 0, 1)  # t, x, y, p of one event
INTF_VALUE = struct.pack("<f", 0.0)


def run_capped(script: str, *args: str) -> dict:
    """The JSON that ``script`` prints, run after the cap in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", CAP + script, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
             "OPENBLAS_NUM_THREADS": "1"},  # one thread's buffers, whatever the core count
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def header_files(tmp_path) -> tuple[dict[str, list[str]], dict[str, Path]]:
    """The argv of each case, by name, and the output folder, by name, of
    each case that needs a 32 GiB array. Case i reads the file case{i} and
    writes into the folder out{i}, which starts empty."""

    def intensity(*flags):
        return lambda path, out: ["intensity", path, "-o", f"{out}/frames.intf", *flags]

    def report(path, out):
        return ["report", path, SCENE]

    def simulate(path, out):
        return ["simulate", path, "-o", f"{out}/events.evt1"]

    def pretrain_toy(path, out):
        return ["pretrain-toy", path, "-o", f"{out}/curve.txt", "--params", f"{out}/params",
                "--steps", "1"]

    cases, huge = {}, set()
    for payload in (b"", EVT1_RECORD):
        for fields in itertools.product((0, 1, U16), (0, 1, U16), (0, 1, U32), (0, 1, U32)):
            name = f"EVT1 {list(fields)} + {len(payload)} bytes"
            cases[name] = (b"EVT1" + struct.pack("<HHII", *fields) + payload, intensity())
            if fields[:2] == (U16, U16) and fields[3] == len(payload) // len(EVT1_RECORD):
                huge.add(name)
    for payload in (b"", INTF_VALUE):
        for fields in itertools.product((0, 1, U16), (0, 1, U16), (0, 1, U32)):
            cases[f"INTF {list(fields)} + {len(payload)} bytes"] = (
                b"INTF" + struct.pack("<HHI", *fields) + payload, report)
    scene = Path(SCENE).read_text().replace("width = 32", f"width = {U16}")
    scene = scene.replace("height = 16", f"height = {U16}").encode()
    commands = {
        f"EVT1 {[U16, U16, 0, 0]} + 0 bytes, --method decay": (
            b"EVT1" + struct.pack("<HHII", U16, U16, 0, 0), intensity("--method", "decay")),
        f"simulate a {U16}x{U16} scene": (scene, simulate),
        f"pretrain-toy a {U16}x{U16} scene": (scene, pretrain_toy),
    }
    cases.update(commands)
    huge.update(commands)
    argvs, outs = {}, {}
    for i, (name, (data, argv)) in enumerate(cases.items()):
        path, outs[name] = tmp_path / f"case{i}", tmp_path / f"out{i}"
        path.write_bytes(data)
        outs[name].mkdir()
        argvs[name] = argv(str(path), str(outs[name]))
    return argvs, {name: outs[name] for name in huge}


RUN_TABLE = """
import io, json, sys, warnings
from contextlib import redirect_stderr, redirect_stdout
from evprep.cli import main

results, errors = {}, {}
for name, argv in json.loads(sys.argv[1]).items():
    stderr = io.StringIO()
    try:
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \\
                redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            results[name] = main(argv)
    except Exception as exc:
        results[name] = f"{type(exc).__name__}: {exc}"
    errors[name] = stderr.getvalue()
print(json.dumps([results, errors]))
"""


def test_header_extremes_exit_0_or_2(tmp_path):
    cases, huge = header_files(tmp_path)
    results, errors = run_capped(RUN_TABLE, json.dumps(cases))
    # 81 EVT1 and 27 INTF headers, with and without a payload, and 3 commands
    assert len(results) == len(cases) == 2 * 81 + 2 * 27 + 3
    assert {name: code for name, code in results.items() if code not in (0, 2)} == {}
    # six EVT1 headers, reserved 0, 1 or its maximum, with and without a record
    assert len(huge) == 6 + 3
    assert {
        name: (results[name], errors[name].startswith("evprep: error: Unable to allocate 32.0 GiB"),
               sorted(p.name for p in out.iterdir()))
        for name, out in huge.items()
    } == {name: (2, True, []) for name in huge}


SIZE_ZERO_FRAMES = """
import json, sys, tracemalloc
from evprep.cli import main
from evprep.errors import GeometryError
from evprep.formats import read_intf

tracemalloc.start()
try:
    read_intf(sys.argv[1])
    error = None
except GeometryError as exc:
    error = str(exc)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"error": error, "peak": peak, "report": main(["report", *sys.argv[1:]])}))
"""


def test_intf_zero_geometry_fails_before_sizing_its_frames(tmp_path):
    # 0x0 frames hold no values, so any count passes the payload check
    path = tmp_path / "zero.intf"
    path.write_bytes(b"INTF" + struct.pack("<HHI", 0, 0, U32))
    result = run_capped(SIZE_ZERO_FRAMES, str(path), SCENE)
    assert result["error"] == "invalid geometry 0x0, not in [1, 65535]"
    assert result["peak"] < 2**20
    assert result["report"] == 2
