"""EVT1 and INTF headers whose fields are 0, 1 or their maximum, with and
without a payload, run through the CLI in a child process whose address
space is capped at 1 GiB: a header that makes evprep size a huge array
fails there with a MemoryError instead of taking the machine's memory.

EVT1 fields are set one at a time on a valid 32x16 header, since a valid
65535x65535 EVT1 needs a 32 GiB frame; INTF fields in every combination.
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


def header_files(tmp_path) -> dict[str, list[str]]:
    """The argv of each distinct header, alone and with a payload, by name."""
    cases = {}
    for payload in (b"", EVT1_RECORD):
        base = (32, 16, 0, len(payload) // len(EVT1_RECORD))
        for field, value in itertools.product(range(4), (0, 1, U32)):
            fields = list(base)
            fields[field] = min(value, U16) if field < 2 else value
            cases[f"EVT1 {fields} + {len(payload)} bytes"] = (
                b"EVT1" + struct.pack("<HHII", *fields) + payload, "intensity")
    for payload in (b"", INTF_VALUE):
        for fields in itertools.product((0, 1, U16), (0, 1, U16), (0, 1, U32)):
            cases[f"INTF {list(fields)} + {len(payload)} bytes"] = (
                b"INTF" + struct.pack("<HHI", *fields) + payload, "report")
    out = str(tmp_path / "out.intf")
    argvs = {}
    for i, (name, (data, command)) in enumerate(cases.items()):
        path = tmp_path / f"case{i}"
        path.write_bytes(data)
        argvs[name] = (["intensity", str(path), "-o", out] if command == "intensity"
                       else ["report", str(path), SCENE])
    return argvs


RUN_TABLE = """
import io, json, sys, warnings
from contextlib import redirect_stderr, redirect_stdout
from evprep.cli import main

results = {}
for name, argv in json.loads(sys.argv[1]).items():
    try:
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \\
                redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            results[name] = main(argv)
    except Exception as exc:
        results[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(results))
"""


def test_header_extremes_exit_0_or_2(tmp_path):
    cases = header_files(tmp_path)
    results = run_capped(RUN_TABLE, json.dumps(cases))
    # the base EVT1 header turns up under two fields, reserved 0 and its count
    assert len(results) == len(cases) == 2 * 11 + 2 * 27
    assert {name: code for name, code in results.items() if code not in (0, 2)} == {}


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
