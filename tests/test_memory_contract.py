"""`evprep intensity` streams its input: peak RSS does not grow with the
number of events, only with the sensor and the events per segment."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# 640x480, 25k uniform events per 50 ms segment: 1M events span 40
# segments and 4M span 160
GENERATE = """
import sys
import numpy as np
from evprep.events import SensorGeometry, make_events
from evprep.formats import write_evt1

rng = np.random.default_rng(7)
for path, n in zip(sys.argv[1::2], map(int, sys.argv[2::2])):
    t = np.sort(rng.integers(0, n // 25_000 * 50_000, n))
    events = make_events(t, rng.integers(0, 640, n), rng.integers(0, 480, n),
                         rng.choice(np.array([-1, 1]), n))
    write_evt1(path, events, SensorGeometry(640, 480))
"""

# Linux keeps a process's peak RSS across exec, so each measured run starts
# from this small interpreter, not from the test's own, much larger process.
# It prints the peak RSS, in KiB, of each command it runs.
LAUNCH = """
import json, os, sys

peaks = []
for argv in json.loads(sys.argv[1]):
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"{argv} exited {os.waitstatus_to_exitcode(status)}")
    peaks.append(usage.ru_maxrss)
print(json.dumps(peaks))
"""


def test_intensity_peak_rss_does_not_grow_with_the_stream(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    sizes = {"1m": 1_000_000, "4m": 4_000_000}
    streams = {name: str(tmp_path / f"{name}.evt1") for name in sizes}
    subprocess.run([sys.executable, "-c", GENERATE,
                    *(str(v) for name, n in sizes.items() for v in (streams[name], n))],
                   env=env, check=True)
    runs = [(method, name) for method in ("adaptive", "decay") for name in sizes]
    commands = [["-m", "evprep.cli", "intensity", streams[name], "-o",
                 str(tmp_path / f"{method}-{name}.intf"), "--method", method]
                for method, name in runs]
    done = subprocess.run([sys.executable, "-c", LAUNCH, json.dumps(commands)],
                          env=env, check=True, capture_output=True, text=True)
    peak = dict(zip(runs, json.loads(done.stdout)))
    for method in ("adaptive", "decay"):
        growth = peak[method, "4m"] - peak[method, "1m"]
        assert growth < 8 * 1024, f"{method}: peak RSS {peak} KiB"
