"""Seeded byte mutations of small inputs, each run through the CLI: every
run exits 0 or 2, with no escaping exception and no RuntimeWarning.

Scene files are left out: one changed byte can ask the simulator for a
run too large to finish.
"""

import warnings
from pathlib import Path

import numpy as np

from evprep.cli import main
from evprep.formats import read_evt1

SCENE = str(Path(__file__).resolve().parent.parent / "scenes" / "disc.scene")
CASES = 200


def sources(tmp_path):
    """(file, argv with the mutated file's path as ``{}``) for each input."""
    evt1, intf, state = tmp_path / "disc.evt1", tmp_path / "disc.intf", tmp_path / "disc.npz"
    assert main(["simulate", SCENE, "-o", str(evt1)]) == 0
    assert main(["intensity", str(evt1), "-o", str(intf), "--segments", "10"]) == 0
    assert main(["intensity", str(evt1), "-o", str(tmp_path / "first.intf"), "--segments", "1",
                 "--save-state", str(state)]) == 0
    text = tmp_path / "disc.txt"
    text.write_text("".join(f"{t} {x} {y} {p}\n" for t, x, y, p in read_evt1(evt1)[0].tolist()))
    out = str(tmp_path / "out.intf")
    return [
        (evt1, ["intensity", "{}", "-o", out, "--segments", "10"]),
        (intf, ["report", "{}", SCENE]),
        (state, ["intensity", str(evt1), "-o", out, "--segments", "10", "--resume", "{}"]),
        (text, ["intensity", "{}", "-o", out, "--segments", "10", "--geometry", "32x16"]),
    ]


def test_mutated_inputs_exit_0_or_2(tmp_path, capsys):
    rng = np.random.default_rng(17)
    inputs = sources(tmp_path)
    capsys.readouterr()
    mutant = tmp_path / "mutant"
    for case in range(CASES):
        source, argv = inputs[case % len(inputs)]
        data = bytearray(source.read_bytes())
        at = int(rng.integers(len(data)))
        if rng.random() < 0.25:
            change = f"truncated to {at} bytes"
            del data[at:]
        else:
            byte = int(rng.integers(1, 256)) ^ data[at]  # never the byte already there
            change = f"byte {at} set to {byte:#04x}"
            data[at] = byte
        mutant.write_bytes(bytes(data))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([str(mutant) if arg == "{}" else arg for arg in argv])
        except Exception as exc:
            raise AssertionError(f"case {case}: {source.name} {change}: {exc!r}") from exc
        assert code in (0, 2), f"case {case}: {source.name} {change}: exit {code}"
        capsys.readouterr()
