"""Every output is written beside its name and moved into place only when
its command succeeds: a failed run leaves every existing file as it was."""

import ast
import errno
import os
from pathlib import Path

import pytest

from evprep import events as events_module
from evprep.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENE = ROOT / "scenes" / "disc.scene"
OUTPUTS = ("out/x.intf", "out/s.npz", "out/prev/frame_00000.pgm", "out/prev/frame_00001.pgm",
           "out/curve.txt", "out/p.bin", "out/r.json")
INTENSITY = ["intensity", "d.evt1", "-o", "out/x.intf", "--save-state", "out/s.npz",
             "--pgm-dir", "out/prev", "--segments", "3"]


@pytest.fixture
def earlier_outputs(tmp_path, monkeypatch):
    """Inputs for every command, and an earlier run's outputs under ``out``."""
    monkeypatch.chdir(tmp_path)
    Path("s.scene").write_bytes(SCENE.read_bytes())
    assert main(["simulate", "s.scene", "-o", "d.evt1"]) == 0
    assert main(["intensity", "d.evt1", "-o", "r.intf", "--segments", "2"]) == 0
    Path("hot.txt").write_text("10 1 1 1\n60000 1 1 1\n")
    Path("out/prev").mkdir(parents=True)
    for name in OUTPUTS:
        Path(name).write_bytes(f"an earlier {name}".encode())
    return tmp_path


def tree() -> dict:
    """Every entry below the working directory: a file's bytes, or None for a directory."""
    return {str(path): None if path.is_dir() else path.read_bytes()
            for path in Path(".").rglob("*")}


def write_half(path, data, *_):
    """Write half of ``data`` to ``path``, then fail as a full disk does."""
    with open(path, "w" if isinstance(data, str) else "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fail_to_move(src, dst):
    raise OSError(errno.EIO, os.strerror(errno.EIO), dst)


def fail_on_second_segment(monkeypatch):
    calls = []

    def bin_edges(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 32.0 GiB")
        return events_module.bin_edges(*args)

    monkeypatch.setattr("evprep.intensity.bin_edges", bin_edges)


@pytest.mark.parametrize(
    "argv, fault, message",
    [
        pytest.param(["intensity", "hot.txt", "--geometry", "8x8", "--threshold", "3e38",
                      "--alpha", "0", *INTENSITY[2:]], None,
                     "segment 2: a frame value is beyond float32's range",
                     id="float32-at-segment-2"),
        # the run makes out/new and out/new/previews, and stages segment 1's preview there
        pytest.param(["intensity", "hot.txt", "--geometry", "8x8", "--threshold", "3e38",
                      "--alpha", "0", "-o", "out/x.intf", "--pgm-dir", "out/new/previews"], None,
                     "segment 2: a frame value is beyond float32's range",
                     id="pgm-dir-made-by-the-run"),
        pytest.param(["intensity", "hot.txt", "--geometry", "8x8", "--threshold", "3e38",
                      "--alpha", "0", "-o", "out/x.intf", "--pgm-dir", "new/previews"],
                     lambda mp: Path("new").mkdir(),
                     "segment 2: a frame value is beyond float32's range",
                     id="pgm-dir-in-an-empty-directory"),
        pytest.param(INTENSITY, fail_on_second_segment, "Unable to allocate 32.0 GiB",
                     id="memory-error-in-estimator"),
        pytest.param(INTENSITY, lambda mp: mp.setattr(
                         "evprep.cli.save_state", lambda path, state: write_half(path, b"NUMPY")),
                     "[Errno 28] No space left on device", id="save-state-write"),
        pytest.param(INTENSITY, lambda mp: Path("out/prev/frame_00002.pgm").mkdir(),
                     "[Errno 21] Is a directory: 'out/prev/frame_00002.pgm'",
                     id="directory-under-a-preview-name"),
        pytest.param(["pretrain-toy", "s.scene", "--steps", "1", "-o", "out/curve.txt",
                      "--params", "out/p.bin"],
                     lambda mp: mp.setattr(Path, "write_bytes", write_half),
                     "[Errno 28] No space left on device", id="pretrain-toy-params-write"),
        pytest.param(["report", "r.intf", "s.scene", "--report", "out/r.json"],
                     lambda mp: mp.setattr(Path, "write_text", write_half),
                     "[Errno 28] No space left on device", id="report-write"),
        # the one staged output, so its failed move leaves no other moved
        pytest.param(["intensity", "d.evt1", "-o", "out/x.intf", "--segments", "2"],
                     lambda mp: mp.setattr(os, "replace", fail_to_move),
                     "[Errno 5] Input/output error: 'out/x.intf'", id="output-move"),
    ],
)
def test_failed_run_leaves_every_output_as_it_was(earlier_outputs, capsys, monkeypatch,
                                                  argv, fault, message):
    if fault is not None:
        fault(monkeypatch)
    before = tree()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"evprep: error: {message}\n")
    assert tree() == before


@pytest.mark.parametrize(
    "argv, path",
    [
        pytest.param(["simulate", "s.scene", "-o", "out"], "-o 'out'", id="directory"),
        pytest.param(["simulate", "s.scene", "-o", "/dev/null"], "-o '/dev/null'", id="device"),
        pytest.param(["intensity", "d.evt1", "-o", "new.intf", "--save-state", "to-dir"],
                     "--save-state 'to-dir'", id="link-to-a-directory"),
        pytest.param(["pretrain-toy", "s.scene", "-o", "new.txt", "--params", "out/prev"],
                     "--params 'out/prev'", id="params"),
        pytest.param(["report", "r.intf", "s.scene", "--report", "out"], "--report 'out'",
                     id="report"),
    ],
)
def test_output_that_is_not_a_regular_file_exit_2_before_work(earlier_outputs, capsys, argv, path):
    os.symlink("out", "to-dir")
    before = tree()
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"evprep: error: {path} is not a regular file\n")
    assert tree() == before


def test_outputs_move_into_place_output_last(earlier_outputs, monkeypatch):
    moved = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(dst) or replace(src, dst))
    assert main(INTENSITY) == 0
    assert moved == ["out/prev/frame_00000.pgm", "out/prev/frame_00001.pgm",
                     "out/prev/frame_00002.pgm", "out/s.npz", "out/x.intf"]
    assert sorted(os.listdir("out")) == ["curve.txt", "p.bin", "prev", "r.json", "s.npz", "x.intf"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda umask: f"umask-{umask:03o}")
def test_outputs_get_the_mode_of_a_new_file(earlier_outputs, umask):
    old = os.umask(umask)
    try:
        assert main([*INTENSITY, "--pgm-dir", "new"]) == 0
        assert main(["pretrain-toy", "s.scene", "--steps", "1", "-o", "out/curve.txt",
                     "--params", "out/p.bin"]) == 0
        assert main(["report", "r.intf", "s.scene", "--report", "out/r.json"]) == 0
        assert main(["simulate", "s.scene", "-o", "out/d.evt1"]) == 0
    finally:
        os.umask(old)
    written = [Path(name) for name in OUTPUTS if "prev" not in name] + [Path("out/d.evt1")]
    written += sorted(Path("new").iterdir())
    assert len(written) == 9
    assert {str(path): path.stat().st_mode & 0o777 for path in written} == {
        str(path): 0o666 & ~umask for path in written
    }


# --- every output a command writes goes through the commit helper ---

OUTPUT_ATTRIBUTES = {"output", "save_state", "params", "report"}
WRITERS = {"open", "save_state"}


def unstaged_outputs(module: ast.AST) -> list[str]:
    """Calls in a ``cmd_*`` function that write to an output attribute of
    ``args`` directly, not through ``_stage``: ``open``, ``write_*``,
    ``save_state``, and ``Path(...).write_*``."""
    found = []
    for function in ast.walk(module):
        if not (isinstance(function, ast.FunctionDef) and function.name.startswith("cmd_")):
            continue
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Name) and (callee.id in WRITERS
                                                 or callee.id.startswith("write_")):
                paths = call.args[:1] + [kw.value for kw in call.keywords]
            elif (isinstance(callee, ast.Attribute) and callee.attr.startswith("write_")
                  and isinstance(callee.value, ast.Call)
                  and isinstance(callee.value.func, ast.Name) and callee.value.func.id == "Path"):
                paths = callee.value.args[:1]
            else:
                continue
            if any(isinstance(path, ast.Attribute) and path.attr in OUTPUT_ATTRIBUTES
                   and isinstance(path.value, ast.Name) and path.value.id == "args"
                   for path in paths):
                found.append(f"{function.name}: {ast.unparse(call)}")
    return found


def test_every_command_stages_its_outputs():
    source = ROOT / "src" / "evprep" / "cli.py"
    module = ast.parse(source.read_text(), str(source))
    assert unstaged_outputs(module) == []
    commands = [node for node in module.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert [command.name for command in commands
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == "_stage" for call in ast.walk(command))] == [
        "cmd_simulate", "cmd_intensity", "cmd_report", "cmd_pretrain_toy"]


def test_checker_flags_unstaged_outputs():
    source = (
        "def cmd_a(args):\n"
        "    write_intf(args.output, frames, geometry)\n"
        "    write_intf(_stage(args, args.output), frames, geometry)\n"
        "    save_state(path=args.save_state, state=state)\n"
        "    Path(args.report).write_text(text)\n"
        "    Path(_stage(args, args.report)).write_text(text)\n"
        "    with open(args.output, 'w') as fh:\n"
        "        pass\n"
        "    open(args.input)\n"
        "def helper(args):\n"
        "    write_pgm(args.output, frame)\n"
    )
    assert unstaged_outputs(ast.parse(source)) == [
        "cmd_a: write_intf(args.output, frames, geometry)",
        "cmd_a: save_state(path=args.save_state, state=state)",
        "cmd_a: Path(args.report).write_text(text)",
        "cmd_a: open(args.output, 'w')",
    ]


# --- a command returns what it prints, and main prints it once every output is in place ---


def stdout_writes(module: ast.AST) -> list[str]:
    """Calls of ``print``, and uses of ``sys.stdout``, in a ``cmd_*`` function,
    in source order."""
    found = []
    for function in ast.walk(module):
        if isinstance(function, ast.FunctionDef) and function.name.startswith("cmd_"):
            nodes = [node for node in ast.walk(function)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "print"
                     or isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
                     and isinstance(node.value, ast.Name) and node.value.id == "sys"]
            nodes.sort(key=lambda node: (node.lineno, node.col_offset))
            found += [f"{function.name}: {ast.unparse(node)}" for node in nodes]
    return found


def test_no_command_writes_to_stdout():
    source = ROOT / "src" / "evprep" / "cli.py"
    assert stdout_writes(ast.parse(source.read_text(), str(source))) == []


def test_checker_flags_stdout_writes():
    source = (
        "def cmd_a(args):\n"
        "    print(f'wrote {count} frames')\n"
        "    sys.stdout.write(text)\n"
        "    fh.write(text)\n"
        "    print(text, file=sys.__stdout__)\n"
        "    return f'wrote {count} frames'\n"
        "def main(argv):\n"
        "    print(text)\n"
    )
    assert stdout_writes(ast.parse(source)) == [
        "cmd_a: print(f'wrote {count} frames')",
        "cmd_a: sys.stdout",
        "cmd_a: print(text, file=sys.__stdout__)",
        "cmd_a: sys.__stdout__",
    ]
