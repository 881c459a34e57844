"""Command-line entry point: simulate / intensity / report / pretrain-toy."""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
from pathlib import Path

# what `intensity` runs; each other command imports the rest it runs when it starts
from evprep.errors import EvprepError, FormatError, GeometryError
from evprep.events import SegmentConfig, SensorGeometry
from evprep.formats import (
    load_state,
    open_evt1,
    read_text_events,
    save_state,
    write_evt1,
    write_intf,
    read_intf,
    write_pgm,
)
from evprep.intensity import IntensityConfig, Method, iter_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for data errors."""

    def _parse_optional(self, arg_string):
        try:  # any number float() reads, such as -1e3 or -inf, is a value, not an option
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(convert, accept, what: str):
    """argparse type: a finite ``convert(text)`` that ``accept`` approves."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = math.isfinite(value) and accept(value)
        except (ValueError, OverflowError):  # OverflowError: int too large for a float
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value

    return parse


_positive_float = _number(float, lambda v: v > 0, "a finite number > 0")
_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "an integer >= 0")
_fraction = _number(float, lambda v: 0 <= v <= 1, "a finite number in [0, 1]")


def _geometry(text: str) -> SensorGeometry:
    """argparse type: ``WxH`` with positive integer width and height."""
    try:
        width, height = (int(v) for v in text.lower().split("x"))
        return SensorGeometry(width, height)
    except (ValueError, GeometryError) as exc:
        raise argparse.ArgumentTypeError(f"not WxH: {text!r} ({exc})") from exc


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one file: links count when both exist."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _preview_name(k: int) -> str:
    """The name of the preview of the segment with index ``k + 1``."""
    return f"frame_{k:05d}.pgm"


def _is_preview(path: str, pgm_dir: str) -> bool:
    """Whether the real path of ``path`` lies in ``pgm_dir`` under a name
    :func:`_preview_name` gives."""
    head, name = os.path.split(os.path.realpath(path))
    digits = name.removeprefix("frame_").removesuffix(".pgm")
    return (head == os.path.realpath(pgm_dir) and digits.isascii() and digits.isdigit()
            and _preview_name(int(digits)) == name)


def _flag_path(args, flag: str):
    return getattr(args, "output" if flag == "-o" else flag.lstrip("-").replace("-", "_"))


def _clashing_output(args) -> str | None:
    """The usage error of an output that names a file the command reads, or
    another of its outputs, or of a preview that would overwrite either, or of
    an empty path; ``--save-state`` may update ``--resume`` in place."""
    named = []
    for flag in args.reads + args.writes:
        path = _flag_path(args, flag)
        if path == "":
            return f"{flag} is an empty path"
        if path is None:
            continue
        for earlier, other in named if flag in args.writes else ():
            if (flag, earlier) != ("--save-state", "--resume") and _same_file(path, other):
                return f"{flag} {path!r} names the same file as {earlier} {other!r}"
            # --pgm-dir is named last, after every path a preview could overwrite
            if flag == "--pgm-dir" and _is_preview(other, path):
                return f"{flag} {path!r} would write a preview over {earlier} {other!r}"
        named.append((flag, path))
    return None


def _check_output_dirs(args) -> None:
    """Make ``--pgm-dir``, each directory made listed in ``args.made``, deepest first. Raise
    the OSError of an output that is not a regular file or a link to one, or has no directory."""
    pgm_dir = head = getattr(args, "pgm_dir", None)
    while head and not os.path.lexists(head):
        args.made.append(head)
        head = os.path.dirname(head)
    if pgm_dir:
        os.makedirs(pgm_dir, exist_ok=True)
    for flag in args.writes:
        path = _flag_path(args, flag)
        head = path and Path(os.path.abspath(path)).parent
        if head and not head.is_dir():
            code = errno.ENOTDIR if head.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        if path and flag != "--pgm-dir" and os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"{flag} {path!r} is not a regular file")


def _stage(args, path) -> str:
    """A new name beside ``path``, made unique by 64 random bits, for the command to
    write in its place: ``main`` moves it to ``path`` on success. The command's writer
    makes the file, so it gets the mode ``open`` gives any new file."""
    if os.path.isdir(path) and not os.path.islink(path):  # os.replace would fail on it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    head = os.path.dirname(os.path.abspath(path))
    temp = os.path.join(head, f".evprep-{os.urandom(8).hex()}.tmp")
    args.staged.append((temp, path))
    return temp


def _add_pipeline_flags(p):
    p.add_argument("--segment-ms", type=_positive_float, default=50.0, help="segment duration T (ms)")
    p.add_argument("--bins", type=_positive_int, default=10, help="temporal bins B per segment")
    p.add_argument("--alpha", type=float, default=IntensityConfig.alpha_per_s)
    p.add_argument("--threshold", type=float, default=IntensityConfig.threshold)
    p.add_argument("--normalizer", type=int, default=IntensityConfig.normalizer)


def cmd_simulate(args) -> str:
    from evprep.scenefile import load_scene
    from evprep.simulate import simulate_events

    scene, noise = load_scene(args.scene)
    if args.no_noise:
        noise = None
    events = simulate_events(scene, noise)
    write_evt1(_stage(args, args.output), events, scene.geometry)
    return f"wrote {events.shape[0]} events to {args.output}"


def _with_previews(args, stages):
    """Pass the frames of ``stages`` through, writing each one's PGM preview
    into ``--pgm-dir``, named by its segment: a resumed run's follow a first run's."""
    for segment, frame in stages:
        preview = os.path.join(args.pgm_dir, _preview_name(segment.index - 1))
        write_pgm(_stage(args, preview), frame)
        yield frame


def cmd_intensity(args) -> str:
    if args.geometry:
        geometry = args.geometry
        events = read_text_events(args.input)
    else:
        events, geometry = open_evt1(args.input)
    seg_config, int_config = args.seg_config, args.int_config
    resume = load_state(args.resume) if args.resume else None
    state, stages = iter_sequence(
        events,
        geometry,
        seg_config,
        int_config,
        resume=resume,
        num_segments=args.segments,
    )
    frames = _with_previews(args, stages) if args.pgm_dir else (frame for _, frame in stages)
    count = write_intf(_stage(args, args.output), frames, geometry)
    if args.save_state:
        save_state(_stage(args, args.save_state), state)
    return f"wrote {count} frames to {args.output}"


def cmd_report(args) -> str:
    import json
    from evprep.losses import trail_energy
    from evprep.scenefile import load_scene
    from evprep.simulate import trail_region

    frames, geometry = read_intf(args.frames)
    scene, _ = load_scene(args.scene)
    if scene.geometry != geometry:
        raise FormatError(
            f"frame geometry {geometry.width}x{geometry.height} does not match "
            f"scene {scene.geometry.width}x{scene.geometry.height}"
        )
    after_us = args.after_us if args.after_us is not None else scene.duration_us // 2
    region = trail_region(scene, after_us)
    energies = trail_energy(frames, region)
    if args.report:
        payload = {
            "trail_after_us": after_us,
            "trail_pixels": int(region.sum()),
            "energies": energies,
        }
        Path(_stage(args, args.report)).write_text(json.dumps(payload, indent=2))
    return "\n".join(f"{i} {e:.9g}" for i, e in enumerate(energies, start=1))


def cmd_pretrain_toy(args) -> str:
    from evprep.masking import PatchGrid
    from evprep.scenefile import load_scene
    from evprep.simulate import simulate_events
    from evprep.toymodel import ToyModelConfig, serialize_params, train_toy

    scene, noise = load_scene(args.scene)
    grid = PatchGrid(args.patch, scene.geometry.height, scene.geometry.width)
    if grid.masked_patches(args.ratio) == 0:
        args.usage_error(f"--ratio {args.ratio:g} masks none of the {grid.num_patches} patches")
    seg_config, int_config = args.seg_config, args.int_config
    num_segments = args.segments or max(
        1, scene.duration_us // seg_config.segment_duration_us
    )
    try:
        config = ToyModelConfig(
            patch_size=args.patch,
            embed_dim=args.embed,
            in_channels=2 * seg_config.bins_per_segment + 1,
            recurrent=not args.feedforward,
            seed=args.seed,
        )
    except ValueError as exc:
        args.usage_error(f"--patch {args.patch} --embed {args.embed} "
                         f"--bins {seg_config.bins_per_segment}: {exc}")
    curve, state = train_toy(
        simulate_events(scene, noise),
        scene.geometry,
        args.steps,
        args.lr,
        config,
        seg_config,
        int_config,
        num_segments,
        mask_ratio=args.ratio,
    )
    with open(_stage(args, args.output), "w") as fh:
        for i, loss in enumerate(curve):
            fh.write(f"{i} {loss:.9g}\n")
    if args.params:
        Path(_stage(args, args.params)).write_bytes(serialize_params(state))
    return f"trained {args.steps} steps: loss {curve[0]:.6g} -> {curve[-1]:.6g}"


def build_parser() -> _Parser:
    parser = _Parser(prog="evprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene file to an EVT1 event stream")
    p.add_argument("scene")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--no-noise", action="store_true", help="drop the scene's noise section")
    p.set_defaults(func=cmd_simulate, reads=("scene",), writes=("-o",))

    p = sub.add_parser("intensity", help="estimate the pseudo-grayscale video")
    p.add_argument("input", help="EVT1 file (or text events with --geometry)")
    p.add_argument("-o", "--output", required=True, help="INTF output path")
    p.add_argument("--method", choices=("decay", "adaptive"), default="adaptive")
    p.add_argument("--geometry", type=_geometry, help="WxH, switches input to text event format")
    _add_pipeline_flags(p)
    p.add_argument("--segments", type=_positive_int, help="number of segments (default: cover stream)")
    p.add_argument("--resume", help="state file from a previous --save-state run")
    p.add_argument("--save-state", help="write resumable state here")
    p.add_argument("--pgm-dir", help="also write 8-bit PGM previews")
    p.set_defaults(func=cmd_intensity, reads=("input", "--resume"),
                   writes=("-o", "--save-state", "--pgm-dir"))

    p = sub.add_parser("report", help="trail-energy table for an INTF frame stack")
    p.add_argument("frames", help="INTF file")
    p.add_argument("scene", help="scene file that produced the events")
    p.add_argument("--after-us", type=_non_negative_int, help="passage time (default: half duration)")
    p.add_argument("--report", help="also write a JSON report here")
    p.set_defaults(func=cmd_report, reads=("frames", "scene"), writes=("--report",))

    p = sub.add_parser("pretrain-toy", help="train the toy masked autoencoder")
    p.add_argument("scene")
    p.add_argument("-o", "--output", required=True, help="loss curve file")
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--lr", type=_positive_float, default=0.5)
    p.add_argument("--patch", type=_positive_int, default=8)
    p.add_argument("--embed", type=_positive_int, default=16)
    p.add_argument("--ratio", type=_fraction, default=0.5)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--feedforward", action="store_true", help="disable recurrence")
    _add_pipeline_flags(p)
    p.add_argument("--segments", type=_positive_int)
    p.add_argument("--params", help="write trained parameter blob here")
    p.set_defaults(func=cmd_pretrain_toy, method=Method.ADAPTIVE_BATCH.value, usage_error=p.error,
                   reads=("scene",), writes=("-o", "--params"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "segment_ms" in args:
        try:
            args.seg_config = SegmentConfig(int(round(args.segment_ms * 1000)), args.bins)
        except ValueError as exc:
            parser.error(f"--segment-ms {args.segment_ms:g} with --bins {args.bins}: {exc}")
        try:
            args.int_config = IntensityConfig(Method(args.method), args.alpha, args.threshold,
                                              args.normalizer, args.seg_config.bin_duration_us)
        except ValueError as exc:
            parser.error(f"--alpha {args.alpha:g} --threshold {args.threshold:g} "
                         f"--normalizer {args.normalizer}: {exc}")
    clash = _clashing_output(args)
    if clash:
        parser.error(clash)
    args.staged, args.made = [], []  # (temporary, final) pairs moved on success; dirs made
    try:
        _check_output_dirs(args)
        text = args.func(args)  # what the command prints, once every output is in place
        last = getattr(args, "output", None)
        for temp, path in sorted(args.staged, key=lambda pair: pair[1] == last):  # -o last
            os.replace(temp, path)
        if text:
            print(text)
        return EXIT_OK
    except (EvprepError, OSError, ValueError, MemoryError) as exc:
        print(f"evprep: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        for temp, _ in args.staged:
            if os.path.lexists(temp):
                os.remove(temp)
        for path in args.made:  # os.rmdir keeps one that holds anything, as all do on success
            with contextlib.suppress(OSError):
                os.rmdir(path)


if __name__ == "__main__":
    sys.exit(main())
