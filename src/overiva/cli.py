"""Command line interface.

Subcommands:

- ``separate``: demix a WAV mixture into per-source image files
- ``make-mix``: synthesize a test scene directory
- ``bench``: run a benchmark grid and write a CSV summary

Exit codes: 0 success, 2 invalid arguments, 3 I/O failure, 4 numerical
failure (the message names the frequency bin when known).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import DEFAULT_METHODS, MIXTURE_METHOD, run_benchmark, write_csv
from .errors import CorruptFile, InvalidSpec, NumericalError, UnsupportedFormat
from .io import _check_header, read_wav
from .model import EPS_RIDGE, EPS_VARIANCE
from .optimizer import DEFAULT_ITERATIONS, Method, RunConfig
from .pipeline import separate_file
from .simulate import SceneSpec, measured_sinr, save_scene, synthesize
from .stft import StftConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="overiva",
        description="Extract K sources from an M-channel mixture (K < M).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags of a separation run, shared by separate and bench.
    solve = argparse.ArgumentParser(add_help=False)
    iters = ", ".join(f"{m.value} {n}" for m, n in DEFAULT_ITERATIONS.items())
    solve.add_argument("--iters", type=_positive_int, default=None,
                       help=f"iteration count (default {iters})")
    solve.add_argument("--frame-len", type=int, default=4096,
                       help="STFT frame length")
    solve.add_argument("--hop-div", type=_positive_int, default=4,
                       help="hop = frame_len / hop_div, at least 2 (default 4)")
    solve.add_argument("--threads", type=_positive_int, default=1,
                       help="worker threads (default 1)")

    # Flags of a synthetic scene, shared by make-mix and bench.
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--seed", type=int, default=0,
                       help="scene seed (bench: trial t uses seed + t)")
    scene.add_argument("--dur", type=float, default=10.0, help="duration in seconds")
    scene.add_argument("--rt60", type=float, default=300.0,
                       help="reverberation time in ms")
    scene.add_argument("--rate", type=int, default=16000, help="sample rate")

    sep = sub.add_parser("separate", parents=[solve], help="separate a WAV mixture")
    sep.add_argument("--input", required=True, help="mixture WAV file")
    sep.add_argument("--sources", required=True, type=_positive_int,
                     help="number of sources K")
    sep.add_argument(
        "--method",
        default="ip1",
        choices=[m.value for m in Method],
        help="update schedule (default ip1)",
    )
    sep.add_argument("--eps1", type=float, default=EPS_VARIANCE,
                     help="variance floor")
    sep.add_argument("--eps2", type=float, default=EPS_RIDGE,
                     help="covariance ridge")
    sep.add_argument("--out", default=".", help="output directory")
    sep.add_argument("--json", default=None, help="write a JSON report here")
    sep.add_argument("--verify-monotone", action="store_true",
                     help="fail if the cost trace increases")
    sep.set_defaults(func=_cmd_separate)

    mix = sub.add_parser("make-mix", parents=[scene], help="synthesize a test scene")
    mix.add_argument("--speakers", required=True, type=int, help="target count K")
    mix.add_argument("--noises", required=True, type=int, help="noise count L")
    mix.add_argument("--mics", required=True, type=int, help="channel count M")
    mix.add_argument("--sinr", type=float, default=0.0, help="input SINR in dB")
    mix.add_argument("--out", required=True, help="scene output directory")
    mix.add_argument("--speech", nargs="+", default=None, metavar="WAV",
                     help="use these WAV files as the K dry sources "
                          "(first channel, truncated to the duration)")
    mix.set_defaults(func=_cmd_make_mix)

    bench = sub.add_parser("bench", parents=[solve, scene], help="run a benchmark grid")
    bench.add_argument("--grid", required=True,
                       help="JSON file: list of cells {K, L, M, sinr}")
    bench.add_argument("--trials", type=_positive_int, default=10,
                       help="scenes per cell")
    bench.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                       help="comma list of methods (plus 'mixture')")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _stft_config(args):
    """The StftConfig of --frame-len and --hop-div."""
    n = args.frame_len
    if n < 2 or n & (n - 1):
        raise InvalidSpec(f"--frame-len must be a power of two, got {n}")
    if n % args.hop_div:
        raise InvalidSpec(f"--hop-div {args.hop_div} must divide --frame-len {n}")
    return StftConfig(n, n // args.hop_div)


def _cmd_separate(args):
    config = RunConfig(
        method=args.method,
        iterations=args.iters,
        eps1=args.eps1,
        eps2=args.eps2,
        threads=args.threads,
    )
    report = separate_file(
        args.input,
        args.sources,
        config,
        _stft_config(args),
        out_dir=args.out,
        json_path=args.json,
        verify_monotone=args.verify_monotone,
    )
    print(
        f"separated {args.input} into {len(report['outputs'])} sources "
        f"({report['method']}, {report['iterations']} iterations, "
        f"rtf {report['rtf']:.3f})"
    )
    return EXIT_OK


def _scene_spec(args, n_sources, n_noises, n_mics, sinr_db):
    """The SceneSpec of these counts and SINR under the scene flags."""
    return SceneSpec(
        n_sources,
        n_noises,
        n_mics,
        sinr_db,
        rt60_ms=args.rt60,
        sample_rate=args.rate,
        duration_s=args.dur,
        seed=args.seed,
    )


def _load_speech(paths, sample_rate, n_samples):
    sources = []
    for path in paths:
        buf = read_wav(path)
        if buf.sample_rate != sample_rate:
            raise InvalidSpec(
                f"{path}: sample rate {buf.sample_rate} does not match "
                f"the scene rate {sample_rate} (no resampling is done)"
            )
        if buf.n_samples < n_samples:
            raise InvalidSpec(
                f"{path}: {buf.n_samples} samples is shorter than the "
                f"scene ({n_samples})"
            )
        sources.append(buf.samples[:n_samples, 0])
    # read_wav's samples are float32; the scene is rendered in float64.
    return np.stack(sources).astype(np.float64)


def _cmd_make_mix(args):
    spec = _scene_spec(args, args.speakers, args.noises, args.mics, args.sinr)
    # save_scene writes float32 WAVs of n_mics channels: a header that
    # cannot hold the scene is refused before it is rendered.
    _check_header(spec.n_mics, spec.sample_rate, spec.n_samples)
    sources = None
    if args.speech is not None:
        if len(args.speech) != spec.n_sources:
            raise InvalidSpec(
                f"--speech needs exactly {spec.n_sources} files, "
                f"got {len(args.speech)}"
            )
        sources = _load_speech(args.speech, spec.sample_rate, spec.n_samples)
    scene = synthesize(spec, sources)
    save_scene(scene, args.out)
    sinr = measured_sinr(scene)
    sinr_text = "inf" if np.isinf(sinr) else f"{sinr:.2f}"
    print(
        f"wrote scene to {args.out} (K={spec.n_sources} L={spec.n_noises} "
        f"M={spec.n_mics}, measured SINR {sinr_text} dB)"
    )
    return EXIT_OK


def _parse_grid(args):
    """One SceneSpec per cell of the --grid file, with the scene flags."""
    path = args.grid
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, list) or not payload:
        raise InvalidSpec(f"{path}: grid must be a nonempty list of cells")
    specs = []
    for i, cell in enumerate(payload):
        try:
            specs.append(
                _scene_spec(args, cell["K"], cell["L"], cell["M"], cell["sinr"])
            )
        except (KeyError, TypeError) as exc:
            raise InvalidSpec(
                f"{path}: cell {i} needs K, L, M, sinr ({exc})"
            ) from None
        except InvalidSpec as exc:
            raise InvalidSpec(f"{path}: cell {i}: {exc}") from None
    return specs


def _cmd_bench(args):
    specs = _parse_grid(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InvalidSpec(f"--methods names no method: {args.methods!r}")
    known = {m.value for m in Method} | {MIXTURE_METHOD}
    unknown = [m for m in methods if m not in known]
    if unknown:
        raise InvalidSpec(f"unknown methods: {', '.join(unknown)}")
    rows = run_benchmark(
        specs,
        methods=methods,
        trials=args.trials,
        stft_config=_stft_config(args),
        iterations=args.iters,
        threads=args.threads,
        log=sys.stderr,
    )
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFormat, CorruptFile, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
