"""Print one line of output hashes per run() case and per separate_file
scene, to diff two checkouts.

    python tools/parity_digest.py > digest.txt
    python tools/parity_digest.py --save DIR
    python tools/parity_digest.py --compare DIR

Run it on a parent commit and on a change, on the same machine, and diff
the two files: a line that differs names the case whose results moved.
Each line holds the first 16 hex digits of the SHA-256 of run()'s
mixing, outputs, demixing.matrices and cost_trace, or the class and
message of the error the case raised. After the run() cases comes one
line per scene for the whole file path: the scene's mixture is written
as a float32 WAV and separated by pipeline.separate_file, and the line
holds the hash of the image WAVs' bytes, so stft, istft and write_wav
are covered too, and then that call's peak traced allocation
(tracemalloc), as peak=<MB>. The bits depend on the BLAS build, so
digests are compared only between runs on one machine.

Where a change moves results within a tolerance, --save DIR also stores
each case's image factors and cost trace (or its error) in DIR, one
.npz file per case, and --compare DIR prints, in place of the hashes,
each case's largest change against those files: of the images, relative
to the saved images' largest magnitude, and of the cost trace, relative
to each saved value. The images are compared, not the outputs, because
a filter's phase is arbitrary. Each target is scored against the saved
target whose image it moved least from (one saved target per target),
and the line adds order=[...], the saved target of each target, when
that matching is not the identity: a change that only swaps targets
reads as no move. A separate_file line reads "wav same"
when the image WAVs' bytes are unchanged, else their largest sample
move relative to the saved images' largest magnitude, followed by the
saved peak and this run's, peak=<saved MB> -> <MB>. The file sits in
its checkout's tools/ and runs that checkout's src/, so save with a
copy of it placed in the other checkout.

Cases: every method at K = 1 and 2 (ip2 at K = 1 only, auxiva also at
K = M), at threads 1 and 2, 6 iterations each, on four synthesized
1.5 s scenes: K/M = 1/7, 2/6 and 2/8 at frame 1024, and 1/7 at frame
4096, whose 2049 bins run() sweeps in two chunks even at threads 1
(stft.blocks); hop is a quarter frame. Each scene runs as it is, with
bins 0-2 silent, and with those bins silent plus microphone 1 copying
microphone 0 in bin 5. Each scene's separate_file line runs the method
its shape runs in the benchmark (ip2 at K = 1, ip1 at 2/6, auxiva at
2/8), at threads 1 and the same iterations.
"""

import argparse
import hashlib
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# The checkout this file belongs to, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from overiva.io import AudioBuffer, read_wav, write_wav  # noqa: E402
from overiva.optimizer import Method, RunConfig, run  # noqa: E402
from overiva.pipeline import separate_file  # noqa: E402
from overiva.simulate import SceneSpec, synthesize  # noqa: E402
from overiva.stft import StftConfig, stft  # noqa: E402

SCENES = [(1, 6, 7, 1024), (2, 4, 6, 1024), (2, 6, 8, 1024), (1, 6, 7, 4096)]
# The method separate_file runs on a scene with K targets on M microphones.
FILE_METHODS = {(1, 7): Method.IP2, (2, 6): Method.IP1, (2, 8): Method.AUXIVA}
ITERATIONS = 6


def _hash(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _inputs(mixture, frame_len):
    data = np.array(stft(mixture, StftConfig(frame_len)).data)
    silent = data.copy()
    silent[:3] = 0
    copied = silent.copy()
    copied[5, :, 1] = copied[5, :, 0]
    return {"as-is": data, "silent": silent, "copied": copied}


def _cases(n_mics):
    for method in Method:
        targets = [1] if method is Method.IP2 else [1, 2]
        if method is Method.AUXIVA:
            targets.append(n_mics)
        for k in targets:
            for threads in (1, 2):
                yield method, k, threads


def _image_change(mixing, outputs, saved):
    """Largest |image - saved image| over the largest saved |image|, each
    target matched to a saved target so that the moves are least (a
    permutation), and that matching: order[k] is target k's saved
    target. An image is outputs[k, t, f] * mixing[k, :, f]."""
    old = [o[:, None] * m[None] for m, o in zip(saved["mixing"], saved["outputs"])]
    moves = np.array([
        [np.abs(o[:, None] * m[None] - ref).max(initial=0.0) for ref in old]
        for m, o in zip(mixing, outputs)
    ])
    rows, order = linear_sum_assignment(moves)
    diff = moves[rows, order].max(initial=0.0)
    scale = max(np.abs(ref).max(initial=0.0) for ref in old)
    return (diff / scale if scale else diff), order.tolist()


def _compare(res, saved):
    """How far a run() case moved from its saved file."""
    images, order = _image_change(res.mixing, res.outputs, saved)
    old = saved["cost_trace"]
    trace = np.max(np.abs(res.cost_trace - old) / np.abs(old), initial=0.0)
    line = f"images={images:.2e} trace={trace:.2e}"
    return line if order == list(range(len(order))) else f"{line} order={order}"


def _wav_change(wav, images, peak, saved):
    """"wav same" when the image WAVs' bytes are unchanged, else the
    largest sample move over the largest saved sample magnitude; then
    the saved peak and this one, in MB ("?" if none was saved)."""
    old_peak = f"{saved['peak'] / 1e6:.3f}" if "peak" in saved else "?"
    moved = f"peak={old_peak} -> {peak / 1e6:.3f}"
    if np.array_equal(wav, saved["wav"]):
        return f"wav same {moved}"
    old = saved["images"]
    if images.shape != old.shape:
        return f"wav shape {old.shape} -> {images.shape} {moved}"
    diff = np.abs(images - old).max(initial=0.0)
    scale = np.abs(old).max(initial=0.0)
    return f"wav={diff / scale if scale else diff:.2e} {moved}"


def _separate(mixture, rate, frame_len, k, method):
    """separate_file on mixture, written as a float32 WAV: the image WAVs'
    bytes, concatenated, their samples, (K, n, M), and the peak bytes
    the call allocated, by tracemalloc."""
    config = RunConfig(method=method, iterations=ITERATIONS, threads=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixture.wav"
        write_wav(path, AudioBuffer(rate, mixture))
        tracemalloc.start()
        try:
            report = separate_file(path, k, config, StftConfig(frame_len), out_dir=tmp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        files = [Path(tmp) / name for name in report["outputs"]]
        wav = np.frombuffer(b"".join(f.read_bytes() for f in files), np.uint8)
        return wav, np.stack([read_wav(f).samples for f in files]), peak


def _line(args, head, fields, error, digest, compare):
    """Save one case (fields, or its error) with --save, and print its
    line: compare(saved) with --compare, else digest() or the error."""
    file = re.sub(r"[^\w.-]+", "_", head) + ".npz"
    if args.save is not None:
        np.savez(args.save / file, **(fields if error is None else {"error": error}))
    if args.compare is not None:
        with np.load(args.compare / file) as saved:
            if error is None and "error" not in saved:
                print(f"{head} {compare(saved)}")
                return
            old = str(saved["error"]) if "error" in saved else None
            print(f"{head} error {'same' if error == old else f'{old!r} -> {error!r}'}")
    elif error is not None:
        print(f"{head} error={error}")
    else:
        print(f"{head} {digest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, metavar="DIR")
    parser.add_argument("--compare", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    scenes = []
    for seed, (n_sources, n_noises, n_mics, frame_len) in enumerate(SCENES):
        spec = SceneSpec(
            n_sources=n_sources, n_noises=n_noises, n_mics=n_mics,
            duration_s=1.5, seed=seed,
        )
        mixture = synthesize(spec).mixture
        # The frame is named only where it is not 1024, so the 1024 scenes'
        # lines read the same in every checkout of this file.
        scene = f"{n_sources}/{n_mics}"
        if frame_len != 1024:
            scene += f"/{frame_len}"
        scenes.append((scene, spec, mixture, frame_len))
        for name, data in _inputs(mixture, frame_len).items():
            for method, k, threads in _cases(n_mics):
                head = (
                    f"scene={scene} input={name} "
                    f"method={method.value} K={k} threads={threads}"
                )
                config = RunConfig(method=method, iterations=ITERATIONS, threads=threads)
                res = error = None
                try:
                    res = run(data, k, config)
                # Any error is a result to compare, not a reason to stop.
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                fields = None if res is None else {
                    "mixing": res.mixing, "outputs": res.outputs,
                    "cost_trace": res.cost_trace,
                }
                _line(
                    args, head, fields, error,
                    lambda: (
                        f"mixing={_hash(res.mixing)} "
                        f"outputs={_hash(res.outputs)} "
                        f"matrices={_hash(res.demixing.matrices)} "
                        f"trace={_hash(res.cost_trace)}"
                    ),
                    lambda saved: _compare(res, saved),
                )
    for scene, spec, mixture, frame_len in scenes:
        k = spec.n_sources
        method = FILE_METHODS[(k, spec.n_mics)]
        head = f"scene={scene} separate_file method={method.value} K={k} threads=1"
        wav = images = peak = error = None
        try:
            wav, images, peak = _separate(
                mixture, spec.sample_rate, frame_len, k, method
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        _line(
            args, head, {"wav": wav, "images": images, "peak": peak}, error,
            lambda: f"wav={_hash(wav)} peak={peak / 1e6:.3f}",
            lambda saved: _wav_change(wav, images, peak, saved),
        )


if __name__ == "__main__":
    main()
