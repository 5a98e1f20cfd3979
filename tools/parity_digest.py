"""Print one line of output hashes per run() case, to diff two checkouts.

    python tools/parity_digest.py > digest.txt
    python tools/parity_digest.py --save DIR
    python tools/parity_digest.py --compare DIR

Run it on a parent commit and on a change, on the same machine, and diff
the two files: a line that differs names the case whose results moved.
Each line holds the first 16 hex digits of the SHA-256 of run()'s
mixing, outputs, demixing.matrices and cost_trace, or the class and
message of the error the case raised. The bits depend on the BLAS
build, so digests are compared only between runs on one machine.

Where a change moves results within a tolerance, --save DIR also stores
each case's image factors and cost trace (or its error) in DIR, one
.npz file per case, and --compare DIR prints, in place of the hashes,
each case's largest change against those files: of the images, relative
to the saved images' largest magnitude, and of the cost trace, relative
to each saved value. The images are compared, not the outputs, because
a filter's phase is arbitrary. The file sits in its checkout's tools/
and runs that checkout's src/, so save with a copy of it placed in the
other checkout.

Cases: every method at K = 1 and 2 (ip2 at K = 1 only, auxiva also at
K = M), at threads 1 and 2, 6 iterations each, on four synthesized
1.5 s scenes: K/M = 1/7, 2/6 and 2/8 at frame 1024, and 1/7 at frame
4096, whose 2049 bins run() sweeps in two chunks even at threads 1
(optimizer._bin_chunks); hop is a quarter frame. Each scene runs as it
is, with bins 0-2 silent, and with those bins silent plus microphone 1
copying microphone 0 in bin 5.
"""

import argparse
import hashlib
import re
import sys
from pathlib import Path

import numpy as np

# The checkout this file belongs to, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from overiva.optimizer import Method, RunConfig, run  # noqa: E402
from overiva.simulate import SceneSpec, synthesize  # noqa: E402
from overiva.stft import StftConfig, stft  # noqa: E402

SCENES = [(1, 6, 7, 1024), (2, 4, 6, 1024), (2, 6, 8, 1024), (1, 6, 7, 4096)]
ITERATIONS = 6


def _hash(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _inputs(n_sources, n_noises, n_mics, frame_len, seed):
    spec = SceneSpec(
        n_sources=n_sources, n_noises=n_noises, n_mics=n_mics,
        duration_s=1.5, seed=seed,
    )
    data = np.array(stft(synthesize(spec).mixture, StftConfig(frame_len)).data)
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
    """Largest |image - saved image| over the largest saved |image|, one
    target at a time: an image is outputs[k, t, f] * mixing[k, :, f]."""
    diff = scale = 0.0
    for k in range(len(mixing)):
        new = outputs[k][:, None] * mixing[k][None]
        old = saved["outputs"][k][:, None] * saved["mixing"][k][None]
        diff = max(diff, np.abs(new - old).max(initial=0.0))
        scale = max(scale, np.abs(old).max(initial=0.0))
    return diff / scale if scale else diff


def _compare(head, res, error, saved):
    """The comparison line of one case against its saved file."""
    if error is not None or "error" in saved:
        old = str(saved["error"]) if "error" in saved else None
        return f"{head} error {'same' if error == old else f'{old!r} -> {error!r}'}"
    images = _image_change(res.mixing, res.outputs, saved)
    old = saved["cost_trace"]
    trace = np.max(np.abs(res.cost_trace - old) / np.abs(old), initial=0.0)
    return f"{head} images={images:.2e} trace={trace:.2e}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, metavar="DIR")
    parser.add_argument("--compare", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    for seed, (n_sources, n_noises, n_mics, frame_len) in enumerate(SCENES):
        inputs = _inputs(n_sources, n_noises, n_mics, frame_len, seed)
        # The frame is named only where it is not 1024, so the 1024 scenes'
        # lines read the same in every checkout of this file.
        scene = f"{n_sources}/{n_mics}"
        if frame_len != 1024:
            scene += f"/{frame_len}"
        for name, data in inputs.items():
            for method, k, threads in _cases(n_mics):
                head = (
                    f"scene={scene} input={name} "
                    f"method={method.value} K={k} threads={threads}"
                )
                file = re.sub(r"[^\w.-]+", "_", head) + ".npz"
                config = RunConfig(method=method, iterations=ITERATIONS, threads=threads)
                res = error = None
                try:
                    res = run(data, k, config)
                # Any error is a result to compare, not a reason to stop.
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                if args.save is not None:
                    fields = (
                        {"error": error} if res is None else {
                            "mixing": res.mixing, "outputs": res.outputs,
                            "cost_trace": res.cost_trace,
                        }
                    )
                    np.savez(args.save / file, **fields)
                if args.compare is not None:
                    with np.load(args.compare / file) as saved:
                        print(_compare(head, res, error, saved))
                elif error is not None:
                    print(f"{head} error={error}")
                else:
                    print(
                        f"{head} mixing={_hash(res.mixing)} "
                        f"outputs={_hash(res.outputs)} "
                        f"matrices={_hash(res.demixing.matrices)} "
                        f"trace={_hash(res.cost_trace)}"
                    )


if __name__ == "__main__":
    main()
