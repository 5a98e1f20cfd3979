"""Print one line of output hashes per run() case, to diff two checkouts.

    python tools/parity_digest.py > digest.txt

Run it on a parent commit and on a change, on the same machine, and diff
the two files: a line that differs names the case whose results moved.
Each line holds the first 16 hex digits of the SHA-256 of run()'s
mixing, outputs, demixing.matrices and cost_trace, or the class and
message of the error the case raised. The bits depend on the BLAS
build, so digests are compared only between runs on one machine.

Cases: every method at K = 1 and 2 (ip2 at K = 1 only, auxiva also at
K = M), at threads 1 and 2, 6 iterations each, on three synthesized
scenes (K/M = 1/7, 2/6 and 2/8; 1.5 s; frame 1024, hop 256). Each scene
runs as it is, with bins 0-2 silent, and with those bins silent plus
microphone 1 copying microphone 0 in bin 5.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

# The checkout this file belongs to, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from overiva.optimizer import Method, RunConfig, run  # noqa: E402
from overiva.simulate import SceneSpec, synthesize  # noqa: E402
from overiva.stft import StftConfig, stft  # noqa: E402

SCENES = [(1, 6, 7), (2, 4, 6), (2, 6, 8)]  # (K, noises, M)
STFT = StftConfig(1024, 256)
ITERATIONS = 6


def _hash(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _inputs(n_sources, n_noises, n_mics, seed):
    spec = SceneSpec(
        n_sources=n_sources, n_noises=n_noises, n_mics=n_mics,
        duration_s=1.5, seed=seed,
    )
    data = np.array(stft(synthesize(spec).mixture, STFT).data)
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


def main():
    for seed, (n_sources, n_noises, n_mics) in enumerate(SCENES):
        for name, data in _inputs(n_sources, n_noises, n_mics, seed).items():
            for method, k, threads in _cases(n_mics):
                head = (
                    f"scene={n_sources}/{n_mics} input={name} "
                    f"method={method.value} K={k} threads={threads}"
                )
                config = RunConfig(method=method, iterations=ITERATIONS, threads=threads)
                try:
                    res = run(data, k, config)
                # Any error is a result to compare, not a reason to stop.
                except Exception as exc:
                    print(f"{head} error={type(exc).__name__}: {exc}")
                    continue
                print(
                    f"{head} mixing={_hash(res.mixing)} outputs={_hash(res.outputs)} "
                    f"matrices={_hash(res.demixing.matrices)} "
                    f"trace={_hash(res.cost_trace)}"
                )


if __name__ == "__main__":
    main()
