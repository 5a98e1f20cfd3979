"""Workload definitions: scene shape, solver configuration, output floor.

Every workload renders SCENES_PER_RUN scenes from the run's seed and
separates them with `overiva.pipeline.separate_file` in a closed loop.
`sdr_floor_db` is the lowest SDR gain a single separation may show
before its output check fails; each floor sits well below the lowest
gain measured over many seeds on the code the benchmark was defined
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SCENES_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sources: int
    n_noises: int
    n_mics: int
    duration_s: float
    method: str
    iterations: int
    threads: int
    sdr_floor_db: float
    frame_len: int = 4096
    hop: int = 1024
    # Thread count whose images this workload's images must equal bit
    # for bit (the README's "bit-identical across threads" guarantee).
    reference_threads: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract1-ip2",
            "K=1 ip2 on a 7-mic array: front end (stft, istft, io) and "
            "gev_largest carry the most weight; the sweep kernels the least",
            n_sources=1, n_noises=6, n_mics=7, duration_s=10.0,
            method="ip2", iterations=3, threads=1, sdr_floor_db=3.0,
        ),
        Workload(
            "extract2-ip1",
            "K=2 ip1 on 6 mics: covariance-bound, weighted_covariance and "
            "cost_total dominate, front end is small; threads=2 images must "
            "match bit for bit",
            n_sources=2, n_noises=4, n_mics=6, duration_s=5.0,
            method="ip1", iterations=15, threads=1, sdr_floor_db=2.0,
            reference_threads=2,
        ),
        Workload(
            "burst8-auxiva",
            "auxiva on 8 mics with few frames: per-bin kernels (lu_solve, "
            "ip0_update_row, logabsdet) dominate over covariances",
            n_sources=2, n_noises=6, n_mics=8, duration_s=3.0,
            method="auxiva", iterations=25, threads=1, sdr_floor_db=2.0,
            frame_len=2048, hop=512,
        ),
    )
}

# A scene small enough for the benchmark's own tests to run in seconds.
SMOKE = Workload(
    "smoke",
    "tiny scene for the benchmark's own tests",
    n_sources=1, n_noises=2, n_mics=3, duration_s=1.0,
    method="ip1", iterations=3, threads=2, sdr_floor_db=-20.0,
    frame_len=512, hop=128, reference_threads=1,
)


def get(name):
    if name == SMOKE.name:
        return SMOKE
    return WORKLOADS[name]
