"""Benchmark harness: scene grids, per-method SDR and real-time factors.

Every cell of a grid fixes (K, L, M, input SINR); for each of `trials`
scenes (seeded base_seed + trial) all requested methods separate the
same mixture and are scored with best-permutation SDR against the true
target images. The pseudo-method "mixture" scores the unprocessed
mixture itself and anchors the improvement scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidK
from .optimizer import RunConfig, check_targets, run
from .simulate import SceneSpec, rtf, sdr_set, synthesize
from .stft import RankOneImage, StftConfig, istft, stft

MIXTURE_METHOD = "mixture"
DEFAULT_METHODS = ("auxiva", "ip1", "ip2", "ip3", MIXTURE_METHOD)
CSV_COLUMNS = ("K", "L", "M", "sinr", "method", "mean_sdr", "mean_rtf", "trials")


@dataclass(frozen=True)
class BenchCell:
    """One grid point: source/noise/mic counts and input SINR."""

    n_sources: int
    n_noises: int
    n_mics: int
    sinr_db: float


def run_benchmark(
    cells,
    methods=DEFAULT_METHODS,
    trials=10,
    base_seed=0,
    duration_s=10.0,
    rt60_ms=300.0,
    sample_rate=16000,
    stft_config=StftConfig(),
    iterations=None,
    threads=1,
    log=None,
):
    """Run the grid; returns one row dict per (cell, method).

    iterations=None keeps each method's own default count
    (optimizer.DEFAULT_ITERATIONS). Every cell's scene and every method's
    RunConfig are validated before the first scene is rendered. A method
    that cannot extract the cell's K sources from its M channels
    (optimizer.check_targets) is skipped for that cell with a note on
    `log`.
    """
    configs = {
        m: RunConfig(method=m, iterations=iterations, threads=threads)
        for m in methods
        if m != MIXTURE_METHOD
    }
    plan = []
    for cell in cells:
        spec = SceneSpec(
            n_sources=cell.n_sources,
            n_noises=cell.n_noises,
            n_mics=cell.n_mics,
            sinr_db=cell.sinr_db,
            rt60_ms=rt60_ms,
            sample_rate=sample_rate,
            duration_s=duration_s,
            seed=base_seed,
        )
        usable = list(methods)
        for m, config in configs.items():
            try:
                check_targets(config.method, cell.n_sources, cell.n_mics)
            except InvalidK as exc:
                usable = [u for u in usable if u != m]
                if log is not None:
                    cell_km = f"K={cell.n_sources}, M={cell.n_mics}"
                    print(f"note: skipping {m} for {cell_km}: {exc}", file=log)
        plan.append((cell, spec, usable))

    rows = []
    for cell, spec, usable in plan:
        scores = {m: [] for m in usable}
        times = {m: [] for m in usable}
        for trial in range(trials):
            scene = synthesize(replace(spec, seed=base_seed + trial))
            refs = scene.target_images
            n = scene.mixture.shape[0]
            mix_spec = stft(scene.mixture, stft_config)
            for method in usable:
                if method == MIXTURE_METHOD:
                    ests = np.broadcast_to(scene.mixture, refs.shape)
                    scores[method].append(sdr_set(refs, ests).mean)
                    times[method].append(0.0)
                    continue
                result = run(mix_spec, cell.n_sources, configs[method])
                ests = np.stack(
                    [
                        istft(RankOneImage(a, s), stft_config, length=n)
                        for a, s in zip(result.mixing, result.outputs)
                    ]
                )
                scores[method].append(sdr_set(refs, ests).mean)
                times[method].append(rtf(result.wall_time, spec.duration_s))
        for method in usable:
            rows.append(
                {
                    "K": cell.n_sources,
                    "L": cell.n_noises,
                    "M": cell.n_mics,
                    "sinr": cell.sinr_db,
                    "method": method,
                    "mean_sdr": float(np.mean(scores[method])),
                    "mean_rtf": float(np.mean(times[method])),
                    "trials": trials,
                }
            )
    return rows


def _format_cell(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(rows, path):
    """Write benchmark rows with the fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])
