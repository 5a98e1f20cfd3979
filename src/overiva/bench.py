"""Benchmark harness: scene grids, per-method SDR and real-time factors.

Every cell of a grid is a SceneSpec. Trial t renders it at seed
spec.seed + t; all requested methods separate the same mixture with
pipeline.separate_buffer, the path `overiva separate` runs, and are
scored with best-permutation SDR against the true target images. The
pseudo-method "mixture" scores the unprocessed mixture itself and
anchors the improvement scale.
"""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

from .errors import InvalidK, InvalidSpec, SignalTooShort, TooManySources, check_number
from .io import AudioBuffer
from .optimizer import RunConfig, check_targets
from .pipeline import separate_buffer
from .simulate import (
    MAX_PERMUTATION_SOURCES,
    _check_model_rate,
    rtf,
    sdr_set,
    synthesize,
)
from .stft import StftConfig, _require_one_frame

MIXTURE_METHOD = "mixture"
DEFAULT_METHODS = ("auxiva", "ip1", "ip2", "ip3", MIXTURE_METHOD)
CSV_COLUMNS = ("K", "L", "M", "sinr", "method", "mean_sdr", "mean_rtf", "trials")


def run_benchmark(
    specs,
    methods=DEFAULT_METHODS,
    trials=10,
    stft_config=StftConfig(),
    iterations=None,
    threads=1,
    log=None,
):
    """Run a grid of SceneSpecs; returns one row dict per (spec, method).

    iterations=None keeps each method's own default count
    (optimizer.DEFAULT_ITERATIONS). Before the first scene is rendered,
    trials other than an integer >= 1 (not a bool) and a method named
    twice raise InvalidSpec, every method's RunConfig is
    validated, a spec with more sources than simulate.sdr_set scores
    (MAX_PERMUTATION_SOURCES) raises TooManySources, one whose rate
    the built-in source model cannot draw at raises InvalidSpec
    (simulate._check_model_rate), and one whose scene is shorter than
    one frame of stft_config raises SignalTooShort naming the cell. A
    method that
    cannot extract a spec's K sources from its M channels
    (optimizer.check_targets) is skipped for that spec with a note on
    `log`.
    """
    trials = check_number("trials", trials, integer=True, error=InvalidSpec)
    if trials < 1:
        raise InvalidSpec(f"trials must be an integer >= 1, got {trials}")
    methods = list(methods)
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise InvalidSpec(f"methods named more than once: {', '.join(repeated)}")
    configs = {
        m: RunConfig(method=m, iterations=iterations, threads=threads)
        for m in methods
        if m != MIXTURE_METHOD
    }
    plan = []
    for spec in specs:
        if spec.n_sources > MAX_PERMUTATION_SOURCES:
            raise TooManySources(
                f"cell K={spec.n_sources}: SDR is scored over at most "
                f"{MAX_PERMUTATION_SOURCES} sources"
            )
        _check_model_rate(spec.sample_rate)
        try:
            _require_one_frame(spec.n_samples, stft_config)
        except SignalTooShort as exc:
            cell = f"K={spec.n_sources}, L={spec.n_noises}, M={spec.n_mics}"
            raise SignalTooShort(f"cell {cell}: {exc}") from None
        usable = list(methods)
        for m, config in configs.items():
            try:
                check_targets(config.method, spec.n_sources, spec.n_mics)
            except InvalidK as exc:
                usable.remove(m)
                if log is not None:
                    cell_km = f"K={spec.n_sources}, M={spec.n_mics}"
                    print(f"note: skipping {m} for {cell_km}: {exc}", file=log)
        plan.append((spec, usable))

    rows = []
    for spec, usable in plan:
        scores = {m: [] for m in usable}
        times = {m: [] for m in usable}
        for trial in range(trials):
            scene = synthesize(replace(spec, seed=spec.seed + trial))
            refs = scene.target_images
            mixture = AudioBuffer(spec.sample_rate, scene.mixture)
            for method in usable:
                if method == MIXTURE_METHOD:
                    ests = np.broadcast_to(scene.mixture, refs.shape)
                    scores[method].append(sdr_set(refs, ests).mean)
                    times[method].append(0.0)
                    continue
                images, result = separate_buffer(
                    mixture, spec.n_sources, configs[method], stft_config
                )
                ests = np.stack([image.samples for image in images])
                scores[method].append(sdr_set(refs, ests).mean)
                times[method].append(rtf(result.wall_time, spec.duration_s))
        for method in usable:
            rows.append(
                {
                    "K": spec.n_sources,
                    "L": spec.n_noises,
                    "M": spec.n_mics,
                    "sinr": spec.sinr_db,
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
