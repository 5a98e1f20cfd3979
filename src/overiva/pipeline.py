"""File-level separation workflow shared by the CLI and demo scripts."""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .errors import NoConvergence
from .io import AudioBuffer, read_wav, write_wav
from .optimizer import RunConfig, run
from .simulate import rtf
from .stft import RankOneImage, StftConfig, istft, stft

# Relative cost increases above this are treated as a failed descent.
MONOTONE_RTOL = 1e-8


def separate_buffer(buffer, n_targets, run_config=RunConfig(), stft_config=StftConfig()):
    """Separate an AudioBuffer; returns ([AudioBuffer images], SeparationResult).

    Each image is the target's multichannel spatial image on the array,
    synthesized back to the input length.
    """
    result = run(stft(buffer.samples, stft_config), n_targets, run_config)
    # No reference to the spectrogram outlives run(), so synthesis does
    # not hold it next to the image factors; no dense image is formed.
    images = [
        AudioBuffer(
            buffer.sample_rate,
            istft(RankOneImage(a, s), stft_config, length=buffer.n_samples),
        )
        for a, s in zip(result.mixing, result.outputs)
    ]
    return images, result


def verify_monotone_trace(cost_trace, rtol=MONOTONE_RTOL):
    """Raise NoConvergence if the cost trace increases beyond tolerance."""
    trace = np.asarray(cost_trace, dtype=np.float64)
    diffs = np.diff(trace)
    bad = diffs > rtol * np.abs(trace[:-1])
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NoConvergence(
            f"cost increased at iteration {i + 1}: "
            f"{trace[i]:.6e} -> {trace[i + 1]:.6e}"
        )


def separate_file(
    input_path,
    n_targets,
    run_config=RunConfig(),
    stft_config=StftConfig(),
    out_dir=".",
    json_path=None,
    verify_monotone=False,
):
    """Separate a WAV file into per-target image files plus a JSON report.

    Writes out_dir/source_<k>.wav (float32, full array image per target)
    and returns the report dict; verify_monotone additionally checks the
    cost trace for descent and fails the run if it increased.
    """
    buffer = read_wav(input_path)
    images, result = separate_buffer(buffer, n_targets, run_config, stft_config)
    if verify_monotone:
        verify_monotone_trace(result.cost_trace)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for k, image in enumerate(images):
        name = f"source_{k + 1}.wav"
        write_wav(os.path.join(out_dir, name), image)
        outputs.append(name)
    report = {
        "input": str(input_path),
        "out_dir": str(out_dir),
        "outputs": outputs,
        "method": run_config.method.value,
        "sources": n_targets,
        "iterations": int(len(result.cost_trace)),
        "sample_rate": buffer.sample_rate,
        "duration_s": buffer.duration,
        "cost_trace": [float(c) for c in result.cost_trace],
        "wall_time_s": result.wall_time,
        "rtf": rtf(result.wall_time, buffer.duration),
        "verify_monotone": bool(verify_monotone),
        "config": {
            **asdict(run_config),
            "method": run_config.method.value,
            "frame_len": stft_config.frame_len,
            "hop": stft_config.hop,
        },
    }
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report
