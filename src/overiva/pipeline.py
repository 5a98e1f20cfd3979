"""File-level separation workflow shared by the CLI and demo scripts."""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .errors import NoConvergence
from .io import AudioBuffer, read_wav, write_wav
from .optimizer import RunConfig, run
from .stft import RankOneImage, StftConfig, istft, stft

# Relative cost increases above this are treated as a failed descent.
MONOTONE_RTOL = 1e-8


def _separate(read, n_targets, run_config, stft_config):
    """Separate the AudioBuffer that read() returns.

    Returns the SeparationResult, the buffer's sample rate and length,
    and an iterator over the targets' image AudioBuffers, each
    synthesized from run()'s factors (no dense image is formed) when the
    iterator reaches it. The samples are referenced here only until the
    spectrogram exists, and the spectrogram only until run() returns.
    """
    buffer = read()
    rate, n_samples = buffer.sample_rate, buffer.n_samples
    spec = stft(buffer.samples, stft_config)
    del buffer
    result = run(spec, n_targets, run_config)
    del spec
    images = (
        AudioBuffer(rate, istft(RankOneImage(a, s), stft_config, length=n_samples))
        for a, s in zip(result.mixing, result.outputs)
    )
    return result, rate, n_samples, images


def separate_buffer(buffer, n_targets, run_config=RunConfig(), stft_config=StftConfig()):
    """Separate an AudioBuffer; returns ([AudioBuffer images], SeparationResult).

    Each image is the target's multichannel spatial image on the array,
    synthesized back to the input length.
    """
    result, _, _, images = _separate(
        lambda: buffer, n_targets, run_config, stft_config
    )
    return list(images), result


def verify_monotone_trace(cost_trace, rtol=MONOTONE_RTOL):
    """Raise NoConvergence naming the first iteration whose cost is NaN
    or infinite or exceeds the previous one beyond tolerance."""
    trace = np.asarray(cost_trace, dtype=np.float64)
    # The first entry is compared with itself. Written so that NaN fails it.
    prev = np.concatenate([trace[:1], trace[:-1]])
    ok = trace - prev <= rtol * np.abs(prev)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise NoConvergence(
            f"cost increased or is not finite at iteration {i}: "
            f"{prev[i]:.6e} -> {trace[i]:.6e}"
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
    cost trace for descent and fails the run, before any file is
    written, if it increased.

    At its peak the call holds the spectrogram and run()'s block-sized
    working arrays: the samples are dropped once the spectrogram exists,
    the spectrogram once run() returns, and the images are synthesized
    and written one at a time from the run's factors.
    """
    result, rate, n_samples, images = _separate(
        lambda: read_wav(input_path), n_targets, run_config, stft_config
    )
    if verify_monotone:
        verify_monotone_trace(result.cost_trace)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for k, image in enumerate(images):
        name = f"source_{k + 1}.wav"
        write_wav(os.path.join(out_dir, name), image)
        outputs.append(name)
    duration = n_samples / rate
    report = {
        "input": str(input_path),
        "out_dir": str(out_dir),
        "outputs": outputs,
        "method": run_config.method.value,
        "sources": result.demixing.n_targets,
        "iterations": int(len(result.cost_trace)),
        "sample_rate": rate,
        "duration_s": duration,
        "cost_trace": [float(c) for c in result.cost_trace],
        "wall_time_s": result.wall_time,
        # stft refused a signal shorter than one frame, so duration > 0.
        "rtf": result.wall_time / duration,
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
