"""Closed-loop measurement of separate_file: set-up, timed calls, checks.

Imported by run.py after it has pinned the BLAS thread count and put
the repository's ``src`` on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import time
import tracemalloc

import numpy as np
import scipy

import overiva
from overiva import optimizer, pipeline
from overiva.io import read_wav
from overiva.stft import StftConfig, stft

import scenes
import tracer
from workloads import SCENES_PER_RUN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# (module.function) names traced in --trace 1 runs, in report order.
TRACED = (
    "io.read_wav",
    "io.write_wav",
    "stft.stft",
    "stft.istft",
    "model.noise_covariance",
    "model.weighted_covariance",
    "model.update_variances",
    "model.cost_total",
    "linalg.lu_solve",
    "linalg.logabsdet",
    "linalg.gev_largest",
    "linalg.cholesky",
    "linalg.inv_sqrt_hermitian",
    "optimizer.run",
    "optimizer.ip0_update_row",
    "optimizer.update_wz_fast",
    "optimizer.update_wz_full",
    "optimizer.ip1_sweep",
    "optimizer.ip3_sweep",
    "optimizer.auxiva_sweep",
    "optimizer.ip2_update",
    "optimizer.projection_back",
    "pipeline.separate_file",
)

# Fewest closed-loop rounds in each timed loop, however short --seconds is.
MIN_ROUNDS = 3

# End-to-end metrics (--trace 0) and their units.
END_TO_END = {
    "separate_ref": "ref",
    "solver_ref": "ref",
    "sdr_gain_db": "dB",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    """Per-layer metric names (--trace 1) and their units, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "model.weighted_covariance.gflops_computed": "GFLOP/s",
            "linalg.lu_solve.matrices": "count",
            "optimizer.run.iterations": "count",
            "optimizer.run.wall_time_coverage": "ratio",
            "trace.total_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class Probe:
    """A fixed NumPy kernel timed next to every timed call.

    The machine the benchmark runs on is shared, and its speed drifts by
    tens of percent over seconds to minutes. The probe does the kinds of
    work the package does (a batched covariance matmul, a frame FFT, a
    batched small solve) on fixed data, so the ratio of a call's time to
    the probe's time cancels most of that drift. One probe repeats the
    kernel REPEATS times (about 50 ms on a 2-core Xeon): a single ~13 ms
    kernel jitters too much to stand for a whole call.
    """

    REPEATS = 4

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1025, 80, 7)) + 1j * rng.standard_normal((1025, 80, 7))
        self.a = rng.standard_normal((2049, 7, 7)) + 4.0 * np.eye(7)
        self.frames = rng.standard_normal((16, 4096, 7))

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            self.x.transpose(0, 2, 1) @ np.conj(self.x)
            np.fft.rfft(self.frames, axis=1)
            np.linalg.solve(self.a, self.a[..., :1])
        return time.perf_counter() - t0


class CheckFailed(Exception):
    """A call returned, but its outputs are wrong."""


class Scene:
    """One rendered scene on disk and what its calls produced."""

    def __init__(self, workload, seed, index, workdir):
        self.dir = os.path.join(workdir, f"scene{index}")
        self.mix_path = os.path.join(self.dir, "mixture.wav")
        self.out_dir = os.path.join(self.dir, "out")
        self.json_path = os.path.join(self.dir, "report.json")
        t0 = time.perf_counter()
        rendered = scenes.render(
            workload.n_sources, workload.n_noises, workload.n_mics,
            workload.duration_s, seed=(seed, index),
        )
        os.makedirs(self.dir)
        scenes.write_wav(self.mix_path, rendered.mixture)
        self.render_s = time.perf_counter() - t0
        self.mixture = rendered.mixture
        self.targets = rendered.targets
        self.mixture_sdr = scenes.best_mean_sdr(
            self.targets, [self.mixture] * len(self.targets)
        )
        self.spectrogram = None
        self.gains = []
        self.digests = []


class Bench:
    def __init__(self, workload):
        self.w = workload
        self.stft_config = StftConfig(workload.frame_len, workload.hop)
        self.config = self.run_config(workload.threads)
        self.attempted = 0
        self.failures = []
        self.probe = Probe()

    def run_config(self, threads):
        return optimizer.RunConfig(
            method=self.w.method, iterations=self.w.iterations, threads=threads
        )

    def fail(self, what):
        self.failures.append(what)

    def separate(self, scene, config=None):
        """One checked separate_file call; returns its seconds, or None."""
        shutil.rmtree(scene.out_dir, ignore_errors=True)
        if os.path.exists(scene.json_path):
            os.remove(scene.json_path)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            pipeline.separate_file(
                scene.mix_path, self.w.n_sources, config or self.config,
                self.stft_config, out_dir=scene.out_dir, json_path=scene.json_path,
            )
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(f"separate_file raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        try:
            gain, digest = self.check(scene)
        except CheckFailed as exc:
            self.fail(f"output check: {exc}")
            return None
        if config is None:
            scene.gains.append(gain)
            scene.digests.append(digest)
        self.last_digest = digest
        return seconds

    def check(self, scene):
        """Check one call's files; returns (SDR gain in dB, image hash)."""
        k = self.w.n_sources
        names = [f"source_{i + 1}.wav" for i in range(k)]
        found = sorted(os.listdir(scene.out_dir)) if os.path.isdir(scene.out_dir) else []
        if found != sorted(names):
            raise CheckFailed(f"expected files {names}, found {found}")
        paths = [os.path.join(scene.out_dir, n) for n in names]
        images = [scenes.read_wav(p) for p in paths]
        for name, img in zip(names, images):
            if img.shape != scene.mixture.shape:
                raise CheckFailed(f"{name} has shape {img.shape}, input {scene.mixture.shape}")
            if not np.all(np.isfinite(img)):
                raise CheckFailed(f"{name} has non-finite samples")
        try:
            with open(scene.json_path) as fh:
                iterations = json.load(fh).get("iterations")
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable JSON report: {exc}") from None
        if iterations != self.w.iterations:
            raise CheckFailed(f"report says {iterations} iterations, configured {self.w.iterations}")
        gain = scenes.best_mean_sdr(scene.targets, images) - scene.mixture_sdr
        if not gain >= self.w.sdr_floor_db:
            raise CheckFailed(f"SDR gain {gain:.3f} dB below floor {self.w.sdr_floor_db} dB")
        return gain, scenes.file_digest(paths)

    def solve(self, scene):
        """One checked optimizer.run call on the scene's spectrogram."""
        if scene.spectrogram is None:
            samples = read_wav(scene.mix_path).samples
            scene.spectrogram = stft(samples, self.stft_config)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = optimizer.run(scene.spectrogram, self.w.n_sources, self.config)
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(f"optimizer.run raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        f, t, m = scene.spectrogram.data.shape
        images = np.asarray(result.images)
        if images.shape != (self.w.n_sources, f, t, m) or not np.all(np.isfinite(images)):
            self.fail(f"optimizer.run images: shape {images.shape} or non-finite")
            return None
        if len(result.cost_trace) != self.w.iterations:
            self.fail(f"optimizer.run made {len(result.cost_trace)} iterations")
            return None
        return seconds

    def loop(self, scenes_, seconds, solve):
        """Closed loop of rounds that fit in `seconds` (at least MIN_ROUNDS).

        Returns (separate_file, optimizer.run) lists of (call seconds,
        probe seconds), the probe time being the mean of the probes run
        just before and just after the call.
        """
        sep, sol = [], []
        calls = [(self.separate, sep)] + ([(self.solve, sol)] if solve else [])
        start = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - start
            # Stop when one more round of the average length would overrun.
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                break
            scene = scenes_[rounds % len(scenes_)]
            for fn, times in calls:
                before = self.probe()
                s = fn(scene)
                if s is not None:
                    times.append((s, (before + self.probe()) / 2))
            rounds += 1
        return sep, sol

    def peak_alloc(self, scene):
        """Peak bytes allocated during one separate_file call."""
        tracemalloc.start()
        try:
            ok = self.separate(scene) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak if ok else None


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _counters():
    """Hooks that tally per-call work counts, and the tally they fill."""
    tally = []  # (key, value) appends are safe from worker threads

    def covariance(args, kwargs, result):
        x = args[0] if args else kwargs["x"]
        f, t, m = getattr(x, "data", x).shape
        tally.append(("flops", 8.0 * f * t * m * m))

    def lu(args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        tally.append(("lu_matrices", int(np.prod(np.shape(a)[:-2]))))

    def run(args, kwargs, result):
        tally.append(("iterations", len(result.cost_trace)))
        tally.append(("wall_time", result.wall_time))

    hooks = {
        "model.weighted_covariance": covariance,
        "linalg.lu_solve": lu,
        "optimizer.run": run,
    }
    return hooks, tally


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def traced_metrics(bench, scene_list, seconds):
    """Untraced then traced closed loops; returns (metrics, detail)."""
    untraced = [s for s, _ in bench.loop(scene_list, seconds / 2, solve=False)[0]]
    hooks, tally = _counters()
    with tracer.Tracer(
        "overiva", TRACED, hooks=hooks, fork_parents=("optimizer.run",)
    ) as tr:
        traced = [s for s, _ in bench.loop(scene_list, seconds / 2, solve=False)[0]]
    summary = tracer.summarize(tr.spans, TRACED)
    total = tracer.root_total(tr.spans)
    n_roots = sum(1 for s in tr.spans if s.parent is None)
    sums = {}
    for key, value in tally:
        sums[key] = sums.get(key, 0) + value
    per_call = max(n_roots, 1)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = summary[name]["self_s"] / per_call
        metrics[f"{name}.calls"] = summary[name]["calls"] / per_call
    wc_self = summary["model.weighted_covariance"]["self_s"]
    run_total = summary["optimizer.run"]["total_s"]
    metrics["model.weighted_covariance.gflops_computed"] = (
        sums.get("flops", 0.0) / wc_self / 1e9 if wc_self > 0 else 0.0
    )
    metrics["linalg.lu_solve.matrices"] = sums.get("lu_matrices", 0) / per_call
    metrics["optimizer.run.iterations"] = sums.get("iterations", 0) / per_call
    metrics["optimizer.run.wall_time_coverage"] = (
        sums.get("wall_time", 0.0) / run_total if run_total > 0 else 0.0
    )
    metrics["trace.total_s"] = total / per_call
    metrics["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
    self_sum = sum(row["self_s"] for row in summary.values())
    if abs(self_sum - total) > 1e-6 * total:
        bench.fail(f"self times sum to {self_sum!r} s, traced total is {total!r} s")
    detail = {
        "absent": tr.absent,
        "untraced_separate_s": untraced,
        "traced_separate_s": traced,
        "spans": len(tr.spans),
        "self_sum_s": self_sum,
        "traced_total_s": total,
    }
    return metrics, detail


def _ratio_median(samples):
    return _median([s / p for s, p in samples])


def timed_metrics(bench, scene_list, seconds, setup_s):
    """End-to-end closed loop and a tracemalloc run; returns (metrics, detail)."""
    sep, sol = bench.loop(scene_list, seconds, solve=True)
    peak = bench.peak_alloc(scene_list[0])
    gains = [sc.gains[0] for sc in scene_list if sc.gains]
    metrics = {
        "separate_ref": _ratio_median(sep),
        "solver_ref": _ratio_median(sol),
        "sdr_gain_db": float(np.mean(gains)) if len(gains) == len(scene_list) else float("nan"),
        "peak_alloc_mb": peak / 1e6 if peak is not None else float("nan"),
        "setup_s": setup_s,
    }
    detail = {
        "separate_s": _median([s for s, _ in sep]),
        "solver_s": _median([s for s, _ in sol]),
        "probe_s": _median([p for _, p in sep + sol]),
        "separate_calls": sep,
        "solver_calls": sol,
        "peak_alloc_bytes": peak,
    }
    return metrics, detail


def run(workload, seed, seconds, trace, import_s):
    """Set up, measure and check one run; returns the result record."""
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(overiva.__file__).startswith(src + os.sep):
        raise RuntimeError(f"overiva imported from {overiva.__file__}, not {src}")
    workdir = os.path.join(WORK_ROOT, f"{workload.name}-{seed}-{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    bench = Bench(workload)
    try:
        scene_list, setups = [], []
        for i in range(SCENES_PER_RUN):
            scene = Scene(workload, seed, i, workdir)
            warm = bench.separate(scene)
            setups.append(scene.render_s + (warm or 0.0))
            scene_list.append(scene)
        setup_s = import_s + statistics.median(setups)
        if trace:
            metrics, detail = traced_metrics(bench, scene_list, seconds)
            units = per_layer_units()
        else:
            metrics, detail = timed_metrics(bench, scene_list, seconds, setup_s)
            units = END_TO_END
        if workload.reference_threads is not None:
            ref = bench.run_config(workload.reference_threads)
            if bench.separate(scene_list[0], ref) is not None and (
                bench.last_digest not in scene_list[0].digests
            ):
                bench.fail(
                    f"images with threads={workload.reference_threads} differ "
                    f"from threads={workload.threads}"
                )
        for i, sc in enumerate(scene_list):
            if len(set(sc.digests)) > 1:
                bench.fail(f"scene {i}: repeated calls gave {len(set(sc.digests))} image hashes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    finite = all(np.isfinite(v) for v in metrics.values())
    failed = len(bench.failures)
    detail.update(
        {
            "workload": workload.__dict__,
            "environment": environment(seed),
            "import_s": import_s,
            "setup_runs_s": setups,
            "failed_frac": failed / bench.attempted,
            "failures": bench.failures[:20],
            "image_sha256": [sc.digests[0] if sc.digests else None for sc in scene_list],
            "sdr_gain_db_per_scene": [sc.gains[0] if sc.gains else None for sc in scene_list],
        }
    )
    return {
        "correct": failed == 0 and finite,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }
