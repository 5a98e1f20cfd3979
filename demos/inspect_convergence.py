"""Watch the solver converge from the inside.

Three diagnostics tell the whole story. The objective trace must never
increase: each sweep minimizes an exact upper bound of the objective.
The stationarity residual measures how close the final filters are to a
fixed point of the update equations. And during fast background
updates, the separated targets must stay uncorrelated with the
background outputs, a constraint the update enforces by construction;
a probe hook verifies it after every refresh.
"""

import numpy as np

from overiva.linalg import hermitian_transpose
from overiva.model import (
    demix,
    noise_covariance,
    stationarity_residual,
    update_variances,
    weighted_covariance,
)
from overiva.optimizer import RunConfig, run
from overiva.pipeline import verify_monotone_trace
from overiva.simulate import SceneSpec, synthesize
from overiva.stft import StftConfig, stft

spec = SceneSpec(
    n_sources=2,
    n_noises=2,
    n_mics=4,
    rt60_ms=120.0,
    sample_rate=8000,
    duration_s=4.0,
    seed=2,
)
x = stft(synthesize(spec).mixture, StftConfig(1024, 256))
n_targets = spec.n_sources

result = run(x, n_targets, RunConfig(method="ip1", iterations=50))
trace = np.asarray(result.cost_trace)
verify_monotone_trace(trace)
print(f"objective: {trace[0]:.1f} -> {trace[-1]:.1f} over {trace.size - 1} sweeps")
print(f"no sweep increased it: worst change {np.diff(trace).max():.3e}")

# Reconstruct the converged surrogate and measure stationarity per bin.
w = result.demixing
targets = demix(x, w, n_targets).transpose(2, 0, 1)
lam = update_variances(targets)
covs = np.stack([weighted_covariance(x, lam[k]) for k in range(n_targets)])
res = stationarity_residual(w.matrices, covs, noise_covariance(x))
print(
    f"stationarity residual: median {np.median(res.combined):.2e}, "
    f"worst bin {res.combined.max():.2e}"
)

# Rerun in fast mode with a probe on every background refresh: the
# cross-correlation between target filters and background block stays
# at roundoff level throughout.
worst = 0.0


def probe(w_chunk, noise_cov_chunk):
    global worst
    ws = w_chunk[..., :, :n_targets]
    wz = w_chunk[..., :, n_targets:]
    cross = hermitian_transpose(ws) @ noise_cov_chunk @ wz
    worst = max(worst, float(np.abs(cross).max()))


run(x, n_targets, RunConfig(method="ip3", iterations=50), on_wz_update=probe)
print(f"worst target/background correlation across all refreshes: {worst:.2e}")
