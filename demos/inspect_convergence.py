"""Watch the solver converge from the inside.

Three diagnostics tell the whole story. The objective trace is checked
for rises on this scene, and none occurs. Descent is not guaranteed
elsewhere: each sweep minimizes a surrogate carrying the absolute ridge
eps2, which the objective lacks, and the per-iteration rescale of the
targets is a symmetry of the objective but not of that surrogate, so at
the default ridge the trace can rise, most on quiet input (README
"Methods", ROADMAP item 2). The stationarity residual measures how
close the final filters are to a fixed point of the update equations.
run() keeps the orthogonal-complement background, which spans the right
subspace but is not normalized, so the residual is taken with that
background replaced by the fully normalized one (update_wz_full); the
target and background parts are printed apart. And during fast
background updates, the separated targets must stay uncorrelated with
the background outputs, a constraint the update enforces by
construction; the filters an ip3 run returns are checked against it.
"""

import numpy as np

from overiva.linalg import hermitian_transpose
from overiva.model import (
    noise_covariance,
    stationarity_residual,
    update_variances,
    weighted_covariance,
)
from overiva.optimizer import RunConfig, run, update_wz_full
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

# Reconstruct the converged surrogate and measure stationarity per bin,
# with the run's background block replaced by the normalized one.
gz = noise_covariance(x)
lam = update_variances(x, result.demixing.targets)
covs = np.stack([weighted_covariance(x, lam[k]) for k in range(n_targets)])
w = result.demixing.matrices.copy()
w[..., :, n_targets:] = update_wz_full(w, gz, n_targets)
res = stationarity_residual(w, covs, gz)
for part, dev in (("target", res.target), ("background", res.noise)):
    print(
        f"stationarity residual, {part}: median {np.median(dev):.2e}, "
        f"worst bin {dev.max():.2e}"
    )

# ip3 refreshes the background after every target row, so the last step
# of each sweep leaves the targets uncorrelated with the background
# outputs, W_s^H G_z W_z = 0; the per-iteration rescale only scales W_s,
# so the returned state still holds it at roundoff level.
w3 = run(x, n_targets, RunConfig(method="ip3", iterations=50)).demixing.matrices
cross = (
    hermitian_transpose(w3[..., :, :n_targets])
    @ noise_covariance(x)
    @ w3[..., :, n_targets:]
)
print(f"worst target/background correlation after ip3: {np.abs(cross).max():.2e}")
