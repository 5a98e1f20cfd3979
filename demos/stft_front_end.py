"""The analysis-synthesis front end in isolation.

Separation happens on short-time spectra, so everything downstream
depends on the transform being invertible and energy-preserving. The
square-root Hann window at quarter-frame hop tiles to an exactly
constant overlap sum, which is why the round trip is exact to roundoff
at any signal length, and the per-frame Parseval identity holds to
machine precision.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from overiva.stft import StftConfig, istft, n_frames_for, sqrt_hann_window, stft

cfg = StftConfig(frame_len=1024, hop=256)
win = sqrt_hann_window(cfg.frame_len)

# Overlapped squared windows sum to a constant: four quarter-shifted
# copies add up to exactly 2 everywhere.
tiles = sum(
    np.roll(np.concatenate([win**2, np.zeros(cfg.frame_len)]), k * cfg.hop)
    for k in range(4)
)
core = tiles[cfg.frame_len - cfg.hop : cfg.frame_len]
print(f"overlap sum of squared windows: {core.min():.15f} .. {core.max():.15f}")

# Round trip on an awkward length (not a multiple of anything).
rng = np.random.default_rng(0)
x = rng.standard_normal((12345, 2))
spec = stft(x, cfg)
print(
    f"{x.shape[0]} samples x {x.shape[1]} channels -> "
    f"{spec.data.shape[0]} bins x {spec.data.shape[1]} frames "
    f"(n_frames_for agrees: {n_frames_for(x.shape[0], cfg) == spec.data.shape[1]})"
)
y = istft(spec, cfg, length=x.shape[0])
rel = np.sqrt(np.mean((y - x) ** 2) / np.mean(x**2))
print(f"round-trip relative RMS error: {rel:.3e}")

# Parseval per frame: windowed-frame energy equals the one-sided
# spectral sum with interior bins doubled. Frame t is the window times
# samples t * hop .. t * hop + frame_len - 1 of the padded channel.
padded = np.pad(x[:, 0], cfg.pad)
frames = sliding_window_view(padded, cfg.frame_len)[:: cfg.hop] * win
mags = np.abs(stft(x[:, 0], cfg).data[:, :, 0]) ** 2
weights = np.full(cfg.n_bins, 2.0)
weights[0] = weights[-1] = 1.0
spectral = (weights[:, None] * mags).sum(axis=0) / cfg.frame_len
err = np.abs(spectral - (frames**2).sum(axis=1)).max()
print(f"worst per-frame Parseval mismatch: {err:.3e}")
