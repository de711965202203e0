"""One random band-limited draw, made the direct way the tests check
random_band_limited against."""
import numpy as np


def full_row_draw(rng, grid, n_modes=30, max_mode=80):
    """(row, samples) of one draw: n_modes coefficients on the bins
    1..max_mode, every bin of the row damped by exp(-bin/(max_mode/2)),
    and the row's irfft, both before division by the samples' peak.
    The RNG draws come in random_band_limited's order."""
    row = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    modes = rng.integers(1, max_mode + 1, size=n_modes)
    row[modes] = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    row *= np.exp(-np.arange(row.size) / (max_mode / 2.0))
    return row, np.fft.irfft(row, n=grid.n_points)
