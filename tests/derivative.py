"""The spectral derivative the tests take of grid samples."""
import numpy as np


def ddx(grid, values):
    """Spectral d/dx of grid samples: irfft(ik * rfft(values)), with the
    grid's derivative symbol ik (Nyquist bin zeroed)."""
    sp = grid.spectral
    return np.fft.irfft(sp.ik * np.fft.rfft(values), n=sp.n)
