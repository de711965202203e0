"""Green kernel and inverse-Helmholtz convolution operators.

Q = (1 - alpha^2 d_xx)^{-1} acts by convolution with the exponential
kernel p(x) = exp(-|x|/alpha)/(2*alpha).  On the periodic grid the
Fourier-symbol implementation below is exactly the convolution with the
periodized kernel; for L >> alpha that is indistinguishable from the
whole-line operator.

The solver reads the NonlocalOperator's symbols of Q and d_x Q; the
inequality checks apply Q and the one-sided kernel pair to grid samples,
plain arrays in and out (core.Field checks the datum they come from).
green_kernel evaluates p in real space, as an independent check of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import Grid, Parameters

__all__ = ["NonlocalOperator", "make_operator", "green_kernel"]


def green_kernel(x, params: Parameters):
    """Kernel p(x) = exp(-|x|/alpha)/(2*alpha) of the inverse Helmholtz
    operator; unit mass on the line."""
    a = params.alpha
    return np.exp(-np.abs(x) / a) / (2.0 * a)


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Precomputed Fourier symbols for Q and d_x Q on one grid and one
    alpha, which is all that fixes the operator.

    The symbol of Q is 1/(1 + alpha^2 xi^2): real, even, positive, <= 1,
    and exactly 1 at xi = 0 (the kernel has unit mass).  d_x Q carries the
    extra i*xi factor, with the Nyquist bin zeroed to match the spectral
    derivative convention.
    """

    grid: Grid
    alpha: float
    symbol_q: np.ndarray = dc_field(init=False, repr=False)
    symbol_dq: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        sp = self.grid.spectral
        sym_q = 1.0 / (1.0 + (self.alpha * sp.xi) ** 2)
        sym_dq = sp.ik * sym_q
        sym_q.setflags(write=False)
        sym_dq.setflags(write=False)
        object.__setattr__(self, "symbol_q", sym_q)
        object.__setattr__(self, "symbol_dq", sym_dq)

    def apply_q_values(self, values: np.ndarray) -> np.ndarray:
        """Q f of grid samples f, i.e. (1 - alpha^2 d_xx) g = f in the
        discrete Fourier sense; equivalently the periodized convolution p * f.

        The lemma suite does not call it (the full-kernel gap is the mean
        of the one-sided pair); the tests use it as the independent oracle
        of that gap, and the benchmark's tracer wraps it by name."""
        n = self.grid.n_points
        return np.fft.irfft(self.symbol_q * np.fft.rfft(values), n=n)

    def one_sided_convolutions(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """((p - alpha*d_x p) * f, (p + alpha*d_x p) * f) of grid samples f.

        These combinations are the one-sided exponential kernels
        2*p*1_{x>0} and 2*p*1_{x<0}; assembling them from Q and d_x Q keeps
        a single code path for all convolutions.  Q f and d_x Q f come from
        one rfft and one 2-row irfft.
        """
        fh = np.fft.rfft(values)
        qf, dqf = np.fft.irfft(
            np.array([self.symbol_q * fh, self.symbol_dq * fh]), n=self.grid.n_points
        )
        return qf - self.alpha * dqf, qf + self.alpha * dqf


def make_operator(grid: Grid, params: Parameters) -> NonlocalOperator:
    return NonlocalOperator(grid, params.alpha)
