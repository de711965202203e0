"""Inverse-Helmholtz convolution operators and their Fourier symbols.

Q = (1 - alpha^2 d_xx)^{-1} acts by convolution with the exponential
kernel p(x) = exp(-|x|/alpha)/(2*alpha).  On the periodic grid the
Fourier-symbol implementation below is exactly the convolution with the
periodized kernel; for L >> alpha that is indistinguishable from the
whole-line operator.

A NonlocalOperator depends only on (grid, alpha), so each user builds
its own: the solver reads the symbols of Q and d_x Q, advect the symbol
of 1 - alpha^2 d_xx (u_hat to m_hat), and the inequality checks apply
the one-sided kernel pair to grid samples, plain arrays in and out
(core.Field checks the datum they come from).  The tests evaluate p in
real space, as an independent check of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import Grid, Parameters

__all__ = ["NonlocalOperator", "make_operator"]


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Precomputed Fourier symbols of 1 - alpha^2 d_xx, Q and d_x Q on one
    grid and one alpha, which is all that fixes the operator.

    The symbol of 1 - alpha^2 d_xx is 1 + alpha^2 xi^2 and that of Q its
    reciprocal: real, even, positive, <= 1, and exactly 1 at xi = 0 (the
    kernel has unit mass).  d_x Q carries the extra i*xi factor, with the
    Nyquist bin zeroed to match the spectral derivative convention.  A
    grid and an alpha whose largest symbol, at the Nyquist wavenumber,
    overflows are refused with a ValueError.
    """

    grid: Grid
    alpha: float
    symbol_helm: np.ndarray = dc_field(init=False, repr=False)
    symbol_q: np.ndarray = dc_field(init=False, repr=False)
    symbol_dq: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        sp = self.grid.spectral
        top = self.alpha * float(sp.xi[-1])  # a float product overflows to inf
        if not top * top < math.inf:
            raise ValueError(
                f"alpha = {self.alpha} on a grid of spacing dx = {self.grid.dx}: the "
                "Helmholtz symbol 1 + (alpha pi/dx)**2 overflows"
            )
        sym_helm = 1.0 + (self.alpha * sp.xi) ** 2
        sym_q = 1.0 / sym_helm
        sym_dq = sp.ik * sym_q
        for name, sym in (("symbol_helm", sym_helm), ("symbol_q", sym_q), ("symbol_dq", sym_dq)):
            sym.setflags(write=False)
            object.__setattr__(self, name, sym)

    def apply_q_values(self, values: np.ndarray) -> np.ndarray:
        """Q f of grid samples f, i.e. (1 - alpha^2 d_xx) g = f in the
        discrete Fourier sense; equivalently the periodized convolution p * f.

        The lemma suite does not call it (the full-kernel gap is the mean
        of the one-sided pair); the tests use it as the independent oracle
        of that gap, and the benchmark's tracer wraps it by name."""
        n = self.grid.n_points
        return np.fft.irfft(self.symbol_q * np.fft.rfft(values), n=n)

    def one_sided_convolutions(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """((p - alpha*d_x p) * f, (p + alpha*d_x p) * f) of grid samples f,
        as two writable arrays.

        These combinations are the one-sided exponential kernels
        2*p*1_{x>0} and 2*p*1_{x<0}; assembling them from Q and d_x Q keeps
        a single code path for all convolutions.  Q f and d_x Q f come from
        one rfft and one 2-row irfft of the symbol products, written into
        one buffer, and alpha * d_x Q f is formed once for both kernels.
        """
        fh = np.fft.rfft(values)
        rows = np.empty((2, fh.size), dtype=complex)
        np.multiply(self.symbol_q, fh, out=rows[0])
        np.multiply(self.symbol_dq, fh, out=rows[1])
        qf, adqf = np.fft.irfft(rows, n=self.grid.n_points)
        adqf *= self.alpha
        minus = qf - adqf
        qf += adqf
        return minus, qf


def make_operator(grid: Grid, params: Parameters) -> NonlocalOperator:
    return NonlocalOperator(grid, params.alpha)
