"""Inverse-Helmholtz convolution operators and their Fourier symbols.

Q = (1 - alpha^2 d_xx)^{-1} acts by convolution with the exponential
kernel p(x) = exp(-|x|/alpha)/(2*alpha).  On the periodic grid the
Fourier-symbol implementation below is exactly the convolution with the
periodized kernel; for L >> alpha that is indistinguishable from the
whole-line operator.

A NonlocalOperator depends only on (grid, alpha), so each user builds
its own, and its symbols are formed once per Grid object and alpha and
shared read-only by every operator built from the two: the solver reads
the symbols of Q and d_x Q, advect the symbol
of 1 - alpha^2 d_xx (u_hat to m_hat), and the inequality checks apply
the one-sided kernel pair to samples on the grid or on a working grid
of fewer nodes, plain arrays in and out.  The tests evaluate p in
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

    The three symbols are formed once per Grid object and alpha, after
    that check, and kept read-only in ``grid.spectral.helmholtz_symbols``
    (arrays only, so nothing there refers back to the grid or to an
    operator); every later operator of that grid and alpha shares them.
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
        symbols = sp.helmholtz_symbols.get(self.alpha)
        if symbols is None:
            symbols = sp.helmholtz_symbols[self.alpha] = _symbols(sp.xi, sp.ik, self.alpha)
        for name, sym in zip(("symbol_helm", "symbol_q", "symbol_dq"), symbols):
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
        """((p - alpha*d_x p) * f, (p + alpha*d_x p) * f) at the N grid nodes,
        as two writable arrays, of the samples f of a function on m nodes of
        the same interval, where N/m is a power of two (m = N: grid samples;
        m < N: a working grid of ``Spectral.quarter_band``).

        These combinations are the one-sided exponential kernels
        2*p*1_{x>0} and 2*p*1_{x<0}; assembling them from Q and d_x Q keeps
        a single code path for all convolutions.  Q f and d_x Q f come from
        one rfft of length m and one 2-row irfft of length N of the symbol
        products, written into one buffer, and alpha * d_x Q f is formed
        once for both kernels.  For m < N the bins of f below m/2 are scaled
        by N/m (exact) and the rest are zero: f must hold no content at
        the working grid's Nyquist bin m/2, which is dropped.
        """
        n, m = self.grid.n_points, values.size
        if n % m or (n // m) & (n // m - 1):
            raise ValueError(f"{m} samples are not on a working grid of the {n}-node grid")
        fh = np.fft.rfft(values)
        if m < n:
            fh = fh[: m // 2]
            fh *= n // m
        rows = np.zeros((2, n // 2 + 1), dtype=complex)
        np.multiply(self.symbol_q[: fh.size], fh, out=rows[0, : fh.size])
        np.multiply(self.symbol_dq[: fh.size], fh, out=rows[1, : fh.size])
        qf, adqf = np.fft.irfft(rows, n=n)
        adqf *= self.alpha
        minus = qf - adqf
        qf += adqf
        return minus, qf


def _symbols(xi: np.ndarray, ik: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """The read-only symbols of 1 - alpha^2 d_xx, Q and d_x Q on the
    wavenumbers xi, with ik the derivative symbol."""
    sym_helm = 1.0 + (alpha * xi) ** 2
    sym_q = 1.0 / sym_helm
    sym_dq = ik * sym_q
    for sym in (sym_helm, sym_q, sym_dq):
        sym.setflags(write=False)
    return sym_helm, sym_q, sym_dq


def make_operator(grid: Grid, params: Parameters) -> NonlocalOperator:
    return NonlocalOperator(grid, params.alpha)
