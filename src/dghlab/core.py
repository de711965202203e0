"""Grids, fields, physical parameters and initial-condition presets.

Everything lives on a uniform periodic grid truncating the real line to
[-L, L).  L defaults to 20*alpha in the drivers, large enough that the
exponentially decaying Green kernel and all presets fall below round-off
at the boundary.  All containers are immutable value objects.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field as dc_field
from functools import cached_property

import numpy as np

__all__ = [
    "Parameters",
    "Grid",
    "Field",
    "State",
    "make_parameters",
    "make_grid",
    "ic_preset",
    "Spectral",
    "PRESET_NAMES",
]


def _unpickle_read_only(self, state: dict) -> None:
    """``__setstate__`` of the classes that keep read-only arrays: pickle
    gives an object's arrays back writable, so they are frozen again."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    self.__dict__.update(state)


def as_int(value, name: str = "value") -> int:
    """int(value), refusing what int() would truncate: booleans and floats
    with a fractional part or no finite value (ValueError naming ``name``)."""
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str = "value") -> float:
    """float(value), refusing booleans (ValueError naming ``name``): a
    True that float() would take as 1.0 is not a number."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Parameters:
    """Physical constants of the DGH model plus derived transport constants.

    ``lam = -gamma/alpha**2`` is the extra linear transport speed and
    ``k = (c0 + gamma/alpha**2)/2`` the effective wave-speed offset; both
    are recomputed from the raw constants at construction so they can never
    drift out of sync, and must come out finite, as must a positive
    alpha**2.  The raw constants are stored as floats (``as_float``, so a
    boolean is refused).  ``in_band`` records whether gamma + c0*alpha**2 >= 0
    (the linear well-posedness band); construction outside the band succeeds
    with the flag set to False.
    """

    alpha: float
    gamma: float = 0.0
    c0: float = 0.0
    sigma: float = 1.0
    lam: float = dc_field(init=False)
    k: float = dc_field(init=False)
    in_band: bool = dc_field(init=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "c0", "sigma"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0.0:
            raise ValueError(
                f"alpha must be strictly positive (got {self.alpha}); "
                "alpha = 0 degenerates to KdV and is not supported"
            )
        try:
            a2 = self.alpha**2
        except OverflowError:  # Python floats raise where numpy would give inf
            a2 = math.inf
        if not 0.0 < a2 < math.inf:
            raise ValueError(f"alpha**2 must be positive and finite, got alpha = {self.alpha}")
        lam, k = -self.gamma / a2, 0.5 * (self.c0 + self.gamma / a2)
        if not (math.isfinite(lam) and math.isfinite(k)):
            raise ValueError(f"lam and k must be finite, got lam = {lam}, k = {k} from "
                             f"alpha = {self.alpha}, gamma = {self.gamma}, c0 = {self.c0}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "in_band", self.gamma + self.c0 * a2 >= 0.0)


def make_parameters(
    alpha: float, gamma: float = 0.0, c0: float = 0.0, sigma: float = 1.0
) -> Parameters:
    """Build a Parameters object, deriving lam, k and the band flag."""
    return Parameters(alpha, gamma, c0, sigma)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with N nodes, N an even integer
    (``as_int``, so 64.5 is refused) and L a number (``as_float``, so True
    is refused); its spacing dx = 2L/N, its Nyquist
    wavenumber pi/dx and its square (the largest symbol of d_xx) are
    positive and finite."""

    half_length: float
    n_points: int
    dx: float = dc_field(init=False)
    nodes: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        L = as_float(self.half_length, "half_length")
        n = as_int(self.n_points, "n_points")
        if not (0.0 < L < math.inf):
            raise ValueError(f"half_length must be positive and finite, got {L}")
        if n < 16 or n % 2 != 0:
            raise ValueError(f"n_points must be even and >= 16, got {n}")
        object.__setattr__(self, "half_length", L)
        object.__setattr__(self, "n_points", n)
        dx = 2.0 * L / n
        nyquist = math.pi / dx
        # float products overflow to inf, where ** would raise
        if not (0.0 < dx < math.inf and nyquist * nyquist < math.inf):
            raise ValueError(
                f"half_length = {L} on {n} points gives dx = {dx}; dx, the "
                "Nyquist wavenumber pi/dx and its square must be positive and finite"
            )
        nodes = -L + dx * np.arange(n)
        nodes.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "nodes", nodes)

    __setstate__ = _unpickle_read_only

    @cached_property
    def spectral(self) -> Spectral:
        """The grid's Fourier bookkeeping, built on first use."""
        return Spectral(self)


def make_grid(half_length: float, n_points: int) -> Grid:
    return Grid(half_length, n_points)


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples of a function on a Grid, with their rfft row: the one
    checked datum of the package (initial data and recorded states).

    A field is built from its samples, and its row (``spectrum``) is their
    rfft, made on first use; or from its rfft row, and its samples
    (``values``) are the row's irfft, made on first use.  The solver
    records its state rows the second way, so a record keeps no samples
    unless they are read.  Given both, it raises TypeError: a field has
    one source, so its samples and its row cannot disagree.  There is
    one finite sample per node, checked when the samples are given or
    derived, so no caller repeats either check; intermediates stay plain
    arrays.  Samples and row are read-only copies, so the ``spectrum``
    cached on the field stays valid for its lifetime.
    """

    grid: Grid
    samples: InitVar[np.ndarray | None] = None
    rfft_row: InitVar[np.ndarray | None] = None

    def __post_init__(self, samples: np.ndarray | None, rfft_row: np.ndarray | None) -> None:
        if (samples is None) == (rfft_row is None):
            raise TypeError("a Field is built from exactly one of its samples and its rfft row")
        if samples is not None:
            self.__dict__["values"] = self._checked(np.array(samples, dtype=float, copy=True))
            return
        row = np.array(rfft_row, dtype=complex, copy=True)
        if row.shape != (self.grid.n_points // 2 + 1,):
            raise ValueError(f"rfft row of shape {row.shape} does not fit the grid")
        if not np.isfinite(row).all():
            raise ValueError("field contains non-finite values")
        row.setflags(write=False)
        self.__dict__["spectrum"] = row  # the cached value of spectrum

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        """vals, read-only, if it holds one finite sample per node."""
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_points:
            raise ValueError(
                f"expected {self.grid.n_points} samples, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field contains non-finite values")
        vals.setflags(write=False)
        return vals

    @cached_property
    def values(self) -> np.ndarray:
        """Samples at the grid nodes, read-only: as given, or the irfft of
        the row the field was built from (bit for bit the samples the
        solver's batched irfft of that row gave)."""
        return self._checked(np.fft.irfft(self.spectrum, n=self.grid.n_points))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """rfft row of the field, read-only: rfft(values) unless the field
        was built from its row (a recorded solver state)."""
        row = np.fft.rfft(self.values)
        row.setflags(write=False)
        return row

    __setstate__ = _unpickle_read_only


@dataclass(frozen=True, eq=False)
class State:
    """Instantaneous solution: velocity u and, for two-component runs, the
    shifted density rho_tilde = rho - 1 on the same grid."""

    t: float
    u: Field
    rho_tilde: Field | None = None

    def __post_init__(self) -> None:
        if self.rho_tilde is not None and self.rho_tilde.grid != self.u.grid:
            raise ValueError("u and rho_tilde must share one grid")


PRESET_NAMES = (
    "gaussian_bump",
    "gaussian_derivative",
    "peakon_shifted",
    "sech_bump",
    "from_samples",
)


def ic_preset(
    name: str,
    grid: Grid,
    params: Parameters | None = None,
    **kwargs,
) -> Field:
    """Evaluate a named initial-condition preset on the grid.

    gaussian_bump(a=1, center=0, width=1)        a*exp(-((x-c)/w)^2/2)
    gaussian_derivative(a=1, center=0, offset=0) -a*(x-c)*exp(-(x-c)^2/2) + offset
    peakon_shifted(c=1, y=0, k=0)                c*exp(-|x-y|/alpha) - k   (needs params)
    sech_bump(a=1, center=0, width=1)            a/cosh((x-c)/w)
    from_samples(values)                         verbatim samples

    The peakon is sampled pointwise; its slope is discontinuous at the
    peak, so downstream tests of peakon data use convergence-order checks
    rather than fixed small tolerances.
    """
    x = grid.nodes
    if name == "gaussian_bump":
        a = float(kwargs.pop("a", 1.0))
        center = float(kwargs.pop("center", 0.0))
        width = float(kwargs.pop("width", 1.0))
        vals = a * np.exp(-(((x - center) / width) ** 2) / 2.0)
    elif name == "gaussian_derivative":
        a = float(kwargs.pop("a", 1.0))
        center = float(kwargs.pop("center", 0.0))
        offset = float(kwargs.pop("offset", 0.0))
        xs = x - center
        vals = -a * xs * np.exp(-(xs**2) / 2.0) + offset
    elif name == "peakon_shifted":
        if params is None:
            raise ValueError("peakon_shifted needs Parameters (for alpha)")
        c = float(kwargs.pop("c", 1.0))
        y = float(kwargs.pop("y", 0.0))
        k = float(kwargs.pop("k", 0.0))
        vals = c * np.exp(-np.abs(x - y) / params.alpha) - k
    elif name == "sech_bump":
        a = float(kwargs.pop("a", 1.0))
        center = float(kwargs.pop("center", 0.0))
        width = float(kwargs.pop("width", 1.0))
        vals = a / np.cosh((x - center) / width)
    elif name == "from_samples":
        vals = kwargs.pop("values")
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if kwargs:
        raise TypeError(f"unexpected preset arguments: {sorted(kwargs)}")
    return Field(grid, vals)


class Spectral:
    """Fourier bookkeeping of one grid, built once per Grid (``grid.spectral``).

    Owns the wavenumbers ``xi`` on rfft bins, the derivative symbol ``ik``
    (i*xi with the Nyquist bin zeroed, which keeps d/dx real and
    antisymmetric on an even grid), the 2/3-rule cut and its filter rows,
    the quarter band (bins <= ``quarter`` = N/4, where every quadratic
    product is alias-free) and its one transform ``quarter_band``, which
    samples a row's band on the smallest grid that keeps its products
    alias-free, the memo ``helmholtz_symbols`` of the grid's Helmholtz
    symbols per alpha (filled by ``NonlocalOperator``), and the multi-point
    trigonometric interpolant: ``basis``
    makes the one cos/sin pass at a set of points, which ``values`` and
    ``slopes`` share across any number of coefficient rows, and
    ``refine_min`` moves discrete minima off the grid on it.
    The Nyquist mode is interpolated as a pure cosine, the standard
    real-data convention; at the nodes this reproduces the samples to
    round-off.
    """

    _BLOCK = 64

    def __init__(self, grid: Grid):
        self.half_length = grid.half_length
        self.n = grid.n_points
        self.dx = grid.dx
        # xi_k = pi k/L, formed as 2 pi rfftfreq: the direct pi k/L can differ
        # in the last bit, and every symbol below is built on these bits
        self.xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=grid.dx)
        self.ik = 1j * self.xi
        self.ik[-1] = 0.0
        # 2/3 rule on rfft bins: keep k <= N/3, zero the bins from cut on
        self.cut = self.n // 3 + 1
        self.quarter = self.n // 4  # top bin of the quarter band
        for a in (self.xi, self.ik):
            a.setflags(write=False)
        # alpha -> the read-only Helmholtz symbols (helm, q, dq) on xi, which
        # only helmholtz.NonlocalOperator forms and fills in
        self.helmholtz_symbols: dict[float, tuple[np.ndarray, ...]] = {}
        # bin k = B*j + b (B = _BLOCK): exp(i k t) = exp(i B j t) exp(i b t);
        # ~N/B + B cos/sin calls per point instead of N/2 (BENCH_2.json
        # "basis_ablation": simulate_dgh cmd_s -15% against direct cos/sin)
        self._n_coarse = -(-self.xi.size // self._BLOCK)
        self._factors = np.concatenate(
            (self._BLOCK * np.arange(self._n_coarse), np.arange(self._BLOCK))
        ).astype(float)
        self._factors.setflags(write=False)

    def __getstate__(self) -> dict:
        # a pickled grid (a sweep cell's datum) leaves its symbols behind,
        # which keeps the pickle small; the copy forms its own
        return {**self.__dict__, "helmholtz_symbols": {}}

    __setstate__ = _unpickle_read_only

    @cached_property
    def filters(self) -> np.ndarray:
        """Multipliers for the rows u_f, u_x,f and the unfiltered u_x, built
        on first use: grids that never step never need them."""
        mask = (np.arange(self.xi.size) < self.cut).astype(float)
        rows = np.array([mask, self.ik * mask, self.ik])
        rows.setflags(write=False)
        return rows

    def quarter_band(self, row: np.ndarray) -> np.ndarray:
        """Rows (u, u_x) of the rfft row ``row`` limited to bins <= ``quarter``,
        at the m nodes of its working grid, from one 2-row irfft of length m.

        With B the top nonzero bin of the row within the band, m is the
        fewest nodes above 4B of the form N/2^j (j >= 0, m even); on a
        power-of-two grid, the least power of two above 4B, capped at N.
        Every product of two rows of bins <= B is alias-free on m nodes
        (Orszag's rule).  The bins are scaled by m/N, a power of two, so the
        scaling is exact.  The rfft row of sampled data (the presets, the
        peakon witness, user samples) as a rule holds round-off up to bin
        N/4, so B = N/4 and m = N, where this is the irfft of the band
        itself.  Bins past the end of a shorter row count as zero."""
        band = row[: self.quarter + 1]
        nonzero = band[::-1] != 0  # from the band's top bin down; -0.0 is zero
        last = int(nonzero.argmax())
        top = band.size - 1 - last if nonzero[last] else 0
        m = self.n
        while m % 4 == 0 and m // 2 > 4 * top:
            m //= 2
        rows = np.zeros((2, m // 2 + 1), dtype=complex)
        np.multiply(band[: top + 1], m / self.n, out=rows[0, : top + 1])
        np.multiply(self.ik[: top + 1], rows[0, : top + 1], out=rows[1, : top + 1])
        return np.fft.irfft(rows, n=m)

    def basis(self, x) -> np.ndarray:
        """w_k exp(i xi_k (x + L)) / N at the points x, shape (points, bins),
        with w_k = 2 for interior bins (they stand for k and N-k) and 1 for
        DC and Nyquist; the cos/sin pass runs on the block factors only."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        phase = np.multiply.outer((xs + self.half_length) * self.xi[1], self._factors)
        cis = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=cis.real)
        np.sin(phase, out=cis.imag)
        j = self._n_coarse
        cis[:, :j] *= 2.0 / self.n
        full = (cis[:, :j, None] * cis[:, None, j:]).reshape(xs.size, j * self._BLOCK)
        out = full[:, : self.xi.size]
        out[:, 0] = 1.0 / self.n
        out[:, -1] = 0.5 * out[:, -1].real  # Nyquist as a pure cosine
        return out

    def values(self, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Interpolant values, shape coeffs.shape[:-1] + (points,)."""
        return (coeffs @ basis.T).real

    def slopes(self, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """x-derivatives of the interpolants, same shape as ``values``."""
        return -(coeffs @ (self.ik.imag * basis).T).imag

    def refine_min(self, coeffs, target, x, f):
        """Refine discrete local minima of a target onto the interpolant.

        ``target(rows)`` maps the interpolant values of the coefficient rows
        ``coeffs`` at some points to (f, s) there: f is compared with the
        node's, and the sign change of s from - to + marks the minimum
        sought (s is df/dx, or the slope of the quantity f measures).  Each
        candidate node x_i, with sample value f_i, is bracketed in
        [x_i - dx, x_i + dx], and the bracket is halved 60 times (to
        2^-59 dx) on the sign of s, which also converges onto a kink of f;
        one basis pass per halving serves all candidates.  The refined point
        replaces its node only where its f is strictly below f_i.  Returns
        (x, f, moved).
        """
        def rows_at(points):  # 256 points at a time bound the basis array
            return np.concatenate([self.values(coeffs, self.basis(points[s : s + 256]))
                                   for s in range(0, max(points.size, 1), 256)], axis=-1)

        lo, hi = x - self.dx, x + self.dx
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            falling = target(rows_at(mid))[1] < 0.0
            lo, hi = np.where(falling, mid, lo), np.where(falling, hi, mid)
        x_ref = 0.5 * (lo + hi)
        f_ref = target(rows_at(x_ref))[0]
        moved = f_ref < f
        return np.where(moved, x_ref, x), np.where(moved, f_ref, f), moved
