import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dghlab as dg
from derivative import ddx


class TestParameters:
    @pytest.mark.parametrize(
        "alpha,gamma,c0,lam,k,band",
        [
            (1.0, 0.0, 0.0, 0.0, 0.0, True),
            (2.0, -4.0, 1.0, 1.0, 0.0, True),  # gamma + c0*alpha^2 = 0 edge
            (1.0, 2.0, 1.0, -2.0, 1.5, True),
        ],
    )
    def test_derived_constants(self, alpha, gamma, c0, lam, k, band):
        p = dg.make_parameters(alpha, gamma, c0)
        assert p.lam == lam
        assert p.k == k
        assert p.in_band is band

    def test_out_of_band_flag(self):
        p = dg.make_parameters(1.0, -2.0, 1.0)
        assert not p.in_band
        assert p.lam == 2.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError):
            dg.make_parameters(alpha)

    @pytest.mark.parametrize("alpha, gamma, match", [
        (1e200, 0.0, "alpha"),    # alpha**2 overflows
        (1e-200, 0.0, "alpha"),   # alpha**2 underflows to 0
        (1e-10, 1e300, "gamma"),  # gamma/alpha**2, so lam and k, overflow
    ], ids=["alpha_squared_overflow", "alpha_squared_underflow", "k_overflow"])
    def test_rejects_non_finite_derived_constants(self, alpha, gamma, match):
        with pytest.raises(ValueError, match=match):
            dg.make_parameters(alpha, gamma)

    @pytest.mark.parametrize("name", ["alpha", "gamma", "c0", "sigma"])
    def test_rejects_booleans(self, name):
        # float(True) is 1.0: a boolean is refused where a number is meant,
        # by make_parameters and by Parameters itself
        kw = {"alpha": 1.0, name: True}
        for build in (dg.make_parameters, dg.Parameters):
            with pytest.raises(ValueError, match=name):
                build(**kw)
        with pytest.raises(ValueError, match=name):
            dg.make_parameters(**{"alpha": 1.0, name: np.bool_(False)})
        assert type(dg.Parameters(1).alpha) is float

    @given(
        alpha=st.floats(0.01, 100.0),
        gamma=st.floats(-50.0, 50.0),
        c0=st.floats(-50.0, 50.0),
    )
    def test_derived_fields_recompute_exactly(self, alpha, gamma, c0):
        p = dg.make_parameters(alpha, gamma, c0)
        assert p.lam == -p.gamma / p.alpha**2
        assert p.k == 0.5 * (p.c0 + p.gamma / p.alpha**2)
        assert p.in_band == (p.gamma + p.c0 * p.alpha**2 >= 0.0)


class TestGrid:
    def test_spacing_identity(self):
        g = dg.make_grid(20.0, 4096)
        assert g.dx * g.n_points == 2.0 * g.half_length
        steps = np.diff(g.nodes)
        assert np.all(steps > 0)
        assert np.allclose(steps, g.dx, rtol=0, atol=1e-13)
        assert g.nodes[0] == -20.0

    # 64.5 is refused, not truncated to 64
    @pytest.mark.parametrize("n", [15, 14, 0, 127, 64.5])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            dg.make_grid(20.0, n)

    @pytest.mark.parametrize("L", [True, np.bool_(True)])
    def test_rejects_boolean_length(self, L):
        # float(True) would make a grid of half-length 1.0
        with pytest.raises(ValueError, match="half_length"):
            dg.make_grid(L, 64)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            dg.make_grid(0.0, 64)

    @pytest.mark.parametrize("L", [1e-320, 1e308, 2e-159],
                             ids=["nyquist_overflow", "dx_overflow", "nyquist_squared_overflow"])
    def test_rejects_non_finite_spacing(self, L):
        # 1e-320/32 is a positive subnormal dx whose pi/dx overflows;
        # 2*1e308 overflows, so dx and the nodes would be inf and nan;
        # 2e-159/32 gives a finite pi/dx = 5e160 whose square, the largest
        # symbol of d_xx, overflows
        with pytest.raises(ValueError, match="half_length"):
            dg.make_grid(L, 64)


@pytest.mark.parametrize("build", [
    lambda v: dg.make_parameters(v),
    lambda v: dg.make_parameters(1.0, gamma=v),
    lambda v: dg.make_parameters(1.0, c0=v),
    lambda v: dg.make_parameters(1.0, sigma=v),
    lambda v: dg.make_grid(v, 64),
    lambda v: dg.SolverConfig(t_max=v),
    lambda v: dg.SolverConfig(t_max=1.0, cfl=v),
    lambda v: dg.SolverConfig(t_max=1.0, dt_min=v),
    lambda v: dg.SolverConfig(t_max=1.0, slope_blowup_threshold=v),
], ids=["alpha", "gamma", "c0", "sigma", "half_length", "t_max", "cfl", "dt_min",
        "slope_blowup_threshold"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_settings_reject_non_finite_values(build, value):
    # a NaN passes every "<= 0" test, so each constructor tests finiteness
    with pytest.raises(ValueError, match="finite|cfl"):
        build(value)


class TestField:
    def test_rejects_nonfinite(self, grid1024):
        vals = np.zeros(1024)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            dg.Field(grid1024, vals)

    def test_rejects_wrong_length(self, grid1024):
        with pytest.raises(ValueError):
            dg.Field(grid1024, np.zeros(100))

    def test_values_read_only(self, grid1024):
        f = dg.Field(grid1024, np.zeros(1024))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_spectrum_is_the_cached_rfft_or_the_given_row(self, grid1024):
        samples = np.random.default_rng(3).standard_normal(1024)
        f = dg.Field(grid1024, samples)
        assert np.array_equal(f.spectrum, np.fft.rfft(samples))
        assert f.spectrum is f.spectrum
        with pytest.raises(ValueError):
            f.spectrum[0] = 1.0
        # a given row is kept as a read-only copy
        row = np.fft.rfft(samples) * 2.0
        g = dg.Field(grid1024, rfft_row=row)
        assert np.array_equal(g.spectrum, row) and not np.shares_memory(g.spectrum, row)
        with pytest.raises(ValueError):
            g.spectrum[0] = 1.0
        with pytest.raises(ValueError):
            dg.Field(grid1024, rfft_row=row[:-1])
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                dg.Field(grid1024, rfft_row=np.where(np.arange(row.size) == 5, bad, row))
        # one source per field: samples and a row that could disagree, or
        # neither, are refused
        with pytest.raises(TypeError):
            dg.Field(grid1024, samples, rfft_row=row)
        with pytest.raises(TypeError):
            dg.Field(grid1024)

    def test_quarter_band_equals_per_row_transforms(self, grid1024, monkeypatch):
        # one 2-row irfft of the field's row gives the bits of the two
        # separate inverse transforms of the band-limited coefficients; the
        # row of a field built from samples is their rfft (the one rfft it
        # makes), and a field built from its row makes none
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(1024)
        row = np.fft.rfft(rng.standard_normal(1024))
        cases = [(dg.Field(grid1024, samples), np.fft.rfft(samples), 1),
                 (dg.Field(grid1024, rfft_row=row), row.copy(), 0)]
        rfft = np.fft.rfft
        for f, u_hat, n_rfft in cases:
            u_hat[1024 // 4 + 1 :] = 0.0
            expected = (np.fft.irfft(u_hat, n=1024),
                        np.fft.irfft(grid1024.spectral.ik * u_hat, n=1024))
            calls = []
            monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: calls.append(1) or rfft(*a, **kw))
            uv, ux = f.quarter_band
            monkeypatch.setattr(np.fft, "rfft", rfft)
            assert len(calls) == n_rfft
            assert np.array_equal(uv, expected[0])
            assert np.array_equal(ux, expected[1])
            assert f.quarter_band is f.quarter_band
            with pytest.raises(ValueError):
                f.quarter_band[0, 0] = 1.0
        # the transform reads a row shorter than the band as zero-padded
        sp = grid1024.spectral
        padded = np.zeros_like(row)
        padded[:81] = row[:81]
        assert np.array_equal(sp.quarter_band(row[:81]), sp.quarter_band(padded))

    def test_quarter_band_never_shared(self, grid1024):
        samples = np.exp(-grid1024.nodes**2)
        f = dg.Field(grid1024, samples)
        band = f.quarter_band.copy()
        samples *= 3.0  # the field holds its own copy of the samples
        g = dg.Field(grid1024, samples)
        assert np.array_equal(f.quarter_band, band)
        assert np.array_equal(g.quarter_band, dg.Field(grid1024, samples).quarter_band)
        assert not np.array_equal(g.quarter_band, band)
        assert not np.shares_memory(f.quarter_band, g.quarter_band)
        # the same samples on a grid of another length have another u_x
        h = dg.Field(dg.make_grid(10.0, 1024), f.values)
        assert np.array_equal(h.quarter_band[0], band[0])
        assert not np.array_equal(h.quarter_band[1], band[1])

    @pytest.mark.parametrize("source", ["samples", "rfft_row"])
    def test_unpickled_arrays_stay_read_only(self, source):
        # a sweep cell's datum reaches its worker pickled: the grid, its
        # Spectral and the field come back with the same read-only arrays,
        # so the spectral data cached on the field stays valid there
        grid = dg.make_grid(20.0, 256)
        samples = np.exp(-grid.nodes**2)
        f = (dg.Field(grid, samples) if source == "samples"
             else dg.Field(grid, rfft_row=np.fft.rfft(samples)))
        f.values, f.spectrum, f.quarter_band, grid.spectral.filters  # cache every array
        copy = pickle.loads(pickle.dumps(f))
        sp = copy.grid.spectral
        arrays = {"nodes": copy.grid.nodes, "xi": sp.xi, "ik": sp.ik, "filters": sp.filters,
                  "values": copy.values, "spectrum": copy.spectrum,
                  "quarter_band": copy.quarter_band}
        for name, a in arrays.items():
            assert not a.flags.writeable, name
        # each was unpickled, not made again
        assert {"values", "spectrum", "quarter_band"} <= copy.__dict__.keys()
        assert "filters" in sp.__dict__
        assert np.array_equal(copy.quarter_band, f.quarter_band)
        assert copy.grid == grid

    def test_state_requires_shared_grid(self, grid1024, grid2048):
        u = dg.Field(grid1024, np.zeros(1024))
        rho = dg.Field(grid2048, np.zeros(2048))
        with pytest.raises(ValueError):
            dg.State(0.0, u, rho)


class TestPresets:
    def test_gaussian_derivative_values(self, grid4096, params_ch):
        u = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        i0 = grid4096.n_points // 2
        assert grid4096.nodes[i0] == 0.0
        assert u.values[i0] == 0.0
        # centered finite difference at the origin approximates -a
        h = grid4096.dx
        fd = (u.values[i0 + 1] - u.values[i0 - 1]) / (2 * h)
        assert fd == pytest.approx(-1.0, abs=5 * h**2)

    def test_gaussian_derivative_offset_and_center(self, grid1024):
        u = dg.ic_preset("gaussian_derivative", grid1024, a=2.0, center=1.5, offset=-0.25)
        x = grid1024.nodes
        expect = -2.0 * (x - 1.5) * np.exp(-((x - 1.5) ** 2) / 2) - 0.25
        assert np.array_equal(u.values, expect)

    def test_peakon_at_peak(self, grid4096, params_ch):
        u = dg.ic_preset("peakon_shifted", grid4096, params_ch, c=1.0, y=0.0, k=0.0)
        assert u.values[grid4096.n_points // 2] == 1.0

    def test_peakon_needs_params(self, grid1024):
        with pytest.raises(ValueError):
            dg.ic_preset("peakon_shifted", grid1024)

    def test_from_samples_bit_identical(self, grid1024):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1024)
        u = dg.ic_preset("from_samples", grid1024, values=vals)
        assert np.array_equal(u.values, vals)

    def test_from_samples_wrong_length(self, grid1024):
        with pytest.raises(ValueError):
            dg.ic_preset("from_samples", grid1024, values=np.zeros(10))

    def test_unknown_preset(self, grid1024):
        with pytest.raises(ValueError):
            dg.ic_preset("solitary_wave", grid1024)

    def test_unexpected_argument(self, grid1024):
        with pytest.raises(TypeError):
            dg.ic_preset("gaussian_bump", grid1024, amplitude=2.0)


class TestDerivative:
    def test_annihilates_constants(self, grid1024):
        f = dg.ic_preset("from_samples", grid1024, values=np.full(1024, 3.7))
        assert np.max(np.abs(ddx(grid1024, f.values))) < 1e-13

    def test_single_mode_exact(self, grid1024):
        L = grid1024.half_length
        x = grid1024.nodes
        f = dg.ic_preset("from_samples", grid1024, values=np.sin(np.pi * x / L))
        df = ddx(grid1024, f.values)
        assert np.max(np.abs(df - np.pi / L * np.cos(np.pi * x / L))) < 1e-10

    def test_matches_finite_differences_at_second_order(self):
        # the discrepancy is the FD error, so it must shrink ~4x per
        # grid doubling
        errs = []
        for n in (128, 256):
            g = dg.make_grid(20.0, n)
            u = dg.ic_preset("gaussian_bump", g)
            du = ddx(g, u.values)
            fd = (np.roll(u.values, -1) - np.roll(u.values, 1)) / (2 * g.dx)
            errs.append(np.max(np.abs(du - fd)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        g = dg.make_grid(10.0, 256)
        rng = np.random.default_rng(42)
        f1 = np.fft.irfft(np.exp(-np.arange(129) / 8.0) * (rng.normal(size=129) + 1j * rng.normal(size=129)), n=256)
        f2 = np.fft.irfft(np.exp(-np.arange(129) / 8.0) * (rng.normal(size=129) + 1j * rng.normal(size=129)), n=256)
        lhs = ddx(g, a * f1 + b * f2)
        rhs = a * ddx(g, f1) + b * ddx(g, f2)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_integration_by_parts(self, grid1024):
        g = grid1024
        f = dg.ic_preset("gaussian_bump", g).values
        h = dg.ic_preset("sech_bump", g, center=2.0).values
        lhs = np.sum(f * ddx(g, h)) * g.dx
        rhs = -np.sum(ddx(g, f) * h) * g.dx
        assert abs(lhs - rhs) / (abs(rhs) + 1e-30) < 1e-10


class TestSpectral:
    def test_one_read_only_toolkit_per_grid(self, grid1024, params_ch):
        sp = grid1024.spectral
        assert grid1024.spectral is sp
        assert dg.make_grid(20.0, 1024).spectral is not sp
        for a in (sp.xi, sp.ik, sp.filters):
            assert not a.flags.writeable
        assert sp.ik[-1] == 0.0
        assert np.array_equal(sp.ik.imag[:-1], sp.xi[:-1])
        op = dg.make_operator(grid1024, params_ch)
        assert np.array_equal(op.symbol_dq, sp.ik * op.symbol_q)


def interpolate(grid, values, x):
    """The trigonometric interpolant of the grid samples at the points x."""
    sp = grid.spectral
    return sp.values(np.fft.rfft(values), sp.basis(x))


class TestInterpolation:
    def test_reproduces_samples_at_nodes(self, grid1024):
        u = dg.ic_preset("sech_bump", grid1024, center=-3.0)
        pts = grid1024.nodes[::97]
        vals = interpolate(grid1024, u.values, pts)
        assert np.max(np.abs(vals - u.values[::97])) < 1e-12

    def test_spectrally_accurate_off_grid(self, grid1024):
        u = dg.ic_preset("gaussian_bump", grid1024)
        xs = np.array([0.31415, -2.7182, 5.5])
        exact = np.exp(-(xs**2) / 2)
        assert np.max(np.abs(interpolate(grid1024, u.values, xs) - exact)) < 1e-12

    def test_evaluator_matches_field_interpolation(self, grid1024):
        u = dg.ic_preset("gaussian_derivative", grid1024, a=0.7)
        ev = grid1024.spectral
        coeffs = np.fft.rfft(u.values)
        x = 1.2345
        basis = ev.basis(x)
        v, d = float(ev.values(coeffs, basis)[0]), float(ev.slopes(coeffs, basis)[0])
        assert v == pytest.approx(float(interpolate(grid1024, u.values, x)[0]), abs=1e-13)
        assert d == pytest.approx(
            float(interpolate(grid1024, ddx(grid1024, u.values), x)[0]), abs=1e-12
        )

    def test_evaluator_matches_direct_sums(self, grid1024):
        # block-factored phases at several points against direct cos/sin
        # sums over every bin
        u = dg.ic_preset("gaussian_derivative", grid1024, a=0.7)
        ev = grid1024.spectral
        coeffs = np.fft.rfft(u.values)
        xs = np.array([-19.9, -3.3, 1.2345, 7.77, 19.99])
        xi = grid1024.spectral.xi
        phase = np.outer(xs + grid1024.half_length, xi)
        w = np.full(xi.size, 2.0)
        w[0] = w[-1] = 1.0
        re, im = w * coeffs.real, w * coeffs.imag
        im[-1] = 0.0
        ref_v = (np.cos(phase) @ re - np.sin(phase) @ im) / 1024
        re[-1] = 0.0
        ref_d = -(np.cos(phase) @ (xi * im) + np.sin(phase) @ (xi * re)) / 1024
        basis = ev.basis(xs)
        assert np.max(np.abs(ev.values(coeffs, basis) - ref_v)) < 1e-13
        assert np.max(np.abs(ev.slopes(coeffs, basis) - ref_d)) < 1e-12
