import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import dghlab as dg
from dghlab.analysis import _margin, full_kernel_gap, gap_minimum, one_sided_gaps, sobolev_gap
from dghlab.analysis import random_band_limited
from derivative import ddx
from draws import full_row_draw
from lemma_oracle import field_gap_args, gap_args, n_grid_band, n_grid_gaps


def zeros_state(grid):
    return dg.State(0.0, dg.ic_preset("from_samples", grid, values=np.zeros(grid.n_points)))


def peakon(grid, params, c=1.0, y=0.0, k=0.0):
    return dg.ic_preset("peakon_shifted", grid, params, c=c, y=y, k=k)


def gaps(u, p):
    """The one-sided gap pair of the Field u at the parameters p."""
    return one_sided_gaps(*field_gap_args(u), p.alpha, p.k)


class TestEnergyE:
    def test_zero(self, grid1024, params_ch):
        assert dg.energy_E(zeros_state(grid1024), params_ch) == 0.0

    def test_quadratic_homogeneity(self, grid1024, params_ch):
        u = dg.ic_preset("gaussian_bump", grid1024)
        e1 = dg.energy_E(dg.State(0.0, u), params_ch)
        u3 = dg.ic_preset("from_samples", grid1024, values=3.0 * u.values)
        e9 = dg.energy_E(dg.State(0.0, u3), params_ch)
        assert e9 == pytest.approx(9.0 * e1, rel=1e-12, abs=0.0)

    def test_peakon_value_and_convergence(self, params_ch):
        # E(e^{-|x|}) = 1 analytically (0.5 * (int e^{-2|x|} + int e^{-2|x|}));
        # the sampled peakon's slope jump limits convergence to first order
        exact = 0.5 * (quad(lambda x: np.exp(-2 * abs(x)), -20, 20, points=[0])[0] * 2)
        assert exact == pytest.approx(1.0, abs=1e-10)
        errs = []
        for n in (1024, 2048, 4096):
            grid = dg.make_grid(20.0, n)
            e = dg.energy_E(dg.State(0.0, peakon(grid, params_ch)), params_ch)
            errs.append(abs(e - 1.0))
        assert errs[-1] < 5e-3
        order = np.log2(errs[0] / errs[-1]) / 2
        assert order > 0.8

    def test_two_component_adds_density_energy(self, grid1024, params_ch):
        u = dg.ic_preset("gaussian_bump", grid1024)
        rho = dg.ic_preset("gaussian_bump", grid1024, a=0.5)
        e1 = dg.energy_E(dg.State(0.0, u), params_ch)
        e2 = dg.energy_E(dg.State(0.0, u, rho), params_ch)
        rho_part = 0.5 * np.sum(rho.values**2) * grid1024.dx
        assert e2 == pytest.approx(e1 + rho_part, rel=1e-13, abs=0.0)


class TestEnergyF:
    def test_zero(self, grid1024, params_ch):
        assert dg.energy_F(zeros_state(grid1024), params_ch) == 0.0

    def test_odd_datum_dispersionless(self, grid4096, params_ch):
        # u^3 + u u_x^2 is odd for odd u and integrates to zero
        u = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        assert abs(dg.energy_F(dg.State(0.0, u), params_ch)) < 1e-12

    def test_peakon_oracle_value(self):
        # c0 = 1, u = e^{-|x|}: F = (1/2)(int u^3 + int u u_x^2 + int u^2)
        # = (1/2)(2/3 + 2/3 + 1) = 7/6; oracle fixed by accurate quadrature
        # of the analytic integrand
        p = dg.make_parameters(1.0, 0.0, 1.0)
        oracle = 0.5 * sum(
            quad(f, -20, 20, points=[0])[0]
            for f in (
                lambda x: np.exp(-3 * abs(x)),
                lambda x: np.exp(-abs(x)) * np.exp(-2 * abs(x)),
                lambda x: np.exp(-2 * abs(x)),
            )
        )
        assert oracle == pytest.approx(7.0 / 6.0, abs=1e-9)
        errs = []
        for n in (1024, 2048, 4096):
            grid = dg.make_grid(20.0, n)
            f = dg.energy_F(dg.State(0.0, peakon(grid, p)), p)
            errs.append(abs(f - 7.0 / 6.0))
        assert errs[-1] < 1e-3
        assert errs[0] > errs[-1]


class TestOneSidedGaps:
    def test_gaps_are_plain_arrays(self, grid1024, params_ch):
        # the gaps at the N nodes, each its own array, and gap_minimum
        # gives their least value and the first node where it is taken
        u = dg.ic_preset("gaussian_bump", grid1024)
        pair = gaps(u, params_ch)
        fk = full_kernel_gap(pair)
        for gap in (*pair, fk):
            assert type(gap) is np.ndarray and gap.shape == (1024,)
            i = int(np.argmin(gap))
            assert gap_minimum(gap, grid1024) == {"min_gap": gap.min(), "argmin_x": grid1024.nodes[i]}
        assert not any(np.shares_memory(a, b) for a, b in ((pair[0], pair[1]), (pair[0], fk),
                                                            (pair[1], fk)))

    def test_gaps_from_the_fields_own_operator(self, grid2048):
        # the gaps are those of the operator of u's grid and alpha, built
        # explicitly here, bit for bit
        p = dg.make_parameters(1.7, 0.0, 0.6)
        u = dg.ic_preset("gaussian_derivative", grid2048, a=0.9)
        uv, ux = grid2048.spectral.quarter_band(u.spectrum)
        w = 0.5 * p.alpha**2 * ux * ux + uv * uv + 2.0 * p.k * uv
        rhs = 0.5 * (uv + p.k) ** 2 - p.k**2
        pair = dg.NonlocalOperator(u.grid, p.alpha).one_sided_convolutions(w)
        for gap, conv in zip(gaps(u, p), pair):
            assert np.array_equal(gap, conv - rhs)

    def test_zero_datum_zero_gap_when_k_zero(self, grid1024, params_ch):
        u = dg.ic_preset("from_samples", grid1024, values=np.zeros(1024))
        gm, gp = gaps(u, params_ch)
        assert np.max(np.abs(gm)) == 0.0
        assert np.max(np.abs(gp)) == 0.0

    def test_zero_datum_nonzero_k(self, grid1024):
        # u = 0: LHS = 0, RHS = k^2/2 - k^2 = -k^2/2, so the gap is +k^2/2
        p = dg.make_parameters(1.0, 0.0, 0.8)  # k = 0.4
        u = dg.ic_preset("from_samples", grid1024, values=np.zeros(1024))
        gm, _ = gaps(u, p)
        assert np.allclose(gm, 0.5 * p.k**2, atol=1e-14)

    def test_peakon_witness_equality_region(self, params_ch):
        # equality holds on x <= y for the minus kernel; away from the
        # slope jump the discrete gap vanishes at second order
        region_gaps = []
        for n in (1024, 2048, 4096):
            grid = dg.make_grid(20.0, n)
            gm, gp = gaps(peakon(grid, params_ch), params_ch)
            assert gm.min() > -1e-8
            assert gp.min() > -1e-8
            region = grid.nodes <= -0.25
            region_gaps.append(np.max(np.abs(gm[region])))
        assert region_gaps[-1] < 1e-3
        order = np.log2(region_gaps[0] / region_gaps[-1]) / 2
        assert order >= 1.5

    def test_peakon_witness_study(self):
        # the per-resolution table lemmas reports as peakon_witness_study
        study = dg.peakon_witness_study(dg.make_parameters(1.0), [512, 1024])
        levels = study["levels"]
        assert [lev["n_points"] for lev in levels] == [512, 1024]
        for lev in levels:
            assert lev["min_gap"] >= -1e-8
            assert lev["gap_equality_region"] < lev["gap_at_peak"]
        # the equality-region gap converges faster than first order
        assert levels[0]["gap_equality_region"] / levels[1]["gap_equality_region"] > 3.0

    def test_witness_symmetry_between_kernels(self, grid2048, params_ch):
        # the plus kernel mirrors the minus one: equality on x >= y
        _, gp = gaps(peakon(grid2048, params_ch), params_ch)
        region = grid2048.nodes >= 0.25
        assert np.max(np.abs(gp[region])) < 1e-3

    def test_shifted_witness_with_offset(self):
        # u = c e^{-|x-y|/alpha} - k stays an equality witness
        p = dg.make_parameters(1.0, 0.0, 0.6)  # k = 0.3
        grid = dg.make_grid(20.0, 4096)
        u = peakon(grid, p, c=1.0, y=1.0, k=p.k)
        gm, gp = gaps(u, p)
        assert gm.min() > -1e-8
        region = grid.nodes <= 1.0 - 0.25
        assert np.max(np.abs(gm[region])) < 1e-3

    def test_random_band_limited_fields_nonnegative(self, grid2048):
        rng = np.random.default_rng(123)
        for _ in range(25):
            kv = float(rng.uniform(-1.0, 1.0))
            p = dg.make_parameters(1.0, 0.0, 2.0 * kv)
            gm, gp = one_sided_gaps(*gap_args(grid2048, *random_band_limited(rng, grid2048)), p.alpha, p.k)
            assert gm.min() > -1e-8
            assert gp.min() > -1e-8


class TestFullKernelGap:
    def test_constant_at_minus_k(self, grid1024):
        p = dg.make_parameters(1.0, 0.0, 1.0)  # k = 0.5
        u = dg.ic_preset("from_samples", grid1024, values=np.full(1024, -p.k))
        gap = full_kernel_gap(gaps(u, p))
        assert np.max(np.abs(gap)) < 1e-14

    def test_witness_minimum_sits_at_peak(self, params_ch):
        # within the active window the minimum of the gap field lands on
        # the peak node (the global minimum lies in the decayed far field)
        for n in (2048, 4096):
            grid = dg.make_grid(20.0, n)
            gap = full_kernel_gap(gaps(peakon(grid, params_ch), params_ch))
            active = np.abs(grid.nodes) <= 5.0
            vals = np.where(active, gap, np.inf)
            assert abs(grid.nodes[int(np.argmin(vals))]) <= grid.dx
            assert gap.min() > -1e-12

    def test_consistency_with_one_sided_pair(self, grid2048):
        # full-kernel gap of u with offset k equals the half-sum of the
        # one-sided gaps evaluated for u + k at zero offset
        p = dg.make_parameters(1.0, 0.0, 0.7)
        p0 = dg.make_parameters(1.0, 0.0, 0.0)
        u = dg.ic_preset("gaussian_bump", grid2048, a=0.8)
        shifted = dg.ic_preset("from_samples", grid2048, values=u.values + p.k)
        gm, gp = gaps(shifted, p0)
        combined = 0.5 * (gm + gp)
        gap = full_kernel_gap(gaps(u, p))
        assert np.max(np.abs(gap - combined)) < 1e-10

    @staticmethod
    def direct_gap(grid, row, op, p):
        # independent oracle: Q(alpha^2/2 u_x^2 + (u+k)^2) - (u+k)^2/2 on
        # the quarter band at the N nodes, with Q applied by its own transform
        uv, ux = n_grid_band(grid, row)
        conv = op.apply_q_values(0.5 * p.alpha**2 * ux * ux + (uv + p.k) ** 2)
        return conv - 0.5 * (uv + p.k) ** 2

    def assert_matches_oracle(self, grid, row, samples, p):
        oracle = self.direct_gap(grid, row, dg.make_operator(grid, p), p)
        gap = full_kernel_gap(one_sided_gaps(*gap_args(grid, row, samples), p.alpha, p.k))
        assert np.max(np.abs(gap - oracle)) < 1e-12

    @pytest.mark.parametrize("c0", [0.0, 0.7])
    @pytest.mark.parametrize("name", ["gaussian_bump", "gaussian_derivative", "sech_bump"])
    def test_presets_match_direct_oracle(self, grid4096, name, c0):
        u = dg.ic_preset(name, grid4096)
        self.assert_matches_oracle(grid4096, u.spectrum, u.values, dg.make_parameters(1.0, 0.0, c0))

    @pytest.mark.parametrize("c0", [0.0, 0.7])
    def test_witness_matches_direct_oracle(self, grid4096, c0):
        p = dg.make_parameters(1.0, 0.0, c0)
        u = peakon(grid4096, p, k=p.k)
        self.assert_matches_oracle(grid4096, u.spectrum, u.values, p)

    def test_random_fields_match_direct_oracle(self, grid4096):
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = dg.make_parameters(1.0, 0.0, 2.0 * float(rng.uniform(-1.0, 1.0)))
            self.assert_matches_oracle(grid4096, *random_band_limited(rng, grid4096), p)


class TestRandomBandLimited:
    @pytest.mark.parametrize("seed, max_mode", [(0, 1), (5, 80), (2024, 1024)])
    def test_matches_full_row_damping(self, grid4096, seed, max_mode):
        # damping only the drawn band leaves the row bit for bit as
        # damping every bin of it did, divided by the peak of its samples;
        # the samples returned are those samples, to round-off
        row, vals = full_row_draw(np.random.default_rng(seed), grid4096, 30, max_mode)
        peak = np.max(np.abs(vals))
        got_row, got = random_band_limited(np.random.default_rng(seed), grid4096, 30, max_mode)
        assert np.array_equal(got_row, row / peak)
        assert np.max(np.abs(got - vals / peak)) < 1e-15
        assert np.max(np.abs(got)) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(np.fft.rfft(got) - got_row)) < 1e-12

    @pytest.mark.parametrize("max_mode", [0, 257, 513])
    def test_band_outside_grid_rejected(self, grid1024, max_mode):
        # a draw reaches at most the quarter band's top bin, N/4 = 256
        with pytest.raises(ValueError, match="max_mode"):
            random_band_limited(np.random.default_rng(0), grid1024, max_mode=max_mode)

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_no_modes_rejected(self, grid1024, n_modes):
        # no mode would draw the zero field; a negative count would fail
        # inside numpy
        with pytest.raises(ValueError, match="n_modes"):
            random_band_limited(np.random.default_rng(0), grid1024, n_modes=n_modes)

    @pytest.mark.parametrize("max_mode", [1, 80, 1024])
    def test_supplied_band_matches_built_band(self, grid4096, max_mode):
        # up to the quarter band's top bin (max_mode <= N/4) the samples
        # returned are those of the transform that found the peak: the
        # row's own irfft, to round-off, not bit for bit
        rng = np.random.default_rng(max_mode)
        eps = np.finfo(float).eps
        for _ in range(10):
            row, vals = random_band_limited(rng, grid4096, 30, max_mode)
            want = dg.Field(grid4096, rfft_row=row).values
            assert np.max(np.abs(vals - want)) <= 16 * eps * np.max(np.abs(want))
            assert np.max(np.abs(vals)) == 1.0

    def test_supplied_band_is_read_only_and_unshared(self, grid4096):
        # the row and the samples of a draw are read-only and share no
        # memory with each other or with another draw's
        rng = np.random.default_rng(11)
        (u_row, u_vals), (v_row, v_vals) = (random_band_limited(rng, grid4096) for _ in range(2))
        for a in (u_row, u_vals, v_row, v_vals):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        for a, b in ((u_row, u_vals), (u_vals, v_row), (u_vals, v_vals), (u_row, v_row)):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("values", [
        np.zeros((2, 1023)),
        np.zeros((1, 1024)),
        np.full(1024, np.nan),
        np.r_[np.inf, np.zeros(1023)],
    ], ids=["short_rows", "one_row", "nan", "inf"])
    def test_field_refuses_bad_band(self, grid1024, values):
        # a field's samples are one finite sample per node: the check once
        # also made on the samples a random field was given with its row
        with pytest.raises(ValueError, match="samples|non-finite"):
            dg.Field(grid1024, values)


class TestWorkingGrid:
    """The gaps of a field whose top bin B lies below N/8 are formed on the
    working grid of m = N/2^j > 4B nodes; the tests hold them to the same
    gaps formed on all N nodes (tests/lemma_oracle.py)."""

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("max_mode", [1, 7, 8, 63, 64, 80, 200, "quarter"])
    def test_random_fields_match_n_grid_oracle(self, n, max_mode):
        grid = dg.make_grid(20.0, n)
        max_mode = n // 4 if max_mode == "quarter" else max_mode
        rng = np.random.default_rng(max_mode)
        for _ in range(5):
            p = dg.make_parameters(1.0, 0.0, 2.0 * float(rng.uniform(-1.0, 1.0)))
            row, samples = random_band_limited(rng, grid, 30, max_mode)
            minus, plus, slack = n_grid_gaps(grid, row, p)
            args = gap_args(grid, row, samples)
            pair = one_sided_gaps(*args, p.alpha, p.k)
            want = (minus, plus, 0.5 * (minus + plus))
            for gap, oracle in zip((*pair, full_kernel_gap(pair)), want):
                assert np.max(np.abs(gap - oracle)) < 1e-14
                assert gap_minimum(gap, grid)["argmin_x"] == grid.nodes[np.argmin(oracle)]
            assert abs(sobolev_gap(*args, p.alpha) - slack) < 1e-14

    @pytest.mark.parametrize("n, top, m, signed_zero", [
        *(pytest.param(n, top, m, None, id=f"{n}-{top}-{m}") for n, top, m in (
            (4096, 0, 2), (4096, 1, 8), (4096, 7, 32), (4096, 8, 64), (4096, 63, 256),
            (4096, 64, 512), (4096, 80, 512), (4096, 200, 1024), (4096, 511, 2048),
            (4096, 512, 4096), (4096, 1024, 4096), (1024, 80, 512), (1024, 200, 1024),
            # N = 1000 = 8 * 125: m = N/2^j stays even, and N/m a power of two
            (1000, 80, 500), (1000, 1, 250),
        )),
        # no nonzero bin in the band, bin 0 included (content only above
        # N/4): B = 0, as np.flatnonzero finds no bin
        pytest.param(4096, None, 2, None, id="4096-zero_band-2"),
        # -0.0 in the would-be top bin 100 is zero, as for np.flatnonzero: B = 7
        pytest.param(4096, 7, 32, 100, id="4096-7-32-signed_zero_above"),
    ])
    def test_working_grid_is_least_alias_free_fraction(self, n, top, m, signed_zero):
        # m = N/2^j, the fewest such (even) nodes above 4B, B the row's top
        # nonzero bin within the quarter band: on a power-of-two grid the
        # least power of two above 4B, capped at N; the bins above N/4 are
        # not read
        grid = dg.make_grid(20.0, n)
        sp = grid.spectral
        row = np.zeros(sp.xi.size, dtype=complex)
        if top is not None:
            row[top] = 0.5 + 0.25j
        if signed_zero is not None:
            row[signed_zero] = complex(-0.0, -0.0)
        row[sp.quarter + 1 :] = 1.0
        uv, ux = sp.quarter_band(row)
        assert uv.size == m
        # the rows are the band's samples at the m nodes -L + 2L j/m, every
        # (N/m)-th node of the grid
        row[sp.quarter + 1 :] = 0.0
        for got, coeffs in zip((uv, ux), (row, sp.ik * row)):
            want = np.fft.irfft(coeffs, n=n)[:: n // m]
            assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))

    def test_sample_built_fields_use_all_nodes(self, grid1024, grid4096, params_ch):
        # a field built from samples has round-off up to bin N/4, so B = N/4
        # and m = N: the presets, the peakon witness and user samples
        rng = np.random.default_rng(3)
        for grid in (grid1024, grid4096):
            n = grid.n_points
            fields = [dg.ic_preset(name, grid) for name in ("gaussian_bump", "gaussian_derivative",
                                                            "sech_bump")]
            fields.append(peakon(grid, params_ch, k=params_ch.k))
            fields.append(dg.ic_preset("from_samples", grid, values=rng.standard_normal(n)))
            for u in fields:
                assert grid.spectral.quarter_band(u.spectrum).shape == (2, n)

    def test_convolutions_from_working_grid_samples(self, grid4096, params_ch):
        # samples of a function of bins < m/2 on m nodes convolve to what
        # its samples on all N nodes do, and the working grid's Nyquist bin
        # m/2, which no alias-free product holds, is dropped
        op = dg.NonlocalOperator(grid4096, params_ch.alpha)
        row = np.zeros(2049, dtype=complex)
        row[1:100] = np.random.default_rng(5).standard_normal(99) * np.exp(-np.arange(1, 100) / 20.0)
        full = dg.Field(grid4096, rfft_row=row)
        for m in (256, 512, 4096):
            band = dg.Field(grid4096, rfft_row=row * (m / 4096))
            samples = np.fft.irfft(band.spectrum, n=m)
            for got, want in zip(op.one_sided_convolutions(samples),
                                 op.one_sided_convolutions(full.values)):
                assert np.max(np.abs(got - want)) < 1e-14
        for m in (8, 256, 512):
            nyquist = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
            for conv in op.one_sided_convolutions(nyquist):
                assert conv.shape == (4096,) and np.max(np.abs(conv)) == 0.0

    @pytest.mark.parametrize("m", [1000, 3, 8192])
    def test_convolutions_refuse_other_grids(self, grid4096, m):
        op = dg.NonlocalOperator(grid4096, 1.0)
        with pytest.raises(ValueError, match="working grid"):
            op.one_sided_convolutions(np.ones(m))


class TestSobolevGap:
    def test_zero(self, grid1024, params_ch):
        u = dg.ic_preset("from_samples", grid1024, values=np.zeros(1024))
        assert sobolev_gap(*field_gap_args(u), params_ch.alpha) == 0.0

    def test_peakon_is_equality_witness(self, params_ch):
        gaps = []
        for n in (1024, 2048, 4096):
            grid = dg.make_grid(20.0, n)
            g = sobolev_gap(*field_gap_args(peakon(grid, params_ch)), params_ch.alpha)
            assert g >= -1e-12
            gaps.append(g)
        assert gaps[-1] < 5e-3
        assert np.log2(gaps[0] / gaps[-1]) / 2 > 0.8

    def test_random_fields_nonnegative(self, grid2048, params_ch):
        rng = np.random.default_rng(77)
        for _ in range(100):
            args = gap_args(grid2048, *random_band_limited(rng, grid2048))
            assert sobolev_gap(*args, params_ch.alpha) > -1e-9


class TestCriterionOneComponent:
    def test_steep_gaussian_derivative(self, grid4096, params_ch):
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        v = dg.check_criterion_dgh(u0, params_ch)
        assert v.holds
        assert v.x0_best == pytest.approx(0.0, abs=1e-9)
        assert v.margin == pytest.approx(-1.0, abs=1e-9)
        assert v.time_bound == pytest.approx(2.0, abs=1e-8)

    def test_zero_datum_never_holds(self, grid1024):
        p = dg.make_parameters(1.0, 0.0, 0.6)  # k = 0.3
        u0 = dg.ic_preset("from_samples", grid1024, values=np.zeros(1024))
        v = dg.check_criterion_dgh(u0, p)
        assert not v.holds
        assert v.margin == pytest.approx(abs(p.k), rel=1e-14, abs=0.0)
        assert v.time_bound is None

    def test_scan_matches_dense_analytic_oracle(self, grid4096, params_ch):
        # mirrored datum: the minimizer is away from the origin; compare
        # with a 10x-refined evaluation of the analytic margin
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=-1.0)
        v = dg.check_criterion_dgh(u0, params_ch)
        xs = np.linspace(-20.0, 20.0, 10 * grid4096.n_points, endpoint=False)
        margin_oracle = (1 - xs**2) * np.exp(-(xs**2) / 2) + np.abs(
            xs * np.exp(-(xs**2) / 2)
        )
        i = int(np.argmin(margin_oracle))
        assert v.margin == pytest.approx(margin_oracle[i], abs=1e-8)
        assert v.x0_best == pytest.approx(xs[i], abs=1e-3)

    def test_shift_covariance(self, grid4096, params_ch):
        shift_cells = 317
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        v0 = dg.check_criterion_dgh(u0, params_ch)
        rolled = dg.ic_preset(
            "from_samples", grid4096, values=np.roll(u0.values, shift_cells)
        )
        vs = dg.check_criterion_dgh(rolled, params_ch)
        assert vs.x0_best == pytest.approx(
            v0.x0_best + shift_cells * grid4096.dx, abs=1e-12
        )
        assert vs.margin == pytest.approx(v0.margin, abs=1e-12)
        assert vs.time_bound == pytest.approx(v0.time_bound, abs=1e-12)

    @pytest.mark.parametrize("a,bound", [(0.5, 4.0), (1.0, 2.0), (2.0, 1.0)])
    def test_bound_decreases_with_steepness(self, grid4096, params_ch, a, bound):
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=a)
        v = dg.check_criterion_dgh(u0, params_ch)
        assert v.holds
        assert v.time_bound == pytest.approx(bound, abs=1e-8)

    @pytest.mark.parametrize("seed,amp", [(0, 2.0), (1, 2.0), (2, 2.0), (3, 0.01)])
    def test_refined_margin_on_interpolant(self, grid2048, seed, amp):
        # the reported margin is the margin at x0_best on the interpolant
        # and no node margin is below it; the bound is the formula on the
        # interpolated u0, u0' at x0_best.  Measured: the margin exactly
        # (each refined point here moved off its node), the bound within
        # 4.4e-16 relative
        rng = np.random.default_rng(seed)
        grid = grid2048
        sp = grid.spectral
        p = dg.make_parameters(1.0, 0.3 * (seed % 2), 0.4 * (seed // 2))
        u0 = dg.ic_preset("from_samples", grid, values=amp * random_band_limited(rng, grid)[1])
        v = dg.check_criterion_dgh(u0, p)
        u_hat = np.fft.rfft(u0.values)
        value, slope = sp.values(np.array([u_hat, sp.ik * u_hat]), sp.basis(v.x0_best))[:, 0]
        assert v.margin <= np.min(_margin(ddx(grid, u0.values), u0.values, p))
        assert v.margin == pytest.approx(_margin(slope, value, p), abs=1e-14)
        assert v.holds == (v.margin < 0.0)
        if v.holds:
            bound = 2.0 / np.sqrt(slope**2 - ((value + p.k) / p.alpha) ** 2)
            assert v.time_bound == pytest.approx(bound, rel=1e-14, abs=0.0)
        else:
            assert v.time_bound is None

    @pytest.mark.parametrize("offset", ["-k", "0"])
    def test_off_node_minimizer_at_nonzero_k(self, grid1024, offset):
        # u0 = -(x - c) exp(-(x - c)^2/2) + offset with c = 0.3 dx, k = 0.35.
        # With offset -k the margin has its kink at x0 = c; with offset 0
        # its smooth minimum sits at x0 = c + s*, s* the root of the closed
        # form's slope.  Measured: 1.8e-15 and 3.1e-14 (golden section
        # left 9.5e-9 in the smooth case)
        p = dg.make_parameters(1.0, 0.3, 0.4)
        k = p.k
        centre = 0.3 * grid1024.dx

        def margin_slope(s):
            e = np.exp(-s * s / 2.0)
            return (3.0 * s - s**3) * e + np.sign(-s * e + k) * (s * s - 1.0) * e

        s_star = 0.0 if offset == "-k" else brentq(margin_slope, 0.2, 0.5, xtol=1e-16)
        u0 = dg.ic_preset(
            "gaussian_derivative", grid1024, a=1.0, center=centre,
            offset=-k if offset == "-k" else 0.0,
        )
        v = dg.check_criterion_dgh(u0, p)
        assert v.holds
        assert v.x0_best - centre == pytest.approx(s_star, abs=1e-13)


class TestCriterionTwoComponent:
    def test_holds_with_vacuum_point(self, grid4096, params_ch):
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        rho0 = dg.ic_preset("gaussian_bump", grid4096, a=-1.0, width=2.0**-0.5)
        v = dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert v.holds
        assert v.rho_condition_met
        assert v.x0_best == 0.0
        assert v.margin == pytest.approx(-1.0, abs=1e-12)
        assert v.time_bound == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("cells", [0.25, 0.5])
    def test_holds_at_off_node_vacuum_point(self, grid4096, params_ch, cells):
        # the datum above shifted by a fraction of a cell: no node is a
        # vacuum point, the refined minimum of rho~0 is.  Measured: x0_best
        # within 5.3e-15 of the shift, margin within 9.1e-15 of -1, bound
        # within 4.9e-15 of 2
        shift = cells * grid4096.dx
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.0, center=shift)
        rho0 = dg.ic_preset("gaussian_bump", grid4096, a=-1.0, center=shift, width=2.0**-0.5)
        assert np.min(rho0.values) > -1.0 + 1e-6
        v = dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert v.holds
        assert v.rho_condition_met
        assert v.x0_best == pytest.approx(shift, abs=5e-14)
        assert v.margin == pytest.approx(-1.0, abs=5e-14)
        assert v.time_bound == pytest.approx(2.0, abs=5e-14)

    def test_vacuum_interval(self, grid4096, params_ch):
        # rho~0 = -1 on [-1, 1], joined C^1 to its tails, and u0 steepest at
        # 0.5: the interpolant undershoots -1 between the interval's nodes
        # (measured: by up to 1.3e-5 near the joins, 4.9e-7 near 0.5), so
        # the nodes stay vacuum points, and x0 is the node nearest 0.5
        x = grid4096.nodes
        rho0 = dg.ic_preset("from_samples", grid4096,
                            values=-np.exp(-np.clip(np.abs(x) - 1.0, 0.0, None) ** 2 / 0.1))
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.5, center=0.5)
        v = dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert v.holds and v.rho_condition_met
        assert abs(v.x0_best - 0.5) <= 0.5 * grid4096.dx
        assert v.margin < -1.49

    def test_exact_vacuum_nodes_are_not_refined(self, grid4096, params_ch, monkeypatch):
        # a node with |rho~ + 1| = 0 cannot move (the refined point must be
        # strictly better), so only the nodes beside the interval's 205
        # exact-vacuum nodes are bisected
        x = grid4096.nodes
        rho0 = dg.ic_preset("from_samples", grid4096,
                            values=-np.exp(-np.clip(np.abs(x) - 1.0, 0.0, None) ** 2 / 0.1))
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.5, center=0.5)
        sp = grid4096.spectral
        refine_min = sp.refine_min
        gaps = []

        def recording(coeffs, target, x, f):
            gaps.append(np.array(f))
            return refine_min(coeffs, target, x, f)

        monkeypatch.setattr(sp, "refine_min", recording)
        dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert np.sum(np.abs(rho0.values + 1.0) == 0.0) == 205
        assert len(gaps) == 1 and np.all(gaps[0] > 0.0)

    def test_fails_without_vacuum_point(self, grid4096, params_ch):
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=1.0)
        rho0 = dg.ic_preset("from_samples", grid4096, values=np.zeros(4096))
        v = dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert not v.holds
        assert v.rho_condition_met is False

    def test_rejects_nonzero_gamma(self, grid1024):
        p = dg.make_parameters(1.0, 0.5, 0.0)
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
        rho0 = dg.ic_preset("gaussian_bump", grid1024, a=-1.0, width=2.0**-0.5)
        with pytest.raises(ValueError):
            dg.check_criterion_dgh2(u0, rho0, p)

    def test_rejects_fields_from_two_grids(self, grid1024, grid2048, params_ch):
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
        rho0 = dg.ic_preset("gaussian_bump", grid2048, a=-1.0, width=2.0**-0.5)
        with pytest.raises(ValueError, match="must share one grid"):
            dg.check_criterion_dgh2(u0, rho0, params_ch)

    def test_vacuum_but_shallow_slope(self, grid4096, params_ch):
        # condition (i) met at x = 0 but the slope there is positive
        u0 = dg.ic_preset("gaussian_derivative", grid4096, a=-0.3)
        rho0 = dg.ic_preset("gaussian_bump", grid4096, a=-1.0, width=2.0**-0.5)
        v = dg.check_criterion_dgh2(u0, rho0, params_ch)
        assert v.rho_condition_met
        assert not v.holds


class TestVerdictSimulationConsistency:
    def test_holding_verdict_predicts_detection(self, runs):
        for key in (("breaking", 0.5, 4096), ("breaking", 2.0, 4096)):
            traj, rep, verdict, _ = runs.get(*key)
            assert verdict.holds
            assert rep.blew_up
            assert rep.t_detect < verdict.time_bound
