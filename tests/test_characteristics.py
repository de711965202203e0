import numpy as np
import pytest

import dghlab as dg
from derivative import ddx
from path_checks import collapse_rate, monotone_violation, resolved_count, weighted_ab


def constant_state(grid, c):
    return dg.State(0.0, dg.ic_preset("from_samples", grid, values=np.full(grid.n_points, c)))


class TestFlowMap:
    def test_stationary_flow(self, grid1024, params_ch):
        traj, _ = dg.simulate(
            constant_state(grid1024, 0.0), dg.SolverConfig(t_max=1.0, record_every=2),
            params_ch,
        )
        path = dg.advect(traj, -3.0, params_ch)
        assert np.max(np.abs(path.q + 3.0)) == 0.0
        assert np.max(np.abs(path.qx - 1.0)) == 0.0
        assert np.max(np.abs(path.g)) < 1e-12

    def test_uniform_translation(self, grid1024, params_ch):
        c = 0.4
        traj, _ = dg.simulate(
            constant_state(grid1024, c), dg.SolverConfig(t_max=1.0, record_every=2),
            params_ch,
        )
        path = dg.advect(traj, 0.5, params_ch)
        assert np.max(np.abs(path.q - (0.5 + c * path.t))) < 1e-10
        assert np.max(np.abs(path.qx - 1.0)) < 1e-12

    def test_seed_outside_domain_rejected(self, bump_run, params_ch):
        traj, _, _, _ = bump_run
        with pytest.raises(ValueError):
            dg.advect(traj, 25.0, params_ch)

    def test_stretch_matches_slope_quadrature(self, bump_run):
        # q_x from its ODE vs exp of the trapezoid integral of the
        # recorded slope series
        traj, _, _, params = bump_run
        for x0 in (-1.0, 0.5):
            path = dg.advect(traj, x0, params)
            integral = np.concatenate(
                [[0.0], np.cumsum(0.5 * (path.g[1:] + path.g[:-1]) * np.diff(path.t))]
            )
            assert np.max(np.abs(path.qx - np.exp(integral))) < 1e-6

    def test_paths_preserve_order(self, bump_run):
        # the flow map stays an increasing rearrangement of the seeds
        traj, _, _, params = bump_run
        seeds = [-2.0, -0.5, 0.0, 1.0, 2.5]
        qs = np.array([dg.advect(traj, s, params).q for s in seeds])
        assert np.all(np.diff(qs, axis=0) > 0)

    def test_boundary_truncation_flag(self, grid1024, params_ch):
        traj, _ = dg.simulate(
            constant_state(grid1024, 0.5), dg.SolverConfig(t_max=2.0, record_every=2),
            params_ch,
        )
        L = grid1024.half_length
        path = dg.advect(traj, L - 2.3, params_ch)
        assert path.truncated
        assert path.t.size < len(traj)


class TestMultiSeedAdvect:
    """One advect call over several seeds gives, per seed, the path of the
    single-seed call."""

    def check(self, traj, seeds, params):
        paths = dg.advect(traj, seeds, params)
        assert isinstance(paths, list) and len(paths) == len(seeds)
        for x0, path in zip(seeds, paths):
            ref = dg.advect(traj, x0, params)
            assert path.x0 == ref.x0
            assert path.truncated == ref.truncated
            assert path.n_pre_detection == ref.n_pre_detection
            assert np.array_equal(path.t, ref.t)
            for name in ("q", "qx", "g", "momentum_res", "rho_res"):
                got, want = getattr(path, name), getattr(ref, name)
                if want is None:
                    assert got is None
                    continue
                assert np.max(np.abs(got - want)) <= 1e-12
        return paths

    def test_matches_single_seed_paths(self, bump_run):
        traj, _, _, params = bump_run
        self.check(traj, [-2.0, 0.0, 1.5], params)

    def test_seed_leaving_domain(self, grid1024, params_ch):
        traj, _ = dg.simulate(
            constant_state(grid1024, 0.5), dg.SolverConfig(t_max=2.0, record_every=2),
            params_ch,
        )
        L = grid1024.half_length
        paths = self.check(traj, [L - 2.3, 0.0], params_ch)
        assert paths[0].truncated and not paths[1].truncated
        assert paths[0].t.size < paths[1].t.size == len(traj)

    def test_two_component(self, runs):
        traj, _, _, params = runs.get("two_smooth")
        paths = self.check(traj, [0.0, 0.5, -1.0], params)
        assert all(p.rho_res is not None for p in paths)


class TestPathFunctionals:
    def test_weighted_pair_at_t0(self, params_ch):
        # A(0) = e^{x0/a}((u0+k)/a - u0'), B(0) = e^{-x0/a}((u0+k)/a + u0')
        p = dg.make_parameters(2.0, 1.0, 0.5)
        a, b = weighted_ab(0.0, 1.3, 0.7, -0.4, p)
        base = (0.7 + p.k) / p.alpha
        assert a == pytest.approx(np.exp(1.3 / 2.0) * (base + 0.4), rel=1e-14, abs=0.0)
        assert b == pytest.approx(np.exp(-1.3 / 2.0) * (base - 0.4), rel=1e-14, abs=0.0)

    def test_weighted_pair_zero_velocity(self, params_ch):
        a, b = weighted_ab(0.5, 0.2, 0.0, 0.0, params_ch)
        assert a == 0.0 and b == 0.0

    def test_steep_seed_values(self, params_ch):
        # u0 = -x e^{-x^2/2} at x0 = 0: u0 = 0, u0' = -1
        assert weighted_ab(0.0, 0.0, 0.0, -1.0, params_ch) == (1.0, -1.0)
        a, b = dg.plain_ab(0.0, -1.0, params_ch)
        assert (a, b) == (1.0, -1.0)
        assert collapse_rate(a, b) == 1.0

    def test_collapse_rate_undefined_when_product_nonnegative(self, params_ch):
        a, b = dg.plain_ab(0.5, 0.0, params_ch)
        assert a == b == 0.5
        assert np.isnan(collapse_rate(a, b))

    def test_collapse_rate_of_steep_seed_is_finite(self, params_ch):
        # A*B = -1e400 overflows a float; h = 1e200 does not
        a, b = dg.plain_ab(0.0, -1e200, params_ch)
        assert collapse_rate(a, b) == pytest.approx(1e200, rel=1e-15, abs=0.0)

    def test_weighted_overflow_goes_to_log_form(self):
        # k - lam > 0: gamma = 4, c0 = 0 -> lam = -4, k = 2, k-lam = 6
        p = dg.make_parameters(1.0, 4.0, 0.0)
        a, b = weighted_ab(150.0, 0.0, 0.3, -0.2, p)
        assert np.isinf(a)
        sa, la, sb, lb = dg.weighted_ab_log(150.0, 0.0, 0.3, -0.2, p)
        assert sa > 0 and np.isfinite(la)
        assert b == pytest.approx(sb * np.exp(lb))

    def test_momentum_residual_is_zero_at_t0(self, params_ch):
        assert dg.momentum_residual(0.37, 0.37, 1.0, params_ch) == 0.0

    def test_array_point_matches_scalar_points(self):
        # advect evaluates each functional once on a path's whole series;
        # record by record on scalars the results are the same bits
        rng = np.random.default_rng(3)
        p = dg.make_parameters(1.3, 0.4, 0.25)
        cols = {f: rng.normal(size=40) for f in ("t", "q", "qx", "u", "ux", "m", "rho")}
        cols["u"][:2], cols["ux"][:2] = -p.k, 0.0  # zero bases: log -inf
        cols["t"][-1] = 2000.0  # weighted pair overflows
        m0, rho0 = 0.37, -0.2

        def functionals(t, q, qx, u, ux, m, rho):
            return (
                *dg.weighted_ab_log(t, q, u, ux, p), *weighted_ab(t, q, u, ux, p),
                *dg.plain_ab(u, ux, p),
                dg.momentum_residual(m, m0, qx, p), dg.rho_invariant_residual(rho, rho0, qx),
            )

        series = functionals(**cols)
        for i in range(40):
            point = functionals(**{f: float(v[i]) for f, v in cols.items()})
            assert [float(s[i]) for s in series] == [float(x) for x in point]


class TestMomentumIdentity:
    def test_residual_small_on_smooth_run(self, bump_run):
        # (m0 + k) = (m(t,q) + k) q_x^2 along exact solutions
        traj, _, _, params = bump_run
        grid = traj[0].state.u.grid
        u0 = traj[0].state.u.values
        uxx0 = ddx(grid, ddx(grid, u0))
        for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            path = dg.advect(traj, x0, params)
            i = int(np.argmin(np.abs(grid.nodes - x0)))
            scale = abs(u0[i] - params.alpha**2 * uxx0[i] + params.k)
            assert path.momentum_res[0] == 0.0
            assert np.max(np.abs(path.momentum_res)) / scale < 1e-5

    def test_residual_small_with_transport(self, grid4096):
        # gamma != 0: the solver steps lam u_x with an exact phase and on
        # |u| alone, while the records' du/dt keep the full time derivative
        # that the paths interpolate in time; criterion 03's gate holds
        # (measured 1.6e-9; 4.2e-9 on the lam = 0 bump run)
        params = dg.make_parameters(1.0, 0.7, 0.4)
        u0 = dg.ic_preset("gaussian_bump", grid4096)
        cfg = dg.SolverConfig(t_max=1.0, record_every=4)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
        assert rep.trigger == "horizon_reached"
        uxx0 = ddx(grid4096, ddx(grid4096, u0.values))
        for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            path = dg.advect(traj, x0, params)
            i = int(np.argmin(np.abs(grid4096.nodes - x0)))
            scale = abs(u0.values[i] - params.alpha**2 * uxx0[i] + params.k)
            assert np.max(np.abs(path.momentum_res)) / scale < 1e-5


class TestDensityInvariant:
    def test_zero_at_t0(self, runs):
        traj, _, _, params = runs.get("two_smooth")
        path = dg.advect(traj, 0.7, params)
        assert path.rho_res[0] == pytest.approx(0.0, abs=1e-14)

    def test_generic_seed_residual_small(self, runs):
        traj, _, _, params = runs.get("two_smooth")
        for x0 in (-1.0, 0.3, 0.7):
            path = dg.advect(traj, x0, params)
            assert np.max(np.abs(path.rho_res)) < 1e-5

    def test_vacuum_seed_density_pinned(self, runs):
        # rho~0(0) = -1 at a grid node: along that characteristic the
        # density stays at -1 while the compression is grid-resolved (the
        # density spike at the collapse grows like qx^-3, one power faster
        # than the slope, hence the tighter window than the slope checks)
        traj, rep, _, params = runs.get("two_breaking")
        path = dg.advect(traj, 0.0, params)
        n = resolved_count(path, qx_floor=0.2)
        assert n > 10
        rho_along = path.rho_res[:n] / path.qx[:n] - 1.0
        assert np.max(np.abs(rho_along + 1.0)) < 1e-6

    def test_no_residual_off_the_density_frame(self, grid1024):
        # the invariant holds along paths moving at u; at gamma != 0 the
        # paths move at u + lam.  On two_component_vacuum.yaml the largest
        # |rho_res| on q_x > 0.2 of the vacuum seed read 3.7e-9 at gamma = 0
        # and 0.25, a frame mismatch, at gamma = 0.5
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
        rho0 = dg.ic_preset("gaussian_bump", grid1024, a=-1.0, width=2.0**-0.5)
        for gamma in (0.0, 0.5):
            params = dg.make_parameters(1.0, gamma)
            traj, _ = dg.simulate(dg.State(0.0, u0, rho0),
                                  dg.SolverConfig(t_max=0.5, record_every=4), params)
            paths = dg.advect(traj, [0.0, 0.5], params)
            assert all((p.rho_res is None) == (gamma != 0.0) for p in paths)
            assert all(len(p.t) == len(traj) for p in paths)


class TestMonotoneFunctionals:
    def test_weighted_pair_monotone_on_breaking_run(self, breaking_run):
        traj, rep, verdict, params = breaking_run
        assert verdict.holds
        path = dg.advect(traj, verdict.x0_best, params)
        n = resolved_count(path)
        tol = 1e-8
        va = monotone_violation(path.sign_a_w[:n], path.log_abs_a_w[:n], "increasing")
        vb = monotone_violation(path.sign_b_w[:n], path.log_abs_b_w[:n], "decreasing")
        assert va <= tol
        assert vb <= tol

    def test_signs_persist(self, breaking_run):
        traj, _, verdict, params = breaking_run
        path = dg.advect(traj, verdict.x0_best, params)
        n = path.n_pre_detection
        assert np.all(path.sign_a_w[:n] > 0)
        assert np.all(path.sign_b_w[:n] < 0)

    def test_slope_strictly_decreases(self, breaking_run):
        traj, _, verdict, params = breaking_run
        path = dg.advect(traj, verdict.x0_best, params)
        n = resolved_count(path)
        g = path.g[:n]
        assert np.all(np.diff(g) < 1e-8 * (1.0 + np.abs(g[:-1])))

    def test_riccati_inequality_along_path(self, breaking_run):
        # d/dt g <= (-g^2 + ((u+k)/alpha)^2)/2 at recorded points
        traj, _, verdict, params = breaking_run
        path = dg.advect(traj, verdict.x0_best, params)
        n = resolved_count(path)
        g, u, t = path.g[:n], path.u[:n], path.t[:n]
        dg_dt = np.diff(g) / np.diff(t)
        rhs = 0.5 * (-(g**2) + ((u + params.k) / params.alpha) ** 2)
        slack = 1e-8 * (1.0 + np.abs(rhs[:-1]))
        assert np.all(dg_dt <= rhs[:-1] + slack)

    def test_collapse_rate_grows_quadratically(self, breaking_run):
        # d/dt h >= h^2/2 along the criterion path (convexity makes the
        # forward difference an upper-sided estimate)
        traj, _, verdict, params = breaking_run
        path = dg.advect(traj, verdict.x0_best, params)
        n = resolved_count(path)
        h, t = collapse_rate(path.a_plain[:n], path.b_plain[:n]), path.t[:n]
        assert np.all(np.isfinite(h))
        dh_dt = np.diff(h) / np.diff(t)
        assert np.all(dh_dt >= 0.5 * h[:-1] ** 2 - 1e-8 * (1.0 + h[:-1] ** 2))

    def test_monotone_violation_handles_overflow_pairs(self):
        # synthetic series entering the overflowed regime stays checkable
        signs = np.array([1.0, 1.0, 1.0])
        logs = np.array([100.0, 800.0, 900.0])  # exp overflows beyond ~709
        assert monotone_violation(signs, logs, "increasing") <= 0.0
        assert monotone_violation(signs[::-1].copy(), logs[::-1].copy(), "increasing") > 0.0
        down = monotone_violation(-signs, logs, "decreasing")
        assert down <= 0.0


class TestTrackerConsistency:
    def test_interpolated_slope_matches_tracker_regime(self, breaking_run):
        # pre-steepening, the path's interpolated slope must agree with
        # the genuine slope dynamics that detection integrates; by the
        # time they diverge the grid series has saturated
        traj, rep, verdict, params = breaking_run
        path = dg.advect(traj, verdict.x0_best, params)
        early = path.t <= 0.5 * rep.t_detect
        # compare against the Riccati identity integrated from the fields:
        # here simply check the slope fell substantially below g(0) while
        # still resolved, i.e. the collapse is visible in both pictures
        assert path.g[early][-1] < path.g[0] < 0
        assert rep.min_slope_at_detect < -1e4
