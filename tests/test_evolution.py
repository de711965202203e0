import logging
import re
import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import dghlab as dg
from dghlab import evolution
from dghlab.evolution import (
    TRIGGER_DT,
    TRIGGER_HORIZON,
    TRIGGER_SLOPE,
    TrajectoryRecord,
    _SlopeTracker,
    _evaluate,
    _step,
)
from derivative import ddx
from solitary import solitary_wave


def zeros(grid):
    return dg.ic_preset("from_samples", grid, values=np.zeros(grid.n_points))


def constant(grid, c):
    return dg.ic_preset("from_samples", grid, values=np.full(grid.n_points, c))


def full_rhs(y_hat, op, params):
    """The time derivatives of the rfft rows y_hat = (u[, rho~]), from the
    stage evaluation simulate makes at every point it reaches; its u row
    leaves out the transport lam u_x, which the step carries, so it is
    added back here."""
    k_hat = _evaluate(y_hat, op, params).k_hat.copy()
    k_hat[0] -= params.lam * op.grid.spectral.ik * y_hat[0]
    return k_hat


def rhs(state, params):
    """(du/dt, drho~/dt) samples at the datum (drho~/dt None for one
    component)."""
    grid = state.u.grid
    rows = [state.u.spectrum] + ([] if state.rho_tilde is None else [state.rho_tilde.spectrum])
    k_hat = full_rhs(np.array(rows), dg.make_operator(grid, params), params)
    du, *drho = np.fft.irfft(k_hat, n=grid.n_points)
    return du, (drho[0] if drho else None)


def first_dt(state, params, t_max):
    """Size of the first step, read from the record after it."""
    traj, _ = dg.simulate(state, dg.SolverConfig(t_max=t_max, record_every=1), params)
    return traj[1].diagnostics.dt


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(t_max=0.0),
            dict(t_max=1.0, cfl=0.0),
            dict(t_max=1.0, cfl=1.5),
            dict(t_max=1.0, dt_min=0.0),
            dict(t_max=1.0, slope_blowup_threshold=-1.0),
            dict(t_max=1.0, record_every=0),
            # int() would truncate these, and steps % 2.5 == 0 every 5th step
            dict(t_max=1.0, record_every=2.5),
            dict(t_max=1.0, record_every=True),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            dg.SolverConfig(**kw)

    @pytest.mark.parametrize("name", ["t_max", "cfl", "dt_min", "slope_blowup_threshold"])
    def test_float_knobs_refuse_booleans(self, name):
        # float(True) is 1.0, which would run to t = 1 (or at cfl 1)
        with pytest.raises(ValueError, match=name):
            dg.SolverConfig(**{"t_max": 1.0, name: True})
        assert type(dg.SolverConfig(t_max=2).t_max) is float


class TestRhsOneComponent:
    def test_zero_datum(self, grid1024, params_ch):
        out, _ = rhs(dg.State(0.0, zeros(grid1024)), params_ch)
        assert np.max(np.abs(out)) == 0.0

    def test_constant_datum_dispersionless(self, grid1024, params_ch):
        # k = lam = 0: transport of a constant vanishes and the nonlocal
        # term of a constant has zero derivative
        out, _ = rhs(dg.State(0.0, constant(grid1024, 0.8)), params_ch)
        assert np.max(np.abs(out)) < 1e-14

    def test_matches_momentum_form(self, grid4096):
        # independent derivation: m = u - a^2 u_xx evolves by
        # m_t = -c0 u_x - u m_x - 2 m u_x - gamma u_xxx, and u_t = Q m_t
        p = dg.make_parameters(1.3, 0.4, 0.25)
        grid = grid4096
        op = dg.make_operator(grid, p)
        u = dg.ic_preset("gaussian_bump", grid, a=0.7)
        du = rhs(dg.State(0.0, u), p)[0]

        n = grid.n_points
        uh = np.fft.rfft(u.values)
        xi = grid.spectral.xi
        ik = 1j * xi
        ik[-1] = 0.0
        ux = np.fft.irfft(ik * uh, n=n)
        uxx = np.fft.irfft(-(xi**2) * uh, n=n)
        uxxx = np.fft.irfft(ik * -(xi**2) * uh, n=n)
        m = u.values - p.alpha**2 * uxx
        mx = ux - p.alpha**2 * uxxx
        mt = -p.c0 * ux - u.values * mx - 2.0 * m * ux - p.gamma * uxxx
        oracle = op.apply_q_values(mt)
        assert np.max(np.abs(du - oracle)) < 1e-8


class TestRhsTwoComponent:
    def test_zero_data(self, grid1024, params_ch):
        st = dg.State(0.0, zeros(grid1024), zeros(grid1024))
        du, dr = rhs(st, params_ch)
        assert np.max(np.abs(du)) == 0.0
        assert np.max(np.abs(dr)) == 0.0

    def test_resting_velocity(self, grid1024, params_ch):
        # u = 0: the density only forces u through the convolution term
        op = dg.make_operator(grid1024, params_ch)
        rho = dg.ic_preset("gaussian_bump", grid1024, a=0.3)
        st = dg.State(0.0, zeros(grid1024), rho)
        du, dr = rhs(st, params_ch)
        n = grid1024.n_points
        mask = (np.arange(n // 2 + 1) <= n // 3).astype(float)
        rf = np.fft.irfft(mask * np.fft.rfft(rho.values), n=n)
        conv_arg = np.fft.irfft(mask * np.fft.rfft(0.5 * rf * rf), n=n) + rho.values
        expected = -np.fft.irfft(op.symbol_dq * np.fft.rfft(conv_arg), n=n)
        assert np.max(np.abs(du - expected)) < 1e-13
        assert np.max(np.abs(dr)) == 0.0

    def test_rho_at_minus_one_is_stationary(self, grid1024, params_ch):
        # rho~ = -1: the source -u_x rho~ - u_x cancels identically
        u = dg.ic_preset("gaussian_bump", grid1024, a=0.6)
        st = dg.State(0.0, u, constant(grid1024, -1.0))
        _, dr = rhs(st, params_ch)
        assert np.max(np.abs(dr)) < 1e-13

    def test_sigma_scales_density_coupling(self, grid1024):
        # sigma = 0 decouples the density from the velocity equation
        p0 = dg.make_parameters(1.0, 0.0, 0.0, sigma=0.0)
        u = dg.ic_preset("gaussian_bump", grid1024, a=0.5)
        rho = dg.ic_preset("gaussian_bump", grid1024, a=0.4, center=1.0)
        du2, _ = rhs(dg.State(0.0, u, rho), p0)
        du1, _ = rhs(dg.State(0.0, u), p0)
        assert np.max(np.abs(du2 - du1)) < 1e-15


class TestStepRK4:
    def test_zero_fixed_point(self, grid1024, params_ch):
        op = dg.make_operator(grid1024, params_ch)
        for rows in (1, 2):
            y_hat = np.zeros((rows, grid1024.n_points // 2 + 1), dtype=complex)
            ev = _evaluate(y_hat, op, params_ch)
            assert np.max(np.abs(_step(ev, 0.05, op, params_ch))) == 0.0

    def test_fourth_order_self_convergence(self, grid1024, params_ch):
        # halving dt must shrink the final-state error ~16x (Richardson
        # against a dt/4 reference)
        op = dg.make_operator(grid1024, params_ch)
        u0_hat = dg.ic_preset("gaussian_bump", grid1024).spectrum[None]

        def integrate(dt, T=0.4):
            y_hat = u0_hat
            for _ in range(round(T / dt)):
                y_hat = _step(_evaluate(y_hat, op, params_ch), dt, op, params_ch)
            return np.fft.irfft(y_hat, n=grid1024.n_points)

        ref = integrate(0.005)
        e1 = np.max(np.abs(integrate(0.02) - ref))
        e2 = np.max(np.abs(integrate(0.01) - ref))
        order = np.log2(e1 / e2)
        assert 3.6 < order < 4.5

    @pytest.mark.parametrize("two", [False, True])
    def test_lawson_step_matches_classical_rk4(self, grid1024, two):
        # at lam = -0.7 the step's phase carries lam u_x on the u row only;
        # classical RK4 on the full right-hand side integrates the same
        # equations, so the two agree to the fourth-order stepping error.
        # Measured at dt = 0.01, t = 0.4: 7.4e-11 and 4.8e-10 (8.1e-2 with
        # the phase on the density row too)
        p = dg.make_parameters(1.0, 0.7, 0.4)
        op = dg.make_operator(grid1024, p)
        rows = [dg.ic_preset("gaussian_bump", grid1024, a=0.5).spectrum]
        if two:
            rows.append(dg.ic_preset("gaussian_bump", grid1024, a=0.3, center=1.0).spectrum)
        y_hat = classical = np.array(rows)
        dt = 0.01
        for _ in range(40):
            y_hat = _step(_evaluate(y_hat, op, p), dt, op, p)
            k1 = full_rhs(classical, op, p)
            k2 = full_rhs(classical + (0.5 * dt) * k1, op, p)
            k3 = full_rhs(classical + (0.5 * dt) * k2, op, p)
            k4 = full_rhs(classical + dt * k3, op, p)
            classical = classical + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        diff = np.fft.irfft(y_hat - classical, n=grid1024.n_points)
        assert np.max(np.abs(diff)) < 1e-8

    @staticmethod
    def plain_stage(y_hat, op, p):
        """The stage derivatives written as plain expressions, with one
        temporary per operation."""
        sp = op.grid.spectral
        u_hat, two = y_hat[0], y_hat.shape[0] == 2
        parts = [sp.filters[:2] * u_hat] + ([sp.filters[:2] * y_hat[1]] if two else [])
        uf, uxf, *r = np.fft.irfft(np.concatenate(parts), n=sp.n)
        quad = 0.5 * p.alpha**2 * uxf * uxf + uf * uf
        prods = [uf * uxf, quad]
        if two:
            prods = [uf * uxf, quad + p.sigma * 0.5 * r[0] * r[0], uf * r[1] + uxf * r[0]]
        prod_hat = np.fft.rfft(np.array(prods))
        prod_hat[:, sp.cut :] = 0.0
        conv_hat = prod_hat[1] + 2.0 * p.k * u_hat
        if two:
            conv_hat = conv_hat + p.sigma * y_hat[1]
        k_hat = [-prod_hat[0] - op.symbol_dq * conv_hat]
        return np.array(k_hat + ([-prod_hat[2] - sp.ik * u_hat] if two else []))

    @pytest.mark.parametrize("two", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_step_equals_plain_formulas_bit_for_bit(self, grid1024, two, gamma):
        # the step is the plain Lawson RK4 formulas of _step's docstring;
        # this guards any rewrite of it, which must keep the order and
        # grouping of every operation so that every output stays
        # bit-identical; alpha != 1 so that alpha^2/2 is not a power of two
        p = dg.make_parameters(1.3, gamma, 0.4 if gamma else 0.0)
        op = dg.make_operator(grid1024, p)

        def phased(rows, phase):
            out = rows.copy()
            if phase is not None:
                out[0] *= phase
            return out

        def plain_step(ev, dt):
            y, k1 = ev.coef[:-1], ev.k_hat
            half = full = None
            if p.lam != 0.0:
                half = np.exp((-0.5 * dt * p.lam) * grid1024.spectral.ik)
                full = half * half
            k2 = self.plain_stage(phased(y + (0.5 * dt) * k1, half), op, p)
            k3 = phased(self.plain_stage(phased(y, half) + (0.5 * dt) * k2, op, p), half)
            y_full = phased(y, full)
            k4 = self.plain_stage(y_full + dt * k3, op, p)
            inc = phased(k1, full) + 2.0 * phased(k2, half) + 2.0 * k3 + k4
            return y_full + (dt / 6.0) * inc

        rows = [dg.ic_preset("gaussian_derivative", grid1024, a=1.0).spectrum]
        if two:
            rows.append(dg.ic_preset("gaussian_bump", grid1024, a=-0.8, center=0.5).spectrum)
        y_hat = np.array(rows)
        for _ in range(5):
            ev = _evaluate(y_hat, op, p)
            assert np.array_equal(ev.k_hat, self.plain_stage(y_hat, op, p))
            y_hat = _step(ev, 0.01, op, p)
            assert np.array_equal(y_hat, plain_step(ev, 0.01))

    @pytest.mark.parametrize("two", [False, True])
    def test_transport_step_matches_small_cfl(self, grid1024, two):
        # at gamma != 0 the default cfl 0.3 takes steps on |u| alone; a
        # cfl 0.02 reference bounds the time-stepping error in t_detect.
        # Measured at N = 1024: 3.5e-6 (dgh, the metamorphic datum at
        # gamma = 0.3, c0 = 0.4) and 4.7e-6 relative (dgh2, the vacuum
        # datum at gamma = 0.5, c0 = 0.3); classical RK4 on |u| + |lam|
        # read 2.0e-6 and 1.3e-6
        x = grid1024.nodes
        if two:
            p = dg.make_parameters(1.0, 0.5, 0.3)
            u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
            rho0 = dg.Field(grid1024, -np.exp(-(x**2)))
        else:
            p = dg.make_parameters(1.0, 0.3, 0.4)
            u0, rho0 = dg.Field(grid1024, TestMetamorphic.asymmetric(grid1024)), None
        t = []
        for cfl in (0.3, 0.02):
            cfg = dg.SolverConfig(t_max=3.0, cfl=cfl, record_every=10**6)
            _, rep = dg.simulate(dg.State(0.0, u0, rho0), cfg, p)
            assert rep.trigger == TRIGGER_SLOPE
            t.append(rep.t_detect)
        assert t[0] == pytest.approx(t[1], rel=1e-5, abs=0.0)

    def test_linearized_phase_speed(self, grid1024):
        # amplitude-1e-8 single mode travels at the linear phase speed
        # c(xi) = (c0 - gamma xi^2)/(1 + alpha^2 xi^2)
        p = dg.make_parameters(1.0, 0.0, 1.0)
        m = 5
        xi0 = np.pi * m / grid1024.half_length
        u0 = dg.ic_preset(
            "from_samples", grid1024, values=1e-8 * np.cos(xi0 * grid1024.nodes)
        )
        cfg = dg.SolverConfig(t_max=0.5, record_every=10**6)
        traj, _ = dg.simulate(dg.State(0.0, u0), cfg, p)
        final = traj[-1].state
        T = final.t
        ph0 = np.angle(np.fft.rfft(u0.values)[m])
        ph1 = np.angle(np.fft.rfft(final.u.values)[m])
        c_meas = -np.angle(np.exp(1j * (ph1 - ph0))) / (xi0 * T)
        c_theory = (p.c0 - p.gamma * xi0**2) / (1 + p.alpha**2 * xi0**2)
        assert abs(c_meas - c_theory) / abs(c_theory) < 1e-3

    @pytest.mark.parametrize("gamma, c0", [(0.0, 1.2), (0.1, 0.8)])
    def test_solitary_wave_matches_exact_solution(self, gamma, c0):
        # the smooth solitary wave of crest a = 1 at alpha = 0.5, k = 0.6,
        # at lam = 0 (c = 2.2) and at lam = -0.4 (c = 1.8), which exercises
        # the Lawson phase; the crest starts at x = -6, and the periodic
        # images the exact solution leaves out are of the order of
        # phi(L) = 4.7e-12, the profile half a period from the crest.
        # Measured at N = 2048, cfl 0.3: max|u - exact| = 1.17e-8 in both
        # cases (1.88e-7 at N = 1024, where dt doubles); a 1e-3 relative
        # change of the coefficient of u^2 or of the k term in the stage
        # reads 1.4e-3 or 1.8e-3
        p = dg.make_parameters(0.5, gamma, c0)
        assert p.k == pytest.approx(0.6, rel=1e-15, abs=0.0)
        grid = dg.make_grid(20.0, 2048)
        exact = solitary_wave(1.0, p, grid, crest=-6.0)
        cfg = dg.SolverConfig(t_max=3.0, record_every=10**6)
        traj, rep = dg.simulate(dg.State(0.0, dg.Field(grid, exact(0.0))), cfg, p)
        assert rep.trigger == TRIGGER_HORIZON
        final = traj[-1].state
        assert final.t == 3.0
        assert np.max(np.abs(final.u.values - exact(final.t))) < 3e-8


class TestAdaptiveDt:
    def test_zero_field_hits_horizon_cap(self, grid1024, params_ch):
        assert first_dt(dg.State(0.0, zeros(grid1024)), params_ch, 2.5) == 2.5

    def test_doubling_speed_halves_dt(self, grid1024, params_ch):
        dt1 = first_dt(dg.State(0.0, constant(grid1024, 0.5)), params_ch, 0.1)
        dt2 = first_dt(dg.State(0.0, constant(grid1024, 1.0)), params_ch, 0.1)
        assert dt1 == pytest.approx(2.0 * dt2, rel=1e-15, abs=0.0)
        assert dt2 == pytest.approx(0.3 * grid1024.dx, rel=1e-15, abs=0.0)

    def test_lam_does_not_limit_dt(self, grid1024, params_ch):
        # the step's phase carries the transport lam u_x exactly, so only
        # |u| sets the CFL step: lam = 2 on a zero field takes the horizon
        # cap, as lam = 0 does
        p = dg.make_parameters(1.0, -2.0, 2.0)  # lam = 2
        zero = dg.State(0.0, zeros(grid1024))
        assert p.lam == 2.0
        assert first_dt(zero, p, 2.5) == first_dt(zero, params_ch, 2.5) == 2.5


class TestSimulate:
    def test_zero_datum_reaches_horizon(self, grid1024, params_ch):
        cfg = dg.SolverConfig(t_max=1.0)
        traj, rep = dg.simulate(dg.State(0.0, zeros(grid1024)), cfg, params_ch)
        assert rep.trigger == TRIGGER_HORIZON
        assert not rep.blew_up
        assert rep.t_detect is None
        assert traj[-1].state.t == pytest.approx(1.0, abs=1e-12)
        for r in traj:
            assert np.max(np.abs(r.state.u.values)) == 0.0

    def test_breaking_run_detects(self, breaking_run):
        traj, rep, verdict, params = breaking_run
        assert rep.blew_up
        assert rep.trigger == TRIGGER_SLOPE
        assert rep.t_detect < 2.0
        assert rep.min_slope_at_detect < -1e4
        times = np.array([r.state.t for r in traj])
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)
        assert traj[-1].at_detection
        assert not any(r.at_detection for r in traj[:-1])

    def test_grid_slope_trigger(self, grid1024, params_ch, monkeypatch):
        # with the tracker silent, the grid minimum of u_x is the trigger:
        # it fires at the end of the step that takes it below -M
        monkeypatch.setattr(_SlopeTracker, "advance", lambda self, *args: None)
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
        cfg = dg.SolverConfig(t_max=2.0, slope_blowup_threshold=4.0, record_every=1)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
        final = traj[-1]
        assert rep.trigger == TRIGGER_SLOPE and rep.blew_up
        assert rep.t_detect == final.state.t
        assert rep.min_slope_at_detect == final.diagnostics.min_ux < -4.0
        assert rep.detector_x0 is None
        assert final.at_detection
        assert not any(r.at_detection for r in traj[:-1])
        assert all(r.diagnostics.min_ux >= -4.0 for r in traj[:-1])

    def test_small_datum_stays_smooth(self, runs):
        traj, rep, _, _ = runs.get("negative_control")
        assert rep.trigger == TRIGGER_HORIZON
        assert min(r.diagnostics.min_ux for r in traj) >= -0.1

    def test_amplitude_overflow_reports_dt_underflow(self, params_ch):
        grid = dg.make_grid(20.0, 64)
        u0 = dg.ic_preset("gaussian_bump", grid, a=1e155)
        cfg = dg.SolverConfig(t_max=1.0)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
        assert rep.trigger == TRIGGER_DT
        assert rep.blew_up
        # last finite state retained
        assert np.all(np.isfinite(traj[-1].state.u.values))
        assert traj[-1].at_detection

    def test_nan_backoff_reports_dt_underflow(self, params_ch):
        # dt_min low enough that the CFL guard passes, but the quadratic
        # terms overflow inside the stages at any step size
        grid = dg.make_grid(20.0, 64)
        u0 = dg.ic_preset("gaussian_bump", grid, a=1e155)
        cfg = dg.SolverConfig(t_max=1.0, dt_min=1e-300)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
        assert rep.trigger == TRIGGER_DT
        assert np.all(np.isfinite(traj[-1].state.u.values))

    def test_final_record_dt_is_the_step_that_reached_it(self, params_ch):
        # a horizon run of 7 steps recorded at every step gives the true
        # step times; at record_every=4 the last step is not a cadence
        # step, so only the final-record rule writes that record
        grid = dg.make_grid(20.0, 256)
        u0 = dg.State(0.0, dg.ic_preset("gaussian_bump", grid, a=1.0))
        every, _ = dg.simulate(u0, dg.SolverConfig(t_max=0.3, record_every=1), params_ch)
        traj, rep = dg.simulate(u0, dg.SolverConfig(t_max=0.3, record_every=4), params_ch)
        assert rep.trigger == TRIGGER_HORIZON
        t = np.array([r.state.t for r in every])
        steps = np.diff(t)
        assert steps.size % 4 != 0
        # the last step is cut to end at the horizon, so it differs from
        # the step of the record before it
        assert steps[-1] < 0.5 * steps[-2]
        final = traj[-1]
        assert final.state.t == t[-1]
        assert not final.at_detection
        assert final.diagnostics.dt == pytest.approx(steps[-1], rel=1e-12, abs=0.0)
        assert final.diagnostics.dt == every[-1].diagnostics.dt


class TestConservation:
    def test_energy_drift_pre_breaking(self, runs):
        # N = 2048 smooth bump run over t <= 1 with min u_x >= -10
        traj, rep, _, params = runs.get("bump", 2048)
        assert rep.trigger == TRIGGER_HORIZON
        assert min(r.diagnostics.min_ux for r in traj) >= -10.0
        E = [r.diagnostics.energy_e for r in traj]
        assert (max(E) - min(E)) / abs(E[0]) < 1e-6

    def test_cubic_functional_drift_pre_breaking(self, runs):
        traj, _, _, _ = runs.get("bump", 2048)
        F = [r.diagnostics.energy_f for r in traj]
        scale = max(abs(F[0]), 1e-30)
        assert (max(F) - min(F)) / scale < 1e-5

    def test_two_component_energy_drift(self, runs):
        traj, rep, _, _ = runs.get("two_smooth")
        assert rep.trigger == TRIGGER_HORIZON
        E = [r.diagnostics.energy_e for r in traj]
        assert (max(E) - min(E)) / abs(E[0]) < 1e-6

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_two_component_drift_at_sigma(self, sigma):
        # sigma scales the density coupling, so it weights the density
        # terms of E and F; unweighted, E drifted by 0.31 at sigma = 0.5
        grid = dg.make_grid(20.0, 1024)
        params = dg.make_parameters(1.0, sigma=sigma)
        u0 = dg.ic_preset("gaussian_bump", grid, a=0.3)
        rho0 = dg.ic_preset("gaussian_bump", grid, a=0.2)
        traj, rep = dg.simulate(dg.State(0.0, u0, rho0), dg.SolverConfig(t_max=2.0), params)
        assert rep.trigger == TRIGGER_HORIZON
        for recorded, public in (
            ([r.diagnostics.energy_e for r in traj], dg.energy_E),
            ([r.diagnostics.energy_f for r in traj], dg.energy_F),
        ):
            assert [public(r.state, params) for r in traj] == recorded
            assert (max(recorded) - min(recorded)) / abs(recorded[0]) < 1e-6

    def test_sup_norm_bound(self, runs, params_ch):
        # max|u(t)| <= sqrt(2 E(u0))/sqrt(2 alpha) + 1e-6 before detection
        # (energy conservation + the sharp embedding)
        for key in (("bump", 4096), ("breaking", 1.0, 4096)):
            traj, _, _, params = runs.get(*key)
            u0 = traj[0].state.u
            norm = np.sqrt(2.0 * dg.energy_E(dg.State(0.0, u0), params))
            bound = norm / np.sqrt(2 * params.alpha)
            for r in traj:
                if not r.at_detection:
                    assert r.diagnostics.max_abs_u <= bound + 1e-6


class TestTrajectoryRecords:
    def test_first_record_is_initial_datum(self, bump_run):
        traj, _, _, _ = bump_run
        r0 = traj[0]
        assert r0.state.t == 0.0
        assert r0.diagnostics.dt == 0.0
        expected = np.exp(-(traj[0].state.u.grid.nodes**2) / 2)
        assert np.array_equal(r0.state.u.values, expected)

    @pytest.mark.parametrize("two", [False, True])
    def test_first_record_is_the_initial_state(self, grid1024, params_ch, two):
        state = TestFftBudget.datum(grid1024, two)
        traj, _ = dg.simulate(state, dg.SolverConfig(t_max=0.2), params_ch)
        assert traj[0].state is state
        assert len(traj) > 1 and traj[1].state is not state

    def test_record_samples_are_derived_from_the_rows(self, grid1024):
        # a later record keeps only the state rows; its samples, made on
        # first use, are finite, read-only and bit for bit the samples the
        # solver's batched irfft of the same rows gave (checked on every
        # record, one and two components, lam = 0 and lam != 0)
        n = grid1024.n_points
        for gamma in (0.0, 0.3):
            params = dg.make_parameters(1.0, gamma, 0.4)
            traj, _ = dg.simulate(TestFftBudget.datum(grid1024, True),
                                  dg.SolverConfig(t_max=0.5, record_every=1), params)
            op = dg.NonlocalOperator(grid1024, params.alpha)
            for r in traj[1:]:
                fields = (r.state.u, r.state.rho_tilde)
                y = _evaluate(np.array([f.spectrum for f in fields]), op, params).y
                for f, batched in zip(fields, y):
                    assert "values" not in vars(f)  # not made before first use
                    assert f.values is f.values and not f.values.flags.writeable
                    assert np.all(np.isfinite(f.values))
                    assert np.array_equal(f.values, np.fft.irfft(f.spectrum, n=n))
                    assert np.array_equal(f.values, batched)

    @pytest.mark.parametrize("two, rows", [(False, 2), (True, 3)])
    def test_retained_bytes_per_record(self, grid1024, params_ch, two, rows):
        # a record keeps its state rows and the du/dt row, N/2 + 1 complex
        # each, and a few small objects (763 and 1,031 bytes measured at
        # N = 4096 on Python 3.11); with the samples kept beside the rows
        # it held 3 and 5 rows.  tracemalloc counts the arrays numpy
        # allocates, and the same run allocates the same bytes every time
        state = TestFftBudget.datum(grid1024, two)
        cfg = dg.SolverConfig(t_max=0.5, record_every=1)
        dg.simulate(state, cfg, params_ch)  # the grid's and the datum's caches
        tracemalloc.start()
        try:
            traj, _ = dg.simulate(state, cfg, params_ch)
            held = tracemalloc.get_traced_memory()[0]
            later = len(traj) - 1
            del traj[1:]
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        row = (grid1024.n_points // 2 + 1) * 16
        assert later > 10
        assert rows * row * later < freed <= (rows * row + 2048) * later

    def test_record_fields_carry_the_state_rows(self, runs):
        # the first record's rows are the rfft of the initial samples; later
        # samples are the irfft of the rows the solver stepped
        traj, _, _, _ = runs.get("two_smooth")
        n = traj[0].state.u.grid.n_points
        r0 = traj[0].state
        for f in (r0.u, r0.rho_tilde):
            assert np.array_equal(f.spectrum, np.fft.rfft(f.values))
        for r in traj[1::7]:
            for f in (r.state.u, r.state.rho_tilde):
                assert np.array_equal(f.values, np.fft.irfft(f.spectrum, n=n))

    def test_records_carry_time_derivatives(self, bump_run):
        # each record stores the instantaneous RHS as an rfft row for
        # dense-in-time reconstruction by the characteristics module
        traj, _, _, params = bump_run
        r = traj[3]
        du, _ = rhs(dg.State(0.0, r.state.u), params)
        du_rec = np.fft.irfft(r.du_dt_hat, n=traj[0].state.u.grid.n_points)
        assert np.max(np.abs(du - du_rec)) < 1e-14

    def test_record_energies_match_public_functionals(self, runs):
        # the records take E and F from the stage evaluation's samples,
        # which are the same transforms of the same state
        for key in (("bump", 2048), ("two_smooth",)):
            traj, _, _, params = runs.get(*key)
            for r in traj[::5]:
                assert r.diagnostics.energy_e == dg.energy_E(r.state, params)
                assert r.diagnostics.energy_f == dg.energy_F(r.state, params)

    def test_grid_min_slope_saturates_while_tracker_collapses(self, breaking_run):
        # the recorded grid minimum of u_x cannot follow the cusp: it
        # bottoms out at O(sqrt(N)) scale while the characteristic-tracked
        # slope crosses the 1e4 threshold
        traj, rep, _, _ = breaking_run
        grid_min = min(r.diagnostics.min_ux for r in traj)
        assert grid_min > -100.0
        assert rep.min_slope_at_detect < -1e4


class TestRecordConsumer:
    """simulate hands each record to its consumer once it is final, the
    last one held back until the run makes another or stops; the consumer
    gets exactly the records the list path returns."""

    @staticmethod
    def datum(grid, case):
        u0 = dg.ic_preset("gaussian_derivative", grid, a=1.0)
        if case == "dgh2-vacuum":
            rho0 = dg.ic_preset("gaussian_bump", grid, a=-1.0, width=2.0**-0.5)
            return dg.State(0.0, u0, rho0), dg.SolverConfig(t_max=2.5)
        if case == "horizon":
            # 26 steps at record_every 4: the final record, at t_max, is
            # made by the final-record rule after the held-back one
            u0 = dg.ic_preset("gaussian_bump", grid, a=1.0)
            return dg.State(0.0, u0), dg.SolverConfig(t_max=0.3)
        if case == "refused":
            # the first CFL step (cfl dx / max|u| = 0.0193) is under dt_min:
            # the run stops at t = 0 and its only record is re-tagged
            return dg.State(0.0, u0), dg.SolverConfig(t_max=1.0, dt_min=0.05)
        return dg.State(0.0, u0), dg.SolverConfig(t_max=3.0)

    @staticmethod
    def bits(x) -> bytes:
        return np.asarray(x).tobytes()

    @pytest.mark.parametrize("case, trigger", [
        ("breaking", TRIGGER_SLOPE), ("dgh2-vacuum", TRIGGER_SLOPE),
        ("horizon", TRIGGER_HORIZON), ("refused", TRIGGER_DT),
    ])
    def test_consumer_gets_the_listed_records(self, grid1024, params_ch, case, trigger):
        state, cfg = self.datum(grid1024, case)
        want, rep0 = dg.simulate(state, cfg, params_ch)
        got = []
        kept, rep = dg.simulate(state, cfg, params_ch, got.append)
        assert kept == [] and rep == rep0 and rep.trigger == trigger
        assert len(got) == len(want) and got[0].state is want[0].state is state

        def fields(r):
            return [f for f in (r.state.u, r.state.rho_tilde) if f is not None]

        for a, b in zip(got, want):
            assert a.at_detection == b.at_detection
            assert a.state.t == b.state.t
            assert self.bits(astuple(a.diagnostics)) == self.bits(astuple(b.diagnostics))
            assert self.bits(a.du_dt_hat) == self.bits(b.du_dt_hat)
            assert len(fields(a)) == len(fields(b)) == (2 if case == "dgh2-vacuum" else 1)
            for f, g in zip(fields(a), fields(b)):
                assert self.bits(f.spectrum) == self.bits(g.spectrum)
        assert got[-1].at_detection == rep.blew_up
        assert not any(r.at_detection for r in got[:-1])
        if case == "refused":
            # the initial record re-tagged, not a record made again
            (only,) = got
            assert only.state is state and only.at_detection and only.diagnostics.dt == 0.0
        if case == "horizon":
            assert len(got) == 8 and got[-1].state.t == cfg.t_max

    @pytest.mark.parametrize("keeps_previous", [False, True])
    def test_at_most_two_records_alive_at_each_hand_over(self, grid1024, params_ch,
                                                         monkeypatch, keeps_previous):
        # every record simulate makes is watched: the next record is made
        # only after the held-back one is handed over, so at a hand-over
        # only the record handed over is alive, and with the path
        # integrator, which keeps the record before, two
        made = []

        class Watched(TrajectoryRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(evolution, "TrajectoryRecord", Watched)
        state, _ = self.datum(grid1024, "breaking")
        alive = []
        integrate = dg.PathIntegrator([0.0, 1.0], params_ch)

        def consumer(record):
            alive.append(sum(ref() is not None for ref in made))
            if keeps_previous:
                integrate(record)

        cfg = dg.SolverConfig(t_max=3.0, record_every=1)
        _, rep = dg.simulate(state, cfg, params_ch, consumer)
        assert rep.trigger == TRIGGER_SLOPE and len(alive) > 50
        assert max(alive) == (2 if keeps_previous else 1)


class TestFftBudget:
    """The state stays as rfft rows: a step is three stages (one batched
    irfft and one batched rfft each) and the evaluation of the reached
    point, whose irfft also gives the grid values: 8 batched calls for one
    component and two, on either grid.  A run adds the rfft of each
    initial field and the initial point's evaluation.  A run that starts
    on the half grid adds the evaluation of its truncated rows there, and
    one evaluation at N of the padded rows per record made on the half
    grid and at the move to N (ceil(h / record_every) of them after h steps
    there), each 2 calls; every evaluation on the half grid carries one
    more row, u at the full grid's odd nodes.  Records copy rows an
    evaluation at N holds, so they cost no other call, and advect reads
    those rows.  Transforming the increment back to the grid and the new
    point forward again cost 10 per step, and advect re-transformed 2 rows
    per record (3 with the density)."""

    # [calls, rows] at the start: the rfft of u0 (and of rho~0) and the
    # initial evaluation, for dgh2 with a vacuum point also the one-row
    # irfft of u0_x in the vacuum-point search
    START = {False: (3, 7), True: (4, 12), "vacuum": (5, 13)}
    # of a step at N (3 stages of 2 + 2 rows and the evaluation's 4 + 2;
    # 3 of 4 + 3 and 7 + 3) and of an evaluation at N
    STEP = {False: (8, 18), True: (8, 31)}
    EVAL = {False: (2, 6), True: (2, 10)}

    @classmethod
    def budget(cls, start, two, half, full, record_every):
        """[calls, rows] of a run of half steps on N/2 and full steps at N."""
        (c0, r0), (cs, rs), (ce, re_) = cls.START[start], cls.STEP[two], cls.EVAL[two]
        calls, rows = c0 + cs * (half + full), r0 + rs * (half + full)
        if half:
            at_n = -(-half // record_every)
            calls += ce * (1 + at_n)
            rows += (re_ + 1) + re_ * at_n + half
        return [calls, rows]

    @staticmethod
    def count_calls(monkeypatch) -> list[int]:
        # [calls, length-N rows], counted on the np.fft module attributes as
        # the benchmark's tracer counts them, so a transform made through
        # an alias bound at import time would be missed here and there alike
        calls = [0, 0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[0] += 1
                calls[1] += out.size // out.shape[-1]
                return out
            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
        return calls

    @staticmethod
    def grid_steps(caplog) -> tuple[int, int]:
        """The steps on N/2 and at N, read off the run's debug record."""
        (rec,) = [r for r in caplog.records if r.name == "dghlab.evolution"]
        m = re.search(r"steps at N/2 = \d+ and N = \d+: (\d+) and (\d+),", rec.getMessage())
        half, full = int(m[1]), int(m[2])
        assert rec.getMessage().startswith(f"simulate: {half + full} steps,")
        return half, full

    @staticmethod
    def datum(grid, two):
        u0 = dg.ic_preset("gaussian_bump", grid, a=0.5)
        rho0 = dg.ic_preset("gaussian_bump", grid, a=0.3, center=1.0) if two else None
        return dg.State(0.0, u0, rho0)

    def calls_and_steps(self, grid, params, two, monkeypatch, caplog, record_every=None):
        # the step sequence does not depend on the record cadence
        cfg = dg.SolverConfig(t_max=0.5, record_every=1)
        traj, _ = dg.simulate(self.datum(grid, two), cfg, params)
        steps = len(traj) - 1

        state = self.datum(grid, two)  # fields whose rows are not yet made
        calls = self.count_calls(monkeypatch)
        every = record_every or 10 * steps
        with caplog.at_level(logging.DEBUG, logger="dghlab.evolution"):
            traj, rep = dg.simulate(state, dg.SolverConfig(t_max=0.5, record_every=every), params)
        assert rep.trigger == TRIGGER_HORIZON
        assert len(traj) == (steps + 1 if record_every == 1 else 2) and steps > 10
        half, full = self.grid_steps(caplog)
        assert half + full == steps and half > 0
        return calls, half, full, every

    @pytest.mark.parametrize(
        "two, gamma",
        [
            pytest.param(False, 0.0, id="False-8"),
            pytest.param(True, 0.0, id="True-8"),
            # the transport phase at lam != 0 is a multiplier, not a transform
            pytest.param(False, 0.7, id="False-8-lam"),
            pytest.param(True, 0.7, id="True-8-lam"),
        ],
    )
    def test_fft_calls_per_step(self, grid1024, monkeypatch, caplog, two, gamma):
        params = dg.make_parameters(1.0, gamma, 0.4 if gamma else 0.0)
        calls, half, full, every = self.calls_and_steps(grid1024, params, two, monkeypatch, caplog)
        assert calls == self.budget(two, two, half, full, every)

    @pytest.mark.parametrize("two", [False, True], ids=["False-8", "True-8"])
    def test_fft_calls_per_recorded_step(self, grid1024, params_ch, monkeypatch, caplog, two):
        calls, half, full, every = self.calls_and_steps(
            grid1024, params_ch, two, monkeypatch, caplog, 1
        )
        assert calls == self.budget(two, two, half, full, every)

    @pytest.mark.parametrize(
        "two, preset, on_half",
        [
            pytest.param(False, "gaussian_derivative", True, id="dgh"),
            pytest.param(True, "gaussian_derivative", True, id="dgh2"),
            # the peakon's kink keeps its spectrum's tail far above the
            # half grid's threshold: all steps at N, 8 calls and 18 rows each
            pytest.param(False, "peakon_shifted", False, id="dgh-never-half"),
        ],
    )
    def test_transform_budget_of_a_run(self, grid1024, params_ch, monkeypatch, caplog,
                                       two, preset, on_half):
        kw = dict(a=1.0) if preset == "gaussian_derivative" else dict(c=0.5)
        u0 = dg.ic_preset(preset, grid1024, params_ch, **kw)
        rho0 = dg.ic_preset("gaussian_bump", grid1024, a=-1.0, width=2.0**-0.5) if two else None
        calls = self.count_calls(monkeypatch)
        cfg = dg.SolverConfig(t_max=1.0)
        with caplog.at_level(logging.DEBUG, logger="dghlab.evolution"):
            _, rep = dg.simulate(dg.State(0.0, u0, rho0), cfg, params_ch)
        half, full = self.grid_steps(caplog)
        assert rep.trigger == TRIGGER_HORIZON and half + full > 40
        assert (half > 0) == on_half
        assert calls == self.budget("vacuum" if two else two, two, half, full, cfg.record_every)
        if not on_half:
            assert calls == [8 * full + 3, 18 * full + 7]

    @pytest.mark.parametrize("two", [False, True])
    def test_criterion_reuses_the_rows_simulate_made(self, grid1024, params_ch, monkeypatch, two):
        # one rfft of u0 (and of rho~0) per simulate command: the criterion
        # on the same initial fields reads the rows simulate cached there
        state = self.datum(grid1024, two)
        dg.simulate(state, dg.SolverConfig(t_max=0.1), params_ch)
        calls = [0]
        rfft = np.fft.rfft

        def counted(*args, **kwargs):
            calls[0] += 1
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        if two:
            dg.check_criterion_dgh2(state.u, state.rho_tilde, params_ch)
        else:
            dg.check_criterion_dgh(state.u, params_ch)
        assert calls[0] == 0

    @pytest.mark.parametrize("two", [False, True])
    def test_advect_makes_no_fft_calls(self, grid1024, params_ch, monkeypatch, two):
        cfg = dg.SolverConfig(t_max=0.5, record_every=1)
        traj, _ = dg.simulate(self.datum(grid1024, two), cfg, params_ch)
        calls = self.count_calls(monkeypatch)
        paths = dg.advect(traj, [0.0, 1.0], params_ch)
        assert calls[0] == 0
        assert all(len(p.t) == len(traj) for p in paths)


class TestHalfGridStart:
    """A run starts on the half grid N/2 while its rows are resolved there
    and moves to N for good when they stop being resolved, at the full
    grid's dt throughout.  A threshold of 0 resolves no nonzero row, so it
    gives the all-N run; the two agree up to round-off.  t_detect moved by
    9.6e-16, 1.8e-14 and 1.5e-16 relative on the three cases below (the
    breaking datum at N = 1024, dgh2 with the vacuum bump); the gate,
    1e-13, is 5.6 times the largest."""

    @staticmethod
    def run(monkeypatch, caplog, state, params, t_max, threshold=evolution._HALF_GRID_TAIL):
        caplog.clear()
        with monkeypatch.context() as m, caplog.at_level(logging.DEBUG, logger="dghlab.evolution"):
            m.setattr(evolution, "_HALF_GRID_TAIL", threshold)
            traj, rep = dg.simulate(state, dg.SolverConfig(t_max=t_max), params)
        return traj, rep, TestFftBudget.grid_steps(caplog)

    @pytest.mark.parametrize("gamma, c0, two", [
        (0.0, 0.0, False), (0.7, 0.5, False), (0.0, 0.0, True),
    ])
    def test_reproduces_the_full_grid_run(self, grid1024, monkeypatch, caplog, gamma, c0, two):
        params = dg.make_parameters(1.0, gamma, c0)
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0)
        rho0 = dg.ic_preset("gaussian_bump", grid1024, a=-1.0, width=2.0**-0.5) if two else None
        t_max = 2.5 if two else 3.0
        traj0, rep0, (half0, _) = self.run(
            monkeypatch, caplog, dg.State(0.0, u0, rho0), params, t_max, threshold=0.0
        )
        traj, rep, (half, full) = self.run(monkeypatch, caplog, dg.State(0.0, u0, rho0), params, t_max)
        assert half0 == 0 and half > 0 and full > 0
        assert rep.trigger == rep0.trigger == TRIGGER_SLOPE
        assert rep.detector_x0 == rep0.detector_x0
        assert len(traj) == len(traj0)
        assert rep.t_detect == pytest.approx(rep0.t_detect, rel=1e-13, abs=0.0)


class TestSlopeTracker:
    """The tracked slope g = 2w'/w on the breaking_run datum (a = 1,
    gamma = c0 = 0): the plunge from -M to -infinity takes about 2/M, so
    t_detect + 2/M estimates the breaking time itself."""

    @staticmethod
    def breaking_time(n, threshold=1e4):
        grid = dg.make_grid(20.0, n)
        u0 = dg.ic_preset("gaussian_derivative", grid, a=1.0)
        cfg = dg.SolverConfig(t_max=3.0, slope_blowup_threshold=threshold)
        _, rep = dg.simulate(dg.State(0.0, u0), cfg, dg.make_parameters(1.0))
        assert rep.trigger == TRIGGER_SLOPE
        return rep.t_detect + 2.0 / threshold

    @pytest.mark.parametrize("two", [False, True])
    def test_rate_equals_plain_formula_bit_for_bit(self, grid1024, two):
        # the rate rows are the plain formula, bit for bit, so a rewrite of
        # it must keep its order and grouping; alpha != 1 so that
        # 1/(2 alpha^2) rounds
        p = dg.make_parameters(1.3, 0.7, 0.4)
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=2.0, center=-5.0)
        rho0 = dg.Field(grid1024, -np.exp(-(grid1024.nodes**2))) if two else None
        state = dg.State(0.0, u0, rho0)
        tracker = _SlopeTracker(state, ddx(grid1024, u0.values), p)
        rows = np.array([f.spectrum for f in (u0, rho0) if f is not None])
        ev = _evaluate(rows, dg.make_operator(grid1024, p), p)
        y = tracker.y + 0.01  # off the nodes
        sp = grid1024.spectral
        u, *rho, c = sp.values(ev.coef, sp.basis(y[0]))
        f = u * u + 2.0 * p.k * u - c
        if rho:
            f += p.sigma * (0.5 * rho[0] * rho[0] + rho[0])
        plain = np.array([u + p.lam, y[2], (0.5 / p.alpha**2) * f * y[1]])
        assert np.array_equal(tracker._rate(ev, y), plain)

    def test_steep_and_vacuum_seeds(self, grid1024, params_ch):
        # a steep seed at x = -5 and the vacuum seed at x = 0
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=2.0, center=-5.0).values
        rho0 = -np.exp(-(grid1024.nodes**2))
        ux0 = ddx(grid1024, u0)
        state = dg.State(0.0, dg.Field(grid1024, u0), dg.Field(grid1024, rho0))
        tracker = _SlopeTracker(state, ux0, params_ch)
        assert tracker.seeds_x0[0] == pytest.approx(-5.0)
        assert tracker.seeds_x0[1] == 0.0

    @pytest.mark.parametrize("cells, node", [(0.25, 0), (0.75, 1)])
    def test_vacuum_seed_off_node(self, grid1024, params_ch, cells, node):
        # the vacuum point a fraction of a cell off the grid: the seed is
        # the node nearest it (the refined point was measured within
        # 1.8e-15 of the shift, far from the half-cell tie)
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=2.0, center=-5.0).values
        rho0 = -np.exp(-((grid1024.nodes - cells * grid1024.dx) ** 2))
        state = dg.State(0.0, dg.Field(grid1024, u0), dg.Field(grid1024, rho0))
        tracker = _SlopeTracker(state, ddx(grid1024, u0), params_ch)
        assert node * grid1024.dx in tracker.seeds_x0

    def test_threshold_consistency(self):
        # measured 5.8e-9 relative at N = 1024
        t1, t2 = self.breaking_time(1024), self.breaking_time(1024, 2e4)
        assert t2 == pytest.approx(t1, rel=2e-8, abs=0.0)

    def test_converges_in_n(self):
        # successive differences at N = 1024, 2048, 4096 measured 7.8e-5,
        # 2.7e-5: a ratio of 2.84 per doubling
        t = [self.breaking_time(n) for n in (1024, 2048, 4096)]
        d1, d2 = abs(t[1] - t[0]), abs(t[2] - t[1])
        assert d1 >= 2.5 * d2 > 0.0

    # gates (|dq|, |w^2 - q_x|/q_x, |2w'/w - g|/max(1, |g|)) just above the
    # values measured at N = 4096 over the seeds: (9.5e-21, 1.55e-6,
    # 5.93e-7) at (gamma, c0) = (0, 0), seed 0, on 44 of 65 pre-detection
    # records; (2.21e-6, 2.06e-6, 7.78e-7) at (0.7, 0.5), seeds 0 and
    # 0.3125, on 52 and 54 of 89 (Heun against advect's RK4 in q)
    @pytest.mark.parametrize("gamma, c0, gates", [
        (0.0, 0.0, (1e-15, 2e-6, 7e-7)),
        (0.7, 0.5, (2.5e-6, 2.5e-6, 9e-7)),
    ])
    def test_riccati_identity_along_tracked_paths(self, monkeypatch, gamma, c0, gates):
        # along dq/dt = u + lam, d/dt q_x = u_x q_x and u_x = 2w'/w give
        # q_x = w^2, so the tracker's rows (q, w, w'), moved by the
        # convolution f, must match the q, q_x and g that advect reads off
        # the recorded field from the same seeds; compared before detection
        # and where q_x > 0.2, where the grid still resolves the path
        trackers, logged = [], {}
        advance = _SlopeTracker.advance

        def logging_advance(self, ev0, ev1, t0, dt, threshold):
            crossing = advance(self, ev0, ev1, t0, dt, threshold)
            trackers.append(self)
            logged[t0 + dt] = (list(self.x0), self.y.copy())
            return crossing

        monkeypatch.setattr(_SlopeTracker, "advance", logging_advance)
        params = dg.make_parameters(1.0, gamma, c0)
        u0 = dg.ic_preset("gaussian_derivative", dg.make_grid(20.0, 4096), a=1.0)
        # the solver section of configs/breaking_run.yaml
        cfg = dg.SolverConfig(t_max=3.0, cfl=0.3, dt_min=1e-9,
                              slope_blowup_threshold=1e4, record_every=4)
        records, report = dg.simulate(dg.State(0.0, u0), cfg, params)
        assert report.trigger == TRIGGER_SLOPE
        seeds = trackers[0].seeds_x0
        for seed, path in zip(seeds, dg.advect(records, list(seeds), params)):
            err, compared = np.zeros(3), 0
            for i, rec in enumerate(records[1 : path.t.size], start=1):
                if rec.at_detection or path.qx[i] <= 0.2:
                    continue
                x0, y = logged[rec.state.t]
                q, w, dw = y[:, x0.index(seed)]
                err = np.maximum(err, [
                    abs(q - path.q[i]),
                    abs(w * w - path.qx[i]) / path.qx[i],
                    abs(2.0 * dw / w - path.g[i]) / max(1.0, abs(path.g[i])),
                ])
                compared += 1
            assert compared >= 40, (seed, compared)
            assert np.all(err < gates), (seed, err)

    def test_one_debug_record_per_run(self, grid1024, params_ch, caplog):
        u0 = dg.ic_preset("gaussian_bump", grid1024, a=0.5)
        with caplog.at_level(logging.DEBUG, logger="dghlab.evolution"):
            dg.simulate(dg.State(0.0, u0), dg.SolverConfig(t_max=0.2), params_ch)
        recs = [r for r in caplog.records if r.name == "dghlab.evolution"]
        assert len(recs) == 1
        assert recs[0].levelno == logging.DEBUG


class TestMetamorphic:
    """Exact symmetries of the equation that a wrong but self-consistent
    solver or toolkit would break.  Tolerances come from the measured
    agreement at N = 1024.  Translation and reflection: t_detect within
    9.1e-16 relative, the detector seed exact, x0_best within 3.6e-15 at
    k = 0 and within 1.8e-14 at gamma = 0.3, c0 = 0.4, where the margin's
    minimum is a flat valley.  The alpha-scaling and the reduction to k = 0
    state theirs below."""

    @staticmethod
    def asymmetric(grid):
        x = grid.nodes
        return -1.2 * (x - 0.3) * np.exp(-((x - 0.3) ** 2) / 2) + 0.5 * np.exp(
            -(((x + 1.5) / 0.7) ** 2) / 2
        )

    @staticmethod
    def run(grid, params, vals, scale=1.0, rho_vals=None):
        # scale multiplies t_max and dt_min and divides the slope threshold;
        # with rho_vals the run has two components and no criterion
        u0 = dg.ic_preset("from_samples", grid, values=vals)
        rho0 = None if rho_vals is None else dg.ic_preset("from_samples", grid, values=rho_vals)
        cfg = dg.SolverConfig(
            t_max=3.0 * scale, dt_min=1e-9 * scale,
            slope_blowup_threshold=1e4 / scale, record_every=8,
        )
        traj, rep = dg.simulate(dg.State(0.0, u0, rho0), cfg, params)
        assert rep.trigger == TRIGGER_SLOPE
        verdict = dg.check_criterion_dgh(u0, params) if rho0 is None else None
        return traj, rep, verdict

    @pytest.mark.parametrize("gamma, c0, x0_tol", [(0.0, 0.0, 1e-12), (0.3, 0.4, 1e-13)])
    def test_translation_by_whole_cells(self, grid1024, gamma, c0, x0_tol):
        p = dg.make_parameters(1.0, gamma, c0)
        vals = self.asymmetric(grid1024)
        traj0, rep0, v0 = self.run(grid1024, p, vals)
        for m in (37, -101):
            traj, rep, v = self.run(grid1024, p, np.roll(vals, m))
            shift = m * grid1024.dx
            assert len(traj) == len(traj0)
            assert rep.t_detect == pytest.approx(rep0.t_detect, rel=1e-14, abs=0.0)
            assert rep.detector_x0 == pytest.approx(rep0.detector_x0 + shift, abs=1e-12)
            assert v.x0_best == pytest.approx(v0.x0_best + shift, abs=x0_tol)
            assert v.margin == pytest.approx(v0.margin, abs=1e-13)

    def test_reflection_at_zero_dispersion(self, grid1024, params_ch):
        # u(x) -> -u(-x) maps node j to node -j (mod N); the data are
        # asymmetric, unlike gaussian_derivative, which is invariant
        vals = self.asymmetric(grid1024)
        mirrored = -vals[(-np.arange(grid1024.n_points)) % grid1024.n_points]
        assert np.max(np.abs(mirrored - vals)) > 0.1
        traj0, rep0, v0 = self.run(grid1024, params_ch, vals)
        traj, rep, v = self.run(grid1024, params_ch, mirrored)
        assert len(traj) == len(traj0)
        assert rep.t_detect == pytest.approx(rep0.t_detect, rel=1e-14, abs=0.0)
        assert rep.detector_x0 == pytest.approx(-rep0.detector_x0, abs=1e-12)
        assert v.x0_best == pytest.approx(-v0.x0_best, abs=1e-12)
        assert v.margin == pytest.approx(v0.margin, abs=1e-13)
        assert v.time_bound == pytest.approx(v0.time_bound, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gamma, c0", [(0.0, 0.0), (0.3, 0.4)])
    def test_alpha_scaling(self, grid1024, gamma, c0):
        # x, L, t, alpha -> 2x, 2L, 2t, 2 alpha and gamma -> 4 gamma leave u
        # unchanged (lam and k too) and halve u_x.  Scaling by 2 is exact
        # in floating point, so with the same N the runs match step for
        # step: recorded u bit for bit, times exactly doubled, criterion
        # margin equal and x0, bound doubled.  The tracker's Heun step on
        # (q, w, w') is scale-covariant too, so t_detect doubles exactly
        # (measured at N = 1024 and 2048).
        vals = self.asymmetric(grid1024)
        traj1, rep1, v1 = self.run(grid1024, dg.make_parameters(1.0, gamma, c0), vals)
        grid2 = dg.make_grid(2.0 * grid1024.half_length, grid1024.n_points)
        p2 = dg.make_parameters(2.0, 4.0 * gamma, c0)
        traj2, rep2, v2 = self.run(grid2, p2, vals, scale=2.0)
        assert len(traj2) == len(traj1)
        for r1, r2 in zip(traj1, traj2):
            assert r2.state.t == 2.0 * r1.state.t
            assert np.array_equal(r2.state.u.values, r1.state.u.values)
        assert rep2.detector_x0 == 2.0 * rep1.detector_x0
        assert rep2.t_detect == 2.0 * rep1.t_detect
        assert (v2.holds, v2.margin) == (v1.holds, v1.margin)
        assert v2.x0_best == 2.0 * v1.x0_best
        assert v2.time_bound == 2.0 * v1.time_bound

    @pytest.mark.parametrize("c", [2.0, 0.5, 3.0])
    @pytest.mark.parametrize("gamma, c0", [(0.0, 0.0), (0.3, 0.4)])
    def test_amplitude_time_scaling(self, grid1024, gamma, c0, c):
        # (u0, gamma, c0, t) -> (c u0, c gamma, c c0, t/c), alpha fixed, maps
        # solutions to solutions: k, lam and the slopes scale by c and the
        # CFL step by 1/c, so t_max and dt_min scale by 1/c and the slope
        # threshold by c.  A factor 2 or 1/2 commutes with every rounding,
        # so those runs match bit for bit: record times exactly /c, u
        # exactly *c, E exactly *c^2, t_detect, the detector seed and the
        # criterion too.  At c = 3, measured at N = 1024: u within 1.55e-15
        # (after dividing by c), the bound within 4.83e-14 relative and
        # t_detect within 9.5e-16.  A term of the wrong degree in u, such
        # as a k or lam term without its factor, breaks the relation.
        vals = self.asymmetric(grid1024)
        traj1, rep1, v1 = self.run(grid1024, dg.make_parameters(1.0, gamma, c0), vals)
        p2 = dg.make_parameters(1.0, c * gamma, c * c0)
        traj2, rep2, v2 = self.run(grid1024, p2, c * vals, scale=1.0 / c)
        assert len(traj2) == len(traj1)
        assert rep2.detector_x0 == rep1.detector_x0
        assert v2.holds and v1.holds
        if c == 3.0:
            du = max(np.max(np.abs(r2.state.u.values / c - r1.state.u.values))
                     for r1, r2 in zip(traj1, traj2))
            assert du <= 1.6e-15
            assert v2.time_bound == pytest.approx(v1.time_bound / c, rel=5e-14, abs=0.0)
            assert rep2.t_detect == pytest.approx(rep1.t_detect / c, rel=2e-15, abs=0.0)
            return
        for r1, r2 in zip(traj1, traj2):
            assert r2.state.t == r1.state.t / c
            assert np.array_equal(r2.state.u.values, c * r1.state.u.values)
            assert r2.diagnostics.energy_e == c * c * r1.diagnostics.energy_e
        assert rep2.t_detect == rep1.t_detect / c
        assert (v2.margin, v2.x0_best) == (c * v1.margin, v1.x0_best)
        assert v2.time_bound == v1.time_bound / c

    @pytest.mark.parametrize("c", [2.0, 0.5, 3.0])
    @pytest.mark.parametrize("gamma, c0", [(0.0, 0.4), (0.3, 0.4)])
    def test_amplitude_time_scaling_two_component(self, grid1024, gamma, c0, c):
        # the same map with rho = rho~ + 1 -> c rho, i.e. rho~0 -> c (rho~0 +
        # 1) - 1, sigma fixed.  That shift rounds, so the runs agree only
        # to round-off; E, which the records keep in rho~ form, does not
        # scale and is left out.  Measured at N = 1024: the same record
        # count and detector seed, t_detect within 3.6e-16 relative, u
        # within 4.44e-16 at c = 2 and 1/2 and 6.7e-16 at c = 3 (after
        # dividing by c)
        x = grid1024.nodes
        vals, rho = self.asymmetric(grid1024), -np.exp(-((x - 0.3) ** 2))
        traj1, rep1, _ = self.run(grid1024, dg.make_parameters(1.0, gamma, c0), vals, rho_vals=rho)
        p2 = dg.make_parameters(1.0, c * gamma, c * c0)
        traj2, rep2, _ = self.run(grid1024, p2, c * vals, 1.0 / c, c * (rho + 1.0) - 1.0)
        assert len(traj2) == len(traj1)
        assert rep2.detector_x0 == rep1.detector_x0
        assert rep2.t_detect == pytest.approx(rep1.t_detect / c, rel=4.4e-16, abs=0.0)
        du = max(np.max(np.abs(r2.state.u.values / c - r1.state.u.values))
                 for r1, r2 in zip(traj1, traj2))
        assert du <= (8.9e-16 if c == 3.0 else 4.5e-16)

    @pytest.mark.parametrize("gamma, c0", [(0.3, 0.4), (1.0, 1.0)])
    def test_galilean_shift(self, grid1024, gamma, c0):
        # the run at lam = -gamma/alpha^2 is the run at (0, c0 +
        # gamma/alpha^2), which has the same k and lam = 0, moved by lam t.
        # The step carries lam u_x exactly, so the two differ only through
        # the node maximum of |u| in the CFL step.  Measured at N = 1024:
        # t_detect within 9.6e-10 and 8.7e-9 relative (1.5e-6 and 2.6e-6,
        # with unequal record counts, when RK4 stepped the transport too),
        # equal record counts, the detector seed exact.
        p = dg.make_parameters(1.0, gamma, c0)
        p0 = dg.make_parameters(1.0, 0.0, c0 + gamma / p.alpha**2)
        assert (p0.k, p0.lam) == (p.k, 0.0)
        vals = self.asymmetric(grid1024)
        traj, rep, _ = self.run(grid1024, p, vals)
        traj0, rep0, _ = self.run(grid1024, p0, vals)
        assert len(traj) == len(traj0)
        assert rep.detector_x0 == rep0.detector_x0
        assert rep.t_detect == pytest.approx(rep0.t_detect, rel=3e-8, abs=0.0)

    @pytest.mark.parametrize("gamma, c0", [(0.3, 0.4), (0.0, 1.0), (0.5, -0.3)])
    def test_reduction_to_zero_offset(self, grid1024, gamma, c0):
        # v = u + k solves the same family at (gamma', c0') =
        # (-alpha^2 (lam - k), lam - k), where k' = 0 and lam' = lam - k.
        # The CFL speeds differ, so the discrete runs agree only to the
        # time-stepping error.  Measured at N = 1024: t_detect within
        # 1.2e-6 relative, margin within 1.2e-14, x0_best within 8.9e-14
        # and the time bound within 8.5e-14 relative; the detector seed
        # exact.
        p = dg.make_parameters(1.0, gamma, c0)
        shift = p.lam - p.k
        p0 = dg.make_parameters(1.0, -(p.alpha**2) * shift, shift)
        assert (p0.k, p0.lam) == (0.0, shift)
        vals = self.asymmetric(grid1024)
        _, rep, v = self.run(grid1024, p, vals)
        _, rep0, v0 = self.run(grid1024, p0, vals + p.k)
        assert rep0.detector_x0 == rep.detector_x0
        assert rep0.t_detect == pytest.approx(rep.t_detect, rel=3e-6, abs=0.0)
        assert v0.holds and v.holds
        assert v0.margin == pytest.approx(v.margin, abs=3e-14)
        assert v0.x0_best == pytest.approx(v.x0_best, abs=3e-13)
        assert v0.time_bound == pytest.approx(v.time_bound, rel=3e-13, abs=0.0)
