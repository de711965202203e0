import logging

import numpy as np
import pytest

import dghlab as dg
from dghlab.evolution import (
    TRIGGER_DT,
    TRIGGER_HORIZON,
    TRIGGER_SLOPE,
    _SlopeTracker,
    _evaluate,
    _step,
)
from derivative import ddx


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
    return traj.records[1].diagnostics.dt


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
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            dg.SolverConfig(**kw)


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
        assert t[0] == pytest.approx(t[1], rel=1e-5)

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
        final = traj.records[-1].state
        T = final.t
        ph0 = np.angle(np.fft.rfft(u0.values)[m])
        ph1 = np.angle(np.fft.rfft(final.u.values)[m])
        c_meas = -np.angle(np.exp(1j * (ph1 - ph0))) / (xi0 * T)
        c_theory = (p.c0 - p.gamma * xi0**2) / (1 + p.alpha**2 * xi0**2)
        assert abs(c_meas - c_theory) / abs(c_theory) < 1e-3


class TestAdaptiveDt:
    def test_zero_field_hits_horizon_cap(self, grid1024, params_ch):
        assert first_dt(dg.State(0.0, zeros(grid1024)), params_ch, 2.5) == 2.5

    def test_doubling_speed_halves_dt(self, grid1024, params_ch):
        dt1 = first_dt(dg.State(0.0, constant(grid1024, 0.5)), params_ch, 0.1)
        dt2 = first_dt(dg.State(0.0, constant(grid1024, 1.0)), params_ch, 0.1)
        assert dt1 == pytest.approx(2.0 * dt2, rel=1e-15)
        assert dt2 == pytest.approx(0.3 * grid1024.dx, rel=1e-15)

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
        assert traj.records[-1].state.t == pytest.approx(1.0, abs=1e-12)
        for r in traj.records:
            assert np.max(np.abs(r.state.u.values)) == 0.0

    def test_breaking_run_detects(self, breaking_run):
        traj, rep, verdict, params = breaking_run
        assert rep.blew_up
        assert rep.trigger == TRIGGER_SLOPE
        assert rep.t_detect < 2.0
        assert rep.min_slope_at_detect < -1e4
        times = traj.times()
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)
        assert traj.records[-1].at_detection
        assert not any(r.at_detection for r in traj.records[:-1])

    def test_small_datum_stays_smooth(self, runs):
        traj, rep, _, _ = runs.get("negative_control")
        assert rep.trigger == TRIGGER_HORIZON
        assert min(r.diagnostics.min_ux for r in traj.records) >= -0.1

    def test_amplitude_overflow_reports_dt_underflow(self, params_ch):
        grid = dg.make_grid(20.0, 64)
        u0 = dg.ic_preset("gaussian_bump", grid, a=1e155)
        cfg = dg.SolverConfig(t_max=1.0)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
        assert rep.trigger == TRIGGER_DT
        assert rep.blew_up
        # last finite state retained
        assert np.all(np.isfinite(traj.records[-1].state.u.values))
        assert traj.records[-1].at_detection

    def test_nan_backoff_reports_dt_underflow(self, params_ch):
        # dt_min low enough that the CFL guard passes, but the quadratic
        # terms overflow inside the stages at any step size
        grid = dg.make_grid(20.0, 64)
        u0 = dg.ic_preset("gaussian_bump", grid, a=1e155)
        cfg = dg.SolverConfig(t_max=1.0, dt_min=1e-300)
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
        assert rep.trigger == TRIGGER_DT
        assert np.all(np.isfinite(traj.records[-1].state.u.values))


class TestConservation:
    def test_energy_drift_pre_breaking(self, runs):
        # N = 2048 smooth bump run over t <= 1 with min u_x >= -10
        traj, rep, _, params = runs.get("bump", 2048)
        assert rep.trigger == TRIGGER_HORIZON
        assert min(r.diagnostics.min_ux for r in traj.records) >= -10.0
        E = [r.diagnostics.energy_e for r in traj.records]
        assert (max(E) - min(E)) / abs(E[0]) < 1e-6

    def test_cubic_functional_drift_pre_breaking(self, runs):
        traj, _, _, _ = runs.get("bump", 2048)
        F = [r.diagnostics.energy_f for r in traj.records]
        scale = max(abs(F[0]), 1e-30)
        assert (max(F) - min(F)) / scale < 1e-5

    def test_two_component_energy_drift(self, runs):
        traj, rep, _, _ = runs.get("two_smooth")
        assert rep.trigger == TRIGGER_HORIZON
        E = [r.diagnostics.energy_e for r in traj.records]
        assert (max(E) - min(E)) / abs(E[0]) < 1e-6

    def test_sup_norm_bound(self, runs, params_ch):
        # max|u(t)| <= sqrt(2 E(u0))/sqrt(2 alpha) + 1e-6 before detection
        # (energy conservation + the sharp embedding)
        for key in (("bump", 4096), ("breaking", 1.0, 4096)):
            traj, _, _, params = runs.get(*key)
            u0 = traj.records[0].state.u
            norm = np.sqrt(2.0 * dg.energy_E(dg.State(0.0, u0), params))
            bound = norm / np.sqrt(2 * params.alpha)
            for r in traj.records:
                if not r.at_detection:
                    assert r.diagnostics.max_abs_u <= bound + 1e-6


class TestTrajectoryRecords:
    def test_first_record_is_initial_datum(self, bump_run):
        traj, _, _, _ = bump_run
        r0 = traj.records[0]
        assert r0.state.t == 0.0
        assert r0.diagnostics.dt == 0.0
        expected = np.exp(-(traj.grid.nodes**2) / 2)
        assert np.array_equal(r0.state.u.values, expected)

    def test_record_fields_carry_the_state_rows(self, runs):
        # the first record's rows are the rfft of the initial samples; later
        # samples are the irfft of the rows the solver stepped
        traj, _, _, _ = runs.get("two_smooth")
        n = traj.grid.n_points
        r0 = traj.records[0].state
        for f in (r0.u, r0.rho_tilde):
            assert np.array_equal(f.spectrum, np.fft.rfft(f.values))
        for r in traj.records[1::7]:
            for f in (r.state.u, r.state.rho_tilde):
                assert np.array_equal(f.values, np.fft.irfft(f.spectrum, n=n))

    def test_records_carry_time_derivatives(self, bump_run):
        # each record stores the instantaneous RHS as an rfft row for
        # dense-in-time reconstruction by the characteristics module
        traj, _, _, params = bump_run
        r = traj.records[3]
        du, _ = rhs(dg.State(0.0, r.state.u), params)
        du_rec = np.fft.irfft(r.du_dt_hat, n=traj.grid.n_points)
        assert np.max(np.abs(du - du_rec)) < 1e-14

    def test_record_energies_match_public_functionals(self, runs):
        # the records take E and F from the stage evaluation's samples,
        # which are the same transforms of the same state
        for key in (("bump", 2048), ("two_smooth",)):
            traj, _, _, params = runs.get(*key)
            for r in traj.records[::5]:
                assert r.diagnostics.energy_e == dg.energy_E(r.state, params)
                assert r.diagnostics.energy_f == dg.energy_F(r.state, params)

    def test_grid_min_slope_saturates_while_tracker_collapses(self, breaking_run):
        # the recorded grid minimum of u_x cannot follow the cusp: it
        # bottoms out at O(sqrt(N)) scale while the characteristic-tracked
        # slope crosses the 1e4 threshold
        traj, rep, _, _ = breaking_run
        grid_min = min(r.diagnostics.min_ux for r in traj.records)
        assert grid_min > -100.0
        assert rep.min_slope_at_detect < -1e4


class TestFftBudget:
    """The state stays as rfft rows: a step is three stages (one batched
    irfft and one batched rfft each) and the evaluation of the reached
    point, whose irfft also gives the grid values: 8 batched calls for one
    component and two.  A run adds the rfft of each initial field and the
    initial point's evaluation.  Records copy rows the evaluation holds,
    so they cost no call, and advect reads those rows.  Transforming the
    increment back to the grid and the new point forward again cost 10
    per step, and advect re-transformed 2 rows per record (3 with the
    density)."""

    @staticmethod
    def count_calls(monkeypatch) -> list[int]:
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
        return calls

    @staticmethod
    def datum(grid, two):
        u0 = dg.ic_preset("gaussian_bump", grid, a=0.5)
        rho0 = dg.ic_preset("gaussian_bump", grid, a=0.3, center=1.0) if two else None
        return dg.State(0.0, u0, rho0)

    def calls_and_steps(self, grid, params, two, monkeypatch, record_every=None):
        # the step sequence does not depend on the record cadence
        cfg = dg.SolverConfig(t_max=0.5, record_every=1)
        traj, _ = dg.simulate(self.datum(grid, two), cfg, params)
        steps = len(traj.records) - 1

        state = self.datum(grid, two)  # fields whose rows are not yet made
        calls = self.count_calls(monkeypatch)
        cfg = dg.SolverConfig(t_max=0.5, record_every=record_every or 10 * steps)
        traj, rep = dg.simulate(state, cfg, params)
        assert rep.trigger == TRIGGER_HORIZON
        assert len(traj.records) == (steps + 1 if record_every == 1 else 2) and steps > 10
        return calls[0], steps

    @pytest.mark.parametrize(
        "two, budget, gamma",
        [
            pytest.param(False, 8, 0.0, id="False-8"),
            pytest.param(True, 8, 0.0, id="True-8"),
            # the transport phase at lam != 0 is a multiplier, not a transform
            pytest.param(False, 8, 0.7, id="False-8-lam"),
            pytest.param(True, 8, 0.7, id="True-8-lam"),
        ],
    )
    def test_fft_calls_per_step(self, grid1024, monkeypatch, two, budget, gamma):
        params = dg.make_parameters(1.0, gamma, 0.4 if gamma else 0.0)
        calls, steps = self.calls_and_steps(grid1024, params, two, monkeypatch)
        assert calls <= budget * steps + 2 + (2 if two else 1)

    @pytest.mark.parametrize("two, budget", [(False, 8), (True, 8)])
    def test_fft_calls_per_recorded_step(self, grid1024, params_ch, monkeypatch, two, budget):
        calls, steps = self.calls_and_steps(grid1024, params_ch, two, monkeypatch, 1)
        assert calls <= budget * steps + 2 + (2 if two else 1)

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
        assert all(len(p.t) == len(traj.records) for p in paths)


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
        assert t2 == pytest.approx(t1, rel=2e-8)

    def test_converges_in_n(self):
        # successive differences at N = 1024, 2048, 4096 measured 7.8e-5,
        # 2.7e-5: a ratio of 2.84 per doubling
        t = [self.breaking_time(n) for n in (1024, 2048, 4096)]
        d1, d2 = abs(t[1] - t[0]), abs(t[2] - t[1])
        assert d1 >= 2.5 * d2 > 0.0

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
    def run(grid, params, vals, scale=1.0):
        # scale multiplies t_max and dt_min and divides the slope threshold
        u0 = dg.ic_preset("from_samples", grid, values=vals)
        cfg = dg.SolverConfig(
            t_max=3.0 * scale, dt_min=1e-9 * scale,
            slope_blowup_threshold=1e4 / scale, record_every=8,
        )
        traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
        assert rep.trigger == TRIGGER_SLOPE
        verdict = dg.check_criterion_dgh(u0, params)
        return traj, rep, verdict

    @pytest.mark.parametrize("gamma, c0, x0_tol", [(0.0, 0.0, 1e-12), (0.3, 0.4, 1e-13)])
    def test_translation_by_whole_cells(self, grid1024, gamma, c0, x0_tol):
        p = dg.make_parameters(1.0, gamma, c0)
        vals = self.asymmetric(grid1024)
        traj0, rep0, v0 = self.run(grid1024, p, vals)
        for m in (37, -101):
            traj, rep, v = self.run(grid1024, p, np.roll(vals, m))
            shift = m * grid1024.dx
            assert len(traj.records) == len(traj0.records)
            assert rep.t_detect == pytest.approx(rep0.t_detect, rel=1e-14)
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
        assert len(traj.records) == len(traj0.records)
        assert rep.t_detect == pytest.approx(rep0.t_detect, rel=1e-14)
        assert rep.detector_x0 == pytest.approx(-rep0.detector_x0, abs=1e-12)
        assert v.x0_best == pytest.approx(-v0.x0_best, abs=1e-12)
        assert v.margin == pytest.approx(v0.margin, abs=1e-13)
        assert v.time_bound == pytest.approx(v0.time_bound, rel=1e-13)

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
        assert len(traj2.records) == len(traj1.records)
        for r1, r2 in zip(traj1.records, traj2.records):
            assert r2.state.t == 2.0 * r1.state.t
            assert np.array_equal(r2.state.u.values, r1.state.u.values)
        assert rep2.detector_x0 == 2.0 * rep1.detector_x0
        assert rep2.t_detect == 2.0 * rep1.t_detect
        assert (v2.holds, v2.margin) == (v1.holds, v1.margin)
        assert v2.x0_best == 2.0 * v1.x0_best
        assert v2.time_bound == 2.0 * v1.time_bound

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
        assert len(traj.records) == len(traj0.records)
        assert rep.detector_x0 == rep0.detector_x0
        assert rep.t_detect == pytest.approx(rep0.t_detect, rel=3e-8)

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
        assert rep0.t_detect == pytest.approx(rep.t_detect, rel=3e-6)
        assert v0.holds and v.holds
        assert v0.margin == pytest.approx(v.margin, abs=3e-14)
        assert v0.x0_best == pytest.approx(v.x0_best, abs=3e-13)
        assert v0.time_bound == pytest.approx(v.time_bound, rel=3e-13)
