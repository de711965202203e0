"""Breaking times bracketed from below and known exactly: the energy's
certified lower bound against the detected time, and the
peakon-antipeakon pair, whose collision time is closed-form, against the
solver's field before the collision."""
import numpy as np
import pytest

import dghlab as dg
from dghlab.evolution import TRIGGER_HORIZON, TRIGGER_SLOPE
from lower_bound import slope_infimum, time_lower_bound
from peakon_pair import collision_time, pair_position, pair_values


class TestLowerBound:
    # (a, gamma, c0) and T_lower(1e4) at N = 2048; t_detect read 1.621713,
    # 1.745312, 1.745312, 1.705447, 3.243627 and 0.810757 when this test
    # was written, and T* 2, 2.4838, 2.4838, 2.3920, 4 and 1
    CASES = [
        ((1.0, 0.0, 0.0), 1.3155),
        ((1.0, 0.7, 0.5), 0.9981),
        ((1.0, 0.0, 1.2), 0.9981),
        ((1.0, 0.6, 0.4), 1.0414),
        ((0.5, 0.0, 0.0), 2.6313),
        ((2.0, 0.0, 0.0), 0.6577),
    ]

    @pytest.mark.parametrize("case, lower", CASES,
                             ids=[f"a{a}-g{g}-c{c}" for (a, g, c), _ in CASES])
    def test_detection_between_lower_and_criterion_bounds(self, grid2048, case, lower):
        # T_lower(1e4) <= t_detect < T*: the energy bounds breaking from
        # below as the criterion bounds it from above, so the detected
        # time must stay between them however the tracker and the step
        # change
        a, gamma, c0 = case
        params = dg.make_parameters(1.0, gamma, c0)
        u0 = dg.ic_preset("gaussian_derivative", grid2048, a=a)
        t_lower = time_lower_bound(u0, params, 1e4)
        assert t_lower == pytest.approx(lower, abs=5e-5)
        verdict = dg.check_criterion_dgh(u0, params)
        assert verdict.holds
        cfg = dg.SolverConfig(t_max=verdict.time_bound + 1.0, record_every=10**6)
        _, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
        assert rep.trigger == TRIGGER_SLOPE
        assert t_lower <= rep.t_detect < verdict.time_bound

    def test_slope_infimum_not_above_node_minimum(self, grid1024):
        # off-node minimum: the refined infimum lies below every node's
        # slope, and the closed-form one to round-off
        shift = 0.37 * grid1024.dx
        u0 = dg.ic_preset("gaussian_derivative", grid1024, a=1.0, center=shift)
        sp = grid1024.spectral
        nodes_min = np.fft.irfft(sp.ik * u0.spectrum, n=sp.n).min()
        m0 = slope_infimum(u0)
        assert m0 < nodes_min
        assert m0 == pytest.approx(-1.0, abs=1e-12)


class TestPeakonPair:
    Q0, C, ALPHA = 2.0, 1.0, 1.0

    def test_closed_form(self):
        t_coll = collision_time(self.Q0, self.C, self.ALPHA)
        assert t_coll == pytest.approx(2.688536, abs=5e-7)
        assert abs(pair_position(t_coll, self.Q0, self.C, self.ALPHA)) < 1e-7
        assert pair_position(0.0, self.Q0, self.C, self.ALPHA) == pytest.approx(self.Q0, rel=1e-15)
        # q' = -c sqrt(1 - e^{-2q/alpha}), by central differences
        t, h = np.array([0.5, 1.0, 2.0]), 1e-5
        q = pair_position(t, self.Q0, self.C, self.ALPHA)
        dq = (pair_position(t + h, self.Q0, self.C, self.ALPHA)
              - pair_position(t - h, self.Q0, self.C, self.ALPHA)) / (2.0 * h)
        want = -self.C * np.sqrt(1.0 - np.exp(-2.0 * q / self.ALPHA))
        assert np.max(np.abs(dq - want)) < 1e-8

    @pytest.mark.parametrize("t_max", [1.0, 1.5])
    def test_field_converges_before_collision(self, params_ch, t_max):
        # Lipschitz datum: the field converges in L2, at less than the
        # spectral rate (measured 9.66e-3 -> 2.08e-3 at t = 1 and
        # 1.42e-2 -> 3.00e-3 at t = 1.5, N = 1024 -> 4096); at N = 1024
        # the tracker fires on a kink at 1.936, so no run goes to t = 2
        errors = []
        for n in (1024, 4096):
            grid = dg.make_grid(20.0, n)
            u0 = dg.Field(grid, pair_values(grid.nodes, 0.0, self.Q0, self.C, self.ALPHA))
            cfg = dg.SolverConfig(t_max=t_max, record_every=10**6)
            traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params_ch)
            assert rep.trigger == TRIGGER_HORIZON
            final = traj[-1].state
            assert final.t == t_max
            exact = pair_values(grid.nodes, t_max, self.Q0, self.C, self.ALPHA)
            errors.append(np.sqrt(np.sum((final.u.values - exact) ** 2) * grid.dx))
        assert errors[1] < 0.5 * errors[0]
