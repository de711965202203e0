"""Shared fixtures: canonical parameter sets, grids, and cached runs.

The expensive simulations are built once per session and shared between
the module tests and the acceptance suite.
"""
from __future__ import annotations

import pytest

import dghlab as dg

L_DEFAULT = 20.0


@pytest.fixture(scope="session")
def params_ch() -> dg.Parameters:
    """Dispersionless Camassa-Holm point of the family: gamma = c0 = 0."""
    return dg.make_parameters(1.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def grid4096() -> dg.Grid:
    return dg.make_grid(L_DEFAULT, 4096)


@pytest.fixture(scope="session")
def grid2048() -> dg.Grid:
    return dg.make_grid(L_DEFAULT, 2048)


@pytest.fixture(scope="session")
def grid1024() -> dg.Grid:
    return dg.make_grid(L_DEFAULT, 1024)


@pytest.fixture(scope="session")
def op4096(grid4096, params_ch) -> dg.NonlocalOperator:
    return dg.make_operator(grid4096, params_ch)


def _rho_minus_one_bump(grid: dg.Grid) -> dg.Field:
    """rho~0 = -exp(-x^2): equals -1 exactly at the x = 0 node."""
    return dg.ic_preset("gaussian_bump", grid, a=-1.0, width=2.0**-0.5)


class RunCache:
    """Build-on-demand cache of the runs shared across the suite."""

    def __init__(self):
        self._cache = {}

    def _build(self, key):
        kind = key[0]
        if kind == "breaking":
            _, a, n = key
            grid = dg.make_grid(L_DEFAULT, n)
            params = dg.make_parameters(1.0)
            u0 = dg.ic_preset("gaussian_derivative", grid, a=a)
            cfg = dg.SolverConfig(t_max=2.0 / a + 1.0, record_every=2)
            traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
            verdict = dg.check_criterion_dgh(u0, params)
            return traj, rep, verdict, params
        if kind == "bump":
            _, n = key
            grid = dg.make_grid(L_DEFAULT, n)
            params = dg.make_parameters(1.0)
            u0 = dg.ic_preset("gaussian_bump", grid)
            cfg = dg.SolverConfig(t_max=1.0, record_every=2)
            traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
            return traj, rep, dg.check_criterion_dgh(u0, params), params
        if kind == "two_smooth":
            grid = dg.make_grid(L_DEFAULT, 4096)
            params = dg.make_parameters(1.0)
            u0 = dg.ic_preset("gaussian_derivative", grid, a=-0.3)
            rho0 = _rho_minus_one_bump(grid)
            cfg = dg.SolverConfig(t_max=1.0, record_every=2)
            traj, rep = dg.simulate(dg.State(0.0, u0, rho0), cfg, params)
            return traj, rep, None, params
        if kind == "two_breaking":
            grid = dg.make_grid(L_DEFAULT, 4096)
            params = dg.make_parameters(1.0)
            u0 = dg.ic_preset("gaussian_derivative", grid, a=1.0)
            rho0 = _rho_minus_one_bump(grid)
            cfg = dg.SolverConfig(t_max=2.5, record_every=2)
            traj, rep = dg.simulate(dg.State(0.0, u0, rho0), cfg, params)
            verdict = dg.check_criterion_dgh2(u0, rho0, params)
            return traj, rep, verdict, params
        if kind == "dispersive_breaking":
            # in-band point with every constant nonzero; the datum is the
            # steep-derivative preset lowered by k so u0(x0) + k = 0 at the
            # critical point
            grid = dg.make_grid(L_DEFAULT, 4096)
            params = dg.make_parameters(1.0, 1.0, 1.0)
            u0 = dg.ic_preset("gaussian_derivative", grid, a=3.0, offset=-params.k)
            cfg = dg.SolverConfig(t_max=1.0, record_every=2)
            traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
            verdict = dg.check_criterion_dgh(u0, params)
            return traj, rep, verdict, params
        if kind == "negative_control":
            grid = dg.make_grid(L_DEFAULT, 4096)
            params = dg.make_parameters(1.0)
            u0 = dg.ic_preset("gaussian_bump", grid, a=0.01)
            cfg = dg.SolverConfig(t_max=5.0, record_every=1)
            traj, rep = dg.simulate(dg.State(0.0, u0), cfg, params)
            return traj, rep, None, params
        raise KeyError(key)

    def get(self, *key):
        if key not in self._cache:
            self._cache[key] = self._build(key)
        return self._cache[key]


@pytest.fixture(scope="session")
def runs() -> RunCache:
    return RunCache()


@pytest.fixture(scope="session")
def breaking_run(runs):
    """The canonical breaking run: gaussian_derivative(1), N = 4096."""
    return runs.get("breaking", 1.0, 4096)


@pytest.fixture(scope="session")
def bump_run(runs):
    """Smooth pre-breaking run: unit gaussian bump, t <= 1, N = 4096."""
    return runs.get("bump", 4096)

