"""Acceptance gate: every numbered criterion below runs at its stated
tolerance on the default rig (alpha = 1, L = 20, N = 4096 unless stated)
and prints one PASS line when it holds.

Pointwise checks along a collapsing characteristic are evaluated on the
resolved window (flow-map stretch q_x above a floor): beyond it the
breaking cusp has sub-cell structure and interpolated samples measure
discretization artifacts, not the continuum fields.
"""

import numpy as np
import pytest

import dghlab as dg
from dghlab.analysis import full_kernel_gap, one_sided_gaps, sobolev_gap
from dghlab.cli import main
from dghlab.analysis import random_band_limited
from derivative import ddx
from kernel import green_kernel
from path_checks import monotone_violation, resolved_count


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


AMPLITUDES = (0.5, 1.0, 2.0)


def test_criterion_01_inequality_suite(grid4096, params_ch):
    """Sharp inequalities over 50 random band-limited fields and all
    presets: min gap >= -1e-8; peakon witness gap on the equality region
    below 1e-3 with empirical order >= 1.5 over N in {1024, 2048, 4096}."""
    rng = np.random.default_rng(2024)
    worst = np.inf

    fields = [
        (dg.ic_preset("gaussian_bump", grid4096), params_ch),
        (dg.ic_preset("gaussian_derivative", grid4096), params_ch),
        (dg.ic_preset("sech_bump", grid4096), params_ch),
        (dg.ic_preset("peakon_shifted", grid4096, params_ch, c=1.0, y=0.0, k=0.0), params_ch),
    ]
    for _ in range(50):
        kv = float(rng.uniform(-1.0, 1.0))
        p = dg.make_parameters(1.0, 0.0, 2.0 * kv)
        u = random_band_limited(rng, grid4096)
        fields.append((u, p))

    for u, p in fields:
        gm, gp = one_sided_gaps(u, p)
        fk = full_kernel_gap(u, (gm, gp))
        worst = min(worst, gm.min_gap, gp.min_gap, fk.min_gap, sobolev_gap(u, p))
    assert worst >= -1e-8

    # peakon equality witness: x <= y side of the minus kernel, measured
    # away from the slope jump at the peak (the jump carries O(1/N) of the
    # relevant norm, so the gap at the peak node itself converges only at
    # first order; see the decisions ledger)
    region_gaps = []
    for n in (1024, 2048, 4096):
        grid = dg.make_grid(20.0, n)
        u = dg.ic_preset("peakon_shifted", grid, params_ch, c=1.0, y=0.0, k=0.0)
        gm, gp = one_sided_gaps(u, params_ch)
        assert gm.min_gap >= -1e-8 and gp.min_gap >= -1e-8
        region = grid.nodes <= -0.25
        region_gaps.append(float(np.max(np.abs(gm.values[region]))))
    assert all(g < 1e-3 for g in region_gaps)
    order = np.log2(region_gaps[0] / region_gaps[-1]) / 2.0
    assert order >= 1.5
    report(1, f"worst min gap {worst:.2e}; witness gap {region_gaps[-1]:.2e}, order {order:.2f}")


def test_criterion_02_operator_identities(grid4096, params_ch, op4096):
    """Helmholtz residual < 1e-10 max-abs; kernel mass within 1e-8 of 1;
    self-adjointness within 1e-10 relative."""
    from scipy.integrate import quad

    rng = np.random.default_rng(7)
    f = random_band_limited(rng, grid4096).values
    g = random_band_limited(rng, grid4096).values

    qf = op4096.apply_q_values(f)
    qf_xx = ddx(grid4096, ddx(grid4096, qf))
    residual = np.max(np.abs(qf - f - params_ch.alpha**2 * qf_xx))
    assert residual < 1e-10

    L = grid4096.half_length
    mass, _ = quad(lambda y: green_kernel(y, params_ch), -L, L, points=[0.0])
    assert abs(mass - 1.0) < 1e-8

    lhs = np.sum(f * op4096.apply_q_values(g)) * grid4096.dx
    rhs = np.sum(op4096.apply_q_values(f) * g) * grid4096.dx
    adj = abs(lhs - rhs) / abs(rhs)
    assert adj < 1e-10
    report(2, f"residual {residual:.1e}, mass error {abs(mass-1):.1e}, adjointness {adj:.1e}")


def test_criterion_03_conservation(runs):
    """Pre-breaking gaussian bump run (gamma = c0 = 0, t <= 1): E drifts
    < 1e-6 relative; momentum identity residual < 1e-5 relative along 5
    characteristics; two-component density invariant residual < 1e-5."""
    traj, rep, _, params = runs.get("bump", 4096)
    assert rep.trigger == "horizon_reached"
    E = [r.diagnostics.energy_e for r in traj]
    e_drift = (max(E) - min(E)) / abs(E[0])
    assert e_drift < 1e-6

    grid = traj[0].state.u.grid
    u0 = traj[0].state.u.values
    uxx0 = ddx(grid, ddx(grid, u0))
    worst_mom = 0.0
    for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
        path = dg.advect(traj, x0, params)
        i = int(np.argmin(np.abs(grid.nodes - x0)))
        scale = abs(u0[i] - params.alpha**2 * uxx0[i] + params.k)
        worst_mom = max(worst_mom, float(np.max(np.abs(path.momentum_res)) / scale))
    assert worst_mom < 1e-5

    traj2, rep2, _, params2 = runs.get("two_smooth")
    assert rep2.trigger == "horizon_reached"
    worst_rho = 0.0
    for x0 in (-1.0, 0.0, 0.7):
        path = dg.advect(traj2, x0, params2)
        worst_rho = max(worst_rho, float(np.max(np.abs(path.rho_res))))
    assert worst_rho < 1e-5
    report(3, f"E drift {e_drift:.1e}, momentum {worst_mom:.1e}, density {worst_rho:.1e}")


def test_criterion_04_monotone_functionals(runs):
    """On every criterion-satisfying run: weighted A nondecreasing and B
    nonincreasing within 1e-8*(1+|value|), signs persist, slope strictly
    decreasing, over the resolved window of the criterion path."""
    keys = [("breaking", a, n) for a in AMPLITUDES for n in (2048, 4096)]
    keys += [("dispersive_breaking",), ("two_breaking",)]
    checked = 0
    for key in keys:
        traj, rep, verdict, params = runs.get(*key)
        assert verdict is not None and verdict.holds
        path = dg.advect(traj, verdict.x0_best, params)
        n = resolved_count(path)
        assert n >= 10
        assert monotone_violation(path.sign_a_w[:n], path.log_abs_a_w[:n], "increasing") <= 1e-8
        assert monotone_violation(path.sign_b_w[:n], path.log_abs_b_w[:n], "decreasing") <= 1e-8
        npre = path.n_pre_detection
        assert np.all(path.sign_a_w[:npre] > 0)
        assert np.all(path.sign_b_w[:npre] < 0)
        g = path.g[:n]
        assert np.all(np.diff(g) < 1e-8 * (1.0 + np.abs(g[:-1])))
        checked += 1
    report(4, f"monotonicity, sign persistence and slope decrease on {checked} runs")


def test_criterion_05_blowup_time_bound(runs):
    """Steepness family a in {0.5, 1, 2}: criterion holds at x0 = 0 with
    bound 2/a; breaking detected before the bound; detection time moves
    < 2% between N = 2048 and N = 4096."""
    lines = []
    for a in AMPLITUDES:
        t_detect = {}
        for n in (2048, 4096):
            traj, rep, verdict, _ = runs.get("breaking", a, n)
            assert verdict.holds
            assert abs(verdict.x0_best) < 1e-9
            assert verdict.time_bound == pytest.approx(2.0 / a, abs=1e-8)
            assert rep.blew_up and rep.trigger == "slope_threshold"
            assert rep.min_slope_at_detect < -1e4
            assert rep.t_detect < verdict.time_bound
            t_detect[n] = rep.t_detect
        shift = abs(t_detect[2048] - t_detect[4096]) / t_detect[4096]
        assert shift < 0.02
        lines.append(f"a={a}: t*={t_detect[4096]:.3f}<{2.0/a} ({100*shift:.2f}%)")
    report(5, "; ".join(lines))


def test_criterion_06_dispersive_breaking(runs):
    """Nonzero dispersion (alpha, gamma, c0) = (1, 1, 1): the lowered
    steep datum satisfies the criterion and breaks before its bound."""
    traj, rep, verdict, params = runs.get("dispersive_breaking")
    assert params.k == 1.0 and params.lam == -1.0 and params.in_band
    assert verdict.holds
    assert verdict.margin == pytest.approx(-3.0, abs=1e-9)
    assert verdict.time_bound == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.blew_up
    assert rep.t_detect < verdict.time_bound
    report(6, f"margin {verdict.margin:.3f}, t_detect {rep.t_detect:.3f} < {verdict.time_bound:.3f}")


def test_criterion_07_two_component(runs):
    """gamma = 0 two-component run with a vacuum point: criterion holds
    with bound 2, breaking detected before it, and the density stays
    within 1e-6 of -1 along the vacuum characteristic while resolved."""
    traj, rep, verdict, params = runs.get("two_breaking")
    assert verdict.holds and verdict.rho_condition_met
    assert verdict.time_bound == pytest.approx(2.0, abs=1e-9)
    assert rep.blew_up
    assert rep.t_detect < 2.0
    path = dg.advect(traj, 0.0, params)
    n = resolved_count(path, qx_floor=0.2)
    assert n >= 10
    rho_along = path.rho_res[:n] / path.qx[:n] - 1.0
    dev = float(np.max(np.abs(rho_along + 1.0)))
    assert dev < 1e-6
    report(7, f"t_detect {rep.t_detect:.3f} < 2, max |rho+1| {dev:.1e} over {n} records")


def test_criterion_08_sup_norm_bound(runs):
    """Every pre-detection recorded state of every acceptance run obeys
    max|u| <= ||u0||_{H1,alpha}/sqrt(2 alpha) + 1e-6, with the norm
    sqrt(2 E) of the velocity alone (adding ||rho~0||_{L2}/sqrt(2 alpha)
    for two-component runs)."""
    keys = [("breaking", a, n) for a in AMPLITUDES for n in (2048, 4096)]
    keys += [
        ("bump", 4096), ("bump", 2048), ("dispersive_breaking",),
        ("two_breaking",), ("two_smooth",), ("negative_control",),
    ]
    checked = 0
    for key in keys:
        traj, _, _, params = runs.get(*key)
        r0 = traj[0].state
        bound = float(np.sqrt(2.0 * dg.energy_E(dg.State(0.0, r0.u), params)))
        if r0.rho_tilde is not None:
            bound += float(
                np.sqrt(np.sum(r0.rho_tilde.values**2) * traj[0].state.u.grid.dx)
            )
        bound = bound / np.sqrt(2.0 * params.alpha) + 1e-6
        for r in traj:
            if not r.at_detection:
                assert r.diagnostics.max_abs_u <= bound
        checked += 1
    report(8, f"sup-norm bound on all records of {checked} runs")


def test_criterion_09_negative_control(runs):
    """Small smooth datum runs to the horizon with slopes above -0.1;
    this checks solver stability only."""
    traj, rep, _, _ = runs.get("negative_control")
    assert rep.trigger == "horizon_reached"
    assert not rep.blew_up
    worst = min(r.diagnostics.min_ux for r in traj)
    assert worst >= -0.1
    report(9, f"horizon reached, min slope {worst:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    """Identical config and seed give bit-identical CSV/JSON outputs for
    both simulate and sweep."""
    import yaml

    cfg = {
        "equation": "dgh",
        "parameters": {"alpha": 1.0, "gamma": 0.0, "c0": 0.0},
        "grid": {"half_length": 20.0, "n_points": 1024},
        "solver": {"t_max": 1.2, "record_every": 8},
        "initial": {"preset": "gaussian_derivative", "args": {"a": 1.0}},
        "seeds": [0.0],
        "sweep": {"amplitudes": [1.0, 2.0]},
    }
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(yaml.safe_dump(cfg))

    def run_all(tag):
        outs = {}
        for cmd in ("simulate", "sweep"):
            out = tmp_path / f"{cmd}_{tag}"
            assert main([cmd, "--config", str(cfg_file), "--out", str(out), "--seed", "11"]) == 0
            outs[cmd] = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
        return outs

    first = run_all("a")
    second = run_all("b")
    assert first == second
    report(10, "simulate and sweep outputs bit-identical across repeated runs")
