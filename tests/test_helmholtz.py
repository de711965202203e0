import gc
import pickle
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

import dghlab as dg
from dghlab.analysis import one_sided_gaps, random_band_limited
from derivative import ddx
from kernel import green_kernel
from lemma_oracle import gap_args


class TestGreenKernel:
    def test_value_at_origin(self, params_ch):
        assert green_kernel(0.0, params_ch) == 0.5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_value_at_alpha(self, alpha):
        p = dg.make_parameters(alpha)
        assert green_kernel(alpha, p) == pytest.approx(np.exp(-1.0) / (2 * alpha), rel=1e-15, abs=0.0)

    def test_unit_mass_on_box(self, grid4096, params_ch):
        # integrate over [-L, L], L = 20*alpha, splitting at the kernel
        # kink (plain trapezoid across the kink is only O(dx^2) and would
        # mask the e^{-L/alpha} tail this tolerance encodes)
        L = grid4096.half_length
        mass, _ = quad(lambda y: green_kernel(y, params_ch), -L, L, points=[0.0])
        assert mass == pytest.approx(1.0, abs=1e-8)
        # the grid-level trapezoid sum agrees to its own O(dx^2) accuracy
        vals = green_kernel(grid4096.nodes, params_ch)
        assert np.sum(vals) * grid4096.dx == pytest.approx(1.0, abs=grid4096.dx**2)


class TestSymbols:
    def test_q_symbol_properties(self, op4096):
        s = op4096.symbol_q
        assert s[0] == 1.0
        assert np.all(s > 0.0)
        assert np.all(s <= 1.0)
        assert np.all(np.isreal(s))

    @pytest.mark.parametrize("alpha", [1.0, 1.3])
    def test_q_symbol_is_the_reciprocal_helmholtz_symbol(self, grid4096, alpha):
        # every solver output rests on these bits of symbol_q
        op = dg.NonlocalOperator(grid4096, alpha)
        xi = grid4096.spectral.xi
        assert np.array_equal(op.symbol_helm, 1.0 + (alpha * xi) ** 2)
        assert np.array_equal(op.symbol_q, 1.0 / (1.0 + (alpha * xi) ** 2))
        assert not (op.symbol_helm.flags.writeable or op.symbol_q.flags.writeable)

    def test_dq_symbol_nyquist_zeroed(self, op4096):
        assert op4096.symbol_dq[-1] == 0.0

    def test_symbols_formed_once_per_grid_and_alpha(self):
        # operators of one Grid object and alpha share the read-only symbol
        # arrays; another alpha, and another Grid equal to the first, each
        # form their own
        grid = dg.make_grid(20.0, 512)
        first, second = dg.NonlocalOperator(grid, 1.0), dg.NonlocalOperator(grid, 1.0)
        for name in ("symbol_helm", "symbol_q", "symbol_dq"):
            assert getattr(first, name) is getattr(second, name)
        assert dg.NonlocalOperator(grid, 1.3).symbol_q is not first.symbol_q
        twin = dg.make_grid(20.0, 512)
        assert twin == grid
        other = dg.NonlocalOperator(twin, 1.0)
        assert other.symbol_q is not first.symbol_q
        assert np.array_equal(other.symbol_q, first.symbol_q)

    def test_pickled_grid_forms_its_own_symbols(self):
        # unpickled arrays are writable: a grid's copy in a sweep worker
        # forms its own read-only symbols rather than share writable ones
        grid = dg.make_grid(20.0, 512)
        dg.NonlocalOperator(grid, 1.0)
        copy = pickle.loads(pickle.dumps(grid))
        assert copy.spectral.helmholtz_symbols == {}
        op = dg.NonlocalOperator(copy, 1.0)
        assert not any(s.flags.writeable for s in (op.symbol_helm, op.symbol_q, op.symbol_dq))
        assert grid.spectral.helmholtz_symbols[1.0][1] is not op.symbol_q

    def test_grid_freed_without_the_cycle_collector(self, params_ch):
        # the symbols a grid keeps for its operators refer to nothing, so no
        # grid <-> operator cycle waits for the cyclic collector: with it
        # off, a grid used by the gap checks and by a short simulate is
        # freed as soon as its last reference goes
        grid = dg.make_grid(20.0, 256)
        ref = weakref.ref(grid)
        enabled = gc.isenabled()
        gc.disable()
        try:
            u = gap_args(grid, *random_band_limited(np.random.default_rng(1), grid, 10, 20))
            one_sided_gaps(*u, params_ch.alpha, params_ch.k)
            state = dg.State(0.0, dg.ic_preset("gaussian_derivative", grid))
            dg.simulate(state, dg.SolverConfig(t_max=0.05), params_ch)
            del u, state, grid
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_refuses_an_overflowing_symbol(self):
        # alpha**2 = 1e308 and (pi/dx)**2 = 1e4 are finite, their product
        # is not; at alpha = 1e152 it is 1e308 and the symbols are built
        grid = dg.make_grid(1.0, 64)
        with pytest.raises(ValueError, match="alpha"):
            dg.NonlocalOperator(grid, 1e154)
        assert np.isfinite(dg.NonlocalOperator(grid, 1e152).symbol_helm[-1])


def apply_dq(op, values):
    """d_x (p * f) of grid samples, the multiplier i*xi/(1 + alpha^2 xi^2)."""
    return np.fft.irfft(op.symbol_dq * np.fft.rfft(values), n=op.grid.n_points)


def _periodized_conv_oracle(x_eval, f_exact, grid, params, one_sided=False):
    """Direct quadrature of the periodized (one-sided) kernel convolution.

    Integrates each kernel image with scipy.quad, splitting at the kernel
    kink/jump so the quadrature is accurate; f is evaluated analytically,
    keeping the oracle independent of the spectral machinery.
    """
    L = grid.half_length
    a = params.alpha
    total = 0.0
    for n_img in range(-3, 4):
        def integrand(y, n_img=n_img):
            d = x_eval - y + 2 * L * n_img
            ker = np.exp(-abs(d) / a) / (2 * a)
            if one_sided:
                ker = 2.0 * ker if d > 0 else 0.0
            return ker * f_exact(y)

        split = x_eval + 2 * L * n_img
        pts = [split] if -L < split < L else None
        val, _ = quad(integrand, -L, L, points=pts, limit=200)
        total += val
    return total


class TestApplyQ:
    def test_fixes_constants(self, grid1024, params_ch):
        op = dg.make_operator(grid1024, params_ch)
        f = dg.ic_preset("from_samples", grid1024, values=np.full(1024, 2.0))
        assert np.max(np.abs(op.apply_q_values(f.values) - 2.0)) < 1e-14

    def test_cosine_eigenfunction(self, grid1024):
        p = dg.make_parameters(1.5)
        op = dg.make_operator(grid1024, p)
        xi0 = 2 * np.pi * 8 / (2 * grid1024.half_length)
        f = np.cos(xi0 * grid1024.nodes)
        out = op.apply_q_values(f)
        assert np.max(np.abs(out - f / (1 + p.alpha**2 * xi0**2))) < 1e-10

    def test_matches_periodized_quadrature_on_spike(self, params_ch):
        grid = dg.make_grid(20.0, 2048)
        op = dg.make_operator(grid, params_ch)
        width = 0.2

        def f_exact(y):
            return np.exp(-((y / width) ** 2) / 2)

        spike = dg.ic_preset("gaussian_bump", grid, width=width)
        out = op.apply_q_values(spike.values)
        for x_eval in (-3.0, -0.5, 0.0, 0.7, 4.0):
            i = int(np.argmin(np.abs(grid.nodes - x_eval)))
            oracle = _periodized_conv_oracle(grid.nodes[i], f_exact, grid, params_ch)
            assert out[i] == pytest.approx(oracle, abs=1e-8)


class TestApplyDQ:
    def test_kills_constants(self, grid1024, params_ch):
        op = dg.make_operator(grid1024, params_ch)
        f = dg.ic_preset("from_samples", grid1024, values=np.full(1024, 5.0))
        assert np.max(np.abs(apply_dq(op, f.values))) < 1e-14

    def test_factorizes_through_derivative(self, grid1024):
        p = dg.make_parameters(0.8)
        op = dg.make_operator(grid1024, p)
        f = dg.ic_preset("gaussian_derivative", grid1024, a=1.3)
        lhs = apply_dq(op, f.values)
        rhs = ddx(grid1024, op.apply_q_values(f.values))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_helmholtz_residual_identity(self, grid4096):
        # p*f - f = alpha^2 d_xx (p*f)
        p = dg.make_parameters(1.7)
        op = dg.make_operator(grid4096, p)
        rng = np.random.default_rng(11)
        _, f = random_band_limited(rng, grid4096)
        qf = op.apply_q_values(f)
        residual = qf - f - p.alpha**2 * ddx(grid4096, ddx(grid4096, qf))
        assert np.max(np.abs(residual)) < 1e-10


class TestOneSided:
    def test_constants_pass_through(self, grid1024, params_ch):
        op = dg.make_operator(grid1024, params_ch)
        f = dg.ic_preset("from_samples", grid1024, values=np.full(1024, 1.5))
        minus, plus = op.one_sided_convolutions(f.values)
        assert np.max(np.abs(minus - 1.5)) < 1e-13
        assert np.max(np.abs(plus - 1.5)) < 1e-13

    def test_batched_pair_equals_per_row_transforms(self, grid1024):
        op = dg.make_operator(grid1024, dg.make_parameters(1.7))
        f = np.random.default_rng(3).standard_normal(1024)
        minus, plus = op.one_sided_convolutions(f)
        fh = np.fft.rfft(f)
        qf = np.fft.irfft(op.symbol_q * fh, n=1024)
        dqf = np.fft.irfft(op.symbol_dq * fh, n=1024)
        assert np.array_equal(minus, qf - 1.7 * dqf)
        assert np.array_equal(plus, qf + 1.7 * dqf)

    def test_sum_recovers_full_kernel(self, grid1024):
        p = dg.make_parameters(2.3)
        op = dg.make_operator(grid1024, p)
        f = dg.ic_preset("gaussian_bump", grid1024, center=1.0)
        minus, plus = op.one_sided_convolutions(f.values)
        full = 2.0 * op.apply_q_values(f.values)
        assert np.max(np.abs(minus + plus - full)) < 1e-12

    def test_positivity_for_nonnegative_input(self, grid4096, params_ch):
        op = dg.make_operator(grid4096, params_ch)
        f = dg.ic_preset("gaussian_bump", grid4096, width=0.5)
        minus, plus = op.one_sided_convolutions(f.values)
        assert minus.min() > -1e-12
        assert plus.min() > -1e-12

    def test_matches_one_sided_quadrature(self, params_ch):
        grid = dg.make_grid(20.0, 2048)
        op = dg.make_operator(grid, params_ch)
        width = 0.4

        def f_exact(y):
            return np.exp(-((y / width) ** 2) / 2)

        f = dg.ic_preset("gaussian_bump", grid, width=width)
        minus, _ = op.one_sided_convolutions(f.values)
        for x_eval in (-1.0, 0.0, 0.5, 2.0):
            i = int(np.argmin(np.abs(grid.nodes - x_eval)))
            oracle = _periodized_conv_oracle(
                grid.nodes[i], f_exact, grid, params_ch, one_sided=True
            )
            assert minus[i] == pytest.approx(oracle, abs=1e-8)


class TestOperatorProperties:
    def test_self_adjoint(self, grid4096, params_ch):
        op = dg.make_operator(grid4096, params_ch)
        rng = np.random.default_rng(5)
        _, f = random_band_limited(rng, grid4096)
        _, g = random_band_limited(rng, grid4096)
        lhs = np.sum(f * op.apply_q_values(g)) * grid4096.dx
        rhs = np.sum(op.apply_q_values(f) * g) * grid4096.dx
        assert abs(lhs - rhs) / (abs(rhs) + 1e-30) < 1e-10

    def test_sup_contraction_on_nonnegative(self, grid1024):
        p = dg.make_parameters(0.7)
        op = dg.make_operator(grid1024, p)
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = np.abs(random_band_limited(rng, grid1024)[1])
            qf = op.apply_q_values(f)
            assert np.max(np.abs(qf)) <= np.max(np.abs(f)) * (1 + 1e-13)

    def test_periodization_error_is_exponentially_small(self, grid2048, params_ch):
        # field numerically supported in [-L/2, L/2]; at the boundary the
        # periodized convolution differs from the whole-line one only by
        # the nearest kernel images, bounded by
        # e^{-L/alpha}/(2 alpha) * int e^{|y|/alpha} |f| (the plain
        # e^{-L/alpha}/(2 alpha) * int |f| misses the boundary tilt of the
        # images and can undershoot)
        op = dg.make_operator(grid2048, params_ch)
        width = 2.0
        f = dg.ic_preset("gaussian_bump", grid2048, width=width)
        L = grid2048.half_length
        a = params_ch.alpha
        whole_line, _ = quad(
            lambda y: np.exp(-abs(-L - y) / a) / (2 * a) * np.exp(-((y / width) ** 2) / 2),
            -L, L, points=[-L], limit=400,
        )
        diff = abs(op.apply_q_values(f.values)[0] - whole_line)
        tilted_mass = np.sum(np.exp(np.abs(grid2048.nodes) / a) * np.abs(f.values)) * grid2048.dx
        assert diff <= np.exp(-L / a) / (2 * a) * tilted_mass
        assert diff < 1e-6
