"""Spectral constants on 1-D grids: reference values, convergence order,
trial-family bounds, entropy positivity, and the quantile coupling scale."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from mmslab import core, functional as fn
from conftest import random_embedded_space


class TestGridSpaces:
    def test_interval_normalised(self):
        g = fn.unit_interval_grid(128)
        assert g.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(g.weight, 1.0)

    def test_gaussian_normalised(self):
        g = fn.gaussian_grid(256)
        assert g.total_mass() == pytest.approx(1.0, abs=1e-12)
        peak = g.weight.max()
        assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-3)

    def test_truncation_tail_negligible(self):
        from scipy.special import ndtr

        assert 2 * ndtr(-8.0) < 1e-14

    def test_scale(self):
        g = fn.unit_interval_grid(128)
        s = fn.scale_grid(g, 2.0)
        assert s.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert s.nodes[-1] == pytest.approx(2.0)

    def test_bad_grids_rejected(self):
        with pytest.raises(core.InputError):
            fn.GridSpace1D(np.array([0.0, 1.0, 0.5]), np.ones(3))
        with pytest.raises(core.InputError):
            fn.GridSpace1D(np.linspace(0, 1, 5), 2.0 * np.ones(5))  # not normalised


class TestPoincare:
    def test_interval_reference(self):
        c = fn.poincare_c22(fn.unit_interval_grid(512))
        assert c == pytest.approx(1.0 / math.pi, abs=1e-3)

    def test_gaussian_reference(self):
        c = fn.poincare_c22(fn.gaussian_grid(512))
        assert c == pytest.approx(1.0, abs=1e-3)

    def test_scale_homogeneous(self):
        g = fn.unit_interval_grid(256)
        base = fn.poincare_c22(g)
        for r in (0.5, 2.0, 5.0):
            assert fn.poincare_c22(fn.scale_grid(g, r)) == pytest.approx(r * base, rel=1e-9)

    def test_second_order_convergence(self):
        errs = [
            abs(fn.poincare_c22(fn.unit_interval_grid(m)) - 1.0 / math.pi)
            for m in (128, 256, 512)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_against_dense_eigensolver(self):
        # independent route: LAPACK tridiagonal eigenvalues of the same form
        for make in (fn.unit_interval_grid, fn.gaussian_grid):
            g = make(200)
            mu = g.node_mass()
            cond = 0.5 * (g.weight[:-1] + g.weight[1:]) * g.h / g.h**2
            diag = np.zeros(mu.size)
            diag[:-1] += cond
            diag[1:] += cond
            sq = np.sqrt(mu)
            d = diag / mu
            e = -cond / (sq[:-1] * sq[1:])
            vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))[0]
            lam1 = vals[1]
            assert fn.poincare_c22(g) == pytest.approx(1.0 / math.sqrt(lam1), rel=1e-8)

    def test_eigenvector_orthogonal_to_constants(self):
        g = fn.unit_interval_grid(256)
        _, eig = fn.second_eigenvalue(g)
        assert abs(float(np.dot(g.node_mass(), eig))) <= 1e-8

    def test_converges_where_rayleigh_quotient_oscillated(self):
        # at this size the symmetrised-form quotient alternated between two
        # values about 1e-8 apart and never met the stopping test
        length = 0.9855584598921796
        lam, _ = fn.second_eigenvalue(fn.unit_interval_grid(65768, length), max_iter=200)
        assert lam == pytest.approx((math.pi / length) ** 2, rel=1e-9)

    def test_size_floor(self):
        with pytest.raises(core.InputError):
            fn.poincare_c22(fn.unit_interval_grid(32))


class TestPqLower:
    def test_below_spectral_value(self):
        g = fn.unit_interval_grid(512)
        assert fn.poincare_pq_lower(g, 2, 2) <= fn.poincare_c22(g) + 1e-6

    def test_linear_function_ratio(self):
        # the identity observable yields deviation 1/sqrt(12) per unit slope
        g = fn.unit_interval_grid(512)
        assert fn.poincare_pq_lower(g, 2, 2) >= 1.0 / (2.0 * math.sqrt(3.0))

    def test_monotone_in_p_on_shared_trials(self):
        g = fn.unit_interval_grid(256)
        for q in (1.5, 2.0, 3.0):
            lo1 = fn.poincare_pq_lower(g, 1, q, trials=64)
            lo2 = fn.poincare_pq_lower(g, 2, q, trials=64)
            assert lo2 >= lo1 - 1e-9

    def test_rejects_bad_exponents(self):
        g = fn.unit_interval_grid(128)
        with pytest.raises(core.InputError):
            fn.poincare_pq_lower(g, 0.5, 2)


class TestLogSobolev:
    def test_interval_no_violation(self):
        g = fn.unit_interval_grid(512)
        rep = fn.log_sobolev_check(g, 1.0 / math.pi, trials=1000)
        assert rep.max_violation <= 1e-4
        assert rep.trials >= 1000

    def test_gaussian_no_violation(self):
        g = fn.gaussian_grid(512)
        rep = fn.log_sobolev_check(g, 1.0, trials=1000)
        assert rep.max_violation <= 1e-4

    def test_lower_bound_reaches_poincare(self):
        for make, const in ((fn.unit_interval_grid, 1 / math.pi), (fn.gaussian_grid, 1.0)):
            g = make(512)
            rep = fn.log_sobolev_check(g, const, trials=200)
            assert rep.lower_bound >= fn.poincare_c22(g) - 1e-3

    def test_small_candidate_violated(self):
        g = fn.unit_interval_grid(256)
        rep = fn.log_sobolev_check(g, 0.1, trials=200)
        assert rep.max_violation > 0

    def test_entropy_nonnegative_on_trials(self):
        g = fn.unit_interval_grid(256)
        mu = g.node_mass()
        for f in fn._trial_functions(g, 64, seed=5):
            assert core.entropy_weighted(mu, np.asarray(f) ** 2) >= -1e-12


class TestDisconnected:
    def test_two_point_witness(self):
        sp = core.space(["a", "b"], [[0, 2.0], [2.0, 0]], [0.3, 0.7])
        rep = fn.mm_disconnected_constant(sp)
        assert rep.disconnected and rep.constant_infinite
        assert rep.witness_variance == pytest.approx(0.3 * 0.7 * 4.0)

    def test_one_point_convention(self):
        rep = fn.mm_disconnected_constant(core.space(["p"], [[0.0]], [1.0]))
        assert not rep.disconnected
        assert rep.witness_values is None and rep.witness_variance == 0.0

    def test_three_point_infinite(self, rng):
        rep = fn.mm_disconnected_constant(random_embedded_space(rng, 3))
        assert rep.constant_infinite and rep.witness_variance > 0


class TestDominationScale:
    def test_uniform_unit_interval(self):
        g = fn.unit_interval_grid(512)
        assert fn.gaussian_domination_scale(g) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-4
        )

    def test_uniform_scaled(self):
        for r in (0.5, 2.0):
            g = fn.scale_grid(fn.unit_interval_grid(512), r)
            assert fn.gaussian_domination_scale(g) == pytest.approx(
                r / math.sqrt(2 * math.pi), abs=1e-4 * max(1, r)
            )

    def test_gaussian_identity(self):
        for sigma in (0.5, 1.0, 2.0):
            g = fn.gaussian_grid(2048, sigma=sigma)
            assert fn.gaussian_domination_scale(g) == pytest.approx(sigma, rel=1e-3)


class TestInequalityChain:
    def test_sqrtv_le_c22_le_ls_lower_consistency(self):
        # the deviation of every trial stays below the spectral constant and
        # the entropy route never certifies less than the spectral constant
        for make, const in ((fn.unit_interval_grid, 1 / math.pi), (fn.gaussian_grid, 1.0)):
            g = make(512)
            c22 = fn.poincare_c22(g)
            sqrt_v = fn.poincare_pq_lower(g, 2, 2, trials=128)
            rep = fn.log_sobolev_check(g, const, trials=256)
            assert sqrt_v <= c22 + 1e-6
            assert rep.lower_bound >= c22 - 1e-3
            assert rep.max_violation <= 1e-3
