"""Spectral constants on 1-D grids: reference values, convergence order,
trial-family bounds, entropy positivity, the row blocks of the trial family
against the per-row loops, and the quantile coupling scale."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from mmslab import core, functional as fn
from conftest import random_embedded_space


def _trial_functions(grid, trials, seed):
    """The rows of ``functional._trial_blocks`` one at a time."""
    for block in fn._trial_blocks(grid, trials, seed):
        yield from block


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

    @pytest.mark.parametrize("m", [fn.GRID_MAX_NODES, 10**9], ids=["limit+1", "1e9"])
    @pytest.mark.parametrize("make", [fn.unit_interval_grid, fn.gaussian_grid],
                             ids=["interval", "gaussian"])
    def test_node_limit_refused_before_allocating(self, monkeypatch, make, m):
        def no_arrays(*args, **kwargs):
            raise AssertionError("a grid beyond the node limit was allocated")

        monkeypatch.setattr(np, "linspace", no_arrays)
        with pytest.raises(core.SizeLimitError, match=f"limited to {fn.GRID_MAX_NODES} nodes"):
            make(m)  # m + 1 nodes


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

    def test_converges_where_rayleigh_quotient_oscillated(self, monkeypatch):
        # at this size the symmetrised-form quotient alternated between two
        # values about 1e-8 apart and never met the stopping test; the edge
        # form stops within 200 solves
        solves = []
        solve = fn.dgttrs

        def counted(*args, **kwargs):
            solves.append(None)
            assert len(solves) <= 200, "no convergence in 200 solves"
            return solve(*args, **kwargs)

        monkeypatch.setattr(fn, "dgttrs", counted)
        length = 0.9855584598921796
        lam, _ = fn.second_eigenvalue(fn.unit_interval_grid(65768, length))
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
        for f in _trial_functions(g, 64, seed=5):
            assert core.entropy_weighted(mu, np.asarray(f) ** 2) >= -1e-12


class TestNonFiniteTrials:
    """A trial whose entropy, slope energy or deviation is NaN fails the call
    instead of dropping out of the max folds."""

    def test_convergence_error_is_an_input_error(self):
        # so the CLI reports it as every other input error, with exit code 2
        assert issubclass(fn.ConvergenceError, core.InputError)

    def test_log_sobolev_nan_entropy(self, monkeypatch):
        entropies = fn.entropy_weighted

        def last_row_nan(mu, squares):  # the last row of every block
            return [*entropies(mu, squares)[:-1], math.nan]

        monkeypatch.setattr(fn, "entropy_weighted", last_row_nan)
        for grid, trials in ((fn.unit_interval_grid(256), 20), (fn.gaussian_grid(2048), 90)):
            with pytest.raises(fn.ConvergenceError):
                fn.log_sobolev_check(grid, 0.3, trials=trials)

    def test_pq_nan_energy(self, monkeypatch):
        grid = fn.unit_interval_grid(256)
        cond = fn._edge_conductances(grid).copy()
        cond[len(cond) // 3] = math.nan
        blocks = list(fn._trial_blocks(grid, 20, 0))  # the eigenvector sees the true weights
        monkeypatch.setattr(fn, "_trial_blocks", lambda grid, trials, seed: iter(blocks))
        monkeypatch.setattr(fn, "_edge_conductances", lambda grid: cond)
        with pytest.raises(fn.ConvergenceError):
            fn.poincare_pq_lower(grid, 2, 2, trials=20)

    def test_pq_nan_deviation(self, monkeypatch):
        calls = itertools.count()

        def every_fifth_nan(weights, values, p=2):
            out = core._central_moment(weights, values, p)
            # one moment per trial row: every fifth row of the family is NaN
            return np.array([math.nan if next(calls) % 5 == 4 else x for x in out])

        monkeypatch.setattr(fn, "_central_moment", every_fifth_nan)
        with pytest.raises(fn.ConvergenceError):
            fn.poincare_pq_lower(fn.unit_interval_grid(256), 3, 1.5, trials=20)


def _per_row_trials(grid, trials, seed):
    """The trial family one function at a time, as it was generated before
    it came in row blocks."""
    x = grid.nodes
    t = (x - x[0]) / (x[-1] - x[0])
    _, eig = fn.second_eigenvalue(grid)
    head = [eig / np.abs(eig).max()] + [(t - 0.5) ** deg for deg in range(1, 7)]
    yield from head[:trials]
    rng = np.random.default_rng(seed)
    modes = [np.cos((j + 1) * math.pi * t) for j in range(12)]
    made = len(head)
    while made < trials:
        coeff = rng.standard_normal(rng.integers(1, 13))
        f = np.zeros_like(t)
        for c, mode in zip(coeff, modes):
            f = f + c * mode
        peak = np.abs(f).max()
        if peak > 0:
            made += 1
            yield f / peak


def _per_row_pq_lower(grid, p, q, trials, seed):
    mu = grid.node_mass()
    cond = fn._edge_conductances(grid)
    best = 0.0
    for f in _per_row_trials(grid, trials, seed):
        slopes = np.abs(np.diff(f)) / grid.h
        energy = float(core._row_dots((slopes**q)[None], cond)[0]) ** (1.0 / q)
        if energy <= 1e-14:
            continue
        dev = core._central_moment(mu, f, p) ** (1.0 / p)
        best = max(best, dev / energy)
    return best


def _per_row_log_sobolev(grid, constant, trials, seed):
    mu = grid.node_mass()
    trial = _per_row_trials(grid, max(trials - 4, 1), seed)
    eig = next(trial)
    perturbed = [1.0 + eps * eig for eps in (0.003, 0.01, 0.03, 0.1)]
    worst = -math.inf
    lower = 0.0
    for f in itertools.islice(itertools.chain(perturbed, [eig], trial), trials):
        g = np.gradient(f, grid.h)
        energy = float(core._row_dots((g * g)[None], mu)[0])
        ent = core.entropy_weighted(mu, f**2)
        worst = max(worst, ent - 2.0 * constant**2 * energy)
        if energy > 1e-14 and ent > 0:
            lower = max(lower, math.sqrt(ent / (2.0 * energy)))
    return fn.LogSobolevReport(float(constant), worst, lower, trials)


def _as_bytes(rows):
    return [np.asarray(f, dtype=float).tobytes() for f in rows]


# 513, 2048 and 16,385 points; the 2048-point grids hold 32 rows per block
BLOCK_GRIDS = [make(m) for m in (512, 2047, 16384)
               for make in (fn.unit_interval_grid, lambda m: fn.gaussian_grid(m, 0.8))]
# after 7 head rows the 2048-point blocks end at 39 and 71 trials; the
# log-Sobolev check puts 4 perturbed rows before them, so its first block of
# mixtures ends at 43
PQ_EDGES = (38, 39, 40, 70, 71, 72)
LS_EDGES = (42, 43, 44)


class TestTrialBlocks:
    """The row blocks give the functions, bounds and reports of the per-row
    loops bit for bit, on both sides of each block edge."""

    @pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.kind}-{g.nodes.size}")
    @pytest.mark.parametrize("seed", (0, 3))
    def test_same_as_per_row_loops(self, grid, seed):
        edges = grid.nodes.size == 2048
        for trials in (1, 5, 7, 300) + (PQ_EDGES if edges else ()):
            assert (_as_bytes(_trial_functions(grid, trials, seed))
                    == _as_bytes(_per_row_trials(grid, trials, seed)))
            for p, q in ((2, 2), (3, 1.5), (1, 1)):
                assert (fn.poincare_pq_lower(grid, p, q, trials=trials, seed=seed)
                        == _per_row_pq_lower(grid, p, q, trials, seed))
        for trials in (1, 5, 7, 300) + (LS_EDGES if edges else ()):
            assert (fn.log_sobolev_check(grid, 0.3, trials=trials, seed=seed)
                    == _per_row_log_sobolev(grid, 0.3, trials, seed))

    @pytest.mark.parametrize("grid", [fn.unit_interval_grid(512), fn.gaussian_grid(2047, 0.8)],
                             ids=["uniform_steps", "rounded_steps"])
    def test_blocks_are_only_read(self, monkeypatch, grid):
        # every step of the 512-interval grid is exactly 1/512; the Gaussian
        # grid's steps round apart, and the check still reads the one step h
        steps = np.diff(grid.nodes)
        assert (steps == steps[0]).all() == (grid.kind == "interval")
        blocks = fn._trial_blocks

        def read_only(grid, trials, seed):
            for block in blocks(grid, trials, seed):
                block = block.copy()
                block.setflags(write=False)
                yield block

        monkeypatch.setattr(fn, "_trial_blocks", read_only)
        for trials in (5, 300):
            assert (fn.log_sobolev_check(grid, 0.3, trials=trials, seed=3)
                    == _per_row_log_sobolev(grid, 0.3, trials, 3))
            for p, q in ((2, 2), (3, 1.5)):
                assert (fn.poincare_pq_lower(grid, p, q, trials=trials, seed=3)
                        == _per_row_pq_lower(grid, p, q, trials, 3))

    def test_block_shapes(self):
        grid = fn.unit_interval_grid(2047)
        assert [len(b) for b in fn._trial_blocks(grid, 80, 0)] == [7, 32, 32, 9]
        assert [len(b) for b in fn._trial_blocks(grid, 5, 0)] == [5]
        for grid in BLOCK_GRIDS:
            for block in fn._trial_blocks(grid, 100, 1):
                assert block.size <= core._TRIANGLE_BLOCK_ELEMENTS or len(block) == 1

    def test_rows_with_a_zero_square(self):
        # the polynomials vanish at the midpoint node, so their entropies
        # leave that node out
        grid = fn.unit_interval_grid(2048)
        mu = grid.node_mass()
        squares = next(fn._trial_blocks(grid, 7, 0)) ** 2
        assert (squares == 0).sum(axis=1).tolist() == [0, 1, 1, 1, 1, 1, 1]
        assert core.entropy_weighted(mu, squares) == [core.entropy_weighted(mu, v) for v in squares]
        assert (fn.log_sobolev_check(grid, 0.3, trials=6, seed=0)
                == _per_row_log_sobolev(grid, 0.3, 6, 0))


PQ_AT_16384 = """
from mmslab import functional as fn
grid = fn.unit_interval_grid(16384)
print(*(fn.poincare_pq_lower(grid, p, q, seed=0).hex() for p, q in ((4, 1), (2, 2))))
"""


class TestBlasThreads:
    def test_long_rows_keep_their_bits_at_two_threads(self):
        """OpenBLAS splits a dot of more than about 10 000 values across
        threads; ``core._row_dots`` takes such rows through einsum's loop,
        so the moments and energies of 16 385-node trials keep their bits."""
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", PQ_AT_16384], capture_output=True,
                                  text=True, timeout=120,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]


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
