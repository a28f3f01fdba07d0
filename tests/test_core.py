"""Core space machinery: validation, scaling, products, isomorphism,
measure distances, Ky Fan, entropy and the Lipschitz extension."""

import itertools
import math
import warnings

import numpy as np
import pytest

from mmslab import core, generators
from mmslab.atoms import AtomVector
from conftest import corpus, random_embedded_space, random_shortest_path_space


def two_point(d=1.0, p=0.5):
    return core.space(["a", "b"], [[0.0, d], [d, 0.0]], [p, 1 - p])


class TestValidate:
    def test_one_point_ok(self):
        assert core.validate(core.space(["p"], [[0.0]], [1.0])) is None

    def test_two_point_ok(self):
        assert core.validate(two_point()) is None

    def test_triangle_violation_located(self):
        sp = core.FinitePmSpace(
            ["a", "b", "c"],
            [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
            [1 / 3, 1 / 3, 1 / 3],
        )
        v = core.validate(sp)
        assert v is not None and v.code == "triangle"
        i, j, k = v.indices
        d = sp.dist
        assert d[i, k] > d[i, j] + d[j, k] + core.VALIDATION_TOL

    def test_zero_mass_rejected(self):
        sp = core.FinitePmSpace(["a", "b"], [[0, 1], [1, 0]], [1.0, 0.0])
        assert core.validate(sp).code == "mass_positive"

    def test_mass_sum_rejected(self):
        sp = core.FinitePmSpace(["a", "b"], [[0, 1], [1, 0]], [0.6, 0.6])
        assert core.validate(sp).code == "mass_sum"

    def test_duplicate_points_rejected(self):
        sp = core.FinitePmSpace(["a", "b"], [[0, 0], [0, 0]], [0.5, 0.5])
        assert core.validate(sp).code == "positivity"

    def test_no_silent_repair(self):
        with pytest.raises(core.InvalidSpaceError):
            core.space(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]], [1 / 3] * 3)


def first_triangle_violation(D):
    """Reference report: the smallest j with any gap above the tolerance,
    then the argmax of that gap over (i, k)."""
    for j in range(len(D)):
        gap = D - (D[:, j][:, None] + D[j][None, :])
        if gap.max() > core.VALIDATION_TOL:
            i, k = (int(t) for t in np.unravel_index(int(np.argmax(gap)), gap.shape))
            msg = f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] by {gap[i, k]:.3e}"
            return core.Violation("triangle", (i, j, k), msg)
    return None


def planted(n, seed, shortcuts, rise=0.0):
    """Distances in [1, 1.2], which satisfy the triangle inequality, with each
    (i, j, k) in ``shortcuts`` given d(i,j) = d(j,k) = 0.55 and d(i,k) =
    1.1 + rise, a violation of gap ``rise`` through j.  A sum with one short
    edge is at least 1.55 > 1.4, so every violation runs through a planted j."""
    rng = np.random.default_rng(seed)
    raw = 1.0 + 0.2 * rng.random((n, n))
    D = np.triu(raw, 1) + np.triu(raw, 1).T
    for i, j, k in shortcuts:
        D[i, j] = D[j, i] = D[j, k] = D[k, j] = 0.55
        D[i, k] = D[k, i] = 1.1 + rise
    return core.FinitePmSpace(tuple(range(n)), D, np.full(n, 1.0 / n))


@pytest.mark.parametrize("n", [49, 64, 109, 110, 200, 601])
def test_blocked_triangle_sweep_reports_the_first_j(n):
    assert core.validate(planted(n, n, [])) is None
    # a gap of half the tolerance passes, twice the tolerance fails
    assert core.validate(planted(n, n, [(4, n // 2, n - 5)], 5e-13)) is None
    cases = [
        [(4, n // 2, n - 5)],
        # the violation at j = 3 lives in the last rows, the one at j = n - 1
        # in the first rows, which a sweep over row blocks meets first
        [(1, n - 1, 2), (n - 3, 3, n - 2)],
        [(n - 1, 0, 7), (9, 0, 30), (20, 40, 41)],
    ]
    for shortcuts in cases:
        for rise in (2e-12, 0.3):
            D = planted(n, n, shortcuts, rise)
            want = first_triangle_violation(D.dist)
            assert want is not None and want.indices[1] == min(j for _, j, _ in shortcuts)
            assert core.validate(D) == want


def sweep_only_validate(sp):
    """``validate`` with the Euclidean certificate switched off, so that every
    space goes through the triangle sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_euclidean_certified", lambda coords, D: False)
        return core.validate(sp)


def euclidean(pts):
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def with_excess(sp, delta):
    """A copy of ``sp`` whose most nearly collinear triple (i, j, k) gets
    dist[i][k] = dist[i][j] + dist[j][k] + delta, coords kept."""
    D = np.array(sp.dist)
    slack = D[:, :, None] + D[None, :, :] - D[:, None, :]  # [i, j, k]
    n = len(D)
    idx = np.arange(n)
    slack[idx, idx, :] = slack[:, idx, idx] = slack[idx, :, idx] = np.inf
    i, j, k = np.unravel_index(int(np.argmin(slack)), slack.shape)
    D[i, k] = D[k, i] = D[i, j] + D[j, k] + delta
    return core.FinitePmSpace(sp.points, D, sp.mass, coords=sp.coords)


def certificate_corpus():
    """Spaces with coords: explicit numpy-Euclidean distances, distances
    left to ``dist`` (dist=None), the conftest corpus and generator outputs,
    at scales 1e-3 to 1e5 in dimensions 1 to 5; then a copy of most of them
    with one triangle excess injected at each of five sizes; then
    shortest-path metrics whose coords are only 1-Lipschitz projections."""
    rng = np.random.default_rng(16)
    base = []
    for scale, dim, n in itertools.product((1e-3, 0.1, 1.0, 10.0, 1e3, 1e5), range(1, 6),
                                           (3, 8, 21, 50)):
        pts = rng.uniform(0.0, scale, size=(n, dim))
        if n == 8:
            pts = np.outer(rng.uniform(0.0, scale, n), rng.uniform(0.5, 1.0, dim))  # on a line
        mass = np.full(n, 1.0 / n)
        base.append(core.FinitePmSpace(tuple(range(n)), euclidean(pts), mass, coords=pts))
        base.append(core.FinitePmSpace(tuple(range(n)), None, mass, coords=pts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_VALIDATE_LIMIT", 0)  # build without validating
        for scale, dim in itertools.product((1e-3, 0.1, 1.0, 10.0, 1e3, 1e5), range(1, 6)):
            base.append(generators.gaussian_sample(12, dim, scale, seed=[dim, 1]))
            base.append(generators.sphere_sample(dim, scale, 9, seed=[dim, 2]))
        for scale, m in itertools.product((1e-3, 0.1, 1.0, 10.0, 1e3, 1e5), (3, 10, 49)):
            base.append(generators.interval_grid(m, scale))
        for entries in ((0.5,), (0.4, 0.3), (0.25, 0.25, 0.25, 0.25)):
            base.append(generators.atom_space(AtomVector(entries), m_diffuse=6))
    base += corpus(7, 120)
    injected = [with_excess(sp, delta) for sp in base if sp.n >= 3
                for delta in (0.0, 1e-13, 9e-13, 1.1e-12, 2e-12)]
    projected = []
    for k in range(120):
        sp = random_shortest_path_space(rng, 3 + k % 20, scale=10.0 ** (k % 7 - 3))
        cols = sp.dist[:, : 1 + k % 3] * (0.5 if k % 2 else 1.0)
        projected.append(core.FinitePmSpace(sp.points, sp.dist, sp.mass, coords=cols))
    return base + injected + projected


class TestEuclideanCertificate:
    def test_same_verdict_as_the_sweep(self):
        spaces = certificate_corpus()
        assert len(spaces) >= 1000
        certified = rejected = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in spaces:
                want = sweep_only_validate(sp)
                assert core.validate(sp) == want
                if core._euclidean_certified(sp.coords, sp.dist):
                    certified += 1
                    assert core._triangle_violation(sp.dist) is None
                rejected += want is not None
        # both sides of the certificate, and rejections, are exercised
        assert certified >= 300 and rejected >= 300 and len(spaces) - certified >= 300

    def test_only_true_euclidean_coords_are_certified(self, rng):
        sp = random_embedded_space(rng, 30)
        assert core._euclidean_certified(sp.coords, sp.dist)
        assert not core._euclidean_certified(None, sp.dist)
        assert not core._euclidean_certified(sp.coords * 1.001, sp.dist)
        assert not core._euclidean_certified(sp.coords[:, :2], sp.dist)

    @pytest.mark.parametrize("n", [3, 60])
    def test_the_excess_bound_keeps_its_factor_three(self, n):
        # on collinear points lowering dist[i][j] and dist[j][k] and raising
        # dist[i][k] by delta moves each entry delta from the Euclidean
        # metric but the excess through j by 3 delta
        x = np.arange(n) / 64.0
        i, j, k = (0, 1, 2) if n == 3 else (3, 20, 41)
        for three_delta, rejected in ((0.99e-12, False), (1.02e-12, True)):
            D = np.abs(x[:, None] - x[None, :])
            delta = three_delta / 3
            D[i, k] = D[k, i] = D[i, k] + delta
            D[i, j] = D[j, i] = D[i, j] - delta
            D[j, k] = D[k, j] = D[j, k] - delta
            sp = core.FinitePmSpace(tuple(range(n)), D, np.full(n, 1.0 / n),
                                    coords=x[:, None])
            assert core._euclidean_certified(sp.coords, D) is not rejected
            v = core.validate(sp)
            assert v == first_triangle_violation(D)
            assert (v is not None and v.code == "triangle"
                    and v.indices == (min(i, k), j, max(i, k))) is rejected

    def test_the_rounding_of_the_euclidean_metric_counts(self):
        # three nearly collinear points in R^5 whose Euclidean distances, as
        # computed, break the triangle inequality by 1.36e-12 through rounding
        pts = np.array([
            [387.7141745612483, -1043.150897030914, 363.6461769773352, 2995.593093556978,
             -537.6411048177647],
            [379.3367189096429, -1416.1359598454512, 243.2861840106521, 3008.7335504147445,
             -441.530159491722],
            [321.17039926396956, -4005.8444929577186, -592.3968818984504, 3099.9703227314744,
             225.78700693352403]])
        squares = np.zeros((3, 3))
        for col in pts.T:
            squares += np.subtract.outer(col, col) ** 2
        sp = core.FinitePmSpace((0, 1, 2), np.sqrt(squares), np.full(3, 1 / 3), coords=pts)
        assert not core._euclidean_certified(sp.coords, sp.dist)
        v = core.validate(sp)
        assert v == first_triangle_violation(sp.dist) and v.indices == (0, 1, 2)

    def test_huge_and_infinite_coords_take_the_sweep_without_warnings(self):
        x = np.array([0.0, 1e200, 3e200])
        D = np.abs(x[:, None] - x[None, :])
        mass = np.full(3, 1 / 3)
        cases = [core.FinitePmSpace((0, 1, 2), D, mass, coords=x[:, None])]
        for bad in (np.inf, -np.inf, np.nan):
            coords = np.array([[0.0], [bad], [2.0]])
            cases.append(core.FinitePmSpace((0, 1, 2), [[0, 1, 2], [1, 0, 1], [2, 1, 0]], mass,
                                            coords=coords))
            cases.append(core.FinitePmSpace((0, 1, 2), [[0, 1, 3], [1, 0, 1], [3, 1, 0]], mass,
                                            coords=coords))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in cases:
                assert not core._euclidean_certified(sp.coords, sp.dist)
                assert core.validate(sp) == sweep_only_validate(sp)
        assert core.validate(cases[0]) is None
        assert core.validate(cases[1]).code == "coords"
        assert core.validate(cases[2]).code == "triangle"


class TestScale:
    def test_identity(self):
        sp = two_point()
        assert np.array_equal(core.scale(sp, 1.0).dist, sp.dist)

    def test_doubling(self):
        assert core.scale(two_point(1.0), 3.0).dist[0, 1] == 3.0

    def test_diam_scales(self, rng):
        sp = random_embedded_space(rng, 5)
        for t in (0.5, 2.0, 7.25):
            assert core.scale(sp, t).diam() == pytest.approx(t * sp.diam(), rel=1e-12)

    def test_composition_exact(self, rng):
        sp = random_embedded_space(rng, 4)
        a = core.scale(core.scale(sp, 0.5), 2.0)
        assert np.array_equal(a.dist, core.scale(sp, 1.0).dist)

    def test_nonpositive_rejected(self):
        with pytest.raises(core.InputError):
            core.scale(two_point(), 0.0)


class TestProduct:
    def test_identity_element(self, rng):
        one = core.space(["o"], [[0.0]], [1.0])
        for _ in range(3):
            sp = random_embedded_space(rng, 4)
            for p in (1, 2, math.inf):
                assert core.mm_isomorphic(core.product(sp, one, p), sp)

    def test_square(self):
        sq = core.product(two_point(), two_point(), 2)
        assert core.validate(sq) is None
        vals = np.unique(np.round(sq.dist, 12))
        assert list(vals) == [0.0, 1.0, pytest.approx(math.sqrt(2))]
        assert np.allclose(sq.mass, 0.25)

    def test_linf_diam(self):
        prod = core.product(two_point(0.7), two_point(0.7), math.inf)
        assert prod.diam() == pytest.approx(0.7)

    def test_diam_lp_formula(self, rng):
        for _ in range(4):
            a = random_embedded_space(rng, 3)
            b = random_embedded_space(rng, 4)
            for p in (1, 2, 3, math.inf):
                got = core.product(a, b, p).diam()
                if p == math.inf:
                    want = max(a.diam(), b.diam())
                else:
                    want = (a.diam() ** p + b.diam() ** p) ** (1 / p)
                assert got == pytest.approx(want, rel=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(core.InputError):
            core.product(two_point(), two_point(), 0.5)


class TestIsomorphism:
    def test_relabel(self, rng):
        sp = random_embedded_space(rng, 5)
        perm = rng.permutation(5)
        other = core.space(
            [f"r{i}" for i in range(5)],
            sp.dist[np.ix_(perm, perm)],
            sp.mass[perm],
        )
        assert core.mm_isomorphic(sp, other)

    def test_two_point_mass_swap(self):
        assert core.mm_isomorphic(two_point(1.0, 0.3), two_point(1.0, 0.7))

    def test_distances_differ(self):
        assert not core.mm_isomorphic(two_point(1.0), two_point(2.0))

    def test_size_limit(self, rng):
        sp = random_embedded_space(rng, 11)
        with pytest.raises(core.SizeLimitError):
            core.mm_isomorphic(sp, sp)


class TestMeasureDistances:
    def test_tv_values(self):
        assert core.total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert core.total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert core.total_variation([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.2)

    def test_tv_length_mismatch(self):
        with pytest.raises(core.InputError):
            core.total_variation([1.0], [0.5, 0.5])

    def test_prokhorov_identical(self, rng):
        sp = random_embedded_space(rng, 4)
        assert core.prokhorov(sp, sp.mass, sp.mass) == 0.0

    @pytest.mark.parametrize("d", [0.25, 0.8, 1.0, 3.0])
    def test_prokhorov_point_masses(self, d):
        # near-Dirac masses at two points distance d apart: the distance is
        # min(d, 1) up to the tiny residual mass
        sp = core.space(["a", "b"], [[0, d], [d, 0]], [0.5, 0.5])
        got = core.prokhorov(sp, [1 - 1e-13, 1e-13], [1e-13, 1 - 1e-13])
        assert got == pytest.approx(min(d, 1.0), abs=1e-9)

    def test_prokhorov_le_tv(self, rng):
        for sp in corpus(7, 8, sizes=(3, 4, 5)):
            a = np.random.default_rng(1).dirichlet(np.ones(sp.n))
            b = np.random.default_rng(2).dirichlet(np.ones(sp.n))
            assert core.prokhorov(sp, a, b) <= core.total_variation(a, b) + 1e-12

    def test_prokhorov_grid_oracle(self, rng):
        # independent check: scan an epsilon grid with the direct subset
        # condition; the exact value must be the grid crossing point
        sp = random_embedded_space(rng, 3)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        got = core.prokhorov(sp, a, b)

        def condition(eps):
            n = sp.n
            for mask in range(1, 1 << n):
                pts = [i for i in range(n) if mask >> i & 1]
                ball = [
                    j for j in range(n) if min(sp.dist[j, i] for i in pts) <= eps + 1e-12
                ]
                if b[pts].sum() > a[ball].sum() + eps + 1e-12:
                    return False
                if a[pts].sum() > b[ball].sum() + eps + 1e-12:
                    return False
            return True

        assert condition(got + 1e-9)
        assert got < 1e-9 or not condition(got - 1e-6)

    def test_prokhorov_larger_support(self, rng):
        # the subset machinery stays exact and cheap at a dozen points
        sp = random_embedded_space(rng, 12)
        a = rng.dirichlet(np.ones(12))
        b = rng.dirichlet(np.ones(12))
        p = core.prokhorov(sp, a, b)
        q = core.prokhorov(sp, b, a)
        assert p == pytest.approx(q, abs=1e-12)
        assert p <= core.total_variation(a, b) + 1e-12

    def test_pseudometric_axioms(self):
        rng = np.random.default_rng(3)
        for sp in corpus(11, 6, sizes=(3, 4)):
            a = rng.dirichlet(np.ones(sp.n))
            b = rng.dirichlet(np.ones(sp.n))
            c = rng.dirichlet(np.ones(sp.n))
            dp = lambda u, v: core.prokhorov(sp, u, v)
            assert dp(a, b) == pytest.approx(dp(b, a), abs=1e-9)
            assert dp(a, c) <= dp(a, b) + dp(b, c) + 1e-9
            assert core.total_variation(a, c) <= (
                core.total_variation(a, b) + core.total_variation(b, c) + 1e-9
            )


class TestSubsetFold:
    @pytest.mark.parametrize("ufunc,dtype", [(np.add, float), (np.maximum, float),
                                             (np.bitwise_or, np.int64)])
    def test_matches_loop_over_masks(self, rng, ufunc, dtype):
        for n in (0, 1, 2, 5, 9):
            if dtype is float:
                values = rng.uniform(0.0, 1.0, size=n)
            else:
                values = [int(v) for v in rng.integers(0, 1 << 20, size=n)]
            got = core._subset_fold(ufunc, values, dtype)
            assert got.shape == (1 << n,) and got.dtype == dtype
            for mask in range(1 << n):
                want = dtype(0)
                for i in range(n):
                    if mask >> i & 1:
                        want = ufunc(want, values[i])
                assert got[mask] == want


class TestKyFan:
    def test_equal_functions(self, rng):
        sp = random_embedded_space(rng, 4)
        f = core.as_lipschitz(sp, sp.dist[0])
        assert core.ky_fan(sp, f, f) == 0.0

    @pytest.mark.parametrize("c", [0.2, 0.95, 1.5])
    def test_constant_gap(self, c):
        sp = core.space(["a", "b"], [[0, 2], [2, 0]], [0.5, 0.5])
        f = core.LipschitzFunction([c, c], 0.0)
        g = core.LipschitzFunction([0.0, 0.0], 0.0)
        assert core.ky_fan(sp, f, g) == pytest.approx(min(c, 1.0))

    def test_sorted_scan_example(self):
        sp = core.space(["a", "b"], [[0, 1], [1, 0]], [0.3, 0.7])
        f = core.LipschitzFunction([0.5, 0.0], 1.0)
        g = core.LipschitzFunction([0.0, 0.0], 0.0)
        assert core.ky_fan(sp, f, g) == pytest.approx(0.3)

    def test_oracle_brute_force(self, rng):
        # smallest eps among all candidate values (gaps and exceedance masses)
        # satisfying the defining condition directly
        for _ in range(10):
            sp = random_embedded_space(rng, 5)
            f = core.as_lipschitz(sp, sp.dist[0])
            g = core.as_lipschitz(sp, sp.dist[1])
            got = core.ky_fan(sp, f, g)
            d = np.abs(f.values - g.values)
            cands = set(d) | {0.0} | {float(sp.mass[d > t].sum()) for t in d}
            feas = [
                eps for eps in sorted(cands)
                if sp.mass[d > eps + 1e-12].sum() <= eps + 1e-12
            ]
            assert got == pytest.approx(min(feas), abs=1e-9)

    def test_pseudometric(self, rng):
        sp = random_embedded_space(rng, 4)
        f = core.as_lipschitz(sp, sp.dist[0])
        g = core.as_lipschitz(sp, sp.dist[1])
        h = core.as_lipschitz(sp, sp.dist[2])
        assert core.ky_fan(sp, f, g) == pytest.approx(core.ky_fan(sp, g, f), abs=1e-12)
        assert core.ky_fan(sp, f, h) <= core.ky_fan(sp, f, g) + core.ky_fan(sp, g, h) + 1e-9


def per_row_moment(weights, f, p):
    """The central moment of one row with two np.dot calls, as it was
    computed one row at a time."""
    mean = float(np.dot(weights, f))
    if p == math.inf:
        return float(np.abs(f - mean).max())
    return float(np.dot(weights, np.abs(f - mean) ** p))


class TestCentralMoment:
    def test_batched_rows_match_per_row_dots(self):
        # perturbed distance rows of 64-point Gaussian samples, on which a
        # matrix product G @ w rounds differently from per-row np.dot, plus
        # random rows of other lengths and scales
        rng = np.random.default_rng(2040)
        blocks = []
        for seed in range(8):
            sp = generators.gaussian_sample(64, 3, 1.0, seed=seed)
            rows = sp.dist[rng.integers(0, 64, 100)] * rng.uniform(0.9, 1.1, (100, 64))
            blocks.append((sp.mass, rows))
        for n in (3, 7, 20, 129, 600):
            scale = 10.0 ** rng.uniform(-3, 3, (60, 1))
            blocks.append((rng.dirichlet(np.ones(n)), rng.standard_normal((60, n)) * scale))
        assert sum(len(rows) for _, rows in blocks) >= 1000
        for weights, rows in blocks:
            for p in (1, 1.5, 2, 3, math.inf):
                got = core._central_moment(weights, rows, p)
                assert got.tolist() == [per_row_moment(weights, f, p) for f in rows]
                assert core._central_moment(weights, rows[0], p) == got[0]
            assert core._row_dots(rows, weights).tolist() == [np.dot(weights, f) for f in rows]


class TestEntropy:
    def test_constant_is_zero(self, rng):
        sp = random_embedded_space(rng, 4)
        assert core.entropy(sp, np.ones(4)) == pytest.approx(0.0, abs=1e-15)

    def test_one_homogeneous(self, rng):
        sp = random_embedded_space(rng, 5)
        f = rng.uniform(0.1, 3.0, size=5)
        assert core.entropy(sp, 2.5 * f) == pytest.approx(2.5 * core.entropy(sp, f), rel=1e-12)

    def test_two_point_value(self):
        sp = two_point()
        assert core.entropy(sp, [2.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_nonnegative(self, rng):
        for sp in corpus(5, 6):
            f = np.random.default_rng(0).uniform(0, 2, size=sp.n)
            assert core.entropy(sp, f) >= -1e-12

    def test_negative_rejected(self, rng):
        sp = two_point()
        with pytest.raises(core.InputError):
            core.entropy(sp, [-0.1, 1.0])


class TestMcShane:
    def test_full_subset_identity(self, rng):
        sp = random_embedded_space(rng, 5)
        f = sp.dist[0]
        ext = core.mcshane_extend(sp, range(5), f, 1.0)
        assert np.allclose(ext.values, f)

    def test_single_anchor(self, rng):
        sp = random_embedded_space(rng, 5)
        ext = core.mcshane_extend(sp, [2], [0.0], 2.0)
        assert np.allclose(ext.values, 2.0 * sp.dist[2])

    def test_lipschitz_bound_holds(self, rng):
        for _ in range(5):
            sp = random_embedded_space(rng, 6)
            sub = [0, 2, 4]
            f = 0.7 * sp.dist[1][sub]
            ext = core.mcshane_extend(sp, sub, f, 0.7)
            assert core.lipschitz_constant(sp, ext.values) <= 0.7 + 1e-12
            assert np.allclose(ext.values[sub], f)

    def test_non_lipschitz_input_rejected(self):
        sp = two_point()
        with pytest.raises(core.InputError):
            core.mcshane_extend(sp, [0, 1], [0.0, 5.0], 1.0)


class TestJsonRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        sp = random_embedded_space(rng, 4)
        path = tmp_path / "s.json"
        core.save_space(sp, path)
        back = core.load_space(path)
        assert core.mm_isomorphic(sp, back)

    def test_rational_masses(self, tmp_path):
        sp = core.space(
            ["a", "b", "c"],
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [0.5, 0.25, 0.25],
            mass_rational=["1/2", "1/4", "1/4"],
        )
        path = tmp_path / "r.json"
        core.save_space(sp, path)
        assert core.load_space(path).mass_rational == sp.mass_rational

    def test_bad_file_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(core.InputError):
            core.load_space(path)
