"""Core space machinery: validation, scaling, products, isomorphism,
measure distances, Ky Fan, entropy and the Lipschitz extension."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mmslab import atoms, core, generators, order
from mmslab.atoms import AtomVector, sort_atoms
from conftest import (corpus, random_embedded_space, random_shortest_path_space,
                      reference_euclidean_rows, reference_validate, subset_fold)
from test_observables import integer_space


def two_point(d=1.0, p=0.5):
    return core.space(["a", "b"], [[0.0, d], [d, 0.0]], [p, 1 - p])


def subset_prokhorov(sp, a, b):
    """Reference Prokhorov distance by the 2^n subset route: the largest
    excess b(A) - a(closed t-ball of A) over all subsets A, from the subset
    sums of a and b and the bitmask of every subset's ball."""
    amass = subset_fold(np.add, a)
    bmass = subset_fold(np.add, b)

    def gap(t):
        balls = (sp.dist <= t).astype(np.int64) @ (1 << np.arange(sp.n))
        union = subset_fold(np.bitwise_or, balls, np.int64)
        return float(np.max(bmass - amass[union]))

    return max(0.0, min(1.0, core._smallest_fixed_point(sp.dist.ravel(), gap)))


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


def whole_matrix_triangle(D):
    """Reference report: the smallest j with any gap above the tolerance
    ``core._distance_tol(max D)``, then the argmax of that gap over (i, k),
    from one n x n gap per j."""
    tol = core._distance_tol(float(D.max()))
    for j in range(len(D)):
        gap = D - (D[:, j][:, None] + D[j][None, :])
        if gap.max() > tol:
            i, k = (int(t) for t in np.unravel_index(int(np.argmax(gap)), gap.shape))
            return i, j, k, float(gap[i, k])
    return None


def first_triangle_violation(D):
    """The Violation ``validate`` makes of ``whole_matrix_triangle(D)``."""
    tri = whole_matrix_triangle(D)
    if tri is None:
        return None
    i, j, k, gap = tri
    msg = f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] by {gap:.3e}"
    return core.Violation("triangle", (i, j, k), msg)


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


def shortcut_cases(n):
    """Lists of shortcuts for ``planted`` that fit n points.  In the first
    list of two, the violation through the smaller j lives in later rows;
    the last lists tie equal rises through one j."""
    if n < 12:
        small = [[(0, 1, 2)], [(2, 0, 1)]]
        return small + ([[(0, 4, 1), (3, 2, 4)], [(4, 3, 1), (0, 3, 2)]] if n >= 5 else [])
    cases = [[(4, n // 2, n - 5)],
             [(1, n - 1, 2), (n - 3, 3, n - 2)],
             [(n - 3, 5, 2), (n - 2, 5, 0), (6, 9, 8)]]
    if n > 41:
        cases += [[(n - 1, 0, 7), (9, 0, 30), (20, 40, 41)],
                  [(10, 30, 11), (n - 1, 20, n - 2), (12, 20, 13)]]
    return cases


# up to 40 points one block holds every excess; 41 and 48 points take
# blocks of several j, 49 and more blocks of rows
@pytest.mark.parametrize("n", [3, 5, 12, 40, 41, 48, 49, 64, 109, 110, 200, 601])
def test_blocked_triangle_sweep_reports_the_first_j(n):
    cases = shortcut_cases(n)
    assert core.validate(planted(n, n, [])) is None
    # a gap of half the tolerance passes, twice the tolerance fails
    assert core.validate(planted(n, n, cases[0], 5e-13)) is None
    for shortcuts in cases:
        for rise in (2e-12, 0.3):
            D = planted(n, n, shortcuts, rise)
            want = first_triangle_violation(D.dist)
            assert want is not None and want.indices[1] == min(j for _, j, _ in shortcuts)
            assert core.validate(D) == want


@pytest.mark.parametrize("n", [3, 5, 12, 40, 41, 48, 49, 110, 601])
def test_blocked_triangle_report_matches_the_whole_matrix(n):
    # the report reads the excess through one j at a time in row blocks (601
    # points take six); ties of equal rise through one j resolve to the
    # first (i, k)
    for shortcuts in shortcut_cases(n):
        for rise in (2e-12, 0.3):
            D = planted(n, n, shortcuts, rise).dist
            got = core._triangle_violation(D)
            assert got == whole_matrix_triangle(D)
            assert [type(t) for t in got] == [int, int, int, float]
            assert got[1] == min(j for _, j, _ in shortcuts)


def test_triangle_report_holds_no_square_temporary():
    # 1500 points take 35 blocks of 43 rows; the first violation found is
    # through j = 10 in the first block, the one reported through j = 3 in
    # the last block; one n x n gap of the whole matrix takes 17 MiB
    D = planted(1500, 3, [(1490, 3, 1450), (0, 10, 5)], 0.3).dist
    tracemalloc.start()
    try:
        got = core._triangle_violation(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == whole_matrix_triangle(D)
    assert got[:3] == (1450, 3, 1490) and peak <= 4 << 20


def sweep_only_validate(sp):
    """``validate`` with the Euclidean and spread certificates switched off,
    so that every space goes through the triangle sweep.  It runs on a copy,
    so the matrix the sweep builds for a space given by its coords is not
    kept on ``sp``."""
    copy = core.FinitePmSpace(sp.points, sp._dist, sp.mass, sp.mass_rational, sp.coords)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_certified", lambda d, M, err: False)
        mp.setattr(core, "_spread", lambda top, least, floor: False)
        return core.validate(copy)


def certificate(coords, D):
    """``core._certified`` on the quantities ``validate`` gathers for these
    coords beside ``D``: max(max D, max Ê) and max |Ê - D|, with Ê the
    Euclidean metric of the coords as ``core._euclidean_rows`` evaluates it.
    False without coords or with one that is not finite, which ``validate``
    does not try to certify."""
    if coords is None or not np.all(np.isfinite(coords)):
        return False
    n, d = coords.shape
    with np.errstate(over="ignore", invalid="ignore"):
        est = core._euclidean_rows(coords, coords, np.empty((n, n)), np.empty((n, n)))
        return core._certified(d, max(D.max(), est.max()), np.abs(est - D).max())


def certificate_verdicts(sp):
    """``core.validate(sp)`` and the verdicts of every certificate it tried."""
    seen, certified = [], core._certified
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_certified", lambda *a: seen.append(certified(*a)) or seen[-1])
        return core.validate(sp), seen


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


def test_a_planted_excess_is_rejected_at_every_scale():
    # an excess of 1e-9 max(1, diam) on the most nearly collinear triple is
    # the whole-matrix report at every scale, with coords or without
    base = generators.gaussian_sample(60, 2, 1.0, seed=4)
    for t in (1e-3, 1.0, 1e3, 1e5):
        sp = core.scale(base, t)
        bad = with_excess(sp, 1e-9 * max(1.0, sp.diam()))
        want = first_triangle_violation(bad.dist)
        assert want is not None
        assert core.validate(bad) == want
        assert core.validate(core.FinitePmSpace(bad.points, bad.dist, bad.mass)) == want


def certificate_corpus():
    """Spaces with coords: explicit numpy-Euclidean distances, distances
    left to ``dist`` (dist=None), the conftest corpus and generator outputs,
    at scales 1e-3 to 1e5 in dimensions 1 to 5; then a copy of most of them
    with one triangle excess injected at each of five sizes relative to
    max(1, diam), on both sides of the tolerance; then fresh copies of the
    spaces left to their coords, whose matrix the injection built and kept;
    then shortest-path metrics whose coords are only 1-Lipschitz
    projections."""
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
    for scale, dim in itertools.product((1e-3, 0.1, 1.0, 10.0, 1e3, 1e5), range(1, 6)):
        base.append(generators.gaussian_sample(12, dim, scale, seed=[dim, 1]))
        base.append(generators.sphere_sample(dim, scale, 9, seed=[dim, 2]))
    for scale, m in itertools.product((1e-3, 0.1, 1.0, 10.0, 1e3, 1e5), (3, 10, 49)):
        base.append(generators.interval_grid(m, scale))
    for entries in ((0.5,), (0.4, 0.3), (0.25, 0.25, 0.25, 0.25)):
        base.append(generators.atom_space(AtomVector(entries), m_diffuse=6))
    base += corpus(7, 120)
    unbuilt = [core.FinitePmSpace(sp.points, None, sp.mass, sp.mass_rational, sp.coords)
               for sp in base if sp._dist is None]
    injected = [with_excess(sp, delta * max(1.0, sp.diam())) for sp in base if sp.n >= 3
                for delta in (0.0, 1e-13, 9e-13, 1.1e-12, 2e-12)]
    projected = []
    for k in range(120):
        sp = random_shortest_path_space(rng, 3 + k % 20, scale=10.0 ** (k % 7 - 3))
        cols = sp.dist[:, : 1 + k % 3] * (0.5 if k % 2 else 1.0)
        projected.append(core.FinitePmSpace(sp.points, sp.dist, sp.mass, coords=cols))
    return base + injected + unbuilt + projected


class TestEuclideanCertificate:
    def test_same_verdict_as_the_sweep(self):
        spaces = certificate_corpus()
        assert len(spaces) >= 1000
        assert sum(sp._dist is None for sp in spaces) >= 150
        certified = rejected = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in spaces:
                want = sweep_only_validate(sp)
                assert core.validate(sp) == want
                if certificate(sp.coords, sp.dist):
                    certified += 1
                    assert core._triangle_violation(sp.dist) is None
                rejected += want is not None
        # both sides of the certificate, and rejections, are exercised
        assert certified >= 300 and rejected >= 300 and len(spaces) - certified >= 300

    def test_only_true_euclidean_coords_are_certified(self, rng):
        sp = random_embedded_space(rng, 30)
        assert certificate(sp.coords, sp.dist)
        assert not certificate(None, sp.dist)
        assert not certificate(sp.coords * 1.001, sp.dist)
        assert not certificate(sp.coords[:, :2], sp.dist)

    @pytest.mark.parametrize("n", [3, 13, 60])
    def test_the_excess_bound_keeps_its_factor_three(self, n):
        # on collinear points lowering dist[i][j] and dist[j][k] and raising
        # dist[i][k] by delta moves each entry delta from the Euclidean
        # metric but the excess through j by 3 delta; validate tries the
        # certificate at every size.  3 delta is 0.99 and 1.02 times the
        # tolerance 1e-12 max D, with max D = 2/64, 12/64 and 59/64
        x = np.arange(n) / 64.0
        i, j, k = (3, 20, 41) if n == 60 else (0, 1, 2)
        for three_delta, rejected in ((0.99e-12, False), (1.02e-12, True)):
            D = np.abs(x[:, None] - x[None, :])
            delta = three_delta * x[-1] / 3
            D[i, k] = D[k, i] = D[i, k] + delta
            D[i, j] = D[j, i] = D[i, j] - delta
            D[j, k] = D[k, j] = D[j, k] - delta
            sp = core.FinitePmSpace(tuple(range(n)), D, np.full(n, 1.0 / n),
                                    coords=x[:, None])
            assert certificate(sp.coords, D) is not rejected
            v, seen = certificate_verdicts(sp)
            assert seen == [not rejected]
            assert v == first_triangle_violation(D)
            assert (v is not None and v.code == "triangle"
                    and v.indices == (min(i, k), j, max(i, k))) is rejected

    def test_the_rounding_of_the_euclidean_metric_counts(self):
        # three nearly collinear points in R^5 whose Euclidean distances, as
        # computed, break the triangle inequality by 1.36e-12 through rounding
        # alone: the tolerance, 1e-12 times the diameter 3.2e3, counts that
        # rounding and the certificate proves it silent.  Raising dist[0][2]
        # by 1e-9 times the diameter is a real excess, which the sweep
        # reports; with ten more points further along the first axis the
        # first violation stays (0, 1, 2)
        triple = np.array([
            [387.7141745612483, -1043.150897030914, 363.6461769773352, 2995.593093556978,
             -537.6411048177647],
            [379.3367189096429, -1416.1359598454512, 243.2861840106521, 3008.7335504147445,
             -441.530159491722],
            [321.17039926396956, -4005.8444929577186, -592.3968818984504, 3099.9703227314744,
             225.78700693352403]])
        for extra in (0, 10):
            further = triple[2] + np.outer(np.arange(1, extra + 1), [1e3, 0, 0, 0, 0])
            pts = np.vstack([triple, further])
            n = len(pts)
            squares = np.zeros((n, n))
            for col in pts.T:
                squares += np.subtract.outer(col, col) ** 2
            D = np.sqrt(squares)
            assert D[0, 2] - (D[0, 1] + D[1, 2]) > core.VALIDATION_TOL
            sp = core.FinitePmSpace(tuple(range(n)), D, np.full(n, 1 / n), coords=pts)
            assert certificate(sp.coords, sp.dist)
            assert certificate_verdicts(sp) == (None, [True])
            assert sweep_only_validate(sp) is None
            excess = 1e-9 * D.max()
            D = edited(D, (0, 2, D[0, 2] + excess), (2, 0, D[2, 0] + excess))
            sp = core.FinitePmSpace(tuple(range(n)), D, np.full(n, 1 / n), coords=pts)
            assert not certificate(sp.coords, sp.dist)
            v, seen = certificate_verdicts(sp)
            assert seen == [False]
            assert v == first_triangle_violation(sp.dist) and v.indices == (0, 1, 2)

    def test_huge_and_infinite_coords_take_the_sweep_without_warnings(self):
        x = np.array([0.0, 1e200, 3e200])
        D = np.abs(x[:, None] - x[None, :])
        mass = np.full(3, 1 / 3)
        cases = [core.FinitePmSpace((0, 1, 2), D, mass, coords=x[:, None])]
        wide = np.arange(13) * 2.0 ** 665  # exact differences near 1e200
        cases.append(core.FinitePmSpace(tuple(range(13)), np.abs(np.subtract.outer(wide, wide)),
                                        np.full(13, 1 / 13), coords=wide[:, None]))
        for bad in (np.inf, -np.inf, np.nan):
            coords = np.array([[0.0], [bad], [2.0]])
            cases.append(core.FinitePmSpace((0, 1, 2), [[0, 1, 2], [1, 0, 1], [2, 1, 0]], mass,
                                            coords=coords))
            cases.append(core.FinitePmSpace((0, 1, 2), [[0, 1, 3], [1, 0, 1], [3, 1, 0]], mass,
                                            coords=coords))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c, sp in enumerate(cases):
                assert not certificate(sp.coords, sp.dist)
                v, seen = certificate_verdicts(sp)
                assert v == sweep_only_validate(sp)
                assert seen == ([False] if c < 2 else [])
        assert core.validate(cases[0]) is None and core.validate(cases[1]) is None
        assert core.validate(cases[2]).code == "coords"
        assert core.validate(cases[3]).code == "triangle"


def coords_refusals():
    """Spaces built from coords that ``core._coords_certified`` refuses, each
    as (space, valid): duplicate rows, squares that overflow (one within the
    factor-2 margin of the sum alone), column gaps whose squares underflow
    (one separated by another column) and too many columns."""
    def built(rows, mass=None):
        rows = np.asarray(rows, dtype=float)
        n = len(rows)
        return core.FinitePmSpace(tuple(range(n)), None,
                                  np.full(n, 1.0 / n) if mass is None else mass, coords=rows)

    wide = np.random.default_rng(3).uniform(size=(4, 6000))
    return [
        (built([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]]), False),
        (built([[0.0], [1e160], [3e160]]), False),
        (built([[0.0], [1e154], [0.5e154]]), True),
        (built([[0.0], [1e-170], [1.0]]), False),
        (built([[0.0, 0.0], [1e-170, 1.0], [2.0, 0.5]]), True),
        (built(wide), True),
        (built(wide, mass=np.full(4, 0.3)), False),
    ]


class TestCoordsCertificate:
    """A space built from coords is checked without its matrix when
    ``core._coords_certified`` passes, and as a space with ``dist`` when it
    refuses; either way the verdict is that of the matrix checks."""

    def test_same_verdict_as_the_matrix_checks(self):
        # every corpus space with coords, rebuilt from its coords alone
        spaces = [core.FinitePmSpace(sp.points, None, sp.mass, sp.mass_rational, sp.coords)
                  for sp in certificate_corpus() + extreme_coords_cases()
                  if sp.coords is not None]
        rng = np.random.default_rng(12)
        for k in range(40):
            n, d = 2 + k % 9, 1 + k % 4
            mass = np.full(n, 1.0 / n) if k % 5 else np.full(n, 1.1 / n)
            pts = rng.normal(size=(n, d)) * 10.0 ** (k % 9 - 4)
            spaces.append(core.FinitePmSpace(tuple(range(n)), None, mass, coords=pts))
        certified = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in spaces:
                want = sweep_only_validate(sp)
                sure = core._coords_certified(sp.coords)
                assert core.validate(sp) == want
                assert sp._dist is None
                certified += sure
        assert certified >= 200 and len(spaces) - certified >= 2

    def test_refusals_read_the_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp, valid in coords_refusals():
                assert not core._coords_certified(sp.coords)
                want = sweep_only_validate(sp)
                assert core.validate(sp) == want and sp._dist is None
                assert (want is None) is valid
        codes = [sweep_only_validate(sp) for sp, _ in coords_refusals()]
        assert [v and v.code for v in codes] == ["positivity", "finite", None, "positivity",
                                                 None, None, "mass_sum"]

    def test_the_column_bound_comes_from_the_tolerance(self):
        # the certificate at M = 1 and err = 0 bounds every scale; it holds
        # up to a few thousand columns
        assert core._certified(5000, 1.0, 0.0) and not core._certified(7000, 1.0, 0.0)
        for d in (1, 5, 1000, 5000):
            assert all(core._certified(d, M, 0.0) for M in (1e-6, 1.0, 1e3, 1e9, 1e300))


def rebuilt(sp, dist=None, mass=None, coords=None, given=True):
    """A copy of ``sp`` with the given parts replaced; with ``given=False``
    its metric is left to the coords."""
    coords = sp.coords if coords is None else coords
    if given:
        dist = sp.dist if dist is None else dist
    mass = sp.mass if mass is None else mass
    return core.FinitePmSpace(sp.points, dist if given else None, mass, coords=coords)


def edited(D, *entries):
    """A copy of ``D`` with each (i, j, value) set."""
    D = np.array(D)
    for i, j, value in entries:
        D[i, j] = value
    return D


def block_boundary_cases(n):
    """Spaces of n points in the unit cube, built from coords and with
    ``dist`` given, valid and with one violation of each code in the last
    row block, or two in different blocks."""
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    mass = np.full(n, 1.0 / n)
    built = core.FinitePmSpace(tuple(range(n)), None, mass, coords=pts)
    given = core.FinitePmSpace(tuple(range(n)), reference_euclidean_rows(pts, pts), mass,
                               coords=pts)
    D, last = given.dist, n - 1
    cases = [built, given, rebuilt(given, coords=None)]
    for sp in (built, given):
        moved = np.array(pts)
        moved[last] = moved[last - 1]  # positivity at (last - 1, last)
        cases.append(rebuilt(sp, coords=moved, dist=reference_euclidean_rows(moved, moved),
                             given=sp is given))
        moved = np.array(pts)
        moved[last, 0] = np.inf  # finite
        cases.append(rebuilt(sp, coords=moved, dist=reference_euclidean_rows(moved, moved),
                             given=sp is given))
        cases.append(rebuilt(sp, coords=pts * 1e5, dist=D * 1e5, given=sp is given))  # the sweep
        heavy = np.array(mass)
        heavy[last], heavy[0] = 0.0, 2.0 / n
        cases.append(rebuilt(sp, mass=heavy, given=sp is given))  # mass_positive
    broken = np.array(pts)
    broken[last, 2] = np.nan
    far = np.array(pts)
    far[last, 1] += 5.0  # column 1 is not 1-Lipschitz for D
    farther = np.array(far)
    farther[0, 0] -= 5.0  # column 0 is not either
    cases += [
        rebuilt(given, dist=edited(D, (last, 2, np.nan))),
        rebuilt(given, dist=edited(D, (last, 2, np.inf), (last - 1, 7, -np.inf))),
        rebuilt(given, dist=edited(D, (last, 2, np.nan), (1, last, np.nan))),
        rebuilt(given, dist=edited(D, (last, last, 1e-9))),
        rebuilt(given, dist=edited(D, (last, last, -1e-9), (0, 0, 1e-11))),
        rebuilt(given, dist=edited(D, (last, 4, D[last, 4] + 1e-9))),
        rebuilt(given, dist=edited(D, (last, 4, D[last, 4] + 2e-9), (1, 3, D[1, 3] + 1e-9))),
        rebuilt(given, dist=edited(D, (last, 4, D[last, 4] + 1e-9), (1, 3, D[1, 3] + 1e-9))),
        rebuilt(given, dist=edited(D, (last, last - 1, 0.0), (last - 1, last, 0.0))),
        rebuilt(given, dist=edited(D, (last, 1, -0.0), (1, last, -0.0), (2, 3, 0.0),
                                   (3, 2, 0.0))),
        rebuilt(given, dist=edited(D, (last, 1, -1e-3), (1, last, -1e-3), (2, 3, 0.0),
                                   (3, 2, 0.0))),
        rebuilt(given, dist=edited(D, (last, 0, D[last, 0] + 0.5), (0, last, D[last, 0] + 0.5))),
        rebuilt(given, coords=broken),
        rebuilt(given, coords=far),
        rebuilt(given, coords=farther),
        rebuilt(given, coords=far[:, 1:]),
    ]
    return cases


def extreme_coords_cases():
    """The overflowing and underflowing samples of
    ``test_dist_of_extreme_coords_is_silent_and_rejected``, built from
    coords and with ``dist`` given."""
    cases = []
    for scale in (1e200, 1e-170):
        pts = np.random.default_rng(8).normal(size=(50, 3)) * scale
        for dist in (None, reference_euclidean_rows(pts, pts)):
            cases.append(core.FinitePmSpace(tuple(range(50)), dist, np.full(50, 1 / 50),
                                            coords=pts))
    return cases


class TestBlockedValidate:
    """``validate`` reads the metric in row blocks and reports what the
    whole-matrix checks before it reported: code, indices and message."""

    def test_same_reports_as_the_whole_matrix_checks(self):
        spaces = certificate_corpus() + extreme_coords_cases()
        codes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in spaces:
                want = reference_validate(sp)
                assert core.validate(sp) == want
                codes.add(want and want.code)
        assert {None, "triangle", "finite", "positivity"} <= codes

    @pytest.mark.parametrize("n", [49, 109, 110, 601])
    def test_same_reports_at_block_boundaries(self, n):
        codes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sp in block_boundary_cases(n):
                want = reference_validate(sp)
                assert core.validate(sp) == want
                codes.append(want and want.code)
        assert set(codes) == {None, "finite", "diagonal", "symmetry", "positivity", "triangle",
                              "mass_positive", "coords"}

    def test_a_certified_sample_keeps_its_matrix_unbuilt(self):
        small = generators.gaussian_sample(100, 3, 1.0, seed=0)  # validated when made
        assert small._dist is None
        sp = generators.gaussian_sample(2000, 3, 1.0, seed=0)
        tracemalloc.start()
        try:
            v = core.validate(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v is None and sp._dist is None
        assert peak < 4 * 2 ** 20  # the 2000 x 2000 matrix alone is 30.5 MiB

    def test_a_given_matrix_costs_two_row_blocks(self):
        n = 600
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        block = (core._TRIANGLE_BLOCK_ELEMENTS // n) * n * 8
        for coords in (pts, None):
            sp = core.FinitePmSpace(tuple(range(n)), reference_euclidean_rows(pts, pts),
                                    np.full(n, 1 / n), coords=coords)
            tracemalloc.start()
            try:
                v = core.validate(sp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # beside the blocks, numpy's iterator buffers broadcast operands
            assert v is None and peak <= 2 * block + 3 * np.getbufsize() * 8

    def test_the_sweep_hook_sweeps_every_space(self, rng):
        spaces = [generators.gaussian_sample(60, 3, 1.0, seed=1),
                  random_embedded_space(rng, 60),
                  random_embedded_space(rng, 10),
                  core.FinitePmSpace(tuple(range(5)), None, np.full(5, 0.2),
                                     coords=rng.uniform(size=(5, 2)))]
        swept = []
        sweep = core._triangle_violation
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_triangle_violation", lambda D: swept.append(len(D)) or sweep(D))
            for sp in spaces:
                assert sweep_only_validate(sp) is None
            assert swept == [60, 60, 10, 5]
            swept.clear()
            for sp in spaces:
                assert core.validate(sp) is None
            # every space is certified
            assert swept == []
        assert spaces[0]._dist is None and spaces[3]._dist is None


def sweeps(call, *args):
    """``call`` of each of ``args``, and the size of each matrix the
    triangle sweep read meanwhile."""
    swept, sweep = [], core._triangle_violation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_triangle_violation", lambda D: swept.append(len(D)) or sweep(D))
        return [call(a) for a in args], swept


class TestSpreadCertificate:
    """A matrix whose smallest entry off the diagonal is at least half its
    largest, on a diagonal of entries >= 0, skips the triangle sweep."""

    def test_a_large_dissipation_family_is_not_swept(self):
        alpha = sort_atoms([0.2, 0.2, 0.1])
        (family,), swept = sweeps(lambda n: generators.dissipation_family(alpha, 1.0, n), 10)
        assert family.n == 1027 and swept == []
        assert sweeps(core.validate, family) == ([None], [])
        assert sweeps(sweep_only_validate, family) == ([None], [1027])

    @pytest.mark.parametrize("n", [3, 12, 60])
    def test_a_planted_excess_is_still_rejected(self, n):
        # distances in [1, 1.2] are spread; one of 2.5 breaks the triangle
        # inequality through every j, which the sweep reports
        sp = planted(n, n, [])
        assert sweeps(core.validate, sp) == ([None], [])
        D = edited(sp.dist, (1, n - 1, 2.5), (n - 1, 1, 2.5))
        bad = core.FinitePmSpace(sp.points, D, sp.mass)
        want = first_triangle_violation(D)
        assert want is not None and want.indices == (1, 0, n - 1)
        assert sweeps(core.validate, bad) == ([want], [n])
        assert sweep_only_validate(bad) == want

    def test_a_negative_diagonal_entry_takes_the_sweep(self):
        # the diagonal check allows -1e-12, and through j = i that entry
        # leaves an excess of 1.00009e-12 above the tolerance 1.00001e-12
        D = np.full((3, 3), 1.00001)
        np.fill_diagonal(D, 0.0)
        mass = np.full(3, 1 / 3)
        spaces = [core.FinitePmSpace((0, 1, 2), edited(D, (0, 0, value)), mass)
                  for value in (0.0, -0.0, 1e-12, -1e-12)]
        verdicts, swept = sweeps(core.validate, *spaces)
        assert swept == [3]
        assert verdicts[:3] == [None] * 3 and verdicts[3].indices == (0, 0, 1)
        assert verdicts == [sweep_only_validate(sp) for sp in spaces]

    def test_same_verdict_as_the_sweep(self):
        spaces = certificate_corpus() + [planted(n, n, []) for n in (3, 20, 70)]
        spread = []
        spread_test = core._spread
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_spread", lambda *a: spread.append(spread_test(*a)) or spread[-1])
            for sp in spaces:
                assert core.validate(sp) == sweep_only_validate(sp)
        assert sum(spread) >= 20


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

    def test_a_factor_that_breaks_the_metric_is_rejected(self):
        # no RuntimeWarning escapes (pytest turns one into an error)
        with pytest.raises(core.InvalidSpaceError, match="infinite"):
            core.scale(two_point(), math.inf)
        with pytest.raises(core.InvalidSpaceError, match=r"dist\[0\]\[1\] is not finite"):
            core.scale(two_point(1e10), 1e300)
        with pytest.raises(core.InvalidSpaceError, match=r"dist\[0\]\[1\] = 0.0 <= 0"):
            core.scale(two_point(1e-10), 1e-320)
        wide = core.FinitePmSpace(["a", "b"], [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5],
                                  coords=[[1e300], [1e300]])
        with pytest.raises(core.InvalidSpaceError, match=r"coords\[0\]\[0\] is not finite"):
            core.scale(wide, 1e10)

    def test_a_scaled_space_is_validated_like_any_space(self):
        # the triangle tolerance 1e-12 max(2^-480, max D) does not shrink
        # below diameter 2^-480, so an excess it accepts at diameter 2^-482
        # fails once scaled to diameter 1/2
        s, e = 2.0**-481, 0.9e-12 * 2.0**-480
        sp = core.space("abc", [[0.0, 0.25 * s, 0.5 * s + e], [0.25 * s, 0.0, 0.25 * s],
                                [0.5 * s + e, 0.25 * s, 0.0]], [0.25, 0.5, 0.25])
        with pytest.raises(core.InvalidSpaceError) as e:
            core.scale(sp, 2.0**481)
        assert str(e.value) == "dist[0][2] > dist[0][1] + dist[1][2] by 1.800e-12"


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

    def test_an_accepted_excess_stays_accepted_in_products(self):
        # at diameter 1/2 the triangle tolerance is 5e-13: an excess of
        # 0.9e-12 is rejected in the source itself, and one of 0.49e-12 is
        # accepted there and in its products, whose excess grows with the
        # diameter (to 0.98e-12 at diameter 1 + 0.98e-12 for p = 1)
        def source(excess):
            D = [[0.0, 0.25, 0.5 + excess], [0.25, 0.0, 0.25], [0.5 + excess, 0.25, 0.0]]
            return core.FinitePmSpace("abc", D, [0.25, 0.5, 0.25])

        v = core.validate(source(0.9e-12))
        assert v.code == "triangle" and v.indices == (0, 1, 2)
        sp = source(0.49e-12)
        assert core.validate(sp) is None
        for p in (1, 2, math.inf):
            assert core.validate(core.product(sp, sp, p)) is None

    def test_a_sum_that_overflows_or_underflows_is_rejected(self):
        # 2^2000 overflows and 0.5^1e6 underflows; no RuntimeWarning escapes
        with pytest.raises(core.InvalidSpaceError, match=r"dist\[0\]\[1\] is not finite"):
            core.product(two_point(2.0), two_point(2.0), 2000)
        with pytest.raises(core.InvalidSpaceError, match=r"dist\[0\]\[1\] = 0.0 <= 0"):
            core.product(generators.interval_grid(3), generators.interval_grid(3), 1e6)
        with pytest.raises(core.InvalidSpaceError, match="is not finite"):
            generators.product_tower(generators.two_point(2.0), 2000, 2)
        assert core.validate(core.product(two_point(2.0), two_point(2.0), 1000)) is None


@pytest.mark.parametrize("k", [-60, -20, 0, 20])
class TestVerdictsAtEveryScale:
    """A verdict that compares distances is the same at t X as at X, for t =
    2^k: each tolerance is relative to the largest distance in play."""

    @staticmethod
    def triangle(t, diagonal):
        """The equilateral triangle of side t with dist[0][1], not dist[1][0],
        raised by 9e-13 2^60 t and dist[2][2] = diagonal 2^60 t: at t = 2^-60
        a raise of 9e-13 beside a diagonal entry of 5e-13 or 0."""
        D = 1.0 - np.eye(3)
        D[0, 1] += 9e-13 * 2.0**60
        D[2, 2] = diagonal * 2.0**60
        return core.FinitePmSpace("abc", D * t, np.full(3, 1 / 3))

    def test_validate(self, k):
        for diagonal, code in ((5e-13, "diagonal"), (0.0, "symmetry")):
            got, want = (core.validate(self.triangle(t, diagonal)) for t in (2.0**k, 1.0))
            assert (got.code, got.indices) == (want.code, want.indices)
            assert want.code == code

    def test_domination_and_isomorphism(self, k):
        def verdicts(t):
            x, y = core.scale(two_point(), t), core.scale(two_point(2.0), t)
            return (type(order.dominates(x, y)), order.dominates(y, x).map,
                    core.mm_isomorphic(x, y), order.check_witness(x, y, (0, 1)),
                    order.check_witness(y, x, (0, 1)))

        assert verdicts(2.0**k) == verdicts(1.0) == (order.Refusal, (0, 1), False, False, True)

    def test_atom_membership(self, k):
        def verdicts(t):
            sp = core.scale(two_point(), t)
            return [atoms.member(sp, AtomVector((0.5,)), delta=t * f) for f in (0.5, 1.0)]

        assert verdicts(2.0**k) == verdicts(1.0) == [None, atoms.AtomAssignment((0,))]

    def test_prokhorov_of_two_point_masses(self, k):
        t = 2.0**k
        assert core.prokhorov(core.scale(two_point(), t), [1.0, 0.0], [0.0, 1.0]) == min(1.0, t)

    def test_ky_fan(self, k):
        t = 2.0**k
        sp = core.scale(two_point(), t)
        f, g = core.as_lipschitz(sp, [0.0, 0.0]), core.as_lipschitz(sp, [0.0, t / 2])
        assert core.ky_fan(sp, f, g) == min(0.5, t / 2)


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

    @staticmethod
    def k33_and_prism():
        """K3,3 and the triangular prism as graph metrics with uniform masses:
        every sorted distance row of both is (0, 1, 1, 1, 2, 2), and only the
        prism has triangles, so only backtracking tells them apart."""
        side, rung = np.arange(6) // 3, np.arange(6) % 3
        same = side[:, None] == side
        mats = [np.where(same, 2.0, 1.0), np.where(same | (rung[:, None] == rung), 1.0, 2.0)]
        for d in mats:
            np.fill_diagonal(d, 0.0)
        return [core.space(range(6), d, np.full(6, 1 / 6)) for d in mats]

    @pytest.mark.parametrize("pair", ["k33_prism", "sizes_differ"])
    def test_not_isomorphic(self, pair):
        sx, sy = (self.k33_and_prism() if pair == "k33_prism"
                  else (generators.interval_grid(3), generators.interval_grid(4)))
        assert not core.mm_isomorphic(sx, sy)
        assert core.mm_isomorphic(sx, sx) and core.mm_isomorphic(sy, sy)

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

    def test_prokhorov_identical(self):
        for sp in corpus(3, 300, sizes=(1, 2, 3, 5, 8, 12, 16)):
            assert core.prokhorov(sp, sp.mass, sp.mass) == 0.0

    def test_prokhorov_matches_the_subset_route(self):
        # tied distances (integer weights) and tied subset sums (two-digit
        # masses, zeros among them) included, in both argument orders
        rng = np.random.default_rng(36)
        spaces = corpus(36, 150, sizes=tuple(range(1, 13)))
        spaces += [integer_space(rng, n) for n in range(1, 13) for _ in range(3)]
        for k, sp in enumerate(spaces):
            if k % 3:
                a, b = rng.dirichlet(np.ones(sp.n)), rng.dirichlet(np.ones(sp.n))
            else:
                a, b = (rng.multinomial(100, np.full(sp.n, 1.0 / sp.n)) / 100 for _ in "ab")
            for u, v in ((a, b), (b, a)):
                assert abs(core.prokhorov(sp, u, v) - subset_prokhorov(sp, u, v)) <= 4.4e-16

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
        # one max-flow per threshold, with no size limit: symmetric and below
        # total variation at a dozen points and beyond the subset route's reach
        for n in (12, 40):
            sp = random_embedded_space(rng, n)
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
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
            got = subset_fold(ufunc, values, dtype)
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

    def test_refuses_exactly_what_a_pair_loop_refuses(self):
        """The values L d(anchor, y), each nudged by up to the tolerance either
        way, so that pairs sit on both sides of L d + tol; subsets may repeat
        a point, whose pairs then have d = 0."""
        rng = np.random.default_rng(41)
        refused = 0
        for sp in corpus(41, 80):
            L = float(rng.uniform(0.25, 4.0))
            tol = core._distance_tol(L * sp.diam())
            for _ in range(6):
                subset = rng.integers(0, sp.n, size=int(rng.integers(1, sp.n + 2))).tolist()
                f = L * sp.dist[subset[0], subset] + rng.uniform(-tol, tol, len(subset))
                loop = any(abs(f[a] - f[b]) > L * sp.dist[subset[a], subset[b]] + tol
                           for a, b in itertools.combinations(range(len(subset)), 2))
                try:
                    core.mcshane_extend(sp, subset, f, L)
                except core.InputError as e:
                    assert loop and "not L-Lipschitz" in str(e)
                    refused += 1
                else:
                    assert not loop
        assert 0 < refused < 480


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
