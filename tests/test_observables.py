"""Observable diameter, separation distance and variance family.

Separation is matched exactly against an exhaustive set-family oracle, and
its bisection against a downward scan.  The exact observable diameter is
verified two-sided: its optimiser re-evaluates to the reported value
(achievability) and no member of a large independent Lipschitz family beats
it.  Variance-type exact values are vertex maxima of a convex objective,
checked against analytic two-point values, a path-space sign-pattern oracle,
and sampled feasible functions; the grown vertices are checked against the
tree enumeration they replaced and against the generic vertex count.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mmslab import atoms, core, generators, observables as obs
from conftest import (corpus, random_embedded_space, random_shortest_path_space,
                      separation_properties_report)
from test_kernel_values import _vertex_spaces


def two_point(d=1.0, p=0.5):
    return core.space(["a", "b"], [[0.0, d], [d, 0.0]], [p, 1 - p])


def set_family_separation_oracle(sp, kappas):
    """Maximum over all subset families of the minimal pairwise set distance."""
    pos = [k for k in kappas if k > 0]
    if len(pos) <= 1:
        return 0.0 if (pos and pos[0] > 1 + 1e-12) else math.inf
    n = sp.n
    subsets = list(range(1, 1 << n))
    masses = {s: sum(sp.mass[i] for i in range(n) if s >> i & 1) for s in subsets}
    setdist = {}
    for s in subsets:
        for t in subsets:
            pts_s = [i for i in range(n) if s >> i & 1]
            pts_t = [i for i in range(n) if t >> i & 1]
            setdist[s, t] = min(sp.dist[i, j] for i in pts_s for j in pts_t)
    best = 0.0
    choices = [
        [s for s in subsets if masses[s] >= k - 1e-12] for k in pos
    ]
    if any(not c for c in choices):
        return 0.0
    for family in itertools.product(*choices):
        val = min(
            setdist[family[i], family[j]]
            for i in range(len(family))
            for j in range(i + 1, len(family))
        )
        best = max(best, val)
    return best


def reference_assignment_feasible(conflict, masses, needs):
    """The assignment search without the twin rule: each point joins one bin
    or none, a conflict edge may not join two distinct bins, satisfied bins
    are skipped and empty bins of equal need tried once.  Returns the bin
    memberships, or None."""
    tol = core.VALIDATION_TOL
    k = len(needs)
    n = len(masses)
    order = sorted(range(n), key=lambda i: (-masses[i], i))
    suffix = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] + masses[order[t]]
    fill = [0.0] * k
    members = [[] for _ in range(k)]

    def rec(t):
        deficit = sum(max(needs[b] - fill[b], 0.0) for b in range(k))
        if deficit <= tol * (k + 1):
            return True
        if t == n or suffix[t] + tol < deficit:
            return False
        i = order[t]
        tried_empty = set()
        for b in range(k):
            if fill[b] >= needs[b] - tol:
                continue
            if not members[b]:
                key = round(needs[b], 15)
                if key in tried_empty:
                    continue
                tried_empty.add(key)
            if any(conflict[i, q] for b2 in range(k) if b2 != b for q in members[b2]):
                continue
            fill[b] += masses[i]
            members[b].append(i)
            if rec(t + 1):
                return True
            members[b].pop()
            fill[b] -= masses[i]
        return rec(t + 1)

    return [sorted(g) for g in members] if rec(0) else None


def reference_bins_feasible(comp_mass, needs):
    """Bin packing without conflicts: can the masses, each used at most once,
    fill every bin to its need?  Bins with the same need and fill are tried
    once."""
    tol = core.VALIDATION_TOL
    needs = list(needs)
    comp = sorted(comp_mass, reverse=True)
    total = sum(comp)
    if total + tol < sum(needs):
        return False
    k = len(needs)
    fill = [0.0] * k

    def rec(ci, remaining):
        deficit = sum(max(needs[b] - fill[b], 0.0) for b in range(k))
        if deficit <= tol * (k + 1):
            return True
        if ci == len(comp) or remaining + tol < deficit:
            return False
        c = comp[ci]
        tried = set()
        for b in range(k):
            key = (round(needs[b], 15), round(fill[b], 15))
            if key in tried:
                continue
            tried.add(key)
            if fill[b] >= needs[b] - tol:
                continue
            fill[b] += c
            if rec(ci + 1, remaining - c):
                fill[b] -= c
                return True
            fill[b] -= c
        return rec(ci + 1, remaining - c)

    return rec(0, total)


def basic_solution_obs_diam(sp, kappa):
    """Independent exact oracle: enumerate basic solutions of the per-ordering
    linear programs (tight-constraint subsets, batched linear solves)."""
    n = sp.n
    need = 1.0 - kappa
    best = 0.0
    for pi in itertools.permutations(range(n)):
        masses = sp.mass[list(pi)]
        csum = np.concatenate(([0.0], np.cumsum(masses)))
        wins = []
        j = 0
        for i in range(n):
            j = max(j, i)
            while j < n and csum[j + 1] - csum[i] < need - 1e-12:
                j += 1
            if j >= n:
                break
            wins.append((i, j))
        if not wins:
            continue
        # variables: f[pi[1]], ..., f[pi[n-1]], t  (f[pi[0]] pinned to zero)
        var = {pi[k]: k - 1 for k in range(1, n)}
        dim = n
        rows, rhs = [], []

        def coef(point):
            row = np.zeros(dim)
            if point in var:
                row[var[point]] = 1.0
            return row

        for l, r in wins:
            row = -coef(pi[r]) + coef(pi[l])
            row[dim - 1] = 1.0
            rows.append(row)
            rhs.append(0.0)
        for k in range(n - 1):
            rows.append(coef(pi[k]) - coef(pi[k + 1]))
            rhs.append(0.0)
        for i in range(n):
            for j2 in range(n):
                if i != j2:
                    rows.append(coef(i) - coef(j2))
                    rhs.append(sp.dist[i, j2])
        row = np.zeros(dim)
        row[dim - 1] = -1.0
        rows.append(row)
        rhs.append(0.0)
        rows = np.array(rows)
        rhs = np.array(rhs)
        for idx in itertools.combinations(range(len(rows)), dim):
            a = rows[list(idx)]
            b = rhs[list(idx)]
            if abs(np.linalg.det(a)) < 1e-10:
                continue
            x = np.linalg.solve(a, b)
            if np.all(rows @ x <= rhs + 1e-9):
                best = max(best, x[dim - 1])
    return best


def combinatorial_vertices_variance(sp):
    """Independent exact oracle for the variance: vertices enumerated as
    solutions of (n-1)-subsets of tight signed constraints."""
    n = sp.n
    cons = []
    for i in range(n):
        for j in range(i + 1, n):
            for sgn in (1.0, -1.0):
                row = np.zeros(n - 1)
                if i > 0:
                    row[i - 1] = sgn
                if j > 0:
                    row[j - 1] -= sgn
                cons.append((row, sgn * 0 + sp.dist[i, j]))
    best = 0.0
    for idx in itertools.combinations(range(len(cons)), n - 1):
        a = np.array([cons[t][0] for t in idx])
        b = np.array([cons[t][1] for t in idx])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        f = np.concatenate(([0.0], np.linalg.solve(a, b)))
        if np.max(np.abs(f[:, None] - f[None, :]) - sp.dist) <= 1e-9:
            best = max(best, obs.variance_of(sp, f))
    return best


def random_lipschitz_pool(sp, rng, count):
    """Feasible 1-Lipschitz functions: anchors and projected random data."""
    pool = [sp.dist[i].copy() for i in range(sp.n)] + [-sp.dist[i] for i in range(sp.n)]
    while len(pool) < count:
        k = int(rng.integers(1, sp.n + 1))
        idx = rng.choice(sp.n, size=k, replace=False)
        vals = rng.uniform(-sp.diam(), sp.diam(), size=k)
        pool.append(np.min(vals[None, :] + sp.dist[:, idx], axis=1))
    return pool[:count]


class TestPartialDiameter:
    def test_single_atom(self):
        assert obs.partial_diameter([3.0], [1.0], 0.7) == 0.0

    def test_two_atoms(self):
        assert obs.partial_diameter([0.0, 1.0], [0.5, 0.5], 0.4) == 1.0

    def test_uniform_three(self):
        assert obs.partial_diameter([0, 1, 2], [1 / 3] * 3, 1 / 3) == pytest.approx(1.0)

    def test_kappa_one_gives_zero(self):
        assert obs.partial_diameter([0, 5], [0.5, 0.5], 1.0) == 0.0

    def test_monotone_in_kappa(self, rng):
        v = rng.normal(size=8)
        w = rng.dirichlet(np.ones(8))
        vals = [obs.partial_diameter(v, w, k) for k in np.linspace(0, 1, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_subset_enumeration_oracle(self, rng):
        # any admissible subset realises at least the reported width
        for _ in range(10):
            v = rng.normal(size=5)
            w = rng.dirichlet(np.ones(5))
            kappa = float(rng.uniform(0, 0.9))
            got = obs.partial_diameter(v, w, kappa)
            best = math.inf
            for mask in range(1, 1 << 5):
                pts = [i for i in range(5) if mask >> i & 1]
                if w[pts].sum() >= 1 - kappa - 1e-12:
                    best = min(best, max(v[pts]) - min(v[pts]))
            assert got == pytest.approx(best, abs=1e-12)


class TestObsDiam:
    def test_one_point(self):
        one = core.space(["p"], [[0.0]], [1.0])
        for kappa in (0.0, 0.3, 0.9):
            assert obs.obs_diam(one, kappa, "exact") == 0.0

    def test_two_point_below_half(self):
        sp = two_point(0.7)
        for kappa in (0.1, 0.3, 0.49):
            assert obs.obs_diam(sp, kappa, "exact") == pytest.approx(0.7)

    def test_kappa_zero_is_diam(self, rng):
        for _ in range(4):
            sp = random_embedded_space(rng, 5)
            assert obs.obs_diam(sp, 0.0, "exact") == pytest.approx(sp.diam(), abs=1e-9)

    def test_monotone_in_kappa(self, rng):
        sp = random_embedded_space(rng, 4)
        vals = [obs.obs_diam(sp, k, "exact") for k in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_exact_dominates_heuristic(self, rng):
        for sp in corpus(21, 6, sizes=(3, 4, 5)):
            kappa = 0.25
            he = obs.obs_diam(sp, kappa, "heuristic", starts=24, seed=0)
            ex = obs.obs_diam(sp, kappa, "exact")
            assert he <= ex + 1e-9

    def test_exact_two_sided_oracle(self, rng):
        # achievability plus no-counterexample over a large feasible family
        for sp in corpus(31, 5, sizes=(3, 4)):
            for kappa in (0.15, 0.4):
                ex = obs.obs_diam(sp, kappa, "exact")
                he = obs.obs_diam(sp, kappa, "heuristic", starts=64, seed=1)
                pool = random_lipschitz_pool(sp, rng, 400)
                found = max(obs.partial_diameter(f, sp.mass, kappa) for f in pool)
                assert max(found, he) <= ex + 1e-9
                assert ex <= sp.diam() + 1e-9

    def test_exact_matches_basic_solution_oracle(self, rng):
        for sp in corpus(33, 4, sizes=(3, 4)):
            for kappa in (0.2, 0.45):
                ex = obs.obs_diam(sp, kappa, "exact")
                want = basic_solution_obs_diam(sp, kappa)
                assert ex == pytest.approx(want, abs=1e-6)

    def test_homogeneity(self, rng):
        for sp in corpus(41, 4, sizes=(4,)):
            base = obs.obs_diam(sp, 0.3, "exact")
            for t in (0.5, 2.0):
                scaled = obs.obs_diam(core.scale(sp, t), 0.3, "exact")
                assert scaled == pytest.approx(t * base, rel=1e-9, abs=1e-12)

    def test_size_limit(self, rng):
        sp = random_embedded_space(rng, 7)
        with pytest.raises(core.SizeLimitError):
            obs.obs_diam(sp, 0.1, "exact")


class TestGaussianFormula:
    def test_kappa_to_one_vanishes(self):
        assert obs.gaussian_obs_diam(1.0, 1 - 1e-9) < 1e-6

    def test_sigma_homogeneous(self):
        for kappa in (0.1, 0.5, 0.9):
            assert obs.gaussian_obs_diam(2.0, kappa) == pytest.approx(
                2.0 * obs.gaussian_obs_diam(1.0, kappa), rel=1e-10
            )

    def test_quadrature_value(self):
        # Psi(1) by quadrature fixes the inverse at that point
        from scipy.integrate import quad

        psi1, _ = quad(lambda s: math.exp(-s * s / 2) / math.sqrt(2 * math.pi), 0.0, 1.0)
        kappa = 1.0 - 2.0 * psi1
        assert obs.gaussian_obs_diam(1.0, kappa) == pytest.approx(2.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(core.InputError):
            obs.gaussian_obs_diam(1.0, 0.0)
        with pytest.raises(core.InputError):
            obs.gaussian_obs_diam(1.0, 1.0)

    def test_inverse_round_trip(self):
        # erf(t) is the mass inside the window and erfc(t) the tail kappa that
        # the inverse sees, each to full relative precision
        from scipy.special import erf, erfc

        tails = np.geomspace(1e-12, 0.5, 60)
        for kappa in np.concatenate([tails, 1.0 - tails]):
            t = obs.gaussian_obs_diam(1.0, kappa) / (2.0 * math.sqrt(2.0))
            assert erf(t) == pytest.approx(1.0 - kappa, rel=1e-13, abs=0)
            assert erfc(t) == pytest.approx(1.0 - (1.0 - kappa), rel=1e-12, abs=0)

    def test_crossover_exists_below_threshold(self):
        kappa, gap = obs.gaussian_vs_uniform_crossover(0.35)
        assert 0 < kappa < 1
        assert gap >= 1e-3
        assert (1 - kappa) - obs.gaussian_obs_diam(0.35, kappa) == pytest.approx(gap)

    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.2, 0.35, 0.39])
    def test_crossover_maximises_slack(self, sigma):
        def slack(k):
            return (1 - k) - obs.gaussian_obs_diam(sigma, k)

        kappa, gap = obs.gaussian_vs_uniform_crossover(sigma)
        assert 0 < kappa < 1 and gap >= 1e-3
        assert slack(kappa) == gap
        assert gap >= slack(kappa - 1e-4) and gap >= slack(kappa + 1e-4)

    def test_crossover_absent_above_threshold(self):
        with pytest.raises(core.InputError):
            obs.gaussian_vs_uniform_crossover(1.0 / math.sqrt(2 * math.pi) + 1e-3)

    def test_crossover_slack_too_small(self):
        with pytest.raises(core.InputError, match="slack"):
            obs.gaussian_vs_uniform_crossover(0.398)


class TestSeparation:
    def test_two_point_exact_masses(self):
        sp = two_point(2.5, 0.3)
        assert obs.separation(sp, (0.3, 0.7)) == pytest.approx(2.5)

    def test_overfull_bin(self):
        sp = two_point(2.5, 0.3)
        assert obs.separation(sp, (0.71, 0.3)) == 0.0

    def test_single_positive_is_infinite(self, rng):
        sp = random_embedded_space(rng, 4)
        assert obs.separation(sp, (0.4,)) == math.inf
        assert obs.separation(sp, (0.4, -1.0, 0.0)) == math.inf

    def test_negative_entries_dropped(self, rng):
        sp = random_embedded_space(rng, 4)
        a = obs.separation(sp, (0.3, 0.3))
        b = obs.separation(sp, (0.3, -0.2, 0.3, -5.0))
        assert a == b

    def test_shuffle_and_monotone_and_interleave(self, rng):
        for sp in corpus(51, 5, sizes=(5,)):
            kappa = tuple(rng.uniform(0.05, 0.3, size=3))
            lam = tuple(rng.uniform(0.05, 0.2, size=2))
            rep = separation_properties_report(sp, kappa, lam, rng)
            assert rep["ok"], rep["violations"]

    def test_exhaustive_family_oracle(self, rng):
        for sp in corpus(61, 12, sizes=(2, 3, 4)):
            for _ in range(6):
                k = int(rng.integers(1, 4))
                kappa = tuple(float(rng.integers(1, 11)) / 10 for _ in range(k))
                assert obs.separation(sp, kappa) == set_family_separation_oracle(sp, kappa)

    def test_exhaustive_family_oracle_larger_supports(self, rng):
        # bigger supports exercise the discard branching of the assignment DFS
        for sp in corpus(65, 8, sizes=(5, 6)):
            for _ in range(4):
                k = int(rng.integers(2, 4))
                kappa = tuple(float(rng.integers(1, 8)) / 10 for _ in range(k))
                assert obs.separation(sp, kappa) == set_family_separation_oracle(sp, kappa)

    def test_homogeneity(self, rng):
        sp = random_embedded_space(rng, 4)
        kappa = (0.25, 0.25)
        base = obs.separation(sp, kappa)
        for t in (0.5, 2.0):
            assert obs.separation(core.scale(sp, t), kappa) == pytest.approx(t * base)

    def test_witness_configuration(self, rng):
        for sp in corpus(63, 8, sizes=(3, 4)):
            kappa = (0.2, 0.2)
            val, cfg = obs.separation_witness(sp, kappa)
            assert cfg.threshold == val
            if val in (0.0, math.inf):
                continue
            groups = cfg.groups
            assert len(groups) == 2
            used = [i for g in groups for i in g]
            assert len(used) == len(set(used))
            for g, need in zip(groups, sorted(kappa, reverse=True)):
                assert sum(sp.mass[i] for i in g) >= need - 1e-9
            cross = min(
                sp.dist[i, j] for i in groups[0] for j in groups[1]
            )
            assert cross >= val - 1e-9


SEARCH_KAPPAS = ((0.3, 0.3), (0.2, 0.2, 0.2), (0.5, 0.25), (0.4, 0.3, 0.2), (0.25,) * 4,
                 (0.1,) * 5, (0.45, 0.45))


def search_spaces():
    """(dist, masses, kappas): the corpus, embedded and equidistant spaces
    with uniform, pairwise equal and random masses, each with fixed kappas
    and kappas at the edge of the masses' sums."""
    tol = core.VALIDATION_TOL
    rng = np.random.default_rng(2020)
    spaces = [(sp.dist, sp.mass) for sp in corpus(3, 60)]
    for n in [*range(4, 9)] * 8 + [9, 10, 12]:
        sp = random_embedded_space(rng, n)
        paired = np.repeat(rng.dirichlet(np.ones((n + 1) // 2)), 2)[:n]
        equidistant = np.ones((n, n)) - np.eye(n)
        for dist in (sp.dist, equidistant) if n <= 10 else (equidistant,):
            spaces += [(dist, np.full(n, 1.0 / n)), (dist, paired / paired.sum()), (dist, sp.mass)]
    for dist, mass in spaces:
        n = len(mass)
        m = np.sort(mass)[::-1]
        edges = [(m[0] + m[1], m[2]), (m[0] + m[1] + tol, m[2] - tol / 2),
                 (2.0 / n,) * (n // 2)] if n > 2 else []
        yield dist, mass, [*SEARCH_KAPPAS, *edges]


def search_decisions():
    """(conflict, masses, needs) feasibility questions: the spaces of
    ``search_spaces`` at every pairwise distance and just above it (where
    that pair's conflict starts)."""
    tol = core.VALIDATION_TOL
    for dist, mass, kappas in search_spaces():
        n = len(mass)
        for kappa in kappas:
            needs = sorted(kappa, reverse=True)
            for d in np.unique(dist[np.triu_indices(n, 1)]):
                for delta in (d, d + 2 * tol * max(1.0, d)):
                    conflict = dist < delta - tol * max(1.0, delta)
                    np.fill_diagonal(conflict, False)
                    yield conflict, mass, needs


class TestSeparationSearch:
    def test_same_groups_as_the_search_without_twins(self):
        decisions = free = 0
        for conflict, mass, needs in search_decisions():
            groups = obs._assignment_feasible(conflict, mass, needs)
            assert groups == reference_assignment_feasible(conflict, mass.tolist(), needs)
            if not conflict.any():
                free += 1
                assert (groups is not None) == reference_bins_feasible(mass, needs)
            decisions += 1
        assert decisions >= 50_000 and free >= 2_000

    def test_nineteen_equal_points_in_under_a_second(self):
        sp = generators.dissipation_family(atoms.sort_atoms([0.2, 0.2, 0.1]), 1.0, 4)
        start = time.perf_counter()
        assert obs.separation(sp, (0.34, 0.34, 0.32)) == 0.0
        assert time.perf_counter() - start < 1.0

    def test_sixteen_equal_points_refused_in_under_a_second(self):
        sp = generators.dissipation_family(atoms.sort_atoms([]), 1.0, 4)
        start = time.perf_counter()
        assert obs._assignment_feasible(np.zeros((16, 16), bool), sp.mass, [0.1] * 9) is None
        assert time.perf_counter() - start < 1.0
        assert obs.separation(sp, (0.1,) * 9) == 0.0

    def test_twins_need_the_same_conflicts(self):
        # points 1 and 2 have equal mass, but only 1 is near 0: at threshold
        # 2 the bins take {0} and {2}, a choice of 2 before 1's discard
        sp = core.space(["c", "a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]], [0.5, 0.25, 0.25])
        val, config = obs.separation_witness(sp, (0.5, 0.25))
        assert (val, config.groups) == (2.0, ((0,), (2,)))

    def test_bisection_finds_the_downward_scan_threshold(self):
        tol = core.VALIDATION_TOL
        compared = finite = 0
        for dist, mass, kappas in search_spaces():
            sp = core.space([f"s{i}" for i in range(len(mass))], dist, mass)
            for kappa in kappas:
                pos = sorted(kappa, reverse=True)
                if len(pos) < 2 or sum(pos) > 1.0 + tol:
                    continue
                val, config = obs.separation_witness(sp, kappa)
                assert (val, config.groups) == downward_separation_scan(sp, pos)
                compared += 1
                finite += 0.0 < val < math.inf
        assert compared >= 3_000 and finite >= 2_000


def downward_separation_scan(sp, needs):
    """Reference for two or more positive needs summing to at most one: the
    first positive pairwise distance, from the top down, at which the
    assignment search fills every bin, with the groups it found there."""
    cands = np.unique(sp.dist[np.triu_indices(sp.n, 1)])
    for delta in cands[cands > 0][::-1]:
        conflict = sp.dist < delta - core.VALIDATION_TOL * max(1.0, delta)
        np.fill_diagonal(conflict, False)
        groups = obs._assignment_feasible(conflict, sp.mass, needs)
        if groups is not None:
            return float(delta), tuple(tuple(g) for g in groups)
    return 0.0, ()


class TestVariance:
    def test_one_point(self):
        assert obs.variance(core.space(["p"], [[0.0]], [1.0]), "exact") == 0.0

    @pytest.mark.parametrize("d,p", [(1.0, 0.5), (2.0, 0.3), (0.4, 0.9)])
    def test_two_point_analytic(self, d, p):
        assert obs.variance(two_point(d, p), "exact") == pytest.approx(p * (1 - p) * d * d)

    def test_path_space_sign_oracle(self, rng):
        # on a path metric every vertex is a +-1 increment pattern
        for m in (3, 4, 5):
            xs = np.sort(rng.uniform(0, 1, size=m))
            dist = np.abs(xs[:, None] - xs[None, :])
            mass = rng.dirichlet(np.ones(m))
            mass = np.maximum(mass, 1e-3)
            mass /= mass.sum()
            sp = core.space([f"v{i}" for i in range(m)], dist, mass)
            steps = np.diff(xs)
            best = 0.0
            for signs in itertools.product((-1.0, 1.0), repeat=m - 1):
                f = np.concatenate(([0.0], np.cumsum(np.array(signs) * steps)))
                best = max(best, obs.variance_of(sp, f))
            assert obs.variance(sp, "exact") == pytest.approx(best, abs=1e-10)

    def test_sampled_functions_never_beat_exact(self, rng):
        for sp in corpus(71, 5, sizes=(3, 4)):
            ex = obs.variance(sp, "exact")
            pool = random_lipschitz_pool(sp, rng, 300)
            assert max(obs.variance_of(sp, f) for f in pool) <= ex + 1e-9

    def test_exact_matches_combinatorial_vertex_oracle(self, rng):
        for sp in corpus(73, 6, sizes=(3, 4)):
            assert obs.variance(sp, "exact") == pytest.approx(
                combinatorial_vertices_variance(sp), abs=1e-6
            )

    def test_heuristic_close_on_small(self, rng):
        for sp in corpus(81, 5, sizes=(3, 4, 5)):
            ex = obs.variance(sp, "exact")
            he = obs.variance(sp, "heuristic", starts=32, seed=0)
            assert he <= ex + 1e-9
            assert he >= 0.5 * ex  # coordinate ascent from anchors lands close

    def test_homogeneity(self, rng):
        sp = random_embedded_space(rng, 4)
        base = obs.variance(sp, "exact")
        for t in (0.5, 2.0):
            assert obs.variance(core.scale(sp, t), "exact") == pytest.approx(
                t * t * base, rel=1e-9
            )

    def test_diam_bound_with_equality(self, rng):
        assert obs.variance(two_point(2.0), "exact") == pytest.approx(1.0)
        for sp in corpus(91, 5, sizes=(4, 5)):
            assert obs.variance_diam_bound_holds(sp)


class TestPVariance:
    def test_p2_matches_variance(self, rng):
        for sp in corpus(101, 4, sizes=(3, 4)):
            f = sp.dist[0]
            assert obs.p_variance(sp, f, 2) == pytest.approx(obs.variance_of(sp, f))

    def test_constant_function(self, rng):
        sp = random_embedded_space(rng, 4)
        assert obs.p_variance(sp, np.full(4, 3.3), 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_p1_deviation(self):
        assert obs.p_deviation(two_point(1.0), 1, "exact") == pytest.approx(0.5)

    def test_pdev_p2_is_sqrt_variance(self, rng):
        for sp in corpus(111, 3, sizes=(3, 4)):
            assert obs.p_deviation(sp, 2, "exact") == pytest.approx(
                math.sqrt(obs.variance(sp, "exact")), rel=1e-9
            )

    def test_pinf_deviation(self, rng):
        sp = two_point(1.0, 0.25)
        # f = distance anchor: |f - mean| max is max(0.75, 0.25)
        assert obs.p_deviation(sp, math.inf, "exact") == pytest.approx(0.75)

    def test_p_below_one_rejected(self, rng):
        sp = two_point()
        with pytest.raises(core.InputError):
            obs.p_variance(sp, [0.0, 1.0], 0.5)


class TestHeuristicValuesPinned:
    # (obs_diam kappa=0.2, variance, p_deviation p=3), heuristic with 8 starts
    # and seed n, recorded when obs_diam, variance and p_deviation each ran
    # their own ascent loop; the shared engine must reproduce them bit for bit
    PINNED = [
        (0.9411184447846447, 0.18508920604978846, 0.43430899065611345),
        (0.6578429812218255, 0.07177889559604404, 0.2863495695340517),
        (20.754089275531868, 92.62239070610462, 10.769124715001114),
        (20.291882882344236, 87.53012698563174, 10.219004231633864),
        (743.4427889163615, 111096.79707876508, 360.2034301364257),
        (592.3485485131838, 67517.28993494125, 274.0690812051045),
        (0.8848359361700696, 0.13921453896691957, 0.39655326309630234),
        (0.5827529761098413, 0.0645910077546338, 0.2851951905340762),
        (927.008566491813, 139200.70158770727, 418.98767251615),
        (558.7333262416554, 67713.65208456709, 283.43646705060155),
    ]

    def test_values_unchanged(self):
        rng = np.random.default_rng(2718)
        got = []
        for n, scale in ((5, 1.0), (8, 30.0), (12, 1000.0), (16, 1.0), (20, 1000.0)):
            for sp in (random_embedded_space(rng, n, scale=scale),
                       random_shortest_path_space(rng, n, scale=scale)):
                got.append((obs.obs_diam(sp, 0.2, mode="heuristic", starts=8, seed=n),
                            obs.variance(sp, mode="heuristic", starts=8, seed=n),
                            obs.p_deviation(sp, 3, mode="heuristic", starts=8, seed=n)))
        assert got == self.PINNED


class TestLowerSemicontinuitySanity:
    def test_mass_perturbed_sequence(self):
        # masses (0.5 + 1/n, 0.5 - 1/n) converge to the symmetric two-point
        limit = two_point(1.0)
        vals = []
        for n in (4, 8, 16, 32, 64):
            sp = two_point(1.0, 0.5 + 1.0 / n)
            vals.append(obs.variance(sp, "exact"))
        target = obs.variance(limit, "exact")
        assert min(vals[-2:]) >= target - 1e-2
        assert vals[-1] >= target - 1e-3

    def test_scale_perturbed_sequence(self, rng):
        sp = random_embedded_space(rng, 4)
        target = obs.variance(sp, "exact")
        vals = [obs.variance(core.scale(sp, 1 + 1 / n), "exact") for n in (4, 8, 16)]
        assert all(v >= target - 1e-6 for v in vals)


def basic_solution_vertices(sp):
    """Independent vertex oracle: the feasible solutions of (n-1)-subsets of
    tight signed constraints f_i - f_j = +-d_ij with f_0 = 0 (duplicates kept)."""
    n = sp.n
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                row = np.zeros(n)
                row[i], row[j] = 1.0, -1.0
                rows.append(row[1:])
                rhs.append(sp.dist[i, j])
    out = []
    for idx in itertools.combinations(range(len(rows)), n - 1):
        a = np.array([rows[t] for t in idx])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        f = np.concatenate(([0.0], np.linalg.solve(a, np.array([rhs[t] for t in idx]))))
        if np.max(np.abs(f[:, None] - f[None, :]) - sp.dist) <= 1e-9:
            out.append(f)
    return np.array(out)


def tree_vertices(sp):
    """Reference vertex enumeration: f propagated along every (spanning tree
    rooted at 0, sign pattern) pair by f_v = f_parent + s_v d(parent, v),
    infeasible rows dropped, duplicates merged under the rounded keys (the
    first copy in tree order is kept)."""
    n, D = sp.n, sp.dist
    if n == 1:
        return np.zeros((1, 1))
    scale = max(1.0, float(D.max()))
    P = np.array([(0,) + t for t in itertools.product(range(n), repeat=n - 1)])
    A = P
    for _ in range(n):
        A = np.take_along_axis(P, A, axis=1)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    feasible = []
    for parent in P[(A == 0).all(axis=1)]:
        step = signs * D[parent[1:], np.arange(1, n)]
        F = np.zeros((len(signs), n))
        for _ in range(n - 1):
            F[:, 1:] = F[:, parent[1:]] + step
        feasible.append(F[(np.abs(F[:, :, None] - F[:, None, :]) - D).max(axis=(1, 2))
                          <= 1e-10 * scale])
    F = np.concatenate(feasible)
    _, first = np.unique(np.round(F / scale, 10) + 0.0, axis=0, return_index=True)
    return F[np.sort(first)]


def vertex_keys(sp, V):
    """The rows of V rounded as ``lipschitz_vertices`` deduplicates them."""
    scale = max(1.0, float(sp.dist.max()))
    return {tuple(row) for row in (np.round(V / scale, 10) + 0.0).tolist()}


class TestExactKernels:
    @pytest.mark.parametrize("t", [1e-3, 1.0, 30.0, 1000.0])
    def test_vertices_match_tree_enumeration(self, t):
        for sp in (core.scale(base, t) for base in _vertex_spaces()):
            got, want = obs.lipschitz_vertices(sp), tree_vertices(sp)
            assert len(got) == len(want)
            assert vertex_keys(sp, got) == vertex_keys(sp, want)
            # a vertex with several tight trees may keep another tree's bits
            for p in (2, 1, 3, math.inf):
                a = core._central_moment(sp.mass, got, p).max()
                b = core._central_moment(sp.mass, want, p).max()
                assert abs(a - b) <= 4 * math.ulp(b)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_generic_vertex_count(self, n):
        # Gordon and Petrov: a generic n-point metric has C(2n - 2, n - 1)
        rng = np.random.default_rng(2100 + n)
        for _ in range(3 if n <= 7 else 1):
            got = obs.lipschitz_vertices(random_embedded_space(rng, n))
            assert len(got) == math.comb(2 * n - 2, n - 1)

    def test_vertices_feasible_with_connected_tight_graphs(self):
        rng = np.random.default_rng(2101)
        spaces = corpus(152, 16, sizes=(2, 3, 4, 5, 6, 7))
        spaces += [random_shortest_path_space(rng, 8), generators.interval_grid(8, 0.7),
                   generators.dissipation_family(atoms.sort_atoms([0.4]), 1.5, 2)]
        for sp in spaces:
            V = obs.lipschitz_vertices(sp)
            scale = max(1.0, float(sp.dist.max()))
            slack = np.abs(V[:, :, None] - V[:, None, :]) - sp.dist
            assert slack.max() <= 1e-10 * scale
            tight = slack >= -1e-9 * scale
            reach = np.zeros(V.shape, bool)
            reach[:, 0] = True
            for _ in range(sp.n):
                reach = (tight & reach[:, None, :]).any(axis=2)
            assert reach.all()

    def test_levels_within_generic_counts(self):
        # level k holds the vertices on each k-point set that contains 0,
        # at most C(2k - 2, k - 1) each: polynomial in n for a fixed k
        rng = np.random.default_rng(2102)
        spaces = [random_embedded_space(rng, 9), random_shortest_path_space(rng, 9),
                  generators.interval_grid(9, 0.7), *_vertex_spaces()]
        for sp in spaces:
            n, to, scale = sp.n, np.ascontiguousarray(sp.dist.T), max(1.0, float(sp.dist.max()))
            F = np.full((1, n), math.nan)
            F[0, 0] = 0.0
            for k in range(2, n + 1):
                F = obs._grow_vertices(F, to, scale)
                assert len(F) <= math.comb(n - 1, k - 1) * math.comb(2 * k - 2, k - 1)
            assert np.array_equal(F, obs.lipschitz_vertices(sp))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_heuristic_below_exact_beyond_six_points(self, n):
        rng = np.random.default_rng(2103 + n)
        for sp in (random_embedded_space(rng, n), random_shortest_path_space(rng, n)):
            assert obs.variance(sp, "heuristic") <= obs.variance(sp) + 1e-9
            for p in (1, 3, math.inf):
                assert obs.p_deviation(sp, p, "heuristic") <= obs.p_deviation(sp, p) + 1e-9

    def test_vertices_match_basic_solution_oracle(self):
        for sp in corpus(151, 16, sizes=(2, 3, 4, 5)):
            got = obs.lipschitz_vertices(sp)
            want = basic_solution_vertices(sp)
            gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
            assert gap.min(axis=1).max() <= 1e-9  # every vertex is a basic solution
            assert gap.min(axis=0).max() <= 1e-9  # every basic solution is found
            own = np.abs(got[:, None, :] - got[None, :, :]).max(axis=2) + np.eye(len(got))
            assert own.min() > 1e-9  # and found once

    # (obs_diam kappa=0.2, variance, p_deviation p=3), exact, recorded when the
    # vertices came from Pruefer-decoded trees and the LP rows from Python lists
    PINNED = [
        (0.9796542449401511, 0.2542734864916523, 0.5146562816675774),
        (0.0, 0.009387994610372746, 0.1788198730219718),
        (24.220291766307444, 152.42235124320706, 12.503953835201944),
        (16.88363133728468, 81.5991088751802, 9.376645346528154),
        (562.8286486101022, 72484.40321962601, 290.1691966760179),
        (362.3642932163525, 42091.89966323405, 234.49765936134568),
        (0.7830517782493313, 0.1371280056843469, 0.38325266235885985),
        (0.76603101214105, 0.0851534715168277, 0.31903048049839927),
        (24.42113667843427, 104.37375622227638, 11.040456410850657),
        (24.307052888735214, 142.08879203080838, 12.172077707591054),
    ]

    def test_exact_values_unchanged(self):
        rng = np.random.default_rng(1618)
        got = []
        for n, scale in ((3, 1.0), (4, 30.0), (5, 1000.0), (5, 1.0), (6, 30.0)):
            for sp in (random_embedded_space(rng, n, scale=scale),
                       random_shortest_path_space(rng, n, scale=scale)):
                got.append((obs.obs_diam(sp, 0.2), obs.variance(sp), obs.p_deviation(sp, 3)))
        assert [g[0] for g in got] == [p[0] for p in self.PINNED]
        for g, p in zip(got, self.PINNED):
            # a vertex reached by two trees may keep either float copy (1 ulp)
            assert g[1:] == pytest.approx(p[1:], rel=1e-15, abs=0.0)


def two_pointer_windows(masses_sorted, need):
    """Reference: index pairs (l, r) of the inclusion-minimal contiguous
    windows with mass >= need, by a two-pointer loop."""
    n = len(masses_sorted)
    csum = np.concatenate(([0.0], np.cumsum(masses_sorted))).tolist()
    short = need - core.VALIDATION_TOL
    out = []
    j = 0
    for i in range(n):
        if j < i:
            j = i
        while j < n and csum[j + 1] - csum[i] < short:
            j += 1
        if j >= n:
            break
        if out and out[-1][1] == j:
            out[-1] = (i, j)  # same right end, larger left end: strictly smaller window
        else:
            out.append((i, j))
    return out


def exact_windows(masses_sorted, need):
    """The (l, r) pairs the exact mode solves with, for one ordering."""
    ends = obs._window_ends(np.asarray(masses_sorted)[None, :], need - core.VALIDATION_TOL)
    return [(int(i), int(ends[0, i])) for i in obs._minimal_starts(ends)[0].nonzero()[0]]


class TestTwoPointerScan:
    """partial_diameter and the exact LP windows share one window scan."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(404)
        for k in range(300):
            n = int(rng.integers(1, 13))
            v = rng.integers(0, 3, size=n).astype(float) if k % 3 == 0 else rng.normal(size=n)
            if k % 4 == 0:
                w = np.full(n, 1.0 / n)
            else:
                w = rng.dirichlet(np.ones(n))
                if k % 4 == 1:
                    w[rng.random(n) < 0.4] *= 1e-14  # tiny masses beside the bulk
                    w /= w.sum()
            kappa = (0.0, 1e-9, 1.0 / n, 1.0 - 1.0 / n, 0.99, float(rng.uniform(0, 0.9)))[k % 6]
            yield v, w, kappa
        # windows whose mass equals need - VALIDATION_TOL exactly still count
        for n, s in ((4, 0.5), (4, 0.75), (8, 0.5)):
            yield np.arange(float(n)), np.full(n, 1.0 / n), 1.0 - (s + core.VALIDATION_TOL)

    def test_scan_matches_all_windows(self):
        for v, w, kappa in self.cases():
            need = 1.0 - kappa
            if need <= core.VALIDATION_TOL:
                continue
            order = np.argsort(v, kind="stable")
            vs, ws = v[order], w[order]
            csum = np.concatenate(([0.0], np.cumsum(ws)))
            n = len(v)

            def feasible(i, j):
                return csum[j + 1] - csum[i] >= need - core.VALIDATION_TOL

            windows = [(i, j) for i in range(n) for j in range(i, n) if feasible(i, j)]
            want = min((vs[j] - vs[i] for i, j in windows), default=vs[-1] - vs[0])
            assert obs.partial_diameter(v, w, kappa) == want
            minimal = [(i, j) for i, j in windows
                       if i == j or not (feasible(i + 1, j) or feasible(i, j - 1))]
            assert exact_windows(ws, need) == minimal
            assert two_pointer_windows(ws, need) == minimal


# ---------------------------------------------------------------------------
# the lockstep coordinate ascent against the per-start loop


def per_start_anchors(sp, rng, starts):
    """The start functions, built one at a time."""
    n = sp.n
    pool = [sp.dist[i].copy() for i in range(min(starts, n))]
    pool += [-sp.dist[i] for i in range(min(starts, 2 * n) - len(pool))]
    while len(pool) < starts:
        k = int(rng.integers(1, min(n, 8) + 1))
        idx = rng.choice(n, size=k, replace=False)
        vals = rng.uniform(-sp.diam(), sp.diam(), size=k)
        pool.append(np.min(vals[None, :] + sp.dist[:, idx], axis=1))
    return pool


def per_start_ascent(sp, starts, seed, sweeps, tol, start, move):
    """Reference: each start climbs alone, with two scalar moves per coordinate."""
    rng = np.random.default_rng(seed)
    D = sp.dist
    best = 0.0
    for f in per_start_anchors(sp, rng, starts):
        cur, state = start(f)
        for _ in range(sweeps):
            improved = False
            for i in range(sp.n):
                lo, hi = f - D[i], f + D[i]
                lo[i], hi[i] = -math.inf, math.inf
                pick, pick_val, pick_state = f[i], cur, state
                for cand in (float(lo.max()), float(hi.min())):
                    val, st = move(state, f, i, cand)
                    if val > pick_val + tol:
                        pick, pick_val, pick_state = cand, val, st
                if pick != f[i]:
                    f[i], cur, state = pick, pick_val, pick_state
                    improved = True
            if not improved:
                break
        best = max(best, cur)
    return float(best)


def per_start_recompute(objective):
    def move(state, f, i, c):
        old, f[i] = f[i], c
        val = objective(f)
        f[i] = old
        return val, None

    return (lambda f: (objective(f), None)), move


def per_start_width(sp, kappa):
    """The partial diameter of one observable, from its minimal windows."""

    def objective(f):
        order = np.argsort(f, kind="stable")
        wins = two_pointer_windows(sp.mass[order], 1.0 - kappa)
        v = f[order].tolist()
        return min((v[j] - v[i] for i, j in wins), default=v[-1] - v[0])

    return objective


def per_start_obs_diam(sp, kappa, starts, seed):
    if sp.n == 1 or 1.0 - kappa <= core.VALIDATION_TOL:
        return 0.0
    starts, _ = obs._effort_budget(sp.n, starts, seed)
    return per_start_ascent(sp, starts, seed, 50, 1e-13,
                            *per_start_recompute(per_start_width(sp, kappa)))


def per_start_moments(sp):
    """``start`` and ``move`` of the variance, with its two moments updated
    in O(1) per candidate."""
    m = sp.mass

    def start(f):
        E, Q = float(np.dot(m, f)), float(np.dot(m, f * f))
        return Q - E * E, (E, Q)

    def move(state, f, i, c):
        E, Q = state
        mi, fi = m[i], f[i]
        E = E - mi * fi + mi * c
        Q = Q - mi * fi ** 2 + mi * c * c
        return Q - E * E, (E, Q)

    return start, move


def per_start_variance(sp, starts, seed):
    starts, sweeps = obs._effort_budget(sp.n, starts, seed)
    return per_start_ascent(sp, starts, seed, sweeps, 1e-14, *per_start_moments(sp))


def per_start_p_deviation(sp, p, starts, seed):
    starts, sweeps = obs._effort_budget(sp.n, starts, seed)
    val = per_start_ascent(sp, starts, seed, min(sweeps, 100), 1e-14,
                           *per_start_recompute(lambda f: obs.p_variance(sp, f, p)))
    return val ** (1.0 / p) if p != math.inf else val


def integer_space(rng, n, scale=1.0):
    """Shortest paths over integer weights: many tied distances and values."""
    raw = rng.integers(1, 4, size=(n, n)).astype(float)
    raw = np.minimum(raw, raw.T)
    np.fill_diagonal(raw, 0.0)
    for k in range(n):
        raw = np.minimum(raw, raw[:, k][:, None] + raw[k][None, :])
    return core.space([f"z{i}" for i in range(n)], raw * scale, np.full(n, 1.0 / n))


def tiny_mass_space(rng, n, scale=1.0):
    """An embedded space where a third of the points carry mass about 1e-12."""
    sp = random_embedded_space(rng, n, scale=scale)
    m = sp.mass.copy()
    m[rng.random(n) < 0.35] = 1e-12
    return core.space(sp.points, sp.dist, m / m.sum())


def all_windows_width(v, w, need):
    """O(n^2) oracle: the smallest width over every window of sorted values
    whose mass reaches need within VALIDATION_TOL."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    csum = np.concatenate(([0.0], np.cumsum(w[order])))
    n = len(v)
    widths = [vs[j] - vs[i] for i in range(n) for j in range(i, n)
              if csum[j + 1] - csum[i] >= need - core.VALIDATION_TOL]
    return min(widths, default=vs[-1] - vs[0])


class TestLockstepAscent:
    """Every start climbs in one matrix; the values equal those of the
    per-start loop bit for bit."""

    @staticmethod
    def spaces():
        rng = np.random.default_rng(31337)
        builders = (random_embedded_space, random_shortest_path_space,
                    integer_space, tiny_mass_space)
        for k, n in enumerate((2, 3, 4, 5, 7, 9, 12, 16, 23, 31, 40, 2, 6, 11)):
            scale = (1e-3, 1.0, 1e3)[k % 3]
            yield builders[k % 4](rng, n, scale=scale)

    def test_start_rows_equal_the_per_start_loop(self):
        # the random starts are drawn one by one and their minima taken in
        # row blocks; rows and the generator state after them are unchanged
        for k, sp in enumerate(self.spaces()):
            for starts in (1, sp.n, 2 * sp.n + 1, 64, 40 * sp.n + 7):
                got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
                got = obs._anchor_starts(sp, got_rng, starts)
                want = np.array(per_start_anchors(sp, want_rng, starts))
                assert got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_values_equal_the_per_start_loop(self):
        for k, sp in enumerate(self.spaces()):
            big = sp.n > 20
            for starts in ((1, 3, 8) if big else (1, 3, 8, 64)):
                seed = (k + starts) % 3
                kappa = (0.0, 0.2, 0.5)[(k + starts) % 3]
                assert (obs.obs_diam(sp, kappa, "heuristic", starts, seed)
                        == per_start_obs_diam(sp, kappa, starts, seed))
                assert (obs.variance(sp, "heuristic", starts, seed)
                        == per_start_variance(sp, starts, seed))
                for p in ((2, math.inf) if big else (1, 2, 3, math.inf)):
                    assert (obs.p_deviation(sp, p, "heuristic", starts, seed)
                            == per_start_p_deviation(sp, p, starts, seed))

    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_values_equal_the_per_start_loop_under_a_sweep_cap(self, sweeps, monkeypatch):
        # the cap stops rows that still move; obs_diam's 50 sweeps are capped
        # through the engine, the others through their budget
        monkeypatch.setattr(obs, "_effort_budget", lambda n, starts, seed: (starts, sweeps))
        binds = 0
        for k, sp in enumerate(self.spaces()):
            starts, seed, kappa = 8, k % 3, (0.0, 0.2, 0.5)[k % 3]
            steps = []
            start, move = obs._rescoring(
                lambda G: obs._partial_diameters(G, sp.mass, kappa))

            def watched(state, F, i, C):
                steps.append(i)
                return move(state, F, i, C)

            got = obs._coordinate_ascent(sp, starts, seed, sweeps, 1e-13, start, watched)
            assert got == per_start_ascent(sp, starts, seed, sweeps, 1e-13,
                                           *per_start_recompute(per_start_width(sp, kappa)))
            # some row changed in the last sweep and was still climbing
            binds += len(steps) == sweeps * sp.n
            assert (obs.variance(sp, "heuristic", starts, seed)
                    == per_start_variance(sp, starts, seed))
            for p in (1, 3, math.inf):
                assert (obs.p_deviation(sp, p, "heuristic", starts, seed)
                        == per_start_p_deviation(sp, p, starts, seed))
        assert binds

    def test_rows_retire_mid_sweep_with_their_values(self):
        # a row leaves once n coordinates in a row left it unchanged, which
        # can fall inside a sweep; the values stay those of the per-start loop
        mid_sweep = 0
        for k, sp in enumerate(self.spaces()):
            for starts in (3, 8):
                seed, kappa = (k + starts) % 3, 0.2
                rows = []
                start, move = obs._rescoring(
                    lambda G: obs._partial_diameters(G, sp.mass, kappa))

                def watched(state, F, i, C):
                    rows.append(len(F))
                    return move(state, F, i, C)

                got = obs._coordinate_ascent(sp, starts, seed, 50, 1e-13, start, watched)
                assert got == per_start_ascent(sp, starts, seed, 50, 1e-13,
                                               *per_start_recompute(per_start_width(sp, kappa)))
                mid_sweep += sum(rows[s] < rows[s - 1] for s in range(1, len(rows))
                                 if s % sp.n)
        assert mid_sweep

    @pytest.mark.parametrize("seed, n", [(195, 7), (25, 11)])
    def test_variance_scores_unchanged_candidates(self, seed, n):
        # at this scale an end equal to f[i] gets an O(1) variance that
        # differs from the row's own; it still decides whether the other end
        # wins, so variance must score it, as the per-start loop does
        sp = integer_space(np.random.default_rng(seed), n, scale=1e3)
        start, move = per_start_moments(sp)
        differs = []

        def watched(state, f, i, c):
            val, st = move(state, f, i, c)
            if c == f[i]:
                differs.append(val != state[1] - state[0] * state[0])
            return val, st

        assert (obs.variance(sp, "heuristic", 1, 0)
                == per_start_ascent(sp, 1, 0, 200, 1e-14, start, watched))
        assert any(differs)

    def test_unchanged_candidates_are_not_scored(self):
        # on the distance anchors d(x, .) and -d(x, .) of an integer-valued
        # space, one end of every row's first interval is f[0] itself
        sp = integer_space(np.random.default_rng(8), 24)
        offered, scored = [], []

        def score(G):
            scored.append(len(G))
            return obs._partial_diameters(G, sp.mass, 0.2)

        start, move = obs._rescoring(score)

        def watched(state, F, i, C):
            offered.append(len(F))
            return move(state, F, i, C)

        obs._coordinate_ascent(sp, 2 * sp.n, 0, 1, 1e-13, start, watched)
        assert len(offered) == sp.n and offered[0] == 2 * sp.n
        assert scored[1] <= offered[0]
        assert sum(scored[1:]) < 2 * sum(offered)

    @pytest.mark.parametrize("n", [257, 300, 600, 1000])
    def test_effort_budget_never_raises_the_start_count(self, n):
        assert obs._effort_budget(n, 1, 0)[0] == 1
        assert obs._effort_budget(n, 2, 0)[0] == 2
        assert obs._effort_budget(n, 64, 0)[0] == max(2, 64 // (n * n // 65536))

    def test_batched_scan_matches_all_windows(self):
        rng = np.random.default_rng(505)
        for v, w, kappa in TestTwoPointerScan.cases():
            need = 1.0 - kappa
            if need <= core.VALIDATION_TOL:
                continue
            # rows of one batch share the masses: reorderings, ties and a constant
            batch = np.array([v, v[::-1], rng.permutation(v), -v, np.floor(v),
                              np.zeros_like(v), rng.permutation(np.round(v, 1))])
            got = obs._partial_diameters(batch, w, kappa)
            assert got.tolist() == [all_windows_width(row, w, need) for row in batch]

    def test_batched_scan_on_the_tolerance_edge(self):
        # kappa is set so that need - VALIDATION_TOL equals one window's mass
        # as the exact test computes it; csum[i] + short can then round to
        # the other side of csum[j + 1], which only the exact test corrects
        rng = np.random.default_rng(606)
        for _ in range(4000):
            n = int(rng.integers(3, 12))
            v, w = rng.normal(size=n), rng.dirichlet(np.ones(n))
            csum = np.concatenate(([0.0], np.cumsum(w[np.argsort(v, kind="stable")])))
            i = int(rng.integers(0, n))
            mass = csum[int(rng.integers(i, n)) + 1] - csum[i]
            k0 = 1.0 - (mass + core.VALIDATION_TOL)
            for kappa in k0 + np.arange(-4, 5) * np.spacing(k0):
                if (1.0 - kappa) - core.VALIDATION_TOL != mass:
                    continue
                batch = np.array([v, -v, rng.permutation(v)])
                got = obs._partial_diameters(batch, w, kappa)
                assert got.tolist() == [all_windows_width(row, w, 1.0 - kappa) for row in batch]
