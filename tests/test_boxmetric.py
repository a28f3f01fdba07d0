"""Box-distance estimates: exact tiny-instance values, certified bounds,
pseudometric axioms, and the direct interval-parameter oracle that justifies
the coupling reduction."""

import hashlib
import itertools
import subprocess
import sys

import numpy as np
import pytest

from mmslab import boxmetric, core, generators
from conftest import corpus, random_embedded_space, random_shortest_path_space, subset_fold


def two_point(d=1.0, p=0.5):
    return core.space(["a", "b"], [[0.0, d], [d, 0.0]], [p, 1 - p])


def grid_parameter_oracle(sx, sy, slots):
    """Direct search over interval parameters at a fixed granularity.

    Both spaces get assignments of ``slots`` equal subintervals of [0,1]
    matching their masses exactly; the excluded set runs over all subsets of
    subintervals.  Exact whenever the optimal coupling lives on the grid.
    Relabelling slots moves one assignment onto any other while permuting the
    partner and the excluded set along, so the first assignment is fixed."""
    def assignments(sp, fixed):
        counts = [round(m * slots) for m in sp.mass]
        assert sum(counts) == slots and all(
            abs(c - m * slots) < 1e-9 for c, m in zip(counts, sp.mass)
        ), "oracle needs masses divisible by the slot size"
        base = []
        for i, c in enumerate(counts):
            base.extend([i] * c)
        return [tuple(base)] if fixed else sorted(set(itertools.permutations(base)))

    best = 1.0
    for a in assignments(sx, fixed=True):
        for b in assignments(sy, fixed=False):
            for keep_mask in range(1 << slots):
                kept = [t for t in range(slots) if keep_mask >> t & 1]
                eps_mass = 1.0 - len(kept) / slots
                disc = 0.0
                for s, t in itertools.combinations_with_replacement(kept, 2):
                    disc = max(
                        disc, abs(sx.dist[a[s], a[t]] - sy.dist[b[s], b[t]])
                    )
                best = min(best, max(eps_mass, disc))
    return best


class TestExactSmall:
    def test_self_distance_zero(self, rng):
        for sp in corpus(3, 4, sizes=(2, 3)):
            est = boxmetric.box_exact_small(sp, sp)
            assert est.upper == pytest.approx(0.0, abs=1e-12)
            assert est.certificate == "exact"

    def test_point_vs_two_point(self):
        one = core.space(["p"], [[0.0]], [1.0])
        est = boxmetric.box_exact_small(one, two_point(1.0))
        assert 0.0 < est.upper <= 0.5 + 1e-12
        assert est.upper == pytest.approx(0.5)

    def test_symmetry(self, rng):
        for na, nb in ((3, 3), (2, 3), (3, 4), (2, 6)):
            a = random_embedded_space(rng, na)
            b = random_embedded_space(rng, nb)
            assert boxmetric.box_exact_small(a, b).upper == pytest.approx(
                boxmetric.box_exact_small(b, a).upper, abs=1e-12
            )

    def test_triangle_inequality(self, rng):
        for _ in range(6):
            a = random_embedded_space(rng, 3)
            b = random_embedded_space(rng, 3)
            c = random_embedded_space(rng, 3)
            ab = boxmetric.box_exact_small(a, b).upper
            bc = boxmetric.box_exact_small(b, c).upper
            ac = boxmetric.box_exact_small(a, c).upper
            assert ac <= ab + bc + 1e-9

    def test_zero_iff_isomorphic(self, rng):
        for _ in range(6):
            a = random_embedded_space(rng, 3)
            perm = rng.permutation(3)
            b = core.space(
                [f"z{i}" for i in range(3)], a.dist[np.ix_(perm, perm)], a.mass[perm]
            )
            assert boxmetric.box_exact_small(a, b).upper < 1e-9
            c = random_embedded_space(rng, 3)
            iso = core.mm_isomorphic(a, c)
            tiny = boxmetric.box_exact_small(a, c).upper < 1e-9
            assert iso == tiny

    def test_witness_coupling_margins(self, rng):
        a = random_embedded_space(rng, 3)
        b = random_embedded_space(rng, 2)
        est = boxmetric.box_exact_small(a, b)
        if est.witness_coupling is not None:
            est.witness_coupling.check_margins(a.mass, b.mass, tol=1e-9)

    def test_size_limit(self, rng):
        one = core.space(["p"], [[0.0]], [1.0])
        a = random_embedded_space(rng, boxmetric.EXACT_MAX_CELLS + 1)
        for pair in ((one, a), (a, one)):
            with pytest.raises(core.SizeLimitError):
                boxmetric.box_exact_small(*pair)

    @pytest.mark.parametrize("ncells", [13, 14, 15, 16])
    def test_past_twelve_cells_matches_the_mask_loop(self, ncells):
        # 2^16 masks still fit the enumeration; every shape of the cell count
        rng = np.random.default_rng(ncells)
        for nx in [d for d in range(1, ncells + 1) if ncells % d == 0]:
            ny = ncells // nx
            pairs = [(random_embedded_space(rng, nx), random_shortest_path_space(rng, ny)),
                     (nearly_symmetric(rng, nx), nearly_symmetric(rng, ny)),
                     (line_space(nx), line_space(ny))]
            for sx, sy in pairs:
                assert boxmetric.box_exact_small(sx, sy).upper == mask_exact(sx, sy)

    def test_no_threshold_reaches_the_value(self):
        # one cell of mass 1 - 2^-52 (valid within the mass tolerance): at the
        # only threshold, 0, no clique has 1 - flow <= 0, so the value is the
        # least 1 - flow over the cliques there
        sx = core.space(["p"], [[0.0]], [1.0 - 2.0 ** -52])
        sy = core.space(["q"], [[0.0]], [1.0])
        est = boxmetric.box_exact_small(sx, sy)
        assert est.upper == mask_exact(sx, sy) == 2.0 ** -52

    def test_bounds_bracket_every_shape_to_the_limit(self):
        rng = np.random.default_rng(36)
        top = boxmetric.EXACT_MAX_CELLS
        for nx, ny in [(x, y) for x in range(1, top + 1) for y in range(1, top // x + 1)]:
            sx, sy = random_embedded_space(rng, nx), random_shortest_path_space(rng, ny)
            est = boxmetric.box_exact_small(sx, sy)
            assert boxmetric.box_exact_small(sy, sx).upper == est.upper
            assert boxmetric.box_lower(sx, sy) <= est.upper
            assert est.upper <= boxmetric._coupling_search_upper(sx, sy, 4, 0)[0] + 1e-12
            est.witness_coupling.check_margins(sx.mass, sy.mass, tol=1e-12)

    @pytest.mark.parametrize("kind", ["cocktail_party", "tied", "nearly_symmetric"])
    def test_pairs_at_the_limit(self, kind):
        """Pairs of 34-36 cells.  interval_grid(2, 1.7) against 17 equidistant
        points: at threshold 1 the only pairs of cells that are not joined
        share their Y point, a cocktail-party graph with 2^17 maximal
        cliques; its value is 15/17, for below 1 the cliques are pairs of
        cells without a shared point.  Two 6-point lines tie many
        discrepancies; 4 x 9 nearly symmetric spaces read each one below the
        diagonal."""
        rng = np.random.default_rng(17)
        if kind == "cocktail_party":
            sx = generators.interval_grid(2, 1.7)
            sy = core.space(list(range(17)), 1.0 - np.eye(17), np.full(17, 1 / 17))
        elif kind == "tied":
            sx, sy = line_space(6), line_space(6, rng.dirichlet(np.ones(6)))
        else:
            sx, sy = nearly_symmetric(rng, 4), nearly_symmetric(rng, 9)
        est = boxmetric.box_exact_small(sx, sy)
        if kind == "cocktail_party":
            assert est.upper == pytest.approx(15 / 17, abs=1e-12)
        assert boxmetric.box_exact_small(sy, sx).upper == pytest.approx(est.upper, abs=1e-12)
        assert boxmetric.box_lower(sx, sy) <= est.upper
        assert est.upper <= boxmetric._coupling_search_upper(sx, sy, 8, 0)[0] + 1e-12
        est.witness_coupling.check_margins(sx.mass, sy.mass, tol=1e-12)

    def test_interval_parameter_oracle_2x2(self):
        # masses on a quarter grid so the oracle granularity is lossless
        cases = [
            (two_point(1.0, 0.5), two_point(1.5, 0.5)),
            (two_point(1.0, 0.25), two_point(1.0, 0.5)),
            (two_point(2.0, 0.25), two_point(0.5, 0.75)),
        ]
        for a, b in cases:
            got = boxmetric.box_exact_small(a, b).upper
            want = grid_parameter_oracle(a, b, 4)
            assert got <= want + 1e-12
            # refine the grid: the oracle value approaches the coupling value
            want8 = grid_parameter_oracle(a, b, 8)
            assert got <= want8 + 1e-12
            assert want8 <= want + 1e-12
            assert abs(got - want8) <= 0.130


class TestUpper:
    def test_identity(self, rng):
        sp = random_embedded_space(rng, 5)
        assert boxmetric.box_upper(sp, sp).upper == pytest.approx(0.0, abs=1e-12)

    def test_identity_of_a_trimmed_coupling(self):
        # 300 x 300 cells: the sorted-mass coupling is the diagonal, 300
        # cells, more than the search keeps; only the keep-every-cell score
        # taken before trimming reads 0
        sp = generators.gaussian_sample(300, 2, 1.0, seed=4)
        assert boxmetric.box_upper(sp, sp).upper == 0.0

    def test_mass_perturbation_bound(self, rng):
        # same metric, different masses: upper at most four half-sum TVs
        sp = random_embedded_space(rng, 5)
        other_mass = rng.dirichlet(np.ones(5))
        other = core.space(sp.points, sp.dist, other_mass)
        tv = core.total_variation(sp.mass, other_mass)
        assert boxmetric.box_upper(sp, other).upper <= 4.0 * tv + 1e-9

    def test_metric_perturbation(self):
        a = two_point(1.0)
        b = two_point(1.05)
        assert boxmetric.box_upper(a, b).upper <= 0.05 + 1e-12

    def test_scaling_continuity(self, rng):
        sp = random_embedded_space(rng, 5)
        vals = [boxmetric.box_upper(core.scale(sp, t), sp).upper for t in (2.0, 1.5, 1.1, 1.01)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.02 * sp.diam() + 1e-9


class TestHeuristicSearchPath:
    def test_search_never_beats_exact(self, rng):
        # the coupling-search path is only used beyond the exact size, but it
        # must stay a valid upper bound wherever the exact value is available
        for na, nb in ((2, 3), (3, 3), (3, 4), (2, 5)):
            for _ in range(3):
                a = random_embedded_space(rng, na)
                b = random_embedded_space(rng, nb)
                heur, _ = boxmetric._coupling_search_upper(a, b, restarts=16, seed=0)
                exact = boxmetric.box_exact_small(a, b).upper
                assert heur >= exact - 1e-9

    def test_search_deterministic(self, rng):
        a = random_embedded_space(rng, 4)
        b = random_embedded_space(rng, 5)
        v1, _ = boxmetric._coupling_search_upper(a, b, restarts=16, seed=3)
        v2, _ = boxmetric._coupling_search_upper(a, b, restarts=16, seed=3)
        assert v1 == v2


class TestLower:
    def test_identical_spaces(self, rng):
        sp = random_embedded_space(rng, 4)
        assert boxmetric.box_lower(sp, sp) == pytest.approx(0.0, abs=1e-9)

    def test_lower_le_upper(self, rng):
        for _ in range(6):
            a = random_embedded_space(rng, 4)
            b = random_embedded_space(rng, 5)
            assert boxmetric.box_lower(a, b) <= boxmetric.box_upper(a, b).upper + 1e-9

    def test_lower_le_exact_on_tiny(self, rng):
        for _ in range(8):
            a = random_embedded_space(rng, 3)
            b = random_embedded_space(rng, 3)
            assert boxmetric.box_lower(a, b) <= boxmetric.box_exact_small(a, b).upper + 1e-9

    @pytest.mark.parametrize("k", [-70, -62, 0, 20])
    def test_lower_le_exact_at_every_scale(self, k):
        # the Levy bisection ends at the smallest feasible float, so no fixed
        # resolution lifts the lower bound over the exact value of tiny spaces
        a, b = (core.scale(sp, 2.0 ** k) for sp in (two_point(), two_point(3.0)))
        assert boxmetric.box_lower(a, b) <= boxmetric.box_exact_small(a, b).upper

    def test_chain_lower_exact_upper(self, rng):
        for _ in range(6):
            a = random_embedded_space(rng, 2)
            b = random_embedded_space(rng, 3)
            lo = boxmetric.box_lower(a, b)
            ex = boxmetric.box_exact_small(a, b).upper
            up = boxmetric.box_upper(a, b).upper
            assert lo <= ex + 1e-9 and ex <= up + 1e-9


class TestConvergence:
    def test_constant_sequence(self, rng):
        sp = random_embedded_space(rng, 3)
        assert boxmetric.box_converges([sp] * 5, sp, tol=1e-6)

    def test_mass_perturbation_sequence(self):
        limit = two_point(1.0)
        seq = [two_point(1.0, 0.5 + 1.0 / n) for n in (4, 8, 16, 32, 64, 128)]
        assert boxmetric.box_converges(seq, limit, tol=0.3)

    def test_scale_sequence(self, rng):
        sp = random_embedded_space(rng, 3)
        seq = [core.scale(sp, 1.0 + 1.0 / n) for n in (2, 4, 8, 16, 32)]
        assert boxmetric.box_converges(seq, sp, tol=0.5 * sp.diam() + 0.01)

    def test_divergent_sequence_refused(self, rng):
        sp = random_embedded_space(rng, 3)
        seq = [core.scale(sp, 1.0 + n) for n in range(5)]
        assert not boxmetric.box_converges(seq, sp, tol=0.05)

    def test_empty_sequence_rejected(self, rng):
        sp = random_embedded_space(rng, 3)
        with pytest.raises(core.InputError):
            boxmetric.box_converges([], sp, tol=0.1)


class TestMaxflowWitness:
    def test_kept_mass_is_the_max_flow(self):
        # the min-cut enumeration of loop_maxflow is an independent oracle
        rng = np.random.default_rng(2024)
        # every shape of at most 12 cells, 1 x k and k x 1 included
        for nx, ny in [(a, b) for a in range(1, 13) for b in range(1, 12 // a + 1)]:
            ncells = nx * ny
            pairs = [(np.full(nx, 1.0 / nx), np.full(ny, 1.0 / ny))]  # ties
            pairs += [(rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))) for _ in range(3)]
            for mx, my in pairs:
                kept = loop_maxflow(1 << ncells, nx, ny, mx, my)
                for mask in rng.integers(0, 1 << ncells, size=64):
                    cells = [(c // ny, c % ny) for c in range(ncells) if mask >> c & 1]
                    flow = boxmetric._maxflow_coupling(cells, mx, my)
                    assert sum(flow[c] for c in cells) == pytest.approx(kept[mask], abs=1e-12)
                    assert flow.min() >= 0.0
                    assert np.abs(flow.sum(axis=1) - mx).max() <= 1e-12
                    assert np.abs(flow.sum(axis=0) - my).max() <= 1e-12


def scalar_levy(vals_a, w_a, vals_b, w_b, tol=1e-12):
    """Reference Levy distance: the same bisection with one scalar CDF lookup
    per support value."""
    cdf_a = np.cumsum(w_a)
    cdf_b = np.cumsum(w_b)

    def cdf(vals, cdfv, x):
        i = np.searchsorted(vals, x, side="right") - 1
        return 0.0 if i < 0 else float(cdfv[i])

    def feasible(eps):
        for x in vals_a:
            if cdf(vals_a, cdf_a, x) > cdf(vals_b, cdf_b, x + eps) + eps + tol:
                return False
        for x in vals_b:
            if cdf(vals_b, cdf_b, x) > cdf(vals_a, cdf_a, x + eps) + eps + tol:
                return False
        return True

    if feasible(0.0):
        return 0.0
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(np.int64(mid).view(np.float64)):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def submatrix_selection(disc_sub, masses, rng, restarts):
    """Reference kept-cell search that rebuilds the kept submatrix for every
    greedy step and every 2-opt candidate."""

    def value(keep):
        kept_mass = float(masses[keep].sum()) if keep.any() else 0.0
        md = float(disc_sub[np.ix_(keep, keep)].max()) if keep.any() else 0.0
        return max(md, 1.0 - kept_mass)

    m = len(masses)
    best = 1.0
    orders = [None] + [rng.permutation(m) for _ in range(restarts - 1)]
    for order in orders:
        keep = np.ones(m, dtype=bool)
        best = min(best, value(keep))
        while keep.any():
            idx = np.nonzero(keep)[0]
            peak = disc_sub[np.ix_(idx, idx)].max(axis=1)
            if order is None:
                key = peak * 1e6 - masses[idx] * 1e-6
            else:
                key = peak + np.argsort(order[idx]).astype(float) * 1e-9
            keep[idx[int(np.argmax(key))]] = False
            best = min(best, value(keep))
        keep = np.ones(m, dtype=bool)
        val = value(keep)
        for _ in range(4 * m):
            improved = False
            for c in list(np.nonzero(keep)[0]) + list(np.nonzero(~keep)[0]):
                keep[c] = not keep[c]
                v = value(keep)
                if v < val - 1e-15:
                    val, improved = v, True
                    break
                keep[c] = not keep[c]
            best = min(best, val)
            if not improved:
                break
    return best


def loop_maxdisc(disc, ncells):
    """Largest discrepancy disc[i, k], k < i, among the cells of every mask:
    one max-fold of row i of ``disc`` per cell i, written into the masks
    whose highest cell is i."""
    md = np.zeros(1 << ncells)
    for i in range(ncells):
        step = 1 << i
        row = subset_fold(np.maximum, disc[i, :])
        md = md.reshape(-1, 2 * step)
        row = row.reshape(-1, 2 * step)
        md[:, step:] = np.maximum(md[:, :step], row[:, :step])
        md = md.ravel()
    return md


def loop_maxflow(masks_count, nx, ny, mass_x, mass_y):
    """Largest kept mass of every cell mask as its least vertex cover: a
    Python loop over the subsets of the smaller side, summing its cut and
    or-ing its reach one point at a time."""
    masks = np.arange(masks_count, dtype=np.int64)
    kept = ((masks[:, None] >> np.arange(nx * ny)) & 1).reshape(-1, nx, ny)
    if nx > ny:
        kept, nx, ny, mass_x, mass_y = kept.transpose(0, 2, 1), ny, nx, mass_y, mass_x
    reached = (kept @ (1 << np.arange(ny))).T
    other_sum = subset_fold(np.add, mass_y)
    best = np.full(masks_count, np.inf)
    for a_mask in range(1 << nx):
        cut = sum(mass_x[i] for i in range(nx) if not a_mask >> i & 1)
        reach = np.zeros(masks_count, dtype=np.int64)
        for i in range(nx):
            if a_mask >> i & 1:
                reach |= reached[i]
        best = np.minimum(best, cut + other_sum[reach])
    return np.minimum(best, 1.0)


def nearly_symmetric(rng, n):
    """Random distances in [1, 1.9] whose matrix is asymmetric by up to 1e-12,
    within the validation tolerance."""
    raw = 1.0 + 0.9 * rng.random((n, n))
    D = np.triu(raw, 1) + np.triu(raw, 1).T + np.triu(rng.uniform(0, 1e-12, (n, n)), 1)
    sp = core.FinitePmSpace(tuple(range(n)), D, rng.dirichlet(np.ones(n)))
    assert core.validate(sp) is None
    return sp


def line_space(n, mass=None):
    """n points at unit spacing on a line, of equal masses unless given: many
    equal distances, so many equal discrepancies."""
    pos = np.arange(n, dtype=float)
    return core.space(list(range(n)), np.abs(pos[:, None] - pos),
                      np.full(n, 1.0 / n) if mass is None else mass)


def mask_exact(sx, sy):
    """The exact box distance by enumeration: the least max(largest
    discrepancy, 1 - kept mass) over all 2^cells kept-cell masks."""
    ncells = sx.n * sy.n
    disc = boxmetric._cell_discrepancy(sx, sy, np.arange(ncells))
    kept = loop_maxflow(1 << ncells, sx.n, sy.n, sx.mass, sy.mass)
    return float(np.maximum(loop_maxdisc(disc, ncells), 1.0 - kept).min())


def searched_upper(sx, sy, restarts, seed):
    """box_upper's value and witness joint beyond EXACT_MAX_CELLS; within it,
    where box_upper returns the exact value, the value and best coupling of
    its coupling search, after checking box_upper == exact <= that value."""
    if sx.n * sy.n > boxmetric.EXACT_MAX_CELLS:
        est = boxmetric.box_upper(sx, sy, restarts=restarts, seed=seed)
        return est.upper, est.witness_coupling.joint
    upper, plan = boxmetric._coupling_search_upper(sx, sy, restarts, seed)
    exact = boxmetric.box_exact_small(sx, sy).upper
    assert boxmetric.box_upper(sx, sy, restarts=restarts, seed=seed).upper == exact <= upper
    return upper, plan


BOX_UPPER_64 = """
import numpy as np
from mmslab import boxmetric, generators
sx = generators.gaussian_sample(64, 3, 1.0, seed=1)
sy = generators.gaussian_sample(64, 2, 1.0, seed=2)
upper = boxmetric.box_upper(sx, sy, restarts=8).upper
full = boxmetric._max_discrepancy(sx, sy, np.arange(4096))
# VmHWM is this process's own peak; ru_maxrss would carry over the parent's
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(hwm_kb // 1024, repr(upper), repr(full))
"""


class TestSearchKernelsPinned:
    """The vectorised kernels return the very floats of their reference loops."""

    def test_levy_matches_scalar_reference(self):
        rng = np.random.default_rng(77)
        cases = 0
        for k in range(120):
            n1, n2 = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            make = random_embedded_space if k % 2 else random_shortest_path_space
            scale = (0.01, 1.0, 30.0)[k % 3]
            sx, sy = make(rng, n1, scale=scale), make(rng, n2, scale=scale)
            da, db = boxmetric._distance_distribution(sx), boxmetric._distance_distribution(sy)
            assert boxmetric._levy(*da, *db) == scalar_levy(*da, *db)
            assert boxmetric._levy(*db, *da) == scalar_levy(*db, *da)
            same = boxmetric._levy(*da, *da)
            assert same == scalar_levy(*da, *da) == 0.0
            cases += 3
        assert cases >= 200

    @pytest.mark.parametrize("ties", [True, False])
    def test_selection_matches_submatrix_reference(self, ties):
        # the reference repeats the 2-opt search per restart, which takes
        # seconds at m = 256 without ties, so the large m get a few restarts
        big = {79: range(1, 9), 128: (2, 5), 256: (1, 8) if ties else (1,)}
        rng = np.random.default_rng(5 if ties else 6)
        for m in (1, 2, 3, 5, 8, 13, 21, 34, 55, 70, 79, 128, 256):
            raw = rng.integers(0, 4, size=(m, m)).astype(float) if ties else rng.random((m, m))
            disc = np.triu(raw, 1) + np.triu(raw, 1).T
            masses = np.full(m, 1.0 / m) if ties else rng.dirichlet(np.ones(m))
            if ties:
                disc *= 0.125
            for restarts in big.get(m, (3 if m > 30 else 6,)):
                gen_got, gen_want = np.random.default_rng(m), np.random.default_rng(m)
                got = boxmetric._optimize_selection(disc, masses, gen_got, restarts)
                want = submatrix_selection(disc, masses, gen_want, restarts)
                assert got == want
                assert gen_got.bit_generator.state == gen_want.bit_generator.state

    def test_selection_matches_reference_on_skewed_masses(self):
        # skewed masses and discrepancies that grow with the gap between two
        # positions make 2-opt moves that add a cell win by the last bit of
        # the kept mass, which must be summed in ascending index order
        rng = np.random.default_rng(7)
        for case in range(240):
            m = int(rng.integers(3, 24))
            if case % 2:
                raw = rng.random((m, m)) ** 4
            else:
                pts = rng.random(m)
                raw = np.abs(pts[:, None] - pts) * rng.uniform(0.5, 1.5)
            disc = np.triu(raw, 1) + np.triu(raw, 1).T
            masses = rng.dirichlet(np.full(m, (0.05, 0.3, 1.0, 5.0)[case % 4]))
            gen_got, gen_want = np.random.default_rng(case), np.random.default_rng(case)
            got = boxmetric._optimize_selection(disc, masses, gen_got, 2)
            want = submatrix_selection(disc, masses, gen_want, 2)
            assert got == want
            assert gen_got.bit_generator.state == gen_want.bit_generator.state

    def test_selection_empties_and_refills_the_kept_cells(self):
        # spaces whose distances pass 1e12 validate with diagonal entries
        # above 1, so one kept cell can score above 1 alone and the 2-opt
        # drops every cell before it adds one back
        disc = np.diag([0.0, 2.0]) + np.array([[0.0, 10.0], [10.0, 0.0]])
        masses = np.array([0.4, 0.6])
        got = boxmetric._optimize_selection(disc, masses, np.random.default_rng(0), 2)
        assert got == submatrix_selection(disc, masses, np.random.default_rng(0), 2) == 0.6

    def test_exact_matches_the_mask_loop(self):
        # box_exact_small against the enumeration of every kept-cell mask on
        # every shape of at most 12 cells, for symmetric, nearly symmetric
        # and tied discrepancies
        rng = np.random.default_rng(25)
        for nx, ny in [(x, y) for x in range(1, 13) for y in range(1, 12 // x + 1)]:
            pairs = [(random_embedded_space(rng, nx), random_shortest_path_space(rng, ny)),
                     (nearly_symmetric(rng, nx), nearly_symmetric(rng, ny)),
                     (line_space(nx), line_space(ny, rng.dirichlet(np.ones(ny))))]
            for sx, sy in pairs:
                assert boxmetric.box_exact_small(sx, sy).upper == mask_exact(sx, sy)

    @pytest.mark.parametrize("m", [5, 39, 256])
    def test_two_opt_work_independent_of_restarts(self, m, monkeypatch):
        # the 2-opt search reads neither the restart order nor the RNG, so
        # extra restarts add no 2-opt round
        rng = np.random.default_rng(m)
        raw = rng.random((m, m))
        disc = np.triu(raw, 1) + np.triu(raw, 1).T
        masses = rng.dirichlet(np.ones(m))
        calls = []
        flips = boxmetric._first_improving_flip

        def counted(*args):
            calls.append(1)
            return flips(*args)

        monkeypatch.setattr(boxmetric, "_first_improving_flip", counted)

        def rounds(restarts):
            calls.clear()
            boxmetric._optimize_selection(disc, masses, np.random.default_rng(0), restarts)
            return len(calls)

        one = rounds(1)
        assert one >= 1
        assert rounds(2) == rounds(8) == one

    @pytest.mark.parametrize("ties", [True, False])
    def test_blocked_full_score_matches_one_matrix(self, ties):
        rng = np.random.default_rng(41)

        def line(n):  # integer distances: many equal discrepancies
            return core.space([f"p{i}" for i in range(n)],
                              np.abs(np.arange(n)[:, None] - np.arange(n)).astype(float),
                              rng.dirichlet(np.ones(n)))

        make = line if ties else (lambda n: random_embedded_space(rng, n))
        # product couplings of 17 x 16 (one partial last block) and 64 x 64
        # cells, then sparse couplings on 64 x 64 cells
        cases = [(make(17), make(16), np.arange(272)), (make(64), make(64), np.arange(4096))]
        cases += [(*cases[1][:2], np.sort(rng.choice(4096, size, replace=False)))
                  for size in (257, 300, 1000, 2000)]
        for sx, sy, nz in cases:
            disc = boxmetric._cell_discrepancy(sx, sy, nz)
            assert boxmetric._max_discrepancy(sx, sy, nz) == disc.max()
            # the largest pair moved into the last block
            pair = list(np.unravel_index(np.argmax(disc), disc.shape))
            moved = np.concatenate([np.delete(nz, pair), nz[pair]])
            assert boxmetric._max_discrepancy(sx, sy, moved) == disc.max()

    def test_full_score_builds_no_cell_matrix(self):
        """Two 64-point samples have 4096 coupling cells; scoring all of them
        from one 4096 x 4096 discrepancy matrix and its two gathers peaked at
        322 MB.  The blocked score of all 4096 cells stays under 100 MB with
        the one-matrix value, and so does ``box_upper`` on the pair, whose
        monotone couplings have at most 127 cells, with its recorded value."""
        proc = subprocess.run([sys.executable, "-c", BOX_UPPER_64], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rss_mb, upper, full = proc.stdout.split()
        assert int(rss_mb) < 100
        assert upper == "0.8004490274623502"
        assert full == "6.30603224559543"

    # box_upper(restarts=8) and box_lower on pairs drawn from default_rng(2024),
    # recorded before the search kernels were vectorised; box_upper has
    # returned the exact value on the pairs of at most EXACT_MAX_CELLS cells
    # since, so there the recorded value is its coupling search's
    RECORDED = [
        (0.3296772944092218, 0.08577996400765152),
        (0.3277334775295824, 0.08723898066638894),
        (0.682369446534612, 0.18767442961210395),
        (0.360663457432124, 0.045905212989176575),
        (0.42389015924106255, 0.03463187218348766),
        (0.48595805917089585, 0.02542376135793814),
    ]

    def test_box_values_unchanged(self):
        rng = np.random.default_rng(2024)
        emb, spt = random_embedded_space, random_shortest_path_space
        pairs = [
            (emb(rng, 4), emb(rng, 5)),
            (spt(rng, 5), emb(rng, 6)),
            (emb(rng, 3, scale=30.0), spt(rng, 8, scale=30.0)),
            (spt(rng, 7), spt(rng, 7)),
            (emb(rng, 12), emb(rng, 10)),
            (emb(rng, 20), emb(rng, 20)),
        ]
        got = [(searched_upper(a, b, 8, 0)[0], boxmetric.box_lower(a, b)) for a, b in pairs]
        assert got == self.RECORDED

    # box_upper's value and witness digest on pairs drawn from
    # default_rng(314), from 3 x 5 to 40 x 40 cells, recorded while the
    # search still scored the product coupling (its coupling search's on
    # the pairs of at most EXACT_MAX_CELLS cells, as above)
    SHAPES = [(3, 5), (4, 4), (5, 3), (4, 6), (6, 6), (5, 9), (8, 7), (9, 9), (10, 12), (12, 12),
              (14, 11), (16, 16), (18, 20), (20, 20), (24, 22), (25, 25), (28, 30), (30, 30),
              (32, 34), (35, 35), (36, 40), (40, 38), (40, 40), (40, 40)]
    WITNESSES = [
        (0.35867179265079546, "766124dc0c547d65"),
        (0.36164128020762376, "82fffbfd8219ba02"),
        (0.3580086396956315, "6d45591b92af6224"),
        (0.42617264968286706, "0e0e96b272955bed"),
        (0.47721925210890903, "e2fda36727e762a2"),
        (0.31431184555616204, "faf6ca105f4b6f73"),
        (0.4260345769646443, "0c3b799fd99572bb"),
        (0.3762607529036286, "dfd46fe134c1916f"),
        (0.47325775051205676, "28fcefe74ae6a7df"),
        (0.4463793345904532, "68852f16d9907bfd"),
        (0.4149447974767162, "edc4033c18f6ead9"),
        (0.41086347417975677, "1885bd50c59116e8"),
        (0.384571004212048, "45646f45673a1d70"),
        (0.4709693432580375, "fc534298d5fe1665"),
        (0.38015009993308324, "ad05966826d52e83"),
        (0.3837835506204583, "627d43788d0fbae3"),
        (0.47109127802292206, "7112daf82a54613a"),
        (0.48326657100077586, "ef0efca7dec05190"),
        (0.4954463658446169, "17cd508d47ae7bcd"),
        (0.4245330634350998, "6ec88cda21e85545"),
        (0.5279356139755254, "52df57f674f63c0a"),
        (0.4595464402520184, "0bbc7d1bc25ba43e"),
        (0.4951944586179844, "37c187ef1831fe6f"),
        (0.40476820924690604, "c3525e04d01ae292"),
    ]

    def test_box_upper_witnesses_unchanged(self):
        rng = np.random.default_rng(314)
        kinds = (random_embedded_space, random_shortest_path_space)
        got = []
        for k, (nx, ny) in enumerate(self.SHAPES):
            sx, sy = kinds[k % 2](rng, nx), kinds[k // 2 % 2](rng, ny)
            restarts, seed = (8, 32)[k // 4 % 2], k % 3
            upper, joint = searched_upper(sx, sy, restarts, seed)
            got.append((upper, hashlib.sha256(joint.tobytes()).hexdigest()[:16]))
        assert got == self.WITNESSES
