"""Concentration invariants of finite spaces: partial diameter, observable
diameter, separation distance with general (possibly negative, implicitly
zero-tailed) threshold sequences, and the variance family.

Exact modes are reserved for small supports.  The observable diameter is
computed exactly by maximising, over each value ordering, the smallest
admissible-window width with a linear program; variance-type functionals are
convex in the observable, so their exact mode enumerates the vertices of the
1-Lipschitz polytope.  Heuristic modes run seeded multi-start coordinate
ascent and always return feasible (hence lower) values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import erfinv, linprog
from .core import (
    FinitePmSpace,
    InputError,
    SizeLimitError,
    REAL_TOL,
    VALIDATION_TOL,
)

EXACT_MAX_POINTS = 6


# ---------------------------------------------------------------------------
# kappa sequences


@dataclass(frozen=True)
class KappaSequence:
    """Finite stored prefix of a real sequence with an implicit zero tail."""

    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(float(k) for k in self.entries))

    def __getitem__(self, i):
        return self.entries[i] if 0 <= i < len(self.entries) else 0.0

    def positive(self):
        return tuple(k for k in self.entries if k > 0)

    def shuffled(self, perm):
        return KappaSequence(tuple(self.entries[p] for p in perm))

    def minus(self, eps):
        return KappaSequence(tuple(k - eps for k in self.entries))


def interleave(kappa: KappaSequence, lam: KappaSequence):
    """Merge two sequences into one; the order is irrelevant for separation."""
    return KappaSequence(kappa.entries + lam.entries)


def _as_kappa(kappa):
    if isinstance(kappa, KappaSequence):
        return kappa
    if isinstance(kappa, (int, float)):
        return KappaSequence((float(kappa),))
    return KappaSequence(tuple(kappa))


# ---------------------------------------------------------------------------
# partial diameter


def partial_diameter(values, masses, kappa):
    """Smallest diameter of a value set carrying mass >= 1 - kappa.

    Exact: sort the values and slide a two-pointer window; an optimal set can
    always be taken as a contiguous run of sorted support values.
    """
    need = 1.0 - float(kappa)
    if need <= VALIDATION_TOL:
        return 0.0
    v = np.asarray(values, dtype=float)
    w = np.asarray(masses, dtype=float)
    if v.shape != w.shape:
        raise InputError("values and masses must have the same length")
    order = np.argsort(v, kind="stable")
    wins = _minimal_windows(w[order], need)
    v = v[order].tolist()
    return min((v[j] - v[i] for i, j in wins), default=v[-1] - v[0])


def obs_diam_projection_estimate(sp: FinitePmSpace, kappa, projections=None):
    """Lower estimate of the observable diameter from coordinate projections.

    Projections are 1-Lipschitz for Euclidean sample spaces; the estimate is
    the largest partial diameter among them.  Certificate: estimate.
    """
    if projections is None:
        if sp.coords is None:
            raise InputError("space carries no coordinates; pass projections explicitly")
        projections = np.atleast_2d(sp.coords).reshape(sp.n, -1).T
    kappa = _kappa_fraction(kappa)
    best = 0.0
    for proj in projections:
        best = max(best, partial_diameter(proj, sp.mass, kappa))
    return best


# ---------------------------------------------------------------------------
# observable diameter


def _kappa_fraction(kappa):
    """kappa as a float; an observable diameter needs a finite 0 <= kappa < 1."""
    kappa = float(kappa)
    if not 0.0 <= kappa < 1.0:
        raise InputError(f"kappa must be a finite number in [0, 1), got {kappa}")
    return kappa


def _minimal_windows(masses_sorted, need):
    """Index pairs (l, r) of inclusion-minimal contiguous windows with mass >= need."""
    n = len(masses_sorted)
    csum = np.concatenate(([0.0], np.cumsum(masses_sorted))).tolist()
    short = need - VALIDATION_TOL
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


def obs_diam(sp: FinitePmSpace, kappa, mode="exact", starts=64, seed=0):
    """Observable diameter sup over 1-Lipschitz f of the partial diameter of f.

    Exact mode (n <= 6): for every ordering pi of the support, the partial
    diameter is the minimum of the linear widths of admissible windows, so the
    supremum over the order region is a linear program; the result is the
    maximum over orderings.  Heuristic mode: seeded multi-start coordinate
    ascent from distance anchors; always a valid lower value.
    """
    kappa = _kappa_fraction(kappa)
    if sp.n == 1 or 1.0 - kappa <= VALIDATION_TOL:
        return 0.0
    if mode == "exact":
        if sp.n > EXACT_MAX_POINTS:
            raise SizeLimitError(f"exact obs_diam is limited to {EXACT_MAX_POINTS} points")
        return _obs_diam_exact(sp, kappa)
    if mode == "heuristic":
        starts, _ = _effort_budget(sp.n, starts)
        return _coordinate_ascent(sp, starts, seed, 50, 1e-13,
                                  *_recompute(lambda f: partial_diameter(f, sp.mass, kappa)))
    raise InputError(f"unknown mode {mode!r}")


def _obs_diam_exact(sp, kappa):
    n = sp.n
    need = 1.0 - kappa
    best = 0.0
    # Variables: f_0..f_{n-1}, t.  Maximise t subject to
    #   t <= f[pi[r]] - f[pi[l]] for each minimal admissible window,
    #   ordering constraints, Lipschitz constraints, f[pi[0]] = 0.
    e = np.eye(n + 1)
    i, j = np.triu_indices(n, 1)
    lip = np.stack([e[i] - e[j], e[j] - e[i]], axis=1).reshape(-1, n + 1)
    lip_b = np.repeat(sp.dist[i, j], 2)
    c = [0.0] * n + [-1.0]
    bounds = [(None, None)] * n + [(0.0, None)]
    for pi in itertools.permutations(range(n)):
        if pi[0] > pi[-1]:
            continue  # f -> -f maps this ordering onto its reversal
        wins = _minimal_windows(sp.mass[list(pi)], need)
        if not wins:
            continue
        p = np.array(pi)
        l, r = np.array(wins).T
        A_ub = np.vstack([e[n] - e[p[r]] + e[p[l]], e[p[:-1]] - e[p[1:]], lip])
        b_ub = np.concatenate([np.zeros(len(wins) + n - 1), lip_b])
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=e[p[:1]], b_eq=[0.0], bounds=bounds, method="highs"
        )
        if res.status == 0:
            best = max(best, -res.fun)
    return best


def _lip_interval(D, f, i):
    """Feasible range for f[i] with the other coordinates fixed."""
    lo = f - D[i]
    hi = f + D[i]
    lo[i], hi[i] = -math.inf, math.inf
    return float(lo.max()), float(hi.min())


def _anchor_starts(sp, rng, starts):
    n = sp.n
    pool = []
    for i in range(n):
        if len(pool) >= starts:
            return pool
        pool.append(sp.dist[i].copy())
    for i in range(n):
        if len(pool) >= starts:
            return pool
        pool.append(-sp.dist[i])
    while len(pool) < starts:
        # random Lipschitz function: min-extension of random anchor values
        k = int(rng.integers(1, min(n, 8) + 1))
        idx = rng.choice(n, size=k, replace=False)
        vals = rng.uniform(-sp.diam(), sp.diam(), size=k)
        pool.append(np.min(vals[None, :] + sp.dist[:, idx], axis=1))
    return pool


def _effort_budget(n, starts):
    """Multi-start budgets that keep the quadratic sweeps tractable: beyond a
    few hundred points the start count shrinks so a call stays near the cost
    of the reference 64-start search on 256 points."""
    if n <= 256:
        return starts, 200
    scale = max(1, (n * n) // (256 * 256))
    return max(2, starts // scale), max(8, 200 // scale)


def _coordinate_ascent(sp, starts, seed, sweeps, tol, start, move):
    """Best value of seeded multi-start coordinate ascent over 1-Lipschitz f.

    ``start(f)`` returns ``(value, state)`` for a start f and
    ``move(state, f, i, c)`` the pair for f with f[i] moved to c, leaving f as
    it was.  Each sweep tries, per coordinate, the low then the high end of
    its feasible interval and keeps a candidate only when it beats the best
    so far by more than ``tol``; a move whose pick equals f[i] changes
    nothing, so rounding in an incremental ``move`` never counts as progress.
    """
    rng = np.random.default_rng(seed)
    D = sp.dist
    best = 0.0
    for f in _anchor_starts(sp, rng, starts):
        cur, state = start(f)
        for _ in range(sweeps):
            improved = False
            for i in range(sp.n):
                pick, pick_val, pick_state = f[i], cur, state
                for cand in _lip_interval(D, f, i):
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


def _recompute(objective):
    """``start`` and ``move`` for ``_coordinate_ascent`` that evaluate
    ``objective`` in full at every candidate."""

    def move(state, f, i, c):
        old, f[i] = f[i], c
        val = objective(f)
        f[i] = old
        return val, None

    return (lambda f: (objective(f), None)), move


def gaussian_obs_diam(sigma, kappa):
    """Observable diameter 2 sigma PsiInv((1-kappa)/2) of a Gaussian observable,
    where Psi(t) is the centred normal integral on [0, t], so that
    PsiInv(y) = sqrt(2) erfinv(2 y)."""
    if not sigma > 0:
        raise InputError("sigma must be positive")
    kappa = float(kappa)
    if not 0.0 < kappa < 1.0:
        raise InputError("kappa must lie in (0, 1)")
    y = (1.0 - kappa) / 2.0
    if y >= 0.5:
        raise InputError("Psi inverse needs an argument in [0, 1/2)")
    return 2.0 * sigma * math.sqrt(2.0) * float(erfinv(2.0 * y))


def gaussian_vs_uniform_crossover(sigma, slack_tol=1e-3):
    """Find kappa in (0,1) where the Gaussian observable diameter drops below
    the uniform one, i.e. 2 sigma PsiInv((1-kappa)/2) < 1 - kappa.

    Returns (kappa, slack) maximising the gap via bisection for the sign
    change followed by a ternary-search refinement.  Only exists when
    sigma < 1/sqrt(2 pi).
    """
    if not 0 < sigma:
        raise InputError("sigma must be positive")

    def gap(k):
        return (1.0 - k) - gaussian_obs_diam(sigma, k)

    lo, hi = 1e-9, 1.0 - 1e-9
    if gap(hi) <= 0 and gap(0.5) <= 0:
        # scan for any positive gap
        ks = np.linspace(1e-6, 1 - 1e-6, 4097)
        vals = [gap(k) for k in ks]
        i = int(np.argmax(vals))
        if vals[i] <= 0:
            raise InputError(f"no crossover: sigma={sigma} >= 1/sqrt(2 pi)")
        lo, hi = ks[max(0, i - 1)], ks[min(len(ks) - 1, i + 1)]
    else:
        # gap is negative near 0 and positive somewhere; bisect for the root
        a, b = lo, hi
        if gap(b) <= 0:
            b = 0.5
        while gap(a) > 0:
            a /= 2
        for _ in range(200):
            mid = 0.5 * (a + b)
            if gap(mid) > 0:
                b = mid
            else:
                a = mid
        lo, hi = b, 1.0 - 1e-12
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gap(m1) < gap(m2):
            lo = m1
        else:
            hi = m2
    k = 0.5 * (lo + hi)
    g = gap(k)
    if g < slack_tol:
        raise InputError(f"crossover slack {g} below {slack_tol}")
    return k, g


# ---------------------------------------------------------------------------
# separation distance


@dataclass(frozen=True)
class SeparationConfig:
    """Witness for a separation value: threshold and component-to-bin groups."""

    threshold: float
    groups: tuple = ()


def separation(sp: FinitePmSpace, kappa, max_positive=12, max_points=20):
    """Exact separation distance for a general threshold sequence.

    Nonpositive entries are dropped (their sets may be empty and empty sets
    are infinitely far).  With at most one positive entry the value is
    infinite.  Otherwise candidate thresholds are the pairwise distances,
    scanned downward; feasibility at a threshold assigns every point to one
    bin or to none, where pairs closer than the threshold may not straddle
    two distinct bins.  Discarding points is essential: a bin need not be a
    union of connected components of the sub-threshold graph.
    """
    kappa = _as_kappa(kappa)
    if not all(math.isfinite(k) for k in kappa.entries):
        raise InputError("kappa entries must be finite")
    pos = sorted(kappa.positive(), reverse=True)
    if len(pos) > max_positive:
        raise SizeLimitError(f"separation is limited to {max_positive} positive entries")
    if len(pos) <= 1:
        if pos and pos[0] > 1.0 + VALIDATION_TOL:
            return 0.0  # no admissible family at all
        return math.inf
    if sum(pos) > 1.0 + VALIDATION_TOL:
        return 0.0
    n = sp.n
    if n > max_points:
        raise SizeLimitError(f"separation is limited to {max_points} points")
    cands = np.unique(sp.dist[np.triu_indices(n, 1)]) if n > 1 else np.array([])
    for delta in cands[::-1]:
        if _separation_feasible(sp, pos, float(delta)):
            return float(delta)
    return 0.0


def separation_witness(sp: FinitePmSpace, kappa):
    """Separation value together with a witnessing configuration (threshold
    plus the point groups realising each positive requirement)."""
    val = separation(sp, kappa)
    pos = sorted(_as_kappa(kappa).positive(), reverse=True)
    if math.isinf(val):
        return val, SeparationConfig(val, (tuple(range(sp.n)),) if pos else ())
    if val <= 0.0:
        return val, SeparationConfig(0.0, ())
    groups = _separation_feasible(sp, pos, val, want_members=True)
    return val, SeparationConfig(val, tuple(tuple(g) for g in groups))


def _separation_feasible(sp: FinitePmSpace, needs, delta, want_members=False):
    conflict = sp.dist < delta - VALIDATION_TOL * max(1.0, delta)
    np.fill_diagonal(conflict, False)
    if not conflict.any() and not want_members:
        return _bins_feasible(list(sp.mass), needs)
    groups = _assignment_feasible(conflict, sp.mass, needs)
    return groups if want_members else groups is not None


def _assignment_feasible(conflict, masses, needs):
    """Exact DFS: each point joins one bin or none; a conflict edge may not
    join two distinct bins.  Skipping satisfied bins and deduplicating empty
    bins with equal residual need keeps the search sound and small.  Returns
    the bin memberships on success, None on proven failure."""
    k = len(needs)
    n = len(masses)
    order = sorted(range(n), key=lambda i: (-masses[i], i))
    suffix = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] + masses[order[t]]
    fill = [0.0] * k
    members = [[] for _ in range(k)]
    tol = VALIDATION_TOL

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
                continue  # feeding a satisfied bin only adds constraints
            if not members[b]:
                key = round(needs[b], 15)
                if key in tried_empty:
                    continue
                tried_empty.add(key)
            if any(
                conflict[i, q] for b2 in range(k) if b2 != b for q in members[b2]
            ):
                continue
            fill[b] += masses[i]
            members[b].append(i)
            if rec(t + 1):
                return True
            members[b].pop()
            fill[b] -= masses[i]
        return rec(t + 1)  # discard the point

    return [sorted(g) for g in members] if rec(0) else None


def _bins_feasible(comp_mass, needs):
    """Can components (each used at most once) fill every bin to its need?"""
    needs = list(needs)
    comp = sorted(comp_mass, reverse=True)
    total = sum(comp)
    if total + VALIDATION_TOL < sum(needs):
        return False
    k = len(needs)
    fill = [0.0] * k

    def rec(ci, remaining):
        deficit = sum(max(needs[b] - fill[b], 0.0) for b in range(k))
        if deficit <= VALIDATION_TOL * (k + 1):
            return True
        if ci == len(comp) or remaining + VALIDATION_TOL < deficit:
            return False
        c = comp[ci]
        tried = set()
        for b in range(k):
            key = (round(needs[b], 15), round(fill[b], 15))
            if key in tried:
                continue  # identical bins: assigning to either is symmetric
            tried.add(key)
            if fill[b] >= needs[b] - VALIDATION_TOL:
                continue
            fill[b] += c
            if rec(ci + 1, remaining - c):
                fill[b] -= c
                return True
            fill[b] -= c
        # discard this component
        return rec(ci + 1, remaining - c)

    return rec(0, total)


def separation_properties_report(sp: FinitePmSpace, kappa, lam, rng=None):
    """Check shuffle invariance, monotonicity in kappa and the interleaving-sum
    inequality on one instance; returns a dict with any violations."""
    kappa, lam = _as_kappa(kappa), _as_kappa(lam)
    rng = rng or np.random.default_rng(0)
    report = {"violations": []}
    base = separation(sp, kappa)
    perm = rng.permutation(len(kappa.entries))
    shuffled = separation(sp, kappa.shuffled(perm))
    if not _close_or_both_inf(base, shuffled):
        report["violations"].append(("shuffle", base, shuffled))
    bigger = KappaSequence(tuple(k + abs(k) * 0.1 + 0.01 for k in kappa.entries))
    mono = separation(sp, bigger)
    if _gt(mono, base):
        report["violations"].append(("monotone", base, mono))
    lhs = separation(sp, interleave(kappa, lam))
    ksum = KappaSequence(
        tuple(kappa[i] + lam[i] for i in range(max(len(kappa.entries), len(lam.entries))))
    )
    rhs = separation(sp, ksum)
    if _gt(lhs, rhs):
        report["violations"].append(("interleave_sum", lhs, rhs))
    report["ok"] = not report["violations"]
    return report


def _close_or_both_inf(a, b):
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= REAL_TOL


def _gt(a, b):
    if math.isinf(a):
        return not math.isinf(b)
    if math.isinf(b):
        return False
    return a > b + REAL_TOL


# ---------------------------------------------------------------------------
# variance family


def variance_of(sp: FinitePmSpace, values):
    """Variance of one observable over the space."""
    f = np.asarray(values, dtype=float)
    mean = float(np.dot(sp.mass, f))
    return float(np.dot(sp.mass, (f - mean) ** 2))


def p_variance(sp: FinitePmSpace, values, p):
    """p-th absolute central moment of one observable."""
    if p < 1:
        raise InputError("p must satisfy p >= 1")
    f = np.asarray(values, dtype=float)
    mean = float(np.dot(sp.mass, f))
    if p == math.inf:
        return float(np.abs(f - mean).max())
    return float(np.dot(sp.mass, np.abs(f - mean) ** p))


def lipschitz_vertices(sp: FinitePmSpace, max_points=EXACT_MAX_POINTS):
    """Vertices of {f : |f_i - f_j| <= d_ij, f_0 = 0}.

    Every vertex has a spanning tree of tight signed constraints, so all
    (tree, sign) propagations cover the vertex set; infeasible candidates are
    filtered and duplicates removed (the first copy in tree order is kept).
    """
    n = sp.n
    if n > max_points:
        raise SizeLimitError(f"vertex enumeration is limited to {max_points} points")
    D = sp.dist
    if n == 1:
        return np.zeros((1, 1))
    scale = max(1.0, float(D.max()))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    out = []
    seen = set()
    for parent in _rooted_trees(n):
        # n - 1 sweeps settle every depth: f[v] = f[parent[v]] + s_v d(parent[v], v)
        step = signs * D[parent[1:], np.arange(1, n)]
        F = np.zeros((len(signs), n))
        for _ in range(n - 1):
            F[:, 1:] = F[:, parent[1:]] + step
        F = F[(np.abs(F[:, :, None] - F[:, None, :]) - D).max(axis=(1, 2)) <= 1e-10 * scale]
        for f, key in zip(F, np.round(F / scale, 10)):
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                out.append(f)
    return np.array(out)


def _rooted_trees(n):
    """Parent arrays of all n**(n-2) labelled spanning trees, rooted at node 0
    (parent[0] = 0): the rows whose every ancestor chain reaches node 0."""
    P = np.array([(0,) + t for t in itertools.product(range(n), repeat=n - 1)])
    A = P
    for _ in range(n):
        A = np.take_along_axis(P, A, axis=1)
    return P[(A == 0).all(axis=1)]


def variance(sp: FinitePmSpace, mode="exact", starts=64, seed=0):
    """Variance invariant: sup of variance over 1-Lipschitz observables.

    The objective is convex in f, so the exact mode takes the maximum over
    polytope vertices.  The heuristic mode moves each coordinate to the better
    endpoint of its feasible interval (optimal for a convex objective).
    """
    if sp.n == 1:
        return 0.0
    if mode == "exact":
        verts = lipschitz_vertices(sp)
        return max(variance_of(sp, f) for f in verts)
    if mode == "heuristic":
        m = sp.mass

        def start(f):
            E, Q = float(np.dot(m, f)), float(np.dot(m, f * f))
            return Q - E * E, (E, Q)

        def move(state, f, i, c):
            # O(1) update of the first two moments
            E, Q = state
            mi, fi = m[i], f[i]
            E = E - mi * fi + mi * c
            Q = Q - mi * fi ** 2 + mi * c * c
            return Q - E * E, (E, Q)

        starts, sweeps = _effort_budget(sp.n, starts)
        return _coordinate_ascent(sp, starts, seed, sweeps, 1e-14, start, move)
    raise InputError(f"unknown mode {mode!r}")


def p_deviation(sp: FinitePmSpace, p, mode="exact", starts=64, seed=0):
    """p-deviation: sup over 1-Lipschitz f of the p-th central moment^(1/p);
    for p = inf, the sup of the maximal central deviation."""
    if not p >= 1:
        raise InputError("p must satisfy p >= 1")
    if sp.n == 1:
        return 0.0

    def objective(f):
        return p_variance(sp, f, p)

    if mode == "exact":
        verts = lipschitz_vertices(sp)
        val = max(objective(f) for f in verts)
    elif mode == "heuristic":
        starts, sweeps = _effort_budget(sp.n, starts)
        val = _coordinate_ascent(sp, starts, seed, min(sweeps, 100), 1e-14,
                                 *_recompute(objective))
    else:
        raise InputError(f"unknown mode {mode!r}")
    return val ** (1.0 / p) if p != math.inf else val


def variance_diam_bound_holds(sp: FinitePmSpace, mode="exact"):
    """Variance never exceeds a quarter of the squared diameter."""
    return variance(sp, mode=mode) <= sp.diam() ** 2 / 4.0 + REAL_TOL
