"""Concentration invariants of finite spaces: partial diameter, observable
diameter, separation distance with general (possibly negative, implicitly
zero-tailed) threshold sequences, and the variance family.

Exact modes are reserved for small supports.  The observable diameter is
computed exactly by maximising, over each value ordering, the smallest
admissible-window width with a linear program, whose windows come from the
heuristic's scan; variance-type functionals are convex in the observable, so
their exact mode maximises over the vertices of the 1-Lipschitz polytope,
grown one point at a time from f_0 = 0.  Heuristic modes run seeded
multi-start coordinate ascent and always return feasible (hence lower)
values; all starts climb in lockstep as the rows of one matrix, each row
exactly as it would alone, so the values are those of running the starts one
after another, bit for bit.  The ascent skips only work whose outcome it
knows: a row retires once every coordinate in a row left it unchanged, and an
objective scored row by row does not score a candidate equal to the row
itself.  The separation distance bisects over the pairwise distances with one
exact assignment search per threshold tried, which tries interchangeable
points of equal mass once; one bisection gives both the value and its
witness.
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
    _TRIANGLE_BLOCK_ELEMENTS,
    _central_moment,
    _check_count,
    _row_dots,
)

# Exact-search size limits (beyond them a SizeLimitError, CLI exit code 3).
EXACT_MAX_POINTS = 6
VERTEX_MAX_POINTS = 9
SEPARATION_MAX_POINTS = 20
SEPARATION_MAX_POSITIVE = 12

# Smallest slack gaussian_vs_uniform_crossover reports as a crossover.
CROSSOVER_MIN_SLACK = 1e-3


# ---------------------------------------------------------------------------
# partial diameter


def partial_diameter(values, masses, kappa):
    """Smallest diameter of a value set carrying mass >= 1 - kappa.

    Exact: an optimal set can always be taken as a contiguous run of sorted
    support values (see ``_partial_diameters``).  Values, masses and kappa
    must be finite and the masses nonnegative.
    """
    kappa = float(kappa)
    v = np.asarray(values, dtype=float)
    w = np.asarray(masses, dtype=float)
    if v.ndim != 1 or v.shape != w.shape:
        raise InputError("values and masses must be 1-D and have the same length")
    if not len(v):
        raise InputError("partial_diameter needs at least one value")
    if not (math.isfinite(kappa) and np.isfinite(v).all() and np.isfinite(w).all()):
        raise InputError("values, masses and kappa must be finite")
    if (w < 0).any():
        raise InputError("masses must be nonnegative")
    if 1.0 - kappa <= VALIDATION_TOL:
        return 0.0
    return float(_partial_diameters(v[None, :], w, kappa)[0])


def _partial_diameters(G, w, kappa):
    """Partial diameter of every row of G under the masses w, for a kappa
    with 1 - kappa > VALIDATION_TOL: the smallest width over the windows of
    ``_window_ends``, which is the smallest over the inclusion-minimal ones,
    since rounded subtraction never reads a window narrower than one inside it."""
    rows, n = G.shape
    r = np.arange(rows)[:, None]
    order = np.argsort(G, axis=1, kind="stable")
    v = G[r, order]
    ends = _window_ends(w[order], (1.0 - kappa) - VALIDATION_TOL)
    found = ends < n
    # the window from sorted index i ends at v[row, ends], flat index n row + ends
    width = v.ravel()[np.minimum(ends + n * r, v.size - 1)] - v
    width = np.where(found, width, math.inf).min(axis=1)
    return np.where(found.any(axis=1), width, v[:, -1] - v[:, 0])


def _window_ends(W, short):
    """The end of the shortest window from each start i of the rows W of
    masses in value order: the first k with ``csum[k + 1] - csum[i] >=
    short`` on the row's prefix sums, or n when none passes.  A searchsorted
    on ``csum[i] + short`` finds k up to rounding, and the exact test moves
    it onto the first passing k.  Ends never decrease along a row, since
    rounded subtraction is monotone."""
    rows, n = W.shape
    r = np.arange(rows)[:, None]
    csum = np.zeros((rows, n + 1))
    np.cumsum(W, axis=1, out=csum[:, 1:])
    left = csum[:, :-1]
    # complex keys sort by real part first, so one search stays inside each
    # row without an offset that would round the sums; ``ends`` indexes the
    # flattened csum, where row r spans first[r] .. first[r] + n, and an
    # infinite sentinel closes the last row
    ends = np.searchsorted((r + 1j * csum).ravel(), (r + 1j * (left + short)).ravel())
    ends = ends.reshape(rows, n)
    first = (n + 1) * r
    flat = np.append(csum, math.inf)

    def passes(k):
        return flat[k] - left >= short

    while (back := (ends > first) & passes(ends - 1)).any():
        ends -= back
    while (ahead := (ends <= first + n) & ~passes(ends)).any():
        ends += ahead
    return ends - (first + 1)


def _minimal_starts(ends):
    """Starts whose window exists and ends before the next start's, or is the last."""
    minimal = ends < ends.shape[1]
    minimal[:, :-1] &= ends[:, :-1] < ends[:, 1:]
    return minimal


def obs_diam_projection_estimate(sp: FinitePmSpace, kappa):
    """Lower estimate of the observable diameter from coordinate projections.

    Projections are 1-Lipschitz for Euclidean sample spaces; the estimate is
    the largest partial diameter among them.  Certificate: estimate.
    """
    if sp.coords is None:
        raise InputError("space carries no coordinates")
    kappa = _kappa_fraction(kappa)
    best = 0.0
    for proj in np.atleast_2d(sp.coords).reshape(sp.n, -1).T:
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


def obs_diam(sp: FinitePmSpace, kappa, mode="exact", starts=64, seed=0):
    """Observable diameter sup over 1-Lipschitz f of the partial diameter of f.

    Exact mode (n <= 6): for every ordering pi of the support, the partial
    diameter is the minimum of the linear widths of the inclusion-minimal
    windows, all found by one call of the heuristic's scan, so the supremum
    over the order region is a linear program; the result is the maximum
    over orderings.  Heuristic mode: seeded multi-start coordinate
    ascent from distance anchors, every start in lockstep, with all
    candidates of a coordinate scored by one batched window scan
    (``_partial_diameters``); always a valid lower value.  The scan works row
    by row, so a candidate equal to the current f[i] (one end of each
    interval on a distance anchor d(x, .)) is the row itself and is not
    scored; a start retires once n coordinates in a row left it unchanged,
    since any further try would repeat one on the same f.
    """
    kappa = _kappa_fraction(kappa)
    if sp.n == 1 or 1.0 - kappa <= VALIDATION_TOL:
        return 0.0
    if mode == "exact":
        if sp.n > EXACT_MAX_POINTS:
            raise SizeLimitError(f"exact obs_diam is limited to {EXACT_MAX_POINTS} points")
        return _obs_diam_exact(sp, kappa)
    if mode == "heuristic":
        starts, _ = _effort_budget(sp.n, starts, seed)
        return _coordinate_ascent(sp, starts, seed, 50, 1e-13,
                                  *_rescoring(lambda G: _partial_diameters(G, sp.mass, kappa)))
    raise InputError(f"unknown mode {mode!r}")


def _obs_diam_exact(sp, kappa):
    n = sp.n
    best = 0.0
    # f -> -f maps an ordering onto its reversal, so only pi[0] < pi[-1] count
    orders = np.array([pi for pi in itertools.permutations(range(n)) if pi[0] < pi[-1]])
    ends = _window_ends(sp.mass[orders], (1.0 - kappa) - VALIDATION_TOL)
    # Variables: f_0..f_{n-1}, t.  Maximise t subject to
    #   t <= f[pi[r]] - f[pi[l]] for each minimal admissible window,
    #   ordering constraints, Lipschitz constraints, f[pi[0]] = 0.
    e = np.eye(n + 1)
    i, j = np.triu_indices(n, 1)
    lip = np.stack([e[i] - e[j], e[j] - e[i]], axis=1).reshape(-1, n + 1)
    lip_b = np.repeat(sp.dist[i, j], 2)
    c = [0.0] * n + [-1.0]
    bounds = [(None, None)] * n + [(0.0, None)]
    for p, end, keep in zip(orders, ends, _minimal_starts(ends)):
        l, r = keep.nonzero()[0], end[keep]
        if not len(l):
            continue
        A_ub = np.vstack([e[n] - e[p[r]] + e[p[l]], e[p[:-1]] - e[p[1:]], lip])
        b_ub = np.concatenate([np.zeros(len(l) + n - 1), lip_b])
        res = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=e[p[:1]], b_eq=[0.0], bounds=bounds, method="highs"
        )
        if res.status == 0:
            best = max(best, -res.fun)
    return best


def _anchor_starts(sp, rng, starts):
    """Start rows: the distance functions of the points, their negatives, then
    random Lipschitz functions."""
    n, D = sp.n, sp.dist
    F = np.empty((starts, n))
    head = min(starts, n)
    F[:head] = D[:head]
    F[head:2 * n] = -D[:min(starts, 2 * n) - head]
    diam, width = sp.diam(), min(n, 8)
    rand = F[2 * n:]
    # min-extensions of up to eight random anchor values each; the draws
    # keep their order, and +inf pads every start to eight anchors, which
    # the minimum never selects
    idx = np.zeros((len(rand), width), dtype=np.intp)
    vals = np.full((len(rand), width), np.inf)
    for row in range(len(rand)):
        k = int(rng.integers(1, width + 1))
        idx[row, :k] = rng.choice(n, size=k, replace=False)
        vals[row, :k] = rng.uniform(-diam, diam, size=k)
    rows = max(1, _TRIANGLE_BLOCK_ELEMENTS // (width * n))
    for s in range(0, len(rand), rows):
        np.min(vals[s:s + rows, :, None] + D.T[idx[s:s + rows]], axis=1, out=rand[s:s + rows])
    return F


def _effort_budget(n, starts, seed):
    """Multi-start budgets that keep the quadratic sweeps tractable: beyond a
    few hundred points the start count shrinks, to no fewer than two starts
    unless fewer were asked for, so a call stays near the cost of the
    reference 64-start search on 256 points."""
    _check_count("starts", starts)
    _check_count("seed", seed, 0)
    if n <= 256:
        return starts, 200
    scale = max(1, (n * n) // (256 * 256))
    return min(starts, max(2, starts // scale)), max(8, 200 // scale)


def _coordinate_ascent(sp, starts, seed, sweeps, tol, start, move):
    """Best value of seeded multi-start coordinate ascent over 1-Lipschitz f.

    All starts run in lockstep as the rows of one matrix F.  ``start(F)``
    returns ``(values, state)`` for the rows, where ``state`` is a tuple of
    per-row arrays, and ``move(state, F, i, C)`` scores every row with f[i]
    moved to each column of ``C``, returning the values and the states
    shaped like ``C``, and leaving F as it was.  Each sweep tries, per
    coordinate, the low then the high end of the row's feasible interval and
    keeps a candidate only when it beats the best so far by more than
    ``tol``; a move whose pick equals f[i] changes nothing, so rounding in an
    incremental ``move`` never counts as progress.  When such a candidate's
    value is at most the row's own, it neither wins nor decides whether the
    other end wins, since a winner must beat the row's value by more than
    ``tol`` >= 0; ``move`` may then report any value up to the row's own,
    and ``_rescoring`` leaves such candidates unscored.

    A row retires with its value once n coordinates in a row, across sweep
    boundaries too, left it unchanged, rather than after a whole sweep
    without a move.  This is exact: each of them was tried on the state the
    row still has, and ``move`` depends on nothing else, so every later try
    would repeat one of them and change nothing.
    """
    n = sp.n
    F = _anchor_starts(sp, np.random.default_rng(seed), starts)
    cur, state = start(F)
    # an infinite diagonal keeps f[i] itself out of its own interval
    D = sp.dist.copy()
    np.fill_diagonal(D, math.inf)
    best = 0.0
    buf = np.empty_like(F)
    C = np.empty((len(F), 2))
    # the step at which each row last changed; a row retires at a step at
    # least n past it, and none can before ``due``, since last only grows
    last = np.full(len(F), -1)
    due = n - 1
    for step in range(sweeps * n):
        i = step % n
        # feasible interval (C[:, 0], C[:, 1]) of f[i] in every row
        np.subtract(F, D[i], out=buf)
        buf.max(axis=1, out=C[:, 0])
        np.add(F, D[i], out=buf)
        buf.min(axis=1, out=C[:, 1])
        vals, states = move(state, F, i, C)
        lo_wins = vals[:, 0] > cur + tol
        hi_wins = vals[:, 1] > np.where(lo_wins, vals[:, 0], cur) + tol
        rows = np.nonzero(lo_wins | hi_wins)[0]
        if len(rows):
            end = hi_wins[rows].astype(np.intp)
            pick = C[rows, end]
            change = pick != F[rows, i]
            rows, end = rows[change], end[change]
            F[rows, i] = pick[change]
            cur[rows] = vals[rows, end]
            for s, cand in zip(state, states):
                s[rows] = cand[rows, end]
            last[rows] = step
        if step < due:
            continue
        due = int(last.min()) + n
        if due > step:
            continue
        # a row's value only rises: the best now is a lower value of the
        # answer, and it covers the rows that retire here
        best = max(best, cur.max())
        keep = last > step - n
        F, cur, last = F[keep], cur[keep], last[keep]
        state = tuple(s[keep] for s in state)
        buf, C = buf[:len(F)], C[:len(F)]
        if not len(F):
            break
    return float(max(best, cur.max(initial=0.0)))


def _rescoring(score):
    """``start`` and ``move`` for ``_coordinate_ascent`` from ``score``, which
    maps a matrix to the objective value of each row, scoring each row
    independently of the others.  A move scores copies of F with column i
    set to each end, except where the end equals f[i]: that copy is the row
    itself, so it would score exactly the row's value, and it reads -inf
    instead, unscored.  An incremental ``move`` (``variance``) may not skip
    it, since there its value can round above the row's and so decide
    whether the other end wins.  Rows that no coordinate changes any more
    retire in ``_coordinate_ascent``, whatever their ``move``."""

    def move(state, F, i, C):
        vals = np.full(C.size, -math.inf)
        # the ends that move f[i]; flat index 2 r + e is end e of row r
        moved = (C != F[:, i, None]).ravel().nonzero()[0]
        if len(moved):
            G = F.take(moved >> 1, axis=0)
            G[:, i] = C.take(moved)
            vals[moved] = score(G)
        return vals.reshape(-1, 2), ()

    return (lambda F: (score(F), ())), move


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


def gaussian_vs_uniform_crossover(sigma):
    """Find kappa in (0,1) where the Gaussian observable diameter drops below
    the uniform one, i.e. 2 sigma PsiInv((1-kappa)/2) < 1 - kappa.

    Returns (kappa, slack) at the kappa maximising the slack.  With
    y = 1 - kappa the slack y - 2 sigma sqrt(2) erfinv(y) is concave, and its
    derivative vanishes where erfinv(y)^2 = -log(sigma sqrt(2 pi)), so the
    maximiser is kappa = erfc(sqrt(-log(sigma sqrt(2 pi)))).  A crossover
    exists only when sigma < 1/sqrt(2 pi), and the slack must reach
    ``CROSSOVER_MIN_SLACK``.
    """
    if not 0 < sigma:
        raise InputError("sigma must be positive")
    if sigma * math.sqrt(2.0 * math.pi) >= 1.0:
        raise InputError(f"no crossover: sigma={sigma} >= 1/sqrt(2 pi)")
    # below machine epsilon 1 - kappa would round to 1, where erfinv is infinite
    k = max(math.erfc(math.sqrt(-math.log(sigma * math.sqrt(2.0 * math.pi)))), 2.0**-52)
    g = (1.0 - k) - gaussian_obs_diam(sigma, k)
    if g < CROSSOVER_MIN_SLACK:
        raise InputError(f"crossover slack {g} below {CROSSOVER_MIN_SLACK}")
    return k, g


# ---------------------------------------------------------------------------
# separation distance


@dataclass(frozen=True)
class SeparationConfig:
    """Witness for a separation value: threshold and component-to-bin groups."""

    threshold: float
    groups: tuple = ()


def _as_kappa(kappa):
    """A threshold sequence as a tuple of floats; one number is a 1-tuple.
    Entries past the end read as zero."""
    if isinstance(kappa, (int, float)):
        return (float(kappa),)
    return tuple(float(k) for k in kappa)


def separation(sp: FinitePmSpace, kappa):
    """Exact separation distance for a general threshold sequence.

    Nonpositive entries are dropped (their sets may be empty and empty sets
    are infinitely far).  With at most one positive entry the value is
    infinite.  Otherwise candidate thresholds are the positive pairwise
    distances, and the value is the largest one at which
    ``_assignment_feasible`` fills every bin: each point joins one bin or
    none, where pairs closer than the threshold may not straddle two
    distinct bins.  A lower threshold only drops conflicts, so feasibility
    is monotone and a bisection over the sorted candidates finds it.
    Discarding points is essential: a bin need not be a union of connected
    components of the sub-threshold graph.
    """
    return _separation_scan(sp, kappa)[0]


def separation_witness(sp: FinitePmSpace, kappa):
    """Separation value together with a witnessing configuration (threshold
    plus the point groups realising each positive requirement)."""
    val, groups = _separation_scan(sp, kappa)
    return val, SeparationConfig(val, groups)


def _separation_scan(sp: FinitePmSpace, kappa):
    """The separation value and the groups that realise it: at a finite
    positive value the bin memberships found at that threshold, at an
    infinite one the whole support (when an entry is positive), else none."""
    kappa = _as_kappa(kappa)
    if not all(math.isfinite(k) for k in kappa):
        raise InputError("kappa entries must be finite")
    pos = sorted((k for k in kappa if k > 0), reverse=True)
    if len(pos) > SEPARATION_MAX_POSITIVE:
        raise SizeLimitError(
            f"separation is limited to {SEPARATION_MAX_POSITIVE} positive entries"
        )
    if len(pos) <= 1:
        if pos and pos[0] > 1.0 + VALIDATION_TOL:
            return 0.0, ()  # no admissible family at all
        return math.inf, (tuple(range(sp.n)),) if pos else ()
    if sum(pos) > 1.0 + VALIDATION_TOL:
        return 0.0, ()
    n = sp.n
    if n > SEPARATION_MAX_POINTS:
        raise SizeLimitError(f"separation is limited to {SEPARATION_MAX_POINTS} points")
    cands = np.unique(sp.dist[np.triu_indices(n, 1)])
    cands = cands[cands > 0].tolist()
    # the conflict cut rises with delta, so a feasible threshold stays
    # feasible below: bisect for the last feasible candidate, keeping the
    # groups found there.  Candidates below lo are feasible, from hi on not.
    lo, hi, found = 0, len(cands), None
    while lo < hi:
        mid = (lo + hi) // 2
        delta = cands[mid]
        conflict = sp.dist < delta - VALIDATION_TOL * max(1.0, delta)
        np.fill_diagonal(conflict, False)
        groups = _assignment_feasible(conflict, sp.mass, pos)
        if groups is None:
            hi = mid
        else:
            lo, found = mid + 1, groups
    if found is None:
        return 0.0, ()
    return cands[lo - 1], tuple(tuple(g) for g in found)


def _assignment_feasible(conflict, masses, needs):
    """Exact DFS: each point joins one bin or none; a conflict edge may not
    join two distinct bins.  Skipping satisfied bins and deduplicating empty
    bins with equal residual need keeps the search sound and small, and so
    does trying twins once.  Twins sit next to each other in the search
    order (mass descending, then index), have equal mass and the same
    conflicts outside the pair; swapping them maps an assignment onto one
    with the same fills and conflicts, so the later twin skips the choices
    (the bins in index order, then discard) before the earlier one's.  The
    first assignment found is then the one found without that rule.
    Returns the bin memberships on success, None on proven failure."""
    k, n = len(needs), len(masses)
    order = np.argsort(-masses, kind="stable")  # mass descending, then index
    m = masses[order]
    # twin[t]: order[t - 1] and order[t] are twins.  With a false diagonal,
    # the two rows differ in the pair's own two columns exactly when the pair
    # conflicts, so they agree off the pair when they differ in 2 columns if
    # the pair conflicts and in none otherwise
    before, after = order[:-1], order[1:]
    off_pair = (conflict[before] != conflict[after]).sum(axis=1) == 2 * conflict[before, after]
    twin = [False] + ((m[1:] == m[:-1]) & off_pair).tolist()
    # the DFS reads Python lists, which index faster than numpy scalars
    order, m, near = order.tolist(), m.tolist(), conflict.tolist()
    suffix = list(itertools.accumulate(reversed(m), initial=0.0))[::-1]  # sums of m[t:]
    choice = [k] * n
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
        first = choice[t - 1] if twin[t] else 0
        tried_empty = set()
        for b in range(k):
            if fill[b] >= needs[b] - tol:
                continue  # feeding a satisfied bin only adds constraints
            if not members[b]:
                key = round(needs[b], 15)
                if key in tried_empty:
                    continue
                tried_empty.add(key)
            # the twin test comes after the empty-bin key is taken, so the
            # branches left are those of the search without twins, in order
            if b < first or any(
                near[i][q] for b2 in range(k) if b2 != b for q in members[b2]
            ):
                continue
            fill[b] += m[t]
            members[b].append(i)
            choice[t] = b
            if rec(t + 1):
                return True
            members[b].pop()
            fill[b] -= m[t]
        choice[t] = k
        return rec(t + 1)  # discard the point

    return [sorted(g) for g in members] if rec(0) else None


# ---------------------------------------------------------------------------
# variance family


def variance_of(sp: FinitePmSpace, values):
    """Variance of one observable over the space."""
    return _central_moment(sp.mass, values)


def p_variance(sp: FinitePmSpace, values, p):
    """p-th absolute central moment of one observable."""
    if not p >= 1:
        raise InputError("p must satisfy p >= 1")
    return _central_moment(sp.mass, values, p)


def lipschitz_vertices(sp: FinitePmSpace):
    """Vertices of {f : |f_i - f_j| <= d_ij, f_0 = 0}, grown point by point.

    A feasible f is a vertex exactly when its tight constraints connect the
    support.  Level k holds the vertices of the polytope restricted to each
    k-point set S that contains 0; ``_grow_vertices`` places one more point
    v at either end of its feasible interval on S, where it is tight to the
    point that sets that end, so every child is again a vertex and, growing
    along a spanning tree of its tight graph, every vertex is reached.  A
    vertex's values are then its propagation f_v = f_u +- d_uv along the tree
    it grew on.  Each level keeps one row per (S, values) after rounding to
    1e-10 of max(1, diam); rows come sorted by the bytes of those keys.  A
    generic metric has C(2n - 2, n - 1) vertices (Gordon and Petrov,
    "Combinatorics of the Lipschitz polytope", 2017), so level k holds at
    most C(n - 1, k - 1) C(2k - 2, k - 1) rows.
    """
    n = sp.n
    if n > VERTEX_MAX_POINTS:
        raise SizeLimitError(f"vertex enumeration is limited to {VERTEX_MAX_POINTS} points")
    F = np.full((1, n), math.nan)
    F[0, 0] = 0.0
    # column v of dist as a row, so that f_u +- d_uv reads d in the order (u, v)
    to = np.ascontiguousarray(sp.dist.T)
    scale = max(1.0, float(sp.dist.max()))
    for _ in range(n - 1):
        F = _grow_vertices(F, to, scale)
    return F


def _grow_vertices(F, to, scale):
    """The next level of ``lipschitz_vertices``: every row of F, whose NaN
    entries are the unplaced points, with one unplaced point v set to each
    end of its interval [max_u f_u - d_uv, min_u f_u + d_uv] over the placed
    u, deduplicated by the rounded values, NaN included."""
    r, v = np.isnan(F).nonzero()
    P = F[r]
    G = np.repeat(P, 2, axis=0)
    # fmax and fmin skip the NaN of the unplaced points, v among them
    ends = np.stack([np.fmax.reduce(P - to[v], axis=1),
                     np.fmin.reduce(P + to[v], axis=1)], axis=1)
    G[np.arange(len(G)), np.repeat(v, 2)] = ends.ravel()
    # adding 0.0 turns a key's -0.0 into 0.0, so the two count as one vertex;
    # an unplaced point keys as inf, which no placed value rounds to
    key = np.round(G / scale, 10) + 0.0
    key[np.isnan(key)] = math.inf
    # equal keys are equal bytes; one void per row sorts far faster than rows
    _, first = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))),
                         return_index=True)
    return G[first]


def variance(sp: FinitePmSpace, mode="exact", starts=64, seed=0):
    """Variance invariant: sup of variance over 1-Lipschitz observables.

    The objective is convex in f, so the exact mode (n <= 9) takes the
    maximum over the polytope's vertices (``lipschitz_vertices``).  The
    heuristic mode moves each coordinate to the better endpoint of its
    feasible interval (optimal for a convex objective), with every start in
    lockstep and the first two moments of each row updated in O(1) per
    candidate.  An end equal to f[i] is scored too: its O(1) value
    can round away from the row's own.
    """
    if sp.n == 1:
        return 0.0
    if mode == "exact":
        return float(_central_moment(sp.mass, lipschitz_vertices(sp)).max())
    if mode == "heuristic":
        m = sp.mass

        def start(F):
            E, Q = _row_dots(F, m), _row_dots(F * F, m)
            return Q - E * E, (E, Q)

        def move(state, F, i, C):
            # O(1) update of the first two moments; f[i] is squared by libm's
            # pow (np.float_power), as the pinned values were, since numpy's
            # array square rounds differently in the last bit
            E, Q = state
            mi, fi = m[i], F[:, i, None]
            E = E[:, None] - mi * fi + mi * C
            Q = Q[:, None] - mi * np.float_power(fi, 2) + mi * C * C
            return Q - E * E, (E, Q)

        starts, sweeps = _effort_budget(sp.n, starts, seed)
        return _coordinate_ascent(sp, starts, seed, sweeps, 1e-14, start, move)
    raise InputError(f"unknown mode {mode!r}")


def p_deviation(sp: FinitePmSpace, p, mode="exact", starts=64, seed=0):
    """p-deviation: sup over 1-Lipschitz f of the p-th central moment^(1/p);
    for p = inf, the sup of the maximal central deviation.  The exact mode
    (n <= 9) maximises over ``lipschitz_vertices``, as ``variance`` does."""
    if not p >= 1:
        raise InputError("p must satisfy p >= 1")
    if sp.n == 1:
        return 0.0

    if mode == "exact":
        val = float(_central_moment(sp.mass, lipschitz_vertices(sp), p).max())
    elif mode == "heuristic":
        starts, sweeps = _effort_budget(sp.n, starts, seed)
        val = _coordinate_ascent(sp, starts, seed, min(sweeps, 100), 1e-14,
                                 *_rescoring(lambda G: _central_moment(sp.mass, G, p)))
    else:
        raise InputError(f"unknown mode {mode!r}")
    return val ** (1.0 / p) if p != math.inf else val


def variance_diam_bound_holds(sp: FinitePmSpace, mode="exact"):
    """Variance never exceeds a quarter of the squared diameter."""
    return variance(sp, mode=mode) <= sp.diam() ** 2 / 4.0 + REAL_TOL
