"""Concentration invariants of finite spaces: partial diameter, observable
diameter, separation distance with general (possibly negative, implicitly
zero-tailed) threshold sequences, and the variance family.

Exact modes are reserved for small supports.  The observable diameter is
computed exactly by maximising, over each value ordering, the smallest
admissible-window width with a linear program, whose windows come from the
heuristic's scan; variance-type functionals are convex in the observable, so
their exact mode enumerates the vertices of the 1-Lipschitz polytope.
Heuristic modes run seeded multi-start coordinate ascent and always return
feasible (hence lower) values; all starts climb in lockstep as the rows of one
matrix, each row exactly as it would alone, so the values are those of running
the starts one after another, bit for bit.  The ascent skips only work whose
outcome it knows: a row retires once every coordinate in a row left it
unchanged, and an objective scored row by row does not score a candidate equal
to the row itself.
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
    _central_moment,
    _check_count,
    _row_dots,
)

# Exact-search size limits (beyond them a SizeLimitError, CLI exit code 3).
EXACT_MAX_POINTS = 6
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
    diam = sp.diam()
    for f in F[2 * n:]:
        # min-extension of random anchor values
        k = int(rng.integers(1, min(n, 8) + 1))
        idx = rng.choice(n, size=k, replace=False)
        vals = rng.uniform(-diam, diam, size=k)
        f[:] = np.min(vals[None, :] + D[:, idx], axis=1)
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
    infinite.  Otherwise candidate thresholds are the pairwise distances,
    scanned downward; feasibility at a threshold assigns every point to one
    bin or to none, where pairs closer than the threshold may not straddle
    two distinct bins.  Discarding points is essential: a bin need not be a
    union of connected components of the sub-threshold graph.
    """
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
            return 0.0  # no admissible family at all
        return math.inf
    if sum(pos) > 1.0 + VALIDATION_TOL:
        return 0.0
    n = sp.n
    if n > SEPARATION_MAX_POINTS:
        raise SizeLimitError(f"separation is limited to {SEPARATION_MAX_POINTS} points")
    cands = np.unique(sp.dist[np.triu_indices(n, 1)]) if n > 1 else np.array([])
    for delta in cands[::-1]:
        if _separation_feasible(sp, pos, float(delta)):
            return float(delta)
    return 0.0


def separation_witness(sp: FinitePmSpace, kappa):
    """Separation value together with a witnessing configuration (threshold
    plus the point groups realising each positive requirement)."""
    val = separation(sp, kappa)
    pos = sorted((k for k in _as_kappa(kappa) if k > 0), reverse=True)
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
    """Vertices of {f : |f_i - f_j| <= d_ij, f_0 = 0}.

    Every vertex has a spanning tree of tight signed constraints, so all
    (tree, sign) propagations cover the vertex set; infeasible candidates are
    filtered and duplicates removed (the first copy in tree order is kept).
    """
    n = sp.n
    if n > EXACT_MAX_POINTS:
        raise SizeLimitError(f"vertex enumeration is limited to {EXACT_MAX_POINTS} points")
    D = sp.dist
    if n == 1:
        return np.zeros((1, 1))
    scale = max(1.0, float(D.max()))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    feasible = []
    for parent in _rooted_trees(n):
        # n - 1 sweeps settle every depth: f[v] = f[parent[v]] + s_v d(parent[v], v)
        step = signs * D[parent[1:], np.arange(1, n)]
        F = np.zeros((len(signs), n))
        for _ in range(n - 1):
            F[:, 1:] = F[:, parent[1:]] + step
        feasible.append(F[(np.abs(F[:, :, None] - F[:, None, :]) - D).max(axis=(1, 2))
                          <= 1e-10 * scale])
    F = np.concatenate(feasible)
    # adding 0.0 turns a key's -0.0 into 0.0, so the two count as one vertex
    _, first = np.unique(np.round(F / scale, 10) + 0.0, axis=0, return_index=True)
    return F[np.sort(first)]


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
    endpoint of its feasible interval (optimal for a convex objective), with
    every start in lockstep and the first two moments of each row updated in
    O(1) per candidate.  An end equal to f[i] is scored too: its O(1) value
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
    for p = inf, the sup of the maximal central deviation."""
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
