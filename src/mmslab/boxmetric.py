"""Box-distance computation between finite spaces.

A parameter pair of two finite spaces induces a coupling of the mass vectors,
and conversely every coupling is realised by interval parameters, so the box
distance reduces to a search over couplings together with a choice of "kept"
coupling cells: keeping a set S of cells forces the metric discrepancy of
every pair of kept cells below epsilon and the discarded mass below epsilon.
For a fixed S the best coupling only matters through the maximal mass it can
place on S, which is a tiny transportation max-flow.  The exact value is
therefore

    min over S subset of X x Y of max( maxdisc(S), 1 - maxflow(S) )

with no coupling-lattice restriction.  Up to EXACT_MAX_CELLS cells it is
found without listing the 2^cells sets S: an optimal S is a clique of the
graph joining cells whose discrepancy is at most maxdisc(S), so a bisection
over the discrepancies asks a pruned maximal-clique search for the largest
max-flow (``box_exact_small``).  Larger instances get certified upper bounds
from the three monotone couplings (both sides in mass, eccentricity or index
order) plus seeded local search over kept cells, and lower bounds from the
Levy distance between the pairwise-distance distributions (a provable
consequence of a small box distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Coupling, FinitePmSpace, InputError, SizeLimitError, _block_rows,
                   _check_count, _check_positive, _max_subcoupling)

EXACT_MAX_CELLS = 36


@dataclass(frozen=True)
class BoxEstimate:
    lower: float
    upper: float
    witness_coupling: Coupling | None = None
    certificate: str = "bound"

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise InputError("lower bound exceeds upper bound")
        if self.certificate == "exact" and abs(self.lower - self.upper) > 1e-12:
            raise InputError("exact estimates must have lower == upper")


def _cell_discrepancy(sx, sy, cells, cols=None):
    """|d_X(x,x') - d_Y(y,y')| between the flattened coupling cells ``cells``
    and ``cols`` (default: ``cells``), where cell c is (x, y) = divmod(c, |Y|)."""
    cx, cy = divmod(cells, sy.n)
    kx, ky = (cx, cy) if cols is None else divmod(cols, sy.n)
    return np.abs(sx.dist[np.ix_(cx, kx)] - sy.dist[np.ix_(cy, ky)])


def _max_discrepancy(sx, sy, cells):
    """``_cell_discrepancy(sx, sy, cells).max()`` from row blocks
    (``_block_rows``), so no |cells| x |cells| matrix is made."""
    rows = _block_rows(cells.size)
    return max(float(_cell_discrepancy(sx, sy, cells[s:s + rows], cells).max())
               for s in range(0, cells.size, rows))


def _maxflow_coupling(kept_cells, mass_x, mass_y):
    """Coupling placing maximal mass on the kept cells (``_max_subcoupling``),
    extended to a full coupling by pairing the leftover marginals."""
    allowed = np.zeros((len(mass_x), len(mass_y)), dtype=bool)
    allowed.flat[[i * len(mass_y) + j for i, j in kept_cells]] = True
    flow = _max_subcoupling(allowed, mass_x, mass_y)
    row_res = np.maximum(mass_x - flow.sum(axis=1), 0.0)
    col_res = np.maximum(mass_y - flow.sum(axis=0), 0.0)
    slack = row_res.sum()
    if slack > 1e-14:
        flow = flow + np.outer(row_res, col_res) / slack
    return flow


def _bits(mask):
    """The set bits of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kept_mass(n_small, n_large, mass_small, mass_large):
    """flow(K): the largest mass a sub-coupling places on the cells of the
    int bitmask K, whose cell s * n_large + l pairs point s of the smaller
    side with point l of the larger.  It is the least vertex cover: over the
    subsets A of the smaller side, the smaller side's mass outside A plus the
    mass of the larger-side points that K reaches from A, clipped at 1.0.
    Subset masses are summed over ascending bits from 0.0, the larger side's
    once per reached set, so flow only grows with K, in floats too: rounded
    sums of nonnegative terms are monotone."""
    cut = [0.0]
    for m in mass_small.tolist():
        cut += [c + m for c in cut]
    cut.reverse()  # cut[A]: the mass outside A
    mass_large = mass_large.tolist()
    full = (1 << n_large) - 1
    sums, flows = {}, {}

    def reach_mass(reach):
        s = sums.get(reach)
        if s is None:
            s = 0.0
            for j in _bits(reach):
                s += mass_large[j]
            sums[reach] = s
        return s

    def flow(K):
        f = flows.get(K)
        if f is None:
            reach = [0]
            for s in range(n_small):
                row = K >> s * n_large & full
                reach += [r | row for r in reach]
            f = flows[K] = min(1.0, *map(float.__add__, cut, map(reach_mass, reach)))
        return f

    return flow


def _cliques(adj, flow, ok, R, P):
    """Cliques K of R | P that contain R, with ok(flow(K)), in branching
    order, where ``adj`` holds each cell's neighbours as an int bitmask and P
    the common neighbours of R.  Bron and Kerbosch's branching with Tomita's
    pivot u, the cell of P with most neighbours in P: a maximal clique of
    R | P holds u or a cell of P that keeps u out, so branching on the cells
    of P not adjacent to u (u among them) reaches every maximal clique, and
    some smaller ones, with no excluded set to track.  A branch whose
    bound flow(R | P) fails ``ok`` is skipped, for ``ok`` holds only above
    some flow and flow only grows with the cell set; ``ok`` is read afresh
    at each branch, so a caller may tighten it between cliques."""
    if not ok(flow(R | P)):
        return
    if not P:
        yield R
        return
    u = max(_bits(P), key=lambda c: ((P & adj[c]).bit_count(), c))
    for c in _bits(P & ~adj[u]):
        yield from _cliques(adj, flow, ok, R | 1 << c, P & adj[c])
        P &= ~(1 << c)


def box_exact_small(sx: FinitePmSpace, sy: FinitePmSpace):
    """Exact box distance for |X| * |Y| <= EXACT_MAX_CELLS cells: the least
    max(maxdisc(S), 1 - flow(S)) over kept-cell sets S, by a search over
    thresholds and cliques.

    At an optimal S, t = maxdisc(S) is 0 or one pair's discrepancy, and S is
    a clique of G_t, the graph joining cells whose pair differs by at most
    t; a maximal clique K of G_t around S has flow(K) >= flow(S).  So the
    value is the least max(t, 1 - M(t)) over those t, where M(t) is the
    largest flow of a clique of G_t.  M only grows with t, so for the first
    threshold t* with 1 - M(t*) <= t* (found by bisection, each step asking
    for one such clique) the value is min(t*, 1 - M(t')) at the threshold t'
    before t*; M(t') is sought only among the cliques that beat t*.  Each
    pair's discrepancy is read below the diagonal of the cell matrix, so a
    metric asymmetric within the tolerance has one value.  The witness is
    the max-flow coupling of the chosen clique's cells."""
    nx, ny = sx.n, sy.n
    ncells = nx * ny
    if ncells > EXACT_MAX_CELLS:
        raise SizeLimitError(f"exact box distance is limited to {EXACT_MAX_CELLS} cells")
    # search cell s * n_large + l is pair cell (s, l), or (l, s) when X is larger
    n_small, n_large = sorted((nx, ny))
    small, large = divmod(np.arange(ncells), n_large)
    cells = small * ny + large if nx <= ny else large * ny + small
    low = np.tril(_cell_discrepancy(sx, sy, np.arange(ncells)), -1)
    thresholds = np.unique(low).tolist()
    disc = (low + low.T)[np.ix_(cells, cells)]
    np.fill_diagonal(disc, np.inf)
    masses = (sx.mass, sy.mass) if nx <= ny else (sy.mass, sx.mass)
    flow = _kept_mass(n_small, n_large, *masses)
    every = (1 << ncells) - 1

    def cliques(t, ok):
        rows = np.packbits(disc <= t, axis=1, bitorder="little")
        adj = [int.from_bytes(row.tobytes(), "little") for row in rows]
        return _cliques(adj, flow, ok, 0, every)

    lo, hi, kept = -1, len(thresholds), None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = thresholds[mid]
        found = next(cliques(t, lambda f: 1.0 - f <= t), None)
        if found is None:
            lo = mid
        else:
            hi, kept = mid, found
    value = thresholds[hi] if kept is not None else np.inf
    if lo >= 0:
        for K in cliques(thresholds[lo], lambda f: 1.0 - f < value):
            kept, value = K, 1.0 - flow(K)
    pairs = [divmod(int(cells[c]), ny) for c in _bits(kept)]
    return BoxEstimate(value, value, Coupling(_maxflow_coupling(pairs, sx.mass, sy.mass)), "exact")


# ---------------------------------------------------------------------------
# upper bounds


# Selection search takes O(restarts * m^2 log m + m^3) time for m coupling
# cells (m - 1 lockstep greedy steps, up to 4m 2-opt rounds of O(m^2) whose
# added cells are scored only when no dropped cell gains), more when many
# discrepancies tie; couplings are trimmed to this many heaviest cells, which
# keeps the bound certified (the trimmed cells just count as excluded mass).
MAX_SELECTION_CELLS = 256


def _candidate_couplings(sx, sy):
    """The three monotone couplings: both sides in mass order, in eccentricity
    order and in index order, each filled like a staircase."""
    nx, ny = sx.n, sy.n
    for key_x, key_y in (
        (np.argsort(-sx.mass, kind="stable"), np.argsort(-sy.mass, kind="stable")),
        (np.argsort(sx.dist @ sx.mass, kind="stable"), np.argsort(sy.dist @ sy.mass, kind="stable")),
        (np.arange(nx), np.arange(ny)),
    ):
        plan = np.zeros((nx, ny))
        ia, ja = 0, 0
        rowleft = sx.mass[key_x].copy()
        colleft = sy.mass[key_y].copy()
        while ia < nx and ja < ny:
            t = min(rowleft[ia], colleft[ja])
            plan[key_x[ia], key_y[ja]] += t
            rowleft[ia] -= t
            colleft[ja] -= t
            if rowleft[ia] <= 1e-15:
                ia += 1
            if colleft[ja] <= 1e-15:
                ja += 1
        yield plan


def _greedy_best(disc_sub, masses, orders):
    """Best value met by greedy removal by violation magnitude, one restart per
    row: row 0 drops the cell of largest discrepancy, small mass first, and
    row r > 0 breaks ties by ``orders[r - 1]``.  Every row drops one cell per
    step, so all rows run in lockstep; peak[r, k] is the largest discrepancy
    of kept cell k within row r's kept cells."""
    m = len(masses)
    rows = np.arange(len(orders) + 1)
    keep = np.ones((rows.size, m), dtype=bool)
    peak = np.tile(disc_sub.max(axis=1), (rows.size, 1))
    kept = np.tile(np.arange(m), (rows.size, 1))
    kept_peak = peak.copy()
    best = 1.0
    block = _block_rows(m)
    for _ in range(m - 1):
        key = np.empty(kept.shape)
        key[0] = kept_peak[0] * 1e6 - masses[kept[0]] * 1e-6
        ranks = np.argsort(orders[rows[:-1, None], kept[1:]], axis=1)
        key[1:] = kept_peak[1:] + ranks.astype(float) * 1e-9
        drop = kept[rows, np.argmax(key, axis=1)]
        keep[rows, drop] = False
        # only peaks attained at the dropped cell are recomputed
        stale_r, stale_k = np.nonzero(keep & (disc_sub[:, drop].T == peak))
        for s in range(0, stale_r.size, block):
            r, k = stale_r[s:s + block], stale_k[s:s + block]
            peak[r, k] = np.where(keep[r], disc_sub[k], -np.inf).max(axis=1)
        kept = np.nonzero(keep)[1].reshape(rows.size, -1)
        kept_peak = peak[rows[:, None], kept]
        vals = np.maximum(kept_peak.max(axis=1), 1.0 - masses[kept].sum(axis=1))
        best = min(best, float(vals.min()))
    return best


def _first_improving_flip(disc_sub, masses, keep, val):
    """First single flip of ``keep`` whose selection value is below
    ``val - 1e-15``, as (cell, value), or None: the kept cells in ascending
    order, then the unkept ones, which are scored only when no drop gains."""
    kept, unkept = np.flatnonzero(keep), np.flatnonzero(~keep)
    k = kept.size
    bound = val - 1e-15
    rows = disc_sub[kept]
    sub = rows[:, kept]
    if k >= 2:
        # without cell c, row j of the kept submatrix peaks at its second
        # largest entry if c holds its largest, else at its largest
        top = np.partition(sub, k - 2, axis=1)[:, -2:]
        rest = np.where(sub == top[:, 1:], top[:, :1], top[:, 1:])
        np.fill_diagonal(rest, -np.inf)
        others = np.broadcast_to(masses[kept], (k, k))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
        drops = np.maximum(rest.max(axis=0), 1.0 - others.sum(axis=1))
    else:
        drops = np.ones(k)
    hit = np.flatnonzero(drops < bound)
    if hit.size:
        return kept[hit[0]], float(drops[hit[0]])
    # with cell u added, the peak is the kept peak, column u or row u
    grown = np.maximum(disc_sub[unkept, unkept], sub.max() if k else -np.inf)
    if k:
        grown = np.maximum(grown, np.maximum(rows[:, unkept].max(axis=0),
                                             disc_sub[unkept][:, kept].max(axis=1)))
    wider = np.sort(np.column_stack([np.broadcast_to(kept, (unkept.size, k)), unkept]), axis=1)
    adds = np.maximum(grown, 1.0 - masses[wider].sum(axis=1))
    hit = np.flatnonzero(adds < bound)
    return (unkept[hit[0]], float(adds[hit[0]])) if hit.size else None


def _optimize_selection(disc_sub, masses, rng, restarts=32):
    """Greedy removal by violation magnitude plus 2-opt moves; returns best value.

    The greedy restarts run in lockstep (``_greedy_best``), in m - 1 steps
    of O(restarts * m log m).  A 2-opt round takes the first single flip of
    its state that improves, kept cells first (``_first_improving_flip``,
    O(m^2)); the search starts from the full selection and reads no order
    and no RNG, so one run serves every restart."""
    m = len(masses)
    orders = np.array([rng.permutation(m) for _ in range(restarts - 1)], dtype=np.intp)
    best = _greedy_best(disc_sub, masses, orders.reshape(-1, m))
    keep = np.ones(m, dtype=bool)
    val = max(float(disc_sub.max()), 1.0 - float(masses.sum()))
    for _ in range(4 * m):
        flip = _first_improving_flip(disc_sub, masses, keep, val)
        if flip is None:
            break
        c, val = flip
        keep[c] ^= True
    return min(best, val)


def _coupling_search_upper(sx: FinitePmSpace, sy: FinitePmSpace, restarts, seed):
    """Heuristic upper bound: best kept-cell value over the monotone couplings.

    The product coupling is not searched: keeping all its cells scores no
    better than keeping those of a monotone coupling, and its search was not
    strictly best on pairs of four or more points a side.  Its restart orders
    are still drawn and discarded, so the monotone couplings see the RNG
    stream they saw when it was searched."""
    rng = np.random.default_rng(seed)
    nx, ny = sx.n, sy.n
    if nx * ny <= 65536:
        m = min(int(np.count_nonzero(np.outer(sx.mass, sy.mass) > 1e-15)), MAX_SELECTION_CELLS)
        for _ in range(max(2, restarts * 64 // max(64, m)) - 1):
            rng.permutation(m)
    best, best_plan = 1.0, None
    for plan in _candidate_couplings(sx, sy):
        nz = np.nonzero(plan.ravel() > 1e-15)[0]
        if nz.size > MAX_SELECTION_CELLS:
            # keeping every cell needs no search and must be scored before
            # trimming, or a perfect coupling would look lossy
            if nz.size <= 4096:
                kept = float(plan.ravel()[nz].sum())
                val_full = max(_max_discrepancy(sx, sy, nz), 1.0 - kept)
                if val_full < best:
                    best, best_plan = val_full, plan
            heavy = np.argsort(-plan.ravel()[nz], kind="stable")[:MAX_SELECTION_CELLS]
            nz = np.sort(nz[heavy])
        disc_sub = _cell_discrepancy(sx, sy, nz)
        masses = plan.ravel()[nz]
        local_restarts = max(2, restarts * 64 // max(64, nz.size))
        val = _optimize_selection(disc_sub, masses, rng, local_restarts)
        if val < best:
            best, best_plan = val, plan
    return best, best_plan


def box_upper(sx: FinitePmSpace, sy: FinitePmSpace, restarts=32, seed=0):
    """Certified upper bound on the box distance via coupling search.

    Every candidate coupling and kept-cell selection realises admissible
    interval parameters, so the reported value is always attainable.
    """
    _check_count("restarts", restarts)
    _check_count("seed", seed, 0)
    if sx.n * sy.n <= EXACT_MAX_CELLS:
        est = box_exact_small(sx, sy)
        return BoxEstimate(0.0, est.upper, est.witness_coupling, "bound")
    best, best_plan = _coupling_search_upper(sx, sy, restarts, seed)
    witness = Coupling(best_plan) if best_plan is not None else None
    return BoxEstimate(0.0, best, witness, "bound")


# ---------------------------------------------------------------------------
# lower bounds


def _distance_distribution(sp):
    vals = sp.dist.ravel()
    weights = np.outer(sp.mass, sp.mass).ravel()
    order = np.argsort(vals, kind="stable")
    vals, weights = vals[order], weights[order]
    uniq, start = np.unique(vals, return_index=True)
    sums = np.add.reduceat(weights, start)
    return uniq, sums


def _levy(vals_a, w_a, vals_b, w_b):
    """Levy distance between two discrete distributions on the line."""
    # values are unique, so cdf[1:] is each atom's own CDF value
    cdf_a = np.concatenate(([0.0], np.cumsum(w_a)))
    cdf_b = np.concatenate(([0.0], np.cumsum(w_b)))

    def feasible(eps):
        for vals_p, cdf_p, vals_q, cdf_q in ((vals_a, cdf_a, vals_b, cdf_b),
                                             (vals_b, cdf_b, vals_a, cdf_a)):
            at = np.searchsorted(vals_q, vals_p + eps, side="right")
            if np.any(cdf_p[1:] > cdf_q[at] + eps + 1e-12):
                return False
        return True

    # bisect the bit patterns of the floats in [0, 1], which sort as the
    # floats do: about 62 steps to the smallest feasible float at any scale;
    # lo = -1 stands below 0.0, so 0.0 itself is found
    lo, hi = -1, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(np.int64(mid).view(np.float64)):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def box_lower(sx: FinitePmSpace, sy: FinitePmSpace):
    """Provable lower bound: half the Levy distance between the laws of the
    pairwise distance (sampled by the product of the measure with itself).

    A box distance below eps aligns the distance functions outside a set of
    parameter-square measure <= 2 eps, which caps the Levy discrepancy at
    2 eps; halving inverts that."""
    va, wa = _distance_distribution(sx)
    vb, wb = _distance_distribution(sy)
    return _levy(va, wa, vb, wb) / 2.0


# ---------------------------------------------------------------------------
# convergence witness


def box_converges(sequence, limit: FinitePmSpace, tol, seed=0):
    """True when box upper bounds against the limit end below ``tol`` with a
    nonincreasing trend over the last third of the sequence."""
    sequence = list(sequence)
    if not sequence:
        raise InputError("box_converges needs a non-empty sequence")
    _check_positive("tol", tol)
    uppers = [box_upper(sp, limit, seed=seed).upper for sp in sequence]
    tail = uppers[-max(1, len(uppers) // 3):]
    if any(u >= tol for u in tail):
        return False
    return all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
