"""Box-distance computation between finite spaces.

A parameter pair of two finite spaces induces a coupling of the mass vectors,
and conversely every coupling is realised by interval parameters, so the box
distance reduces to a search over couplings together with a choice of "kept"
coupling cells: keeping a set S of cells forces the metric discrepancy of
every pair of kept cells below epsilon and the discarded mass below epsilon.
For a fixed S the best coupling only matters through the maximal mass it can
place on S, which is a tiny transportation max-flow.  The exact small-instance
value is therefore

    min over S subset of X x Y of max( maxdisc(S), 1 - maxflow(S) )

with no coupling-lattice restriction.  Larger instances get certified upper
bounds from structured couplings plus seeded local search over kept cells, and
lower bounds from the Levy distance between the pairwise-distance
distributions (a provable consequence of a small box distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_TRIANGLE_BLOCK_ELEMENTS, Coupling, FinitePmSpace, InputError, SizeLimitError,
                   _check_count, _subset_fold)

EXACT_MAX_CELLS = 12


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
    """``_cell_discrepancy(sx, sy, cells).max()`` from row blocks of at most
    _TRIANGLE_BLOCK_ELEMENTS values, so no |cells| x |cells| matrix is made."""
    rows = max(1, _TRIANGLE_BLOCK_ELEMENTS // cells.size)
    return max(float(_cell_discrepancy(sx, sy, cells[s:s + rows], cells).max())
               for s in range(0, cells.size, rows))


def _maxflow_coupling(kept_cells, mass_x, mass_y):
    """Coupling placing maximal mass on the kept cells (Ford-Fulkerson with
    breadth-first augmenting paths), extended to a full coupling by pairing the
    leftover marginals."""
    nx, ny = len(mass_x), len(mass_y)
    flow = np.zeros((nx, ny))
    allowed = np.zeros((nx, ny), dtype=bool)
    for i, j in kept_cells:
        allowed[i, j] = True
    while True:
        row_res = mass_x - flow.sum(axis=1)
        col_res = mass_y - flow.sum(axis=0)
        # BFS over rows: a row reaches columns through kept cells, a column
        # reaches rows back through cells that carry flow.  row_from[i] is the
        # column that reached row i (-1: the source, -2: unreached), col_from[j]
        # the row that reached column j (-1: unreached).
        row_from = np.where(row_res > 1e-15, -1, -2)
        col_from = np.full(ny, -1)
        queue, goal = list(np.flatnonzero(row_from == -1)), None
        for i in queue:
            for j in np.flatnonzero(allowed[i] & (col_from < 0)):
                col_from[j] = i
                if col_res[j] > 1e-15:
                    goal = j
                    break
                rows = np.flatnonzero((flow[:, j] > 1e-15) & (row_from == -2))
                row_from[rows] = j
                queue.extend(rows)
            if goal is not None:
                break
        if goal is None:
            break
        # walk back to the source, take the bottleneck and augment
        fwd, back, j = [], [], goal
        while j >= 0:
            i = col_from[j]
            fwd.append((i, j))
            j = row_from[i]
            if j >= 0:
                back.append((i, j))
        bottleneck = min([row_res[i], col_res[goal]] + [flow[c] for c in back])
        if bottleneck <= 1e-15:
            break
        for c in fwd:
            flow[c] += bottleneck
        for c in back:
            flow[c] -= bottleneck
    row_res = np.maximum(mass_x - flow.sum(axis=1), 0.0)
    col_res = np.maximum(mass_y - flow.sum(axis=0), 0.0)
    slack = row_res.sum()
    if slack > 1e-14:
        flow = flow + np.outer(row_res, col_res) / slack
    return flow


def _all_maxdisc(disc, ncells):
    """maxdisc[mask]: largest pairwise discrepancy among the cells in mask.

    A mask whose highest cell is i adds to the mask below it the largest
    disc[i, k] over its cells k < i: below[mask] folds the lower triangle
    of ``disc``, column i of which is that maximum."""
    below = _subset_fold(np.maximum, np.tril(disc, -1).T)
    md = np.zeros(1 << ncells)
    for i in range(ncells):
        step = 1 << i
        md[step:2 * step] = np.maximum(md[:step], below[:step, i])
    return md


def _all_maxflow(masks_count, nx, ny, mass_x, mass_y):
    """Vectorised maximal kept mass per cell mask via min vertex covers.

    A cover takes a subset A of the smaller side and, on the other side,
    the points its kept cells reach; cut[A] is the mass outside A and
    reach[A] one bitmask of those points per cell mask."""
    masks = np.arange(masks_count, dtype=np.int64)
    kept = ((masks[:, None] >> np.arange(nx * ny)) & 1).reshape(-1, nx, ny)
    if nx > ny:
        kept, nx, ny, mass_x, mass_y = kept.transpose(0, 2, 1), ny, nx, mass_y, mass_x
    reached = (kept @ (1 << np.arange(ny))).T  # reached[i][mask]: bits of the kept (i, y)
    cut = _subset_fold(np.add, mass_x)[::-1]
    reach = _subset_fold(np.bitwise_or, reached, np.int64)
    cover = _subset_fold(np.add, mass_y)[reach]
    cover += cut[:, None]
    return np.minimum(cover.min(axis=0), 1.0)


def box_exact_small(sx: FinitePmSpace, sy: FinitePmSpace):
    """Exact box distance for |X| * |Y| <= 12 cells by subset enumeration over
    kept cells with the per-subset transportation max-flow in closed form."""
    nx, ny = sx.n, sy.n
    ncells = nx * ny
    if ncells > EXACT_MAX_CELLS:
        raise SizeLimitError(f"exact box distance is limited to {EXACT_MAX_CELLS} cells")
    disc = _cell_discrepancy(sx, sy, np.arange(ncells))
    size = 1 << ncells
    maxdisc = _all_maxdisc(disc, ncells)
    kept = _all_maxflow(size, nx, ny, sx.mass, sy.mass)
    vals = np.maximum(maxdisc, 1.0 - kept)
    best_mask = int(np.argmin(vals))
    best_val = max(0.0, float(vals[best_mask]))
    cells = [(c // ny, c % ny) for c in range(ncells) if (best_mask >> c) & 1]
    witness = Coupling(_maxflow_coupling(cells, sx.mass, sy.mass)) if cells else None
    return BoxEstimate(best_val, best_val, witness, "exact")


# ---------------------------------------------------------------------------
# upper bounds


# Selection search takes O(restarts * m^2 log m + m^3) time for m coupling
# cells (m - 1 lockstep greedy steps, up to 4m 2-opt rounds of O(m^2)), more
# when many discrepancies tie; couplings are trimmed to this many heaviest
# cells, which keeps the bound certified (the trimmed cells just count as
# excluded mass).
MAX_SELECTION_CELLS = 256


def _candidate_couplings(sx, sy):
    nx, ny = sx.n, sy.n
    if nx * ny <= 65536:
        yield np.outer(sx.mass, sy.mass)
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
            if ja < ny and colleft[ja] <= 1e-15:
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
    block = max(1, _TRIANGLE_BLOCK_ELEMENTS // m)
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


def _flip_values(disc_sub, masses, keep):
    """Selection value after flipping each single cell of ``keep``: the kept
    cells in ascending order, then the unkept ones."""
    kept, unkept = np.flatnonzero(keep), np.flatnonzero(~keep)
    k = kept.size
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
    # with cell u added, the peak is the kept peak, column u or row u
    grown = np.maximum(disc_sub[unkept, unkept], sub.max() if k else -np.inf)
    if k:
        grown = np.maximum(grown, np.maximum(rows[:, unkept].max(axis=0),
                                             disc_sub[unkept][:, kept].max(axis=1)))
    wider = np.sort(np.column_stack([np.broadcast_to(kept, (unkept.size, k)), unkept]), axis=1)
    adds = np.maximum(grown, 1.0 - masses[wider].sum(axis=1))
    return np.concatenate([drops, adds])


def _optimize_selection(disc_sub, masses, rng, restarts=32):
    """Greedy removal by violation magnitude plus 2-opt moves; returns best value.

    The greedy restarts run in lockstep (``_greedy_best``), in m - 1 steps
    of O(restarts * m log m).  A 2-opt round scores every single flip of its
    state at once (``_flip_values``, O(m^2)) and takes the first that
    improves, kept cells first; the search starts from the full selection
    and reads no order and no RNG, so one run serves every restart."""
    m = len(masses)
    orders = np.array([rng.permutation(m) for _ in range(restarts - 1)], dtype=np.intp)
    best = _greedy_best(disc_sub, masses, orders.reshape(-1, m))
    keep = np.ones(m, dtype=bool)
    val = max(float(disc_sub.max()), 1.0 - float(masses.sum()))
    for _ in range(4 * m):
        vals = _flip_values(disc_sub, masses, keep)
        better = np.flatnonzero(vals < val - 1e-15)
        if not better.size:
            break
        val = float(vals[better[0]])
        cells = np.concatenate([np.flatnonzero(keep), np.flatnonzero(~keep)])
        keep[cells[better[0]]] ^= True
    return min(best, val)


def _coupling_search_upper(sx: FinitePmSpace, sy: FinitePmSpace, restarts, seed):
    """Heuristic upper bound: best kept-cell value over candidate couplings."""
    rng = np.random.default_rng(seed)
    best, best_plan = 1.0, None
    for plan in _candidate_couplings(sx, sy):
        nz = np.nonzero(plan.ravel() > 1e-15)[0]
        if nz.size == 0:
            continue
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
    return min(best, 1.0), best_plan


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


def _levy(vals_a, w_a, vals_b, w_b, tol=1e-12):
    """Levy distance between two discrete distributions on the line."""
    # values are unique, so cdf[1:] is each atom's own CDF value
    cdf_a = np.concatenate(([0.0], np.cumsum(w_a)))
    cdf_b = np.concatenate(([0.0], np.cumsum(w_b)))

    def feasible(eps):
        for vals_p, cdf_p, vals_q, cdf_q in ((vals_a, cdf_a, vals_b, cdf_b),
                                             (vals_b, cdf_b, vals_a, cdf_a)):
            at = np.searchsorted(vals_q, vals_p + eps, side="right")
            if np.any(cdf_p[1:] > cdf_q[at] + eps + tol):
                return False
        return True

    lo, hi = 0.0, 1.0
    if feasible(0.0):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def box_lower(sx: FinitePmSpace, sy: FinitePmSpace):
    """Provable lower bound: half the Levy distance between the laws of the
    pairwise distance (sampled by the product of the measure with itself).

    A box distance below eps aligns the distance functions outside a set of
    parameter-square measure <= 2 eps, which caps the Levy discrepancy at
    2 eps; halving inverts that."""
    va, wa = _distance_distribution(sx)
    vb, wb = _distance_distribution(sy)
    return max(0.0, _levy(va, wa, vb, wb) / 2.0)


# ---------------------------------------------------------------------------
# convergence witness


def box_converges(sequence, limit: FinitePmSpace, tol, seed=0):
    """True when box upper bounds against the limit end below ``tol`` with a
    nonincreasing trend over the last third of the sequence."""
    sequence = list(sequence)
    if not sequence:
        raise InputError("box_converges needs a non-empty sequence")
    if not 0 < tol < np.inf:
        raise InputError(f"tol must be finite and positive, got {tol!r}")
    uppers = [box_upper(sp, limit, seed=seed).upper for sp in sequence]
    k = max(1, len(uppers) // 3)
    tail = uppers[-k:]
    if any(u >= tol for u in tail):
        return False
    return all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
