"""Finite metric measure spaces: representation, validation, measure distances,
products, scaling and isomorphism testing.

A space is stored support-only: every stored point carries strictly positive
mass and the mass vector sums to one, so ``diam`` of the stored matrix is the
diameter of the support by construction.  All values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Global tolerance knobs: structural validation vs. equality of derived reals.
VALIDATION_TOL = 1e-12
REAL_TOL = 1e-9

# Exact-search size limits (beyond them a SizeLimitError, CLI exit code 3).
ISOMORPHISM_MAX_POINTS = 10
PROKHOROV_MAX_POINTS = 20

# Above this size the triangle-inequality sweep takes blocks of rows against
# one j at a time in a reused, cache-sized buffer instead of an n^3 tensor;
# the Euclidean metric of coords, the box metric's cell discrepancies and the
# 1-D trial family come in row blocks of the same size.
_TRIANGLE_BLOCK_LIMIT = 48
_TRIANGLE_BLOCK_ELEMENTS = 65536


class InputError(ValueError):
    """Malformed arguments or files (CLI exit code 2)."""


class SizeLimitError(RuntimeError):
    """An exact search was requested beyond its guaranteed size (exit code 3)."""


class InvalidSpaceError(InputError):
    """A space failed structural validation; repairs are never attempted."""


@dataclass(frozen=True)
class Violation:
    """First failed invariant of a space: a code, the offending indices, and text."""

    code: str
    indices: tuple
    message: str

    def __str__(self):
        return self.message


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FinitePmSpace:
    """Distance matrix plus probability mass vector over opaque point labels.

    ``mass_rational`` optionally carries the masses as exact fractions (used by
    the order-search module for exact pushforward matching).  ``coords``
    optionally carries sample coordinates, one row per point, whose columns
    ``validate`` requires to be 1-Lipschitz for the metric.  A space built
    with ``dist=None`` takes the Euclidean distances of its ``coords`` rows
    (``_euclidean_rows``) as its metric; they are computed on the first read
    of ``dist`` and kept, so code that only reads ``coords`` never builds the
    n x n matrix.
    """

    points: tuple
    _dist: np.ndarray | None
    mass: np.ndarray
    mass_rational: tuple | None = None
    coords: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "mass", _freeze(self.mass))
        if self.coords is not None:
            object.__setattr__(self, "coords", _freeze(self.coords))
        if self._dist is not None:
            object.__setattr__(self, "_dist", _freeze(self._dist))
        if self.coords is not None or self._dist is None:
            if self.coords is None or self.coords.ndim != 2 or len(self.coords) != self.n:
                raise InvalidSpaceError(
                    "coords need one row per point (a space without dist needs coords)"
                )
        if self.mass_rational is not None:
            object.__setattr__(
                self, "mass_rational", tuple(Fraction(r) for r in self.mass_rational)
            )

    @property
    def dist(self):
        """The read-only n x n distance matrix."""
        if self._dist is None:
            c, D = self.coords, np.empty((self.n, self.n))
            rows = max(1, _TRIANGLE_BLOCK_ELEMENTS // max(1, self.n))
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, self.n, rows):
                    D[start:start + rows] = _euclidean_rows(c[start:start + rows], c)
            object.__setattr__(self, "_dist", _freeze(D))
        return self._dist

    @property
    def n(self):
        return len(self.points)

    def diam(self):
        return float(self.dist.max()) if self.n else 0.0


def space(points, dist, mass, mass_rational=None, coords=None):
    """Build a space and reject it if any invariant fails."""
    sp = FinitePmSpace(points, dist, mass, mass_rational, coords)
    check_valid(sp)
    return sp


def validate(sp: FinitePmSpace):
    """Return the first violated invariant of ``sp`` or None.  Total function."""
    n = sp.n
    if n == 0:
        return Violation("empty", (), "space has no support points")
    D, m = sp.dist, sp.mass
    if D.shape != (n, n):
        return Violation("shape", D.shape, f"dist must be {n}x{n}, got {D.shape}")
    if m.shape != (n,):
        return Violation("shape", m.shape, f"mass must have length {n}")
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        return Violation("finite", (int(i), int(j)), f"dist[{i}][{j}] is not finite")
    bad = np.argwhere(np.abs(np.diag(D)) > VALIDATION_TOL)
    if bad.size:
        i = int(bad[0][0])
        return Violation("diagonal", (i,), f"dist[{i}][{i}] = {D[i, i]} != 0")
    asym = np.abs(D - D.T)
    if asym.max() > VALIDATION_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        return Violation("symmetry", (int(i), int(j)), f"dist[{i}][{j}] != dist[{j}][{i}]")
    if n > 1:
        off = D + np.diag([np.inf] * n)
        if off.min() <= 0:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            return Violation(
                "positivity", (int(i), int(j)), f"dist[{i}][{j}] = {D[i, j]} <= 0 for i != j"
            )
    tri = None if _euclidean_certified(sp.coords, D) else _triangle_violation(D)
    if tri is not None:
        i, j, k, gap = tri
        return Violation(
            "triangle",
            (i, j, k),
            f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] by {gap:.3e}",
        )
    v = _mass_violation(sp)
    return v if v is not None else _projection_violation(sp.coords, D)


def _mass_violation(sp: FinitePmSpace):
    """The first violated mass invariant of ``sp`` (the mass checks of
    ``validate``) or None; reads no distances."""
    n, m = sp.n, sp.mass
    if m.shape != (n,):
        return Violation("shape", m.shape, f"mass must have length {n}")
    if np.any(m <= 0):
        i = int(np.argmin(m))
        return Violation("mass_positive", (i,), f"mass[{i}] = {m[i]} <= 0 (support-only storage)")
    s = float(m.sum())
    if abs(s - 1.0) > VALIDATION_TOL:
        return Violation("mass_sum", (), f"sum(mass) = {s!r} != 1")
    if sp.mass_rational is not None:
        if len(sp.mass_rational) != n:
            return Violation("mass_rational", (), "mass_rational length mismatch")
        if sum(sp.mass_rational) != 1:
            return Violation("mass_rational", (), "mass_rational does not sum to 1")
        for i, r in enumerate(sp.mass_rational):
            if abs(float(r) - m[i]) > 1e-9:
                return Violation("mass_rational", (i,), f"mass_rational[{i}] != mass[{i}]")
    return None


def _projection_violation(coords, D):
    """The first coordinate that is not finite, or the first coordinate
    column that is not 1-Lipschitz for ``D`` within the validation tolerance
    relative to the diameter, as a ``coords`` Violation; None without coords."""
    if coords is None:
        return None
    if not np.all(np.isfinite(coords)):
        i, c = np.argwhere(~np.isfinite(coords))[0]
        return Violation("coords", (int(i), int(c)), f"coords[{i}][{c}] is not finite")
    tol = VALIDATION_TOL * max(1.0, float(D.max()))
    gap = np.empty_like(D)  # one buffer for every column: |c_i - c_j| - D[i, j]
    for c, col in enumerate(coords.T):
        np.abs(np.subtract.outer(col, col, out=gap), out=gap)
        if np.subtract(gap, D, out=gap).max() > tol:
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            return Violation(
                "coords",
                (int(i), int(j), c),
                f"coordinate {c} of points {i} and {j} differs by more than dist[{i}][{j}]",
            )
    return None


def _euclidean_certified(coords, D):
    """True when no triangle excess ``_triangle_violation(D)`` computes can
    exceed the tolerance, proved in O(n^2 d) from the distance of ``D`` to
    the Euclidean metric of ``coords``; False when it cannot be proved this
    way (no coords, coords of another metric, or NaN or inf anywhere), and
    then the sweep decides.

    With u = 2^-53, E the exact Euclidean metric of the n x d coordinate
    rows and Ê its evaluation here, per row block, as sqrt of the sum over
    columns (left to right from 0) of the squared differences:

    - Each square carries three roundings and each of d - 1 additions one, so
      the computed sum is S(1 + t) with |t| <= g = (d+2)u / (1 - (d+2)u), and
      with the square root Ê = E(1 + e), |e| <= g/2 + g^2/2 + u(1 + g) <=
      (d+4)/2 u + (d+4)^2 u^2 < rho = (d+5)/2 u while d <= 2^20.  Squares that
      underflow add at most 2^-1075 each, so the sum moves by at most
      d 2^-1074 and Ê by at most sqrt(d) 2^-537 (a difference that
      underflows is exact).  Hence |Ê - E| <= rho M (1 + rho) + sqrt(d)
      2^-535, where M = max(max D, max Ê).
    - The differences Ê - D are rounded once, so max |D - Ê| is at most the
      computed one times 1 + 2u, and eps = max|D - Ê| (1 + 2u) + rho M
      (1 + rho) + sqrt(d) 2^-535 bounds |D - E| entrywise.
    - E is a metric, so in real arithmetic D[i,k] - D[i,j] - D[j,k] <= 3 eps.
      The sweep computes (a - b) - c for n <= _TRIANGLE_BLOCK_LIMIT and
      a - (b + c) above; with a, b, c in [0, M] the first rounding moves the
      result by at most u|a - b| <= u M or u(b + c) <= 2u M, and the second
      scales a positive result by at most 1 + u.  Every computed excess is
      therefore at most B = (3 eps + 2u M)(1 + 2u).

    B is evaluated with its last factor widened to 1 + 16u, which covers the
    at most eight roundings of evaluating it (every term is nonnegative; if
    M < 1e-300 every computed excess is below M anyway).  NaN or inf in Ê
    or in the error makes the bound NaN or inf, which fails the comparison.
    Row blocks of at most _TRIANGLE_BLOCK_ELEMENTS values hold Ê, which
    ``_euclidean_rows`` evaluates, so no n x n buffer is made.
    """
    if coords is None or coords.shape[1] > 1 << 20:
        return False
    n, d = coords.shape
    u = 2.0 ** -53
    rows = max(1, _TRIANGLE_BLOCK_ELEMENTS // n)
    far = err = 0.0  # max Ê and max |Ê - D|, with NaN kept by np.maximum
    with np.errstate(all="ignore"):
        for start in range(0, n, rows):
            s = _euclidean_rows(coords[start:start + rows], coords)
            far = np.maximum(far, s.max())
            err = np.maximum(err, np.abs(np.subtract(s, D[start:start + rows], out=s), out=s).max())
        M = np.maximum(far, D.max())
        rho = (d + 5) / 2 * u
        eps = err * (1 + 2 * u) + rho * M * (1 + rho) + math.sqrt(d) * 2.0 ** -535
        return bool((3 * eps + 2 * u * M) * (1 + 16 * u) <= VALIDATION_TOL)


def _euclidean_rows(block, coords):
    """Euclidean distances from each row of ``block`` to every row of
    ``coords``: the square root of the squared column differences summed
    left to right from 0, as scipy's ``pdist`` sums them."""
    s = np.zeros((len(block), len(coords)))
    for part, col in zip(block.T, coords.T):
        t = np.subtract.outer(part, col)
        s += t * t
    return np.sqrt(s, out=s)


def _triangle_violation(D):
    """(i, j, k, gap) for the first found D[i, k] - (D[i, j] + D[j, k]) above
    the tolerance, with the gap as measured, or None."""
    n = D.shape[0]
    if n <= 2:
        return None
    if n <= _TRIANGLE_BLOCK_LIMIT:
        gap = D[:, None, :] - D[:, :, None] - D[None, :, :]
        if gap.max() <= VALIDATION_TOL:
            return None
        i, j, k = np.unravel_index(int(np.argmax(gap)), gap.shape)
        return int(i), int(j), int(k), float(gap[i, j, k])
    rows = max(1, _TRIANGLE_BLOCK_ELEMENTS // n)
    buf = np.empty((rows, n))
    for start, j in itertools.product(range(0, n, rows), range(n)):
        block = D[start:start + rows]
        out = np.add(block[:, j, None], D[j], out=buf[:len(block)])
        if np.subtract(block, out, out=out).max() > VALIDATION_TOL:
            break
    else:
        return None
    # report the smallest violating j, then the largest gap over (i, k)
    for j in range(n):
        gap = D - (D[:, j][:, None] + D[j][None, :])
        if gap.max() > VALIDATION_TOL:
            i, k = np.unravel_index(int(np.argmax(gap)), gap.shape)
            return int(i), j, int(k), float(gap[i, k])


def _check_count(name, value, low=1):
    """InputError unless ``value`` is an integer >= ``low``; a bool is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise InputError(f"{name} must be an integer >= {low}, got {value!r}")


def check_valid(sp: FinitePmSpace):
    v = validate(sp)
    if v is not None:
        raise InvalidSpaceError(str(v))
    return sp


@dataclass(frozen=True, eq=False)
class LipschitzFunction:
    """Real values on a space's support together with a certified Lipschitz bound."""

    values: np.ndarray
    lip_bound: float

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if not self.lip_bound >= 0:
            raise InputError("lip_bound must be >= 0")
        if not np.isfinite(self.values).all():
            raise InputError("function values must be finite")


def lipschitz_constant(sp: FinitePmSpace, values):
    """Smallest L with |f_i - f_j| <= L d_ij; 0 on a one-point space."""
    f = np.asarray(values, dtype=float)
    if sp.n <= 1:
        return 0.0
    diff = np.abs(f[:, None] - f[None, :])
    off = ~np.eye(sp.n, dtype=bool)
    return float((diff[off] / sp.dist[off]).max())


def as_lipschitz(sp: FinitePmSpace, values, lip_bound=None):
    """Wrap values into a LipschitzFunction, certifying the bound."""
    L = lipschitz_constant(sp, values)
    if lip_bound is None:
        lip_bound = L
    elif L > lip_bound + REAL_TOL:
        raise InputError(f"values have Lipschitz constant {L} > certified bound {lip_bound}")
    return LipschitzFunction(values, float(lip_bound))


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint nonnegative mass matrix between two spaces (rows X, columns Y)."""

    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint", _freeze(self.joint))

    def check_margins(self, mass_x, mass_y, tol=VALIDATION_TOL):
        if np.abs(self.joint.sum(axis=1) - mass_x).max() > tol:
            raise InputError("coupling row sums do not match the first marginal")
        if np.abs(self.joint.sum(axis=0) - mass_y).max() > tol:
            raise InputError("coupling column sums do not match the second marginal")
        return self


# ---------------------------------------------------------------------------
# basic operations


def scale(sp: FinitePmSpace, t):
    """Metric scale change: multiply all distances, and any coordinates, by
    t > 0; masses unchanged."""
    if not t > 0:
        raise InputError(f"scale factor must be positive, got {t}")
    t = float(t)
    coords = None if sp.coords is None else sp.coords * t
    return FinitePmSpace(sp.points, sp.dist * t, sp.mass, sp.mass_rational, coords)


def _combine_lp(a, b, p):
    if p == math.inf:
        return np.maximum(a, b)
    return (a**p + b**p) ** (1.0 / p)


def product(sx: FinitePmSpace, sy: FinitePmSpace, p):
    """l_p product: Cartesian points, l_p-combined distances, tensor masses."""
    if not p >= 1:
        raise InputError(f"product exponent must satisfy p >= 1, got {p}")
    pts = tuple((a, b) for a in sx.points for b in sy.points)
    cx, cy = divmod(np.arange(sx.n * sy.n), sy.n)
    D = _combine_lp(sx.dist[np.ix_(cx, cx)], sy.dist[np.ix_(cy, cy)], p)
    m = np.outer(sx.mass, sy.mass).ravel()
    mr = None
    if sx.mass_rational is not None and sy.mass_rational is not None:
        mr = tuple(a * b for a in sx.mass_rational for b in sy.mass_rational)
    return FinitePmSpace(pts, D, m, mr)


def mm_isomorphic(sx: FinitePmSpace, sy: FinitePmSpace):
    """Decide mm-isomorphism by searching mass-compatible support bijections.

    Exact up to ``REAL_TOL`` on masses and distances; limited to
    ``ISOMORPHISM_MAX_POINTS`` points.
    """
    if sx.n > ISOMORPHISM_MAX_POINTS or sy.n > ISOMORPHISM_MAX_POINTS:
        raise SizeLimitError(f"mm_isomorphic is limited to {ISOMORPHISM_MAX_POINTS} points")
    n = sx.n
    if n != sy.n:
        return False
    if abs(sx.diam() - sy.diam()) > REAL_TOL:
        return False
    # Candidate targets must match mass and the multiset of incident distances.
    cand = []
    for i in range(n):
        di = np.sort(sx.dist[i])
        row = [
            j
            for j in range(n)
            if abs(sy.mass[j] - sx.mass[i]) <= REAL_TOL
            and np.max(np.abs(np.sort(sy.dist[j]) - di)) <= REAL_TOL
        ]
        if not row:
            return False
        cand.append(row)

    used = [False] * n
    assign = [-1] * n
    order = sorted(range(n), key=lambda i: len(cand[i]))
    dx, dy = sx.dist.tolist(), sy.dist.tolist()

    def rec(k):
        if k == n:
            return True
        i = order[k]
        for j in cand[i]:
            if used[j] or any(abs(dx[i][i2] - dy[j][assign[i2]]) > REAL_TOL for i2 in order[:k]):
                continue
            used[j] = True
            assign[i] = j
            if rec(k + 1):
                return True
            used[j] = False
            assign[i] = -1
        return False

    return rec(0)


def total_variation(mass_a, mass_b):
    """Half-sum total variation between probability vectors on a common space."""
    a = np.asarray(mass_a, dtype=float)
    b = np.asarray(mass_b, dtype=float)
    if a.shape != b.shape or not np.isfinite([a, b]).all():
        raise InputError("total_variation requires finite vectors of the same length")
    return 0.5 * float(np.abs(a - b).sum())


def prokhorov(sp: FinitePmSpace, mass_a, mass_b):
    """Exact Prokhorov distance between two probability vectors on ``sp``.

    The feasibility condition b(A) <= a(closed eps-ball of A) + eps is checked
    against all 2^n subsets A; the ball pattern is constant between consecutive
    pairwise distances, so the infimum lies on a finite candidate set.
    """
    n = sp.n
    if n > PROKHOROV_MAX_POINTS:
        raise SizeLimitError(
            f"prokhorov subset enumeration is limited to {PROKHOROV_MAX_POINTS} points"
        )
    a = np.asarray(mass_a, dtype=float)
    b = np.asarray(mass_b, dtype=float)
    if a.shape != (n,) or b.shape != (n,) or not np.isfinite([a, b]).all():
        raise InputError("mass vectors must be finite and match the space")

    amass = _subset_fold(np.add, a)
    bmass = _subset_fold(np.add, b)

    def gap(t):
        # bitmask of each closed ball of radius t, then of the ball of every subset
        balls = (sp.dist <= t + VALIDATION_TOL).astype(np.int64) @ (1 << np.arange(n))
        union = _subset_fold(np.bitwise_or, balls, np.int64)
        return float(np.max(bmass - amass[union]))

    return max(0.0, min(1.0, _smallest_fixed_point(sp.dist.ravel(), gap)))


def _smallest_fixed_point(values, excess):
    """Smallest eps >= 0 with excess(eps) <= eps for an ``excess`` that is
    nonincreasing and constant between the thresholds 0 and ``values``: the
    first max(t, excess(t)) below the next threshold, scanning t upward."""
    thresholds = np.unique(np.concatenate(([0.0], values))).tolist()
    for t, nxt in zip(thresholds, thresholds[1:] + [math.inf]):
        cand = max(t, excess(t))
        if cand < nxt:
            return cand
    return 1.0  # unreachable: the last threshold always yields a candidate


def _subset_fold(ufunc, values, dtype=float):
    """out[mask] = ufunc folded over values[i] for the bits i set in mask,
    starting from 0 for the empty mask, over all 2^len(values) masks."""
    out = np.zeros(1 << len(values), dtype=dtype)
    for i, v in enumerate(values):
        step = 1 << i
        out = out.reshape(-1, 2 * step)
        out[:, step:] = ufunc(out[:, :step], v)
        out = out.ravel()
    return out


def ky_fan(sp: FinitePmSpace, f: LipschitzFunction, g: LipschitzFunction):
    """Smallest eps with mass{|f - g| > eps} <= eps, by a sorted scan."""
    d = np.abs(f.values - g.values)
    if d.shape != (sp.n,):
        raise InputError("functions must live on the given space")
    return _smallest_fixed_point(d, lambda t: float(sp.mass[d > t + VALIDATION_TOL].sum()))


def _row_dots(F, w):
    """np.dot(F[r], w) for every row r of F, bit for bit: np.matmul makes one
    dot call per row of the stack, the call np.dot makes, where ``F @ w``
    rounds differently."""
    return np.matmul(F[:, None, :], w[:, None])[:, 0, 0]


def _central_moment(weights, values, p=2):
    """sum of w |f - mean|^p about the w-weighted mean of f, or the largest
    deviation |f - mean| when p is infinite; one value per row when
    ``values`` is a matrix of rows f."""
    w = np.asarray(weights, dtype=float)
    f = np.asarray(values, dtype=float)
    F = f.reshape(-1, f.shape[-1])
    dev = np.abs(F - _row_dots(F, w)[:, None])
    out = dev.max(axis=1) if p == math.inf else _row_dots(dev ** p, w)
    return out if f.ndim == 2 else float(out[0])


def entropy(sp: FinitePmSpace, f):
    """Relative entropy functional sum(f log f dm) - (sum f dm) log(sum f dm).

    Nonnegative by Jensen; 0 log 0 is read as 0.  Rejects negative entries.
    """
    v = np.asarray(f, dtype=float)
    if np.any(v < 0):
        raise InputError("entropy requires nonnegative values")
    return entropy_weighted(sp.mass, v)


def entropy_weighted(weights, v):
    w = np.asarray(weights, dtype=float)
    v = np.asarray(v, dtype=float)
    pos = v > 0
    s1 = float(np.sum(w[pos] * v[pos] * np.log(v[pos])))
    mean = float(np.sum(w * v))
    s2 = mean * math.log(mean) if mean > 0 else 0.0
    return s1 - s2


def mcshane_extend(sp: FinitePmSpace, subset, f_values, lip_bound):
    """Extend an L-Lipschitz function from a subset of support indices to all of
    the space via x -> min over y of f(y) + L d(x, y)."""
    subset = list(subset)
    if not subset:
        raise InputError("mcshane_extend needs a non-empty subset")
    fv = np.asarray(f_values, dtype=float)
    if fv.shape != (len(subset),):
        raise InputError("f_values must match the subset length")
    L = float(lip_bound)
    for a, b in itertools.combinations(range(len(subset)), 2):
        if abs(fv[a] - fv[b]) > L * sp.dist[subset[a], subset[b]] + REAL_TOL:
            raise InputError("input is not L-Lipschitz on the subset")
    ext = np.min(fv[None, :] + L * sp.dist[:, subset], axis=1)
    return LipschitzFunction(ext, L)


# ---------------------------------------------------------------------------
# JSON space format: {"points": [str], "dist": [[num]], "mass": [num]}
# with optional "mass_rational": ["p/q", ...] and "coords": [[num], ...].


def to_json_dict(sp: FinitePmSpace):
    d = {
        "points": [str(p) for p in sp.points],
        "dist": [[float(x) for x in row] for row in sp.dist],
        "mass": [float(x) for x in sp.mass],
    }
    if sp.mass_rational is not None:
        d["mass_rational"] = [f"{r.numerator}/{r.denominator}" for r in sp.mass_rational]
    if sp.coords is not None:
        d["coords"] = [[float(x) for x in row] for row in sp.coords]
    return d


def from_json_dict(d):
    try:
        points = d["points"]
        dist = d["dist"]
        mass = d["mass"]
    except (KeyError, TypeError) as e:
        raise InputError(f"space JSON is missing field: {e}") from e
    if not isinstance(points, list):
        raise InputError("space JSON points must be a list")
    mr = None
    if "mass_rational" in d:
        try:
            mr = tuple(Fraction(s) for s in d["mass_rational"])
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as e:
            raise InputError(f"bad mass_rational entry: {e}") from e
    try:
        dist = np.asarray(dist, dtype=float)
        mass = np.asarray(mass, dtype=float)
        coords = np.asarray(d["coords"], dtype=float) if "coords" in d else None
    except (TypeError, ValueError) as e:
        raise InputError(f"space JSON arrays must be rectangular and numeric: {e}") from e
    return space(points, dist, mass, mass_rational=mr, coords=coords)


def save_space(sp: FinitePmSpace, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(sp), fh)
        fh.write("\n")


def load_space(path):
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read space file {path}: {e}") from e
    return from_json_dict(d)
