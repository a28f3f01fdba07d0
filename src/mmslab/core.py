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
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Global tolerance knobs: structural validation vs. equality of derived reals.
VALIDATION_TOL = 1e-12
REAL_TOL = 1e-9
_DISTANCE_FLOOR = 2.0 ** -480  # the least scale of ``_distance_tol``, derived in ``_certified``

# Exact-search size limit (beyond it a SizeLimitError, CLI exit code 3).
ISOMORPHISM_MAX_POINTS = 10

# The triangle-inequality sweep reads its n^3 excesses in blocks of at most
# this many values, in one reused, cache-sized buffer; the Euclidean metric
# of coords, the box metric's cell discrepancies and the 1-D trial family
# come in row blocks of the same size (``_block_rows``).
_TRIANGLE_BLOCK_ELEMENTS = 65536


def _block_rows(n):
    """Rows of n values in one block of at most _TRIANGLE_BLOCK_ELEMENTS
    values, and one row when a row alone is longer (or empty)."""
    return max(1, _TRIANGLE_BLOCK_ELEMENTS // max(1, n))


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
    n x n matrix.  ``validate`` checks such a space from its coords, by
    ``_coords_certified`` or else a block of rows at a time, and builds the
    matrix only for the triangle sweep.
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
            rows = _block_rows(self.n)
            scratch = np.empty((min(rows, self.n), self.n))
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(0, self.n, rows):
                    e = min(self.n, s + rows)
                    _euclidean_rows(c[s:e], c, D[s:e], scratch[:e - s])
            object.__setattr__(self, "_dist", _freeze(D))
        return self._dist

    @property
    def n(self):
        return len(self.points)

    def diam(self):
        return float(self.dist.max()) if self.n else 0.0


def _distance_tol(scale):
    """How far two distances, the largest ``scale``, may differ and count as
    equal: VALIDATION_TOL max(_DISTANCE_FLOOR, scale), as rounding is relative."""
    return VALIDATION_TOL * max(_DISTANCE_FLOOR, scale)


def space(points, dist, mass, mass_rational=None, coords=None):
    """Build a space and reject it if any invariant fails."""
    sp = FinitePmSpace(points, dist, mass, mass_rational, coords)
    check_valid(sp)
    return sp


def validate(sp: FinitePmSpace):
    """Return the first violated invariant of ``sp`` or None.  Total function.

    The checks are reported in a fixed order: finite, diagonal, symmetry,
    positivity, triangle, masses, coords.  The diagonal, symmetry, triangle
    and coords checks tolerate ``_distance_tol(max D)``: a triple is a defect
    when D[i,k] exceeds D[i,j] + D[j,k] by more than that.

    A space built from coords that pass ``_coords_certified`` meets every
    check but the masses by construction and keeps ``dist`` unbuilt.  Any
    other space is read once in row blocks (``_scan_metric``): of its
    matrix, or of its coords' distances when it has no matrix, which is
    then built only for the triangle sweep.  The sweep runs only when
    neither ``_certified`` nor ``_spread`` can prove it silent; every space
    with finite coords in at most 2^20 columns tries the first.
    """
    n = sp.n
    if n == 0:
        return Violation("empty", (), "space has no support points")
    coords, D, m = sp.coords, sp._dist, sp.mass
    if D is not None and D.shape != (n, n):  # a matrix built from coords is n x n
        return Violation("shape", D.shape, f"dist must be {n}x{n}, got {D.shape}")
    if m.shape != (n,):
        return Violation("shape", m.shape, f"mass must have length {n}")
    if D is None and _coords_certified(coords):
        return _mass_violation(sp)
    finite = coords is not None and bool(np.isfinite(coords).all())
    first, top, low, cert, gaps = _scan_metric(D, coords, finite and coords.shape[1] <= 1 << 20,
                                               finite)
    if first is not None:
        return first
    certified = cert is not None and _certified(coords.shape[1], max(top, cert[0]), cert[1])
    if not (certified or _spread(top, *low)):
        tri = _triangle_violation(sp.dist)
        if tri is not None:
            i, j, k, gap = tri
            return Violation(
                "triangle",
                (i, j, k),
                f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] by {gap:.3e}",
            )
    v = _mass_violation(sp)
    if v is not None or coords is None:
        return v
    if not finite:
        return _infinite_coord(coords)
    for c, (gap, i, j) in enumerate(gaps or ()):
        if gap > _distance_tol(top):
            return Violation(
                "coords",
                (i, j, c),
                f"coordinate {c} of points {i} and {j} differs by more than dist[{i}][{j}]",
            )
    return None


def _scan_metric(D, coords, certify, check_coords):
    """One pass over the rows of the n x n matrix D, in blocks of at most
    _TRIANGLE_BLOCK_ELEMENTS values; with D None, over the rows of Ê, the
    Euclidean metric of the coords, each block computed on its own.
    Returns ``(first, top, low, cert, gaps)``:

    - ``first`` is the first failed check among finite, diagonal, symmetry
      and positivity, as a Violation, or None; the other values are only
      meaningful when it is None;
    - ``top`` is max D;
    - ``low`` is the smallest entry off the diagonal and the smallest on it,
      for ``_spread``;
    - ``cert`` is ``(max Ê, max |Ê - D|)`` for ``_certified`` when
      ``certify``, with Ê the Euclidean metric of the coords as
      ``_euclidean_rows`` evaluates it, else None;
    - ``gaps`` holds, per coordinate column c, the largest |c_i - c_j| -
      D[i, j] as (gap, i, j) when ``check_coords``, else None; ``validate``
      reports a gap above ``_distance_tol(max D)`` last, as the coords check.

    Without D the symmetry check, the error term of ``cert`` (0) and the
    coords check are skipped: each holds for Ê by construction, as
    ``_coords_certified`` proves.  Every position is the first row-major
    one, as an argmax or argmin over the whole matrix finds it.
    """
    given = D is not None
    n = len(D if given else coords)
    rows = min(n, _block_rows(n))
    work, diag = np.empty((rows, n)), np.empty(n)
    own = None if given else np.empty((rows, n))  # a block of Ê
    spare = np.empty((rows, n)) if certify and given else None  # holds the squares of Ê
    cert = (0.0, 0.0) if certify else None
    gaps = [None] * coords.shape[1] if check_coords and given else None
    asym = low = None
    top = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, rows):
            e = min(n, s + rows)
            w = work[:e - s]  # without D, first the squares of Ê's block
            block = D[s:e] if given else _euclidean_rows(coords[s:e], coords, own[:e - s], w)
            hi, lo = block.max(), block.min()
            if not (math.isfinite(hi) and math.isfinite(lo)):
                i, j = np.argwhere(~np.isfinite(block))[0]
                return (Violation("finite", (s + int(i), int(j)),
                                  f"dist[{s + i}][{j}] is not finite"), top, None, None, None)
            top = max(top, float(hi))
            diag[s:e] = block[:, s:e].diagonal()
            np.copyto(w, block)
            np.fill_diagonal(w[:, s:], np.inf)
            low = _first_extreme(low, w, s, np.argmin)
            if not given:
                continue
            np.abs(np.subtract(block, D[:, s:e].T, out=w), out=w)
            asym = _first_extreme(asym, w, s, np.argmax)
            if certify:
                est = _euclidean_rows(coords[s:e], coords, w, spare[:e - s])
                far = max(cert[0], float(est.max()))
                np.abs(np.subtract(est, block, out=w), out=w)
                cert = (far, max(cert[1], float(w.max())))
            if check_coords:
                for c, col in enumerate(coords.T):
                    np.abs(np.subtract.outer(col[s:e], col, out=w), out=w)
                    gaps[c] = _first_extreme(gaps[c], np.subtract(w, block, out=w), s, np.argmax)
    if certify and not given:
        cert = (top, 0.0)
    tol = _distance_tol(top)
    first, on = None, np.abs(diag) > tol
    if on.any():
        i = int(np.argmax(on))
        first = Violation("diagonal", (i,), f"dist[{i}][{i}] = {diag[i]} != 0")
    elif given and asym[0] > tol:
        _, i, j = asym
        first = Violation("symmetry", (i, j), f"dist[{i}][{j}] != dist[{j}][{i}]")
    elif low[0] <= 0:
        value, i, j = low
        first = Violation("positivity", (i, j), f"dist[{i}][{j}] = {value} <= 0 for i != j")
    return first, top, (low[0], float(diag.min())), cert, gaps


def _infinite_coord(coords):
    """The first coordinate, row-major, that is not finite, as a Violation."""
    i, c = np.argwhere(~np.isfinite(coords))[0]
    return Violation("coords", (int(i), int(c)), f"coords[{i}][{c}] is not finite")


def _first_extreme(best, block, start, arg):
    """``best`` or the extreme of ``block`` (rows from ``start``) that
    ``arg``, np.argmax or np.argmin, finds, as (value, i, j), whichever is
    further that way; a tie keeps ``best``, the earlier position."""
    k = int(arg(block))
    value = block.flat[k]
    if best is None or (value > best[0] if arg is np.argmax else value < best[0]):
        return value, start + k // block.shape[1], k % block.shape[1]
    return best


def _mass_violation(sp: FinitePmSpace):
    """The first violated mass invariant of ``sp``, whose mass ``validate``
    has checked to have length n, or None; reads no distances."""
    n, m = sp.n, sp.mass
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
            if abs(float(r) - m[i]) > REAL_TOL:
                return Violation("mass_rational", (i,), f"mass_rational[{i}] != mass[{i}]")
    return None


def _certified(d, M, err):
    """True when no triangle excess ``_triangle_violation(D)`` computes can
    exceed its tolerance ``_distance_tol(max D)``, proved from d <= 2^20
    coordinate columns, M = max(max D, max Ê) and err = max |Ê - D| as
    ``_scan_metric`` computes them; False when it cannot be proved this way
    (coords of another metric, too many columns, or inf anywhere), and then
    the sweep decides.

    With u = 2^-53, E the exact Euclidean metric of the n x d coordinate
    rows and Ê its evaluation by ``_euclidean_rows``, as sqrt of the sum
    over columns (left to right from 0) of the squared differences:

    - Each square carries three roundings and each of d - 1 additions one, so
      the computed sum is S(1 + t) with |t| <= g = (d+2)u / (1 - (d+2)u), and
      with the square root Ê = E(1 + e), |e| <= g/2 + g^2/2 + u(1 + g) <=
      (d+4)/2 u + (d+4)^2 u^2 < rho = (d+5)/2 u while d <= 2^20 (Higham,
      Accuracy and Stability of Numerical Algorithms, ch. 3).  Squares that
      underflow add at most 2^-1075 each, so the sum moves by at most
      d 2^-1074 and Ê by at most sqrt(d) 2^-537 (a difference that
      underflows is exact).  Hence |Ê - E| <= rho M (1 + rho) + sqrt(d)
      2^-535.
    - The differences Ê - D are rounded once, so max |D - Ê| is at most the
      computed one times 1 + 2u, and eps = max|D - Ê| (1 + 2u) + rho M
      (1 + rho) + sqrt(d) 2^-535 bounds |D - E| entrywise.
    - E is a metric, so in real arithmetic D[i,k] - D[i,j] - D[j,k] <= 3 eps.
      The sweep computes a - (b + c); with b, c in [0, M] the first rounding
      moves the result by at most u(b + c) <= 2u M, and the second scales a
      positive result by at most 1 + u.  Every computed excess is therefore
      at most B = (3 eps + 2u M)(1 + 2u).
    - The tolerance reads max D, which may lie below M: max Ê <= max D +
      max |Ê - D|, so max D >= low = M - err (1 + 2u).  The sweep's
      tolerance, VALIDATION_TOL max(F, max D) rounded once with F =
      _DISTANCE_FLOOR, is at least VALIDATION_TOL max(F, low) (1 - u).
    - The floor F keeps the underflow term 3 sqrt(d) 2^-535 of B, at most
      3 2^-525 for d <= 2^20, under a tenth of the least tolerance
      VALIDATION_TOL F; 2^-480 is the least power of two that does.

    B is evaluated with its last factor widened to 1 + 24u, which covers the
    at most eight roundings of evaluating it and the at most four of the
    tolerance and of low (every term is nonnegative, err is widened by 4u).
    A rounding among subnormals moves a result by at most 2^-1075, far
    below 24u times the underflow term, so the widening covers it too.  Inf
    in Ê or in the error makes the bound inf, which fails the comparison.
    """
    u = 2.0 ** -53
    rho = (d + 5) / 2 * u
    eps = err * (1 + 2 * u) + rho * M * (1 + rho) + math.sqrt(d) * 2.0 ** -535
    low = M - err * (1 + 4 * u)
    return bool((3 * eps + 2 * u * M) * (1 + 24 * u) <= _distance_tol(low))


def _spread(top, least, floor):
    """True when no triangle excess ``_triangle_violation(D)`` computes can
    exceed its tolerance, proved from top = max D, least = the smallest
    entry off the diagonal and floor = the smallest on it, of a matrix that
    passed the finite, diagonal, symmetry and positivity checks: when
    2 least >= top and floor >= 0.  O(1) beside ``_scan_metric``.

    The sweep computes fl(a - fl(b + c)) with a = D[i,k], b = D[i,j] and
    c = D[j,k] for every i, j, k.  Rounding to nearest is monotone, so
    fl(b + c) >= x when b + c >= x for a float x, and fl(a - y) <= 0 when
    a <= y.
    - i, j, k distinct: b, c >= least, so b + c >= 2 least >= top >= a,
      where 2 least is exact or inf; the excess is at most 0.
    - j = i or j = k, i != k: b + c is a plus a diagonal entry >= floor
      >= 0, so fl(b + c) >= a and the excess is at most 0.  A negative
      diagonal entry, which the diagonal check allows down to minus the
      tolerance, could leave an excess of its size plus a rounding of a,
      above the tolerance: hence floor >= 0.
    - i = k != j: a = D[i,i] is at most the tolerance, which the diagonal
      check shares, and b + c > 0, so the excess is at most a.
    - i = j = k: a >= 0 and the excess is a - 2a <= 0, both steps exact.
    """
    return floor >= 0 and 2 * least >= top


def _coords_certified(coords):
    """True when the Euclidean metric Ê of these n x d rows, as the ``dist``
    of a space built from them evaluates it, passes every metric check of
    ``validate`` and the coords check; reads no distance, in O(n d log n).
    It requires (a) finite coordinates, (b) 2 S finite for S the computed
    sum of the squared column spreads (max - min), (c) no two equal rows,
    (d) a nonzero square of every column's smallest positive gap and (e)
    ``_certified(d, _DISTANCE_FLOOR, 0.0)``, which fails above about 6000
    columns.  False sends ``validate`` to the matrix, whose verdict is its own.

    Let t be the computed difference of one column for points i and j and
    u = 2^-53.  Rounding is monotone, so |t| is at most the column's
    computed spread and, when t != 0, at least its computed smallest gap.

    - Finite: S is at least (1 - u)^(d-1), and each partial left-to-right
      sum of squares at most (1 + u)^(d-1), times the exact sum of the
      spreads' squares, so none exceeds 2 S, which (b) keeps finite.
    - Diagonal: a finite x gives x - x = +0 exactly, so every square, sum
      and root on the diagonal is 0.
    - Symmetry: rounding to nearest commutes with negation, so the computed
      x - y is exactly minus the computed y - x, and Ê[i, j] and Ê[j, i] sum
      the same squares in the same order.
    - Positivity: by (c) some column has t != 0, whose square is positive
      by (d).
    - Coords: Ê[i, j] >= fl(sqrt(fl(t^2))) >= |t| (1 - u)^2 when t^2 is
      normal, else >= (|t| - 2^-537)(1 - u), as fl(t^2) >= t^2 - 2^-1075.  So
      the computed |t| - Ê[i, j] is at most 4u max Ê + 2^-536, below the
      tolerance ``_distance_tol(max Ê)`` >= VALIDATION_TOL 2^-480.
    - Triangle: D = Ê, so ``_certified`` reads err = 0 and M = max Ê.  Its
      bound B(M) = aM + b, a, b >= 0, is at most max(1, M / F) B(F), and (e)
      is B(F) <= VALIDATION_TOL F for F = _DISTANCE_FLOOR: no excess reaches
      the tolerance ``_distance_tol(M)`` at any scale.
    """
    n, d = coords.shape
    if not (np.isfinite(coords).all() and _certified(d, _DISTANCE_FLOOR, 0.0)):
        return False
    with np.errstate(over="ignore"):
        if not math.isfinite(2 * float(np.sum(np.ptp(coords, axis=0) ** 2))):
            return False
    if len(np.unique(coords, axis=0)) < n:
        return False
    for col in coords.T:
        gaps = np.diff(np.unique(col))
        if gaps.size and gaps.min() ** 2 == 0:
            return False
    return True


def _euclidean_rows(block, coords, out, scratch):
    """Euclidean distances from each row of ``block`` to every row of
    ``coords``, written to ``out`` and returned: the square root of the
    squared column differences summed left to right from 0, as scipy's
    ``pdist`` sums them.  ``scratch``, shaped like ``out``, holds each
    column's squares."""
    out.fill(0.0)
    for part, col in zip(block.T, coords.T):
        t = np.subtract.outer(part, col, out=scratch)
        out += np.multiply(t, t, out=t)
    return np.sqrt(out, out=out)


def _triangle_violation(D):
    """(i, j, k, gap) for the first found D[i, k] - (D[i, j] + D[j, k]) above
    the tolerance ``_distance_tol(max D)``, with the gap as measured, or
    None.  The check reads the excess in blocks of rows i x columns j x every
    k in one reused buffer (the whole tensor up to 40 points); the report
    reads one j at a time and takes the smallest violating j, then the first
    row-major argmax over (i, k)."""
    n = D.shape[0]
    if n <= 2:
        return None
    tol = _distance_tol(float(D.max()))
    width = min(n, _block_rows(n * n))
    rows = min(n, _block_rows(width * n))
    buf = np.empty(rows * width * n)

    def excess(s, j, w):
        block, cols = D[s:s + rows], D[j:j + w]
        out = buf[:block.size * len(cols)].reshape(len(block), len(cols), n)
        np.add(block[:, j:j + len(cols), None], cols, out=out)
        return np.subtract(block[:, None], out, out=out)

    if not any(excess(s, j, width).max() > tol
               for s, j in itertools.product(range(0, n, rows), range(0, n, width))):
        return None
    for j in range(n):
        best = None
        for s in range(0, n, rows):
            best = _first_extreme(best, excess(s, j, 1)[:, 0], s, np.argmax)
        if best[0] > tol:
            gap, i, k = best
            return i, j, k, float(gap)


def _check_count(name, value, low=1):
    """InputError unless ``value`` is an integer >= ``low``; a bool is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise InputError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_positive(name, value):
    """InputError unless ``value`` is a real number, finite and > 0; a bool is not."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value < math.inf):
        raise InputError(f"{name} must be positive and finite, got {value!r}")


def _check_p(p):
    """InputError unless the exponent p >= 1; p may be inf, NaN may not."""
    if not p >= 1:
        raise InputError(f"p must satisfy p >= 1, got {p!r}")


def _point_values(sp, values, what):
    """``values`` as a float array: InputError unless it holds one finite
    value per point of ``sp``."""
    v = np.asarray(values, dtype=float)
    if v.shape != (sp.n,):
        raise InputError(f"{what} needs one value per point ({sp.n}), got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InputError(f"{what} needs finite values")
    return v


def _point_indices(sp, indices, what):
    """``indices`` as a tuple of ints: InputError unless each is an integer
    index of a point of ``sp``; a bool is not."""
    out = tuple(indices)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < sp.n
               for i in out):
        raise InputError(f"{what} must hold integer indices in [0, {sp.n}), got {list(out)!r}")
    return tuple(int(i) for i in out)


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
        if not 0 <= self.lip_bound < math.inf:
            raise InputError(f"lip_bound must be finite and >= 0, got {self.lip_bound!r}")
        if not np.isfinite(self.values).all():
            raise InputError("function values must be finite")


def lipschitz_constant(sp: FinitePmSpace, values):
    """Smallest L with |f_i - f_j| <= L d_ij; 0 on a one-point space."""
    f = _point_values(sp, values, "lipschitz_constant")
    if sp.n <= 1:
        return 0.0
    diff = np.abs(f[:, None] - f[None, :])
    off = ~np.eye(sp.n, dtype=bool)
    return float((diff[off] / sp.dist[off]).max())


def as_lipschitz(sp: FinitePmSpace, values, lip_bound=None):
    """Wrap values into a LipschitzFunction, certifying the bound."""
    L = lipschitz_constant(sp, values)
    f = LipschitzFunction(values, L if lip_bound is None else float(lip_bound))
    if L > f.lip_bound + REAL_TOL:
        raise InputError(f"values have Lipschitz constant {L} > certified bound {f.lip_bound}")
    return f


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
    a finite t > 0; masses unchanged.  A space given by coords alone stays
    so, its metric the Euclidean one of t coords (``sp.dist * t`` bit for bit
    when t is a power of two).  ``space`` validates the result as it
    validates any space, so one that rounding broke, or whose triangle
    excess the factor carried past the tolerance, is rejected."""
    if not t > 0:
        raise InputError(f"scale factor must be positive, got {t}")
    t = float(t)
    if t == math.inf:
        raise InvalidSpaceError("scale factor inf makes every distance infinite")
    with np.errstate(over="ignore"):
        coords = None if sp.coords is None else sp.coords * t
        D = None if sp._dist is None else sp.dist * t
    return space(sp.points, D, sp.mass, sp.mass_rational, coords)


def _combine_lp(a, b, p):
    if p == math.inf:
        return np.maximum(a, b)
    return (a**p + b**p) ** (1.0 / p)


def product(sx: FinitePmSpace, sy: FinitePmSpace, p):
    """l_p product: Cartesian points, l_p-combined distances, tensor masses.
    The result of valid spaces is checked in O(n^2), not by the O(n^3)
    triangle sweep, which a 10,000-point tower level cannot afford: a
    distance that overflows to inf or an l_p sum that underflows to 0 is an
    InvalidSpaceError."""
    _check_p(p)
    pts = tuple((a, b) for a in sx.points for b in sy.points)
    cx, cy = divmod(np.arange(sx.n * sy.n), sy.n)
    with np.errstate(over="ignore"):
        D = _combine_lp(sx.dist[np.ix_(cx, cx)], sy.dist[np.ix_(cy, cy)], p)
    m = np.outer(sx.mass, sy.mass).ravel()
    mr = None
    if sx.mass_rational is not None and sy.mass_rational is not None:
        mr = tuple(a * b for a in sx.mass_rational for b in sy.mass_rational)
    first = _scan_metric(D, None, False, False)[0]
    if first is not None:
        raise InvalidSpaceError(str(first))
    return FinitePmSpace(pts, D, m, mr)


def mm_isomorphic(sx: FinitePmSpace, sy: FinitePmSpace):
    """Decide mm-isomorphism by searching mass-compatible support bijections.

    Exact up to ``REAL_TOL`` on masses and ``_distance_tol`` of the larger
    diameter on distances; limited to ``ISOMORPHISM_MAX_POINTS`` points.
    """
    if sx.n > ISOMORPHISM_MAX_POINTS or sy.n > ISOMORPHISM_MAX_POINTS:
        raise SizeLimitError(f"mm_isomorphic is limited to {ISOMORPHISM_MAX_POINTS} points")
    n = sx.n
    if n != sy.n:
        return False
    tol = _distance_tol(max(sx.diam(), sy.diam()))
    if abs(sx.diam() - sy.diam()) > tol:
        return False
    # Candidate targets must match mass and the multiset of incident distances.
    rows_x, rows_y = np.sort(sx.dist, axis=1), np.sort(sy.dist, axis=1)
    gap = np.abs(rows_x[:, None, :] - rows_y[None, :, :]).max(axis=2, initial=0.0)
    fits = (np.abs(sx.mass[:, None] - sy.mass[None, :]) <= REAL_TOL) & (gap <= tol)
    cand = [np.flatnonzero(row).tolist() for row in fits]
    if not all(cand):
        return False

    used = [False] * n
    assign = [-1] * n
    order = sorted(range(n), key=lambda i: len(cand[i]))
    dx, dy = sx.dist.tolist(), sy.dist.tolist()

    def rec(k):
        if k == n:
            return True
        i = order[k]
        for j in cand[i]:
            if used[j] or any(abs(dx[i][i2] - dy[j][assign[i2]]) > tol for i2 in order[:k]):
                continue
            used[j] = True
            assign[i] = j
            if rec(k + 1):
                return True
            used[j] = False
            assign[i] = -1
        return False

    return rec(0)


def _probability_pair(mass_a, mass_b):
    """Two probability vectors of one shape as float arrays: InputError unless
    each is finite and nonnegative and sums to 1 within VALIDATION_TOL."""
    a, b = np.asarray(mass_a, dtype=float), np.asarray(mass_b, dtype=float)
    if a.shape != b.shape or not all(np.isfinite(v).all() and (v >= 0).all()
                                     and abs(v.sum() - 1.0) <= VALIDATION_TOL for v in (a, b)):
        raise InputError("mass vectors must be probability vectors of the same length")
    return a, b


def total_variation(mass_a, mass_b):
    """Half-sum total variation between probability vectors on a common space."""
    a, b = _probability_pair(mass_a, mass_b)
    return 0.5 * float(np.abs(a - b).sum())


def prokhorov(sp: FinitePmSpace, mass_a, mass_b):
    """Exact Prokhorov distance between two probability vectors on ``sp``.

    The largest excess b(A) - a(closed t-ball of A) over subsets A is the
    b-mass that no sub-coupling of b and a routes over the pairs at distance
    <= t (Strassen's theorem), one ``_max_subcoupling`` per pairwise distance.
    """
    a, b = _probability_pair(mass_a, mass_b)
    if a.shape != (sp.n,):
        raise InputError("mass vectors must match the space")

    def gap(t):
        routed = _max_subcoupling(sp.dist <= t, b, a).sum(axis=1)
        return float(np.maximum(b - routed, 0.0).sum())

    return max(0.0, min(1.0, _smallest_fixed_point(sp.dist.ravel(), gap)))


def _max_subcoupling(allowed, mass_x, mass_y):
    """Sub-coupling of mass_x and mass_y of maximal mass, on the cells where
    the boolean matrix ``allowed`` holds.  Rows in index order augment while
    they have mass left, by a depth-first search that enters an allowed cell
    whose column has room, or a full column whose flow from another row it
    pushes onward, entering each column once.  Row by row is maximal: the
    nodes a row without an augmenting path reaches are closed in the residual
    graph, so no later path enters them (it would end there) or changes the
    edges and room that leave them."""
    flow = np.zeros(allowed.shape)

    def path(i, seen):  # allowed cells and cells pushed back, alternating
        for j in np.flatnonzero(allowed[i] & ~seen):
            seen[j] = True
            if mass_y[j] - flow.sum(axis=0)[j] > 1e-15:
                return [(i, j)]
            for k in np.flatnonzero(flow[:, j] > 1e-15):
                if k != i and (rest := path(k, seen)):
                    return [(i, j), (k, j), *rest]

    for i in range(len(mass_x)):
        while (left := mass_x[i] - flow.sum(axis=1)[i]) > 1e-15 and (
                cells := path(i, np.zeros(len(mass_y), dtype=bool))):
            j = cells[-1][1]
            t = min([left, mass_y[j] - flow.sum(axis=0)[j]] + [flow[c] for c in cells[1::2]])
            for n, c in enumerate(cells):
                flow[c] += -t if n % 2 else t
    return flow


def _smallest_fixed_point(values, excess):
    """Smallest eps >= 0 with excess(eps) <= eps for an ``excess`` that is
    nonincreasing and constant between the thresholds 0 and ``values``, each
    threshold widened by ``_distance_tol`` of the largest: the first
    max(t, excess(t + tol)) below the next threshold, scanning t upward.  The
    last threshold's next is inf, so a finite ``excess`` always returns."""
    thresholds = np.unique(np.concatenate(([0.0], values))).tolist()
    tol = _distance_tol(thresholds[-1])
    for t, nxt in zip(thresholds, thresholds[1:] + [math.inf]):
        cand = max(t, excess(t + tol))
        if cand < nxt:
            return cand


def ky_fan(sp: FinitePmSpace, f: LipschitzFunction, g: LipschitzFunction):
    """Smallest eps with mass{|f - g| > eps} <= eps, by a sorted scan."""
    if not f.values.shape == g.values.shape == (sp.n,):
        raise InputError("functions must live on the given space")
    d = np.abs(f.values - g.values)
    return _smallest_fixed_point(d, lambda t: float(sp.mass[d > t].sum()))


def _dot(a, b):
    """sum of a * b by einsum's own loop: the same bits at every BLAS thread
    count, where OpenBLAS splits np.dot of a long vector across threads."""
    return float(np.einsum("i,i", a, b))


def _row_dots(F, w):
    """The dot of every row of F with w, the same bits at every BLAS thread
    count.  A row of at most 8192 values is np.dot(F[r], w) bit for bit:
    np.matmul makes one dot call per row of the stack, the call np.dot makes,
    where ``F @ w`` rounds differently.  OpenBLAS splits a longer dot across
    threads, so a longer row is one ``_dot``; einsum "ij,j->i" over the block
    would round a row by the block's row count."""
    if F.shape[1] > 8192:
        return np.array([_dot(f, w) for f in F])
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

    Nonnegative by Jensen; 0 log 0 is read as 0.  Rejects negative and
    non-finite entries.
    """
    v = _point_values(sp, f, "entropy")
    if np.any(v < 0):
        raise InputError("entropy requires nonnegative values")
    return entropy_weighted(sp.mass, v)


def entropy_weighted(weights, v):
    """sum(w v log v) over the positive entries of v, less m log m for
    m = sum(w v); a list of one value per row when ``v`` is a matrix of
    rows.  The rows positive everywhere take both sums in one pass over the
    block; a row with a zero sums its positive entries again, alone."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(v, dtype=float)
    V = np.broadcast_to(v, v.shape[:-1] + w.shape).reshape(-1, w.size)
    weighted = w * V
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with a zero are summed again
        terms = np.log(V)
        terms *= weighted
    s1 = np.sum(terms, axis=1)
    for r in np.flatnonzero(~(V > 0).all(axis=1)):
        pos = V[r] > 0
        s1[r] = np.sum(weighted[r, pos] * np.log(V[r, pos]))
    out = [s - (mean * math.log(mean) if mean > 0 else 0.0)
           for s, mean in zip(s1.tolist(), np.sum(weighted, axis=1).tolist())]
    return out if v.ndim == 2 else out[0]


def mcshane_extend(sp: FinitePmSpace, subset, f_values, lip_bound):
    """Extend an L-Lipschitz function from a subset of support indices to all of
    the space via x -> min over y of f(y) + L d(x, y)."""
    subset = np.array(_point_indices(sp, subset, "subset"), dtype=int)
    if not subset.size:
        raise InputError("mcshane_extend needs a non-empty subset")
    on_subset = LipschitzFunction(np.array(f_values, dtype=float), float(lip_bound))
    fv, L = on_subset.values, on_subset.lip_bound
    if fv.shape != (len(subset),):
        raise InputError("f_values must match the subset length")
    a, b = np.triu_indices(len(subset), 1)
    tol = _distance_tol(L * sp.diam())
    if (np.abs(fv[a] - fv[b]) > L * sp.dist[subset[a], subset[b]] + tol).any():
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


def _read_json(path, what):
    """The JSON document in the file at ``path``: InputError, naming ``what``,
    where the file cannot be read or is not JSON in UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise InputError(f"cannot read {what} {path}: {e}") from e


def load_space(path):
    return from_json_dict(_read_json(path, "space file"))
