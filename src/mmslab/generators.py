"""Construction of the example spaces and approximation sequences used in
experiments and tests: interval grids, sampled Gaussian and sphere spaces,
atom spaces on a line segment, equidistant dissipation families, and product
towers with their projection witnesses.

Sampled generators require a seed and are bit-reproducible, and their spaces
compute the distance matrix from ``coords`` on first use.  Every constructed
space satisfies the structural invariants: up to ``_VALIDATE_LIMIT`` points it
is checked whole by ``validate``; above it, where the distance matrix is
not built, its masses are checked and its distances are metric by
construction (see ``_coords_violation``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    FinitePmSpace,
    InputError,
    InvalidSpaceError,
    _check_count,
    _mass_violation,
    check_valid,
    product,
)

if TYPE_CHECKING:
    from .atoms import AtomVector

# Above this many points ``_finish`` does not call ``validate``, which would
# build the n x n distance matrix (the Euclidean certificate makes the
# triangle check itself O(n^2 d)), and checks only what it can without it.
_VALIDATE_LIMIT = 300
# product_tower refuses towers whose top level has more points than this.
TOWER_MAX_POINTS = 10_000


def _coords_violation(coords):
    """Why the Euclidean distances between these rows could fail to be a
    metric in floating point (a coordinate that is not finite, a squared
    difference that overflows, two equal rows or a positive difference whose
    square underflows to 0), or None; builds no distance matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        widest = np.sum(np.ptp(coords, axis=0) ** 2)  # inf or nan unless all finite
    if not np.isfinite(widest):
        return "coords are not finite or too far apart: a squared distance overflows"
    if len(np.unique(coords, axis=0)) < len(coords):
        return "two points have equal coords"
    for col in coords.T:
        gaps = np.diff(np.unique(col))
        if gaps.size and gaps.min() ** 2 == 0:
            return "coords are too close: a squared difference underflows to 0"
    return None


def _finish(points, dist, mass, mass_rational=None, coords=None):
    sp = FinitePmSpace(points, dist, mass, mass_rational, coords)
    if sp.n <= _VALIDATE_LIMIT:
        return check_valid(sp)
    v = _mass_violation(sp)
    if v is None and sp.coords is not None:
        v = _coords_violation(sp.coords)
    if v is not None:
        raise InvalidSpaceError(str(v))
    return sp


def two_point(d=1.0, first_mass=0.5):
    if not (d > 0 and 0 < first_mass < 1):
        raise InputError("two_point needs d > 0 and a mass in (0, 1)")
    return _finish(("x0", "x1"), [[0.0, d], [d, 0.0]], [first_mass, 1.0 - first_mass])


def interval_grid(m, r=1.0):
    """m equally spaced points spanning [0, r] with equal masses."""
    _check_count("m", m, 2)
    if r <= 0:
        raise InputError("interval_grid needs r > 0")
    xs = np.linspace(0.0, r, m)
    dist = np.abs(xs[:, None] - xs[None, :])
    mass_rational = tuple(Fraction(1, m) for _ in range(m))
    return _finish(
        tuple(f"t{k}" for k in range(m)),
        dist,
        np.full(m, 1.0 / m),
        mass_rational,
        coords=xs.reshape(-1, 1),
    )


def gaussian_sample(n_points, dim, sigma=1.0, seed=None):
    """Empirical space of i.i.d. centred normal samples with Euclidean metric.

    Invariants computed on these spaces are estimators of the sampled law's
    invariants; columns of ``coords`` are the 1-Lipschitz projections.
    """
    if seed is None:
        raise InputError("gaussian_sample requires a seed")
    _check_count("n_points", n_points)
    _check_count("dim", dim)
    if sigma <= 0:
        raise InputError("gaussian_sample needs sigma > 0")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # coords that overflow are rejected as not finite
        pts = sigma * rng.standard_normal((n_points, dim))
    return _finish(
        tuple(f"g{k}" for k in range(n_points)),
        None,
        np.full(n_points, 1.0 / n_points),
        coords=pts,
    )


def sphere_sample(n_dim, radius, n_points, seed=None):
    """Uniform samples on the n_dim-sphere of the given radius with chordal
    (restricted Euclidean) distance."""
    if seed is None:
        raise InputError("sphere_sample requires a seed")
    _check_count("n_dim", n_dim)
    _check_count("n_points", n_points)
    if radius <= 0:
        raise InputError("sphere_sample needs radius > 0")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_points, n_dim + 1))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    pts = radius * raw
    return _finish(
        tuple(f"s{k}" for k in range(n_points)),
        None,
        np.full(n_points, 1.0 / n_points),
        coords=pts,
    )


def atom_space(alpha: AtomVector, m_diffuse=8):
    """Line-segment carrier: a grid on [-1, 0] sharing the non-atomic mass plus
    atom points at the positive integers."""
    atoms = [float(e) for e in alpha.entries if e > 0]
    diffuse = 1.0 - math.fsum(atoms)
    xs, masses, labels = [], [], []
    if diffuse > 1e-12:
        _check_count("m_diffuse", m_diffuse)
        grid = np.linspace(-1.0, 0.0, m_diffuse)
        xs.extend(grid.tolist())
        masses.extend([diffuse / m_diffuse] * m_diffuse)
        labels.extend(f"u{k}" for k in range(m_diffuse))
    for i, a in enumerate(atoms):
        xs.append(float(i + 1))
        masses.append(a)
        labels.append(f"a{i + 1}")
    if not xs:
        raise InputError("empty atom space: zero vector with no diffuse part")
    xs = np.asarray(xs)
    dist = np.abs(xs[:, None] - xs[None, :])
    return _finish(tuple(labels), dist, masses, coords=xs.reshape(-1, 1))


def dissipation_family(alpha: AtomVector, delta, n):
    """Equidistant space with 2^n uniform points sharing the non-atomic mass
    plus the atom points, every pairwise distance equal to delta."""
    if not 0 < delta < math.inf:
        raise InputError("delta must be positive and finite")
    _check_count("n", n, 0)
    if n > 16:
        raise InputError("dissipation_family needs n <= 16")
    atoms = [float(e) for e in alpha.entries if e > 0]
    diffuse = 1.0 - math.fsum(atoms)
    masses, labels = [], []
    if diffuse > 1e-12:
        k = 2**n
        masses.extend([diffuse / k] * k)
        labels.extend(f"y{j}" for j in range(k))
    for i, a in enumerate(atoms):
        masses.append(a)
        labels.append(f"x{i + 1}")
    size = len(masses)
    if size == 0:
        raise InputError("empty space: zero vector with no diffuse part")
    dist = np.full((size, size), float(delta))
    np.fill_diagonal(dist, 0.0)
    return _finish(tuple(labels), dist, masses)


def product_tower(base: FinitePmSpace, p, levels):
    """Monotone tower base, base^2, ... with projection witnesses onto the
    previous level."""
    from .order import DominationWitness

    _check_count("levels", levels)
    if base.n**levels > TOWER_MAX_POINTS:
        raise InputError(f"tower would exceed {TOWER_MAX_POINTS} points")
    towers = [base]
    witnesses = []
    for _ in range(1, levels):
        nxt = product(towers[-1], base, p)
        prev = towers[-1]
        mapping = tuple(i // base.n for i in range(nxt.n))
        push = np.bincount(mapping, weights=nxt.mass, minlength=prev.n)
        witnesses.append(DominationWitness(mapping, tuple(push)))
        towers.append(nxt)
    return towers, witnesses
