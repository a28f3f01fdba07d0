"""Construction of the example spaces and approximation sequences used in
experiments and tests: interval grids, sampled Gaussian and sphere spaces,
atom spaces on a line segment, equidistant dissipation families, and product
towers with their projection witnesses.

Sampled generators require a seed and are bit-reproducible, and their spaces
compute the distance matrix from ``coords`` on first use.  Every constructed
space passes ``validate`` at every size, but for the levels of a product
tower above its base, which ``core.product`` checks in O(n^2) for what its
rounding can break.  A sample is checked from its coords, in row blocks when
they fail ``core._coords_certified``; its matrix is built only for the
triangle sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .core import FinitePmSpace, InputError, _check_count, _check_positive, product, space

if TYPE_CHECKING:
    from .atoms import AtomVector

# product_tower refuses towers whose top level has more points than this.
TOWER_MAX_POINTS = 10_000


def two_point(d=1.0, first_mass=0.5):
    _check_positive("d", d)
    if not 0 < first_mass < 1:
        raise InputError(f"first_mass must lie in (0, 1), got {first_mass!r}")
    return space(("x0", "x1"), [[0.0, d], [d, 0.0]], [first_mass, 1.0 - first_mass])


def interval_grid(m, r=1.0):
    """m equally spaced points spanning [0, r] with equal masses."""
    _check_count("m", m, 2)
    _check_positive("r", r)
    xs = np.linspace(0.0, r, m)
    dist = np.abs(xs[:, None] - xs[None, :])
    mass_rational = tuple(Fraction(1, m) for _ in range(m))
    return space(
        tuple(f"t{k}" for k in range(m)),
        dist,
        np.full(m, 1.0 / m),
        mass_rational,
        coords=xs.reshape(-1, 1),
    )


def _sample(what, seed, prefix, shape, place):
    """The space of the points ``place(z)`` for a standard normal draw z of
    ``shape`` from the generator of ``seed``: labels prefix + index, uniform
    masses, and the points as coords, the only metric.  A sampler needs a
    seed."""
    if seed is None:
        raise InputError(f"{what} requires a seed")
    with np.errstate(over="ignore"):  # coords that overflow are rejected as not finite
        pts = place(np.random.default_rng(seed).standard_normal(shape))
    n = len(pts)
    return space(tuple(f"{prefix}{k}" for k in range(n)), None, np.full(n, 1.0 / n), coords=pts)


def gaussian_sample(n_points, dim, sigma=1.0, seed=None):
    """Empirical space of i.i.d. centred normal samples with Euclidean metric.

    Invariants computed on these spaces are estimators of the sampled law's
    invariants; columns of ``coords`` are the 1-Lipschitz projections.
    """
    _check_count("n_points", n_points)
    _check_count("dim", dim)
    _check_positive("sigma", sigma)
    return _sample("gaussian_sample", seed, "g", (n_points, dim), lambda z: sigma * z)


def sphere_sample(n_dim, radius, n_points, seed=None):
    """Uniform samples on the n_dim-sphere of the given radius with chordal
    (restricted Euclidean) distance."""
    _check_count("n_dim", n_dim)
    _check_count("n_points", n_points)
    _check_positive("radius", radius)
    return _sample("sphere_sample", seed, "s", (n_points, n_dim + 1),
                   lambda z: radius * (z / np.linalg.norm(z, axis=1, keepdims=True)))


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
    xs = np.asarray(xs)
    dist = np.abs(xs[:, None] - xs[None, :])
    return space(tuple(labels), dist, masses, coords=xs.reshape(-1, 1))


def dissipation_family(alpha: AtomVector, delta, n):
    """Equidistant space with 2^n uniform points sharing the non-atomic mass
    plus the atom points, every pairwise distance equal to delta."""
    _check_positive("delta", delta)
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
    dist = np.full((size, size), float(delta))
    np.fill_diagonal(dist, 0.0)
    return space(tuple(labels), dist, masses)


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
