"""Shared corpus builders for the test suite.

Random spaces are drawn with a fixed seed per test; distances are built
metric-by-construction by embedding points in a low-dimensional cube or by
shortest-path completion of random weights.
"""

import math
from itertools import zip_longest

import numpy as np
import pytest

from mmslab import core, observables


def random_embedded_space(rng, n, dim=3, scale=1.0):
    """Random points in a Euclidean cube: all metric axioms hold exactly."""
    pts = rng.uniform(0.0, scale, size=(n, dim))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    mass = rng.dirichlet(np.ones(n) * 2.0)
    mass = np.maximum(mass, 1e-3)
    mass = mass / mass.sum()
    return core.space([f"p{i}" for i in range(n)], dist, mass, coords=pts)


def random_shortest_path_space(rng, n, scale=1.0):
    """Random symmetric weights completed to a metric by Floyd-Warshall."""
    raw = rng.uniform(0.2, 1.0, size=(n, n)) * scale
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, 0.0)
    for k in range(n):
        raw = np.minimum(raw, raw[:, k][:, None] + raw[k][None, :])
    mass = rng.dirichlet(np.ones(n))
    mass = np.maximum(mass, 1e-3)
    mass = mass / mass.sum()
    return core.space([f"q{i}" for i in range(n)], raw, mass)


def corpus(seed, count, sizes=(2, 3, 4, 5), dim=3):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.choice(sizes))
        if k % 2:
            out.append(random_embedded_space(rng, n, dim=dim))
        else:
            out.append(random_shortest_path_space(rng, n))
    return out


def reference_validate(sp):
    """``core.validate`` as it was before it read the metric in row blocks:
    whole-matrix checks on the n x n matrix, which is built here (and not
    kept on ``sp``) for a space given by its coords."""
    n = sp.n
    if n == 0:
        return core.Violation("empty", (), "space has no support points")
    D, m = sp._dist, sp.mass
    if D is None:
        D = reference_euclidean_rows(sp.coords, sp.coords)
    if D.shape != (n, n):
        return core.Violation("shape", D.shape, f"dist must be {n}x{n}, got {D.shape}")
    if m.shape != (n,):
        return core.Violation("shape", m.shape, f"mass must have length {n}")
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        return core.Violation("finite", (int(i), int(j)), f"dist[{i}][{j}] is not finite")
    bad = np.argwhere(np.abs(np.diag(D)) > core.VALIDATION_TOL)
    if bad.size:
        i = int(bad[0][0])
        return core.Violation("diagonal", (i,), f"dist[{i}][{i}] = {D[i, i]} != 0")
    asym = np.abs(D - D.T)
    if asym.max() > core.VALIDATION_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        return core.Violation("symmetry", (int(i), int(j)), f"dist[{i}][{j}] != dist[{j}][{i}]")
    if n > 1:
        off = D + np.diag([np.inf] * n)
        if off.min() <= 0:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            return core.Violation(
                "positivity", (int(i), int(j)), f"dist[{i}][{j}] = {D[i, j]} <= 0 for i != j"
            )
    tri = None if reference_euclidean_certified(sp.coords, D) else core._triangle_violation(D)
    if tri is not None:
        i, j, k, gap = tri
        return core.Violation(
            "triangle",
            (i, j, k),
            f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] by {gap:.3e}",
        )
    v = core._mass_violation(sp)
    return v if v is not None else reference_projection_violation(sp.coords, D)


def reference_projection_violation(coords, D):
    """The first coordinate that is not finite, or the first coordinate
    column that is not 1-Lipschitz for ``D`` within the validation tolerance
    relative to the diameter, as a ``coords`` Violation; None without coords."""
    if coords is None:
        return None
    if not np.all(np.isfinite(coords)):
        i, c = np.argwhere(~np.isfinite(coords))[0]
        return core.Violation("coords", (int(i), int(c)), f"coords[{i}][{c}] is not finite")
    tol = core.VALIDATION_TOL * max(1.0, float(D.max()))
    gap = np.empty_like(D)
    for c, col in enumerate(coords.T):
        np.abs(np.subtract.outer(col, col, out=gap), out=gap)
        if np.subtract(gap, D, out=gap).max() > tol:
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            return core.Violation(
                "coords",
                (int(i), int(j), c),
                f"coordinate {c} of points {i} and {j} differs by more than dist[{i}][{j}]",
            )
    return None


def reference_euclidean_certified(coords, D):
    """The Euclidean certificate evaluated from ``coords`` and ``D``, the
    bound of ``core._certified``."""
    if coords is None or coords.shape[1] > 1 << 20:
        return False
    n, d = coords.shape
    u = 2.0 ** -53
    with np.errstate(all="ignore"):
        s = reference_euclidean_rows(coords, coords)
        far = s.max()
        err = np.abs(s - D).max()
        M = np.maximum(far, D.max())
        rho = (d + 5) / 2 * u
        eps = err * (1 + 2 * u) + rho * M * (1 + rho) + math.sqrt(d) * 2.0 ** -535
        return bool((3 * eps + 2 * u * M) * (1 + 16 * u) <= core.VALIDATION_TOL)


def reference_euclidean_rows(block, coords):
    """Euclidean distances from each row of ``block`` to every row of
    ``coords``, the squares summed left to right from column 0."""
    s = np.zeros((len(block), len(coords)))
    with np.errstate(over="ignore", invalid="ignore"):
        for part, col in zip(block.T, coords.T):
            t = np.subtract.outer(part, col)
            s += t * t
        return np.sqrt(s, out=s)


def separation_properties_report(sp, kappa, lam, rng=None):
    """Check shuffle invariance, monotonicity in kappa and the interleaving-sum
    inequality of ``separation`` on one instance; returns a dict with any
    violations."""
    kappa, lam = observables._as_kappa(kappa), observables._as_kappa(lam)
    rng = rng or np.random.default_rng(0)
    report = {"violations": []}
    base = observables.separation(sp, kappa)
    shuffled = observables.separation(sp, tuple(kappa[p] for p in rng.permutation(len(kappa))))
    if not _close_or_both_inf(base, shuffled):
        report["violations"].append(("shuffle", base, shuffled))
    mono = observables.separation(sp, tuple(k + abs(k) * 0.1 + 0.01 for k in kappa))
    if _gt(mono, base):
        report["violations"].append(("monotone", base, mono))
    lhs = observables.separation(sp, kappa + lam)
    rhs = observables.separation(
        sp, tuple(a + b for a, b in zip_longest(kappa, lam, fillvalue=0.0)))
    if _gt(lhs, rhs):
        report["violations"].append(("interleave_sum", lhs, rhs))
    report["ok"] = not report["violations"]
    return report


def _close_or_both_inf(a, b):
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= core.REAL_TOL


def _gt(a, b):
    if math.isinf(a):
        return not math.isinf(b)
    if math.isinf(b):
        return False
    return a > b + core.REAL_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
