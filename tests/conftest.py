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
