"""Spectral functional constants of 1-D weighted grids.

Grids carry a density on uniformly spaced nodes with trapezoidal
normalisation, so node masses are w_i h with half weight at the endpoints and
integrals, spectra and quantile maps are all second-order accurate.  The
(2,2) constant is 1/sqrt of the first nonzero eigenvalue of the weighted
Neumann second-difference operator, computed by inverse iteration with
deflation of constants.  The smooth-space slope of a grid function is the
central difference (one-sided at the ends); trial families are kept smooth so
this surrogate stays faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import ndtri, solve_banded
from .core import FinitePmSpace, InputError, entropy_weighted

GRID_NORMALIZATION_TOL = 1e-10


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class GridSpace1D:
    """Uniform 1-D grid with a positive density; trapezoid-normalised."""

    nodes: np.ndarray
    weight: np.ndarray
    kind: str = "interval"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        nodes.setflags(write=False)
        weight.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weight", weight)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InputError("grid needs at least 3 nodes")
        steps = np.diff(nodes)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.mean():
            raise InputError("grid nodes must be strictly increasing and uniform")
        if weight.shape != nodes.shape or np.any(weight <= 0):
            raise InputError("weights must be positive and match the nodes")
        if abs(self.total_mass() - 1.0) > GRID_NORMALIZATION_TOL:
            raise InputError(f"grid density integrates to {self.total_mass()!r}, not 1")

    @property
    def h(self):
        return float(self.nodes[1] - self.nodes[0])

    def node_mass(self):
        mu = self.weight * self.h
        mu = mu.copy()
        mu[0] *= 0.5
        mu[-1] *= 0.5
        return mu

    def total_mass(self):
        return float(self.node_mass().sum())

    def integrate(self, values):
        return float(np.dot(self.node_mass(), values))

    def gradient(self, values):
        """Central differences, one-sided at the endpoints."""
        return np.gradient(np.asarray(values, dtype=float), self.nodes)

    def cdf_midpoints(self):
        """CDF values at the nodes via cumulative midpoint masses."""
        mu = self.node_mass()
        return np.cumsum(mu) - mu / 2.0


def _normalize(nodes, weight, kind):
    nodes = np.asarray(nodes, dtype=float)
    weight = np.asarray(weight, dtype=float)
    h = nodes[1] - nodes[0]
    mu = weight * h
    total = mu.sum() - mu[0] / 2 - mu[-1] / 2
    return GridSpace1D(nodes, weight / total, kind)


def unit_interval_grid(m, length=1.0):
    """Uniformly weighted interval [0, length] on m+1 nodes."""
    if m < 2:
        raise InputError("interval grid needs m >= 2 subintervals")
    nodes = np.linspace(0.0, length, m + 1)
    return _normalize(nodes, np.ones(m + 1), "interval")


def gaussian_grid(m, sigma=1.0, cutoff=8.0):
    """Centred normal density of deviation sigma truncated at +-cutoff*sigma.

    The truncated tail mass is below 1e-14 for the default cutoff, negligible
    against every tolerance used here.
    """
    if m < 2:
        raise InputError("gaussian grid needs m >= 2 subintervals")
    if not sigma > 0:
        raise InputError("sigma must be positive")
    nodes = np.linspace(-cutoff * sigma, cutoff * sigma, m + 1)
    w = np.exp(-(nodes**2) / (2.0 * sigma**2))
    return _normalize(nodes, w, "gaussian-truncated")


def scale_grid(grid: GridSpace1D, r):
    """Metric scale change of the grid space."""
    if r <= 0:
        raise InputError("scale factor must be positive")
    return GridSpace1D(grid.nodes * r, grid.weight / r, grid.kind)


# ---------------------------------------------------------------------------
# Poincare constants


def _edge_conductances(grid: GridSpace1D):
    """Midpoint densities per edge: the quadrature weights of the slope form."""
    w = grid.weight
    return 0.5 * (w[:-1] + w[1:]) * grid.h


def edge_energy(grid: GridSpace1D, values, q=2):
    """Slope norm over edge midpoints: the quadratic form of the spectral
    operator at q = 2, a second-order quadrature of the slope integral."""
    f = np.asarray(values, dtype=float)
    slopes = np.abs(np.diff(f)) / grid.h
    return float(np.dot(_edge_conductances(grid), slopes**q))


def second_eigenvalue(grid: GridSpace1D, tol=1e-10, max_iter=100_000):
    """First nonzero eigenvalue of the weighted Neumann second-difference
    operator (edge-conductance form) by inverse iteration with deflation of
    the constant mode."""
    mu = grid.node_mass()
    cond = _edge_conductances(grid) / grid.h**2
    n = mu.size
    diag = np.zeros(n)
    diag[:-1] += cond
    diag[1:] += cond
    off = -cond
    sq = np.sqrt(mu)

    shift = 1e-10 * float(np.max(diag / mu))  # regularises the deflated solve
    ab = np.zeros((3, n))
    ab[0, 1:] = off / (sq[:-1] * sq[1:])
    ab[1] = diag / mu + shift
    ab[2, :-1] = ab[0, 1:]

    def deflate(v):
        return v - np.dot(v, sq) / np.dot(sq, sq) * sq

    rng = np.random.default_rng(1)
    v = deflate(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    lam_old = math.inf
    for _ in range(max_iter):
        u = solve_banded((1, 1), ab, v)
        u = deflate(u)
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ConvergenceError("inverse iteration collapsed onto the constants")
        u /= norm
        # Rayleigh quotient in edge form (u is unit and deflated, so the
        # denominator is 1).  The symmetrised form cancels the diagonal
        # against the off-diagonal, and at m ~ 65 000 its rounding alternated
        # between two values 1e-8 apart that never met the stopping test.
        lam = float(np.dot(cond, np.diff(u / sq) ** 2))
        if abs(lam - lam_old) <= tol * max(1.0, abs(lam)):
            return lam, u / sq
        lam_old = lam
        v = u
    raise ConvergenceError(f"inverse iteration did not reach {tol} in {max_iter} steps")


def poincare_c22(grid: GridSpace1D, tol=1e-10):
    """(2,2) constant: variance versus squared-slope energy, spectrally."""
    if grid.nodes.size < 65:
        raise InputError("poincare_c22 expects a grid with at least 64 subintervals")
    lam, _ = second_eigenvalue(grid, tol=tol)
    if lam <= 0:
        raise ConvergenceError(f"nonpositive spectral gap {lam}")
    return 1.0 / math.sqrt(lam)


def grid_variance(grid: GridSpace1D, values, p=2):
    mu = grid.node_mass()
    f = np.asarray(values, dtype=float)
    mean = float(np.dot(mu, f))
    return float(np.dot(mu, np.abs(f - mean) ** p))


def _trial_functions(grid: GridSpace1D, trials, seed):
    """Smooth seeded trial family: the spectral eigenfunction, centred
    polynomials, and low-frequency cosine mixtures, amplitude-normalised.
    Smoothness keeps the central-difference slope faithful."""
    rng = np.random.default_rng(seed)
    x = grid.nodes
    span = x[-1] - x[0]
    t = (x - x[0]) / span
    _, eig = second_eigenvalue(grid)
    out = [eig / np.abs(eig).max(), t - 0.5]
    for deg in range(2, 7):
        out.append((t - 0.5) ** deg)
    while len(out) < trials:
        k = rng.integers(1, 13)
        coeff = rng.standard_normal(k)
        f = np.zeros_like(t)
        for j, c in enumerate(coeff):
            f = f + c * np.cos((j + 1) * math.pi * t)
        peak = np.abs(f).max()
        if peak > 0:
            out.append(f / peak)
    return out[:trials]


def poincare_pq_lower(grid: GridSpace1D, p, q, trials=256, seed=0):
    """Lower bound on the (p,q) constant by maximising the deviation-to-slope
    ratio over the smooth trial family.

    The slope norm is the edge-midpoint quadrature, matching the spectral
    quadratic form at q = 2 so that no trial beats the spectral supremum.
    """
    if not (1 <= p < math.inf and 1 <= q < math.inf):
        raise InputError("p and q must lie in [1, inf)")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    best = 0.0
    for f in _trial_functions(grid, trials, seed):
        energy = edge_energy(grid, f, q) ** (1.0 / q)
        if energy <= 1e-14:
            continue
        dev = grid_variance(grid, f, p) ** (1.0 / p)
        best = max(best, dev / energy)
    return best


@dataclass(frozen=True)
class LogSobolevReport:
    constant: float
    max_violation: float
    lower_bound: float
    trials: int

    @property
    def violated(self):
        return self.max_violation > 0


def log_sobolev_check(grid: GridSpace1D, constant, trials=1000, seed=0):
    """Evaluate the entropy-energy inequality at a candidate constant.

    Reports the worst value of Ent(f^2) - 2 C^2 * energy(f) over the trial
    family (positive means a counterexample) and the best certified lower
    bound on the optimal constant.  Near-constant perturbations along the
    spectral eigenfunction drive the lower bound up to the (2,2) constant.
    """
    if not constant > 0:
        raise InputError("the candidate constant must be positive")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    mu = grid.node_mass()
    trial = _trial_functions(grid, max(trials - 4, 1), seed)
    eig = trial[0]  # the normalised spectral eigenfunction
    funcs = [1.0 + eps * eig for eps in (0.003, 0.01, 0.03, 0.1)] + trial

    worst = -math.inf
    lower = 0.0
    for f in funcs[:trials]:
        g = grid.gradient(f)
        energy = float(np.dot(mu, g * g))
        ent = entropy_weighted(mu, np.asarray(f) ** 2)
        worst = max(worst, ent - 2.0 * constant**2 * energy)
        if energy > 1e-14 and ent > 0:
            lower = max(lower, math.sqrt(ent / (2.0 * energy)))
    return LogSobolevReport(float(constant), worst, lower, min(trials, len(funcs)))


# ---------------------------------------------------------------------------
# disconnected spaces and quantile couplings


@dataclass(frozen=True)
class DisconnectedReport:
    disconnected: bool
    constant_infinite: bool
    witness_values: tuple | None
    witness_variance: float


def mm_disconnected_constant(sp: FinitePmSpace):
    """Finite spaces with at least two support points are mm-disconnected, so
    every (p,q) constant with p,q > 1 is infinite: the distance function from
    any point has zero asymptotic slope but positive variance."""
    if sp.n < 2:
        return DisconnectedReport(False, False, None, 0.0)
    f = sp.dist[0]
    mean = float(np.dot(sp.mass, f))
    var = float(np.dot(sp.mass, (f - mean) ** 2))
    return DisconnectedReport(True, True, tuple(f), var)


def gaussian_domination_scale(grid: GridSpace1D):
    """Smallest deviation sigma whose centred normal law pushes 1-Lipschitzly
    onto the grid distribution via the monotone rearrangement.

    In quantile coordinates the slope condition reads
    sigma >= phi(PhiInv(u)) / density(quantile(u)) for all u, and the
    supremum is evaluated at the node quantiles.
    """
    u = grid.cdf_midpoints()
    inner = (u > 1e-12) & (u < 1 - 1e-12)
    z = ndtri(u[inner])
    phi = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    return float(np.max(phi / grid.weight[inner]))
