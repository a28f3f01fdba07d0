"""Spectral functional constants of 1-D weighted grids.

Grids carry a density on uniformly spaced nodes with trapezoidal
normalisation, so node masses are w_i h with half weight at the endpoints and
integrals, spectra and quantile maps are all second-order accurate.  The
(2,2) constant is 1/sqrt of the first nonzero eigenvalue of the weighted
Neumann second-difference operator, computed by inverse iteration with
deflation of constants.  The (p,q) trial bounds measure slopes on edge
midpoints, the quadrature of that operator; the log-Sobolev check takes the
central difference (one-sided at the ends).  The trial family is smooth so
both surrogates stay faithful.  It comes in row blocks of at most
TRIAL_BLOCK_ELEMENTS values, and slopes, powers and entropies are taken a
block at a time; every sum that is a dot product stays one dot per row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import dgttrf, dgttrs, ndtri
from .core import (FinitePmSpace, InputError, _central_moment, _check_count,
                   entropy_weighted)

GRID_NORMALIZATION_TOL = 1e-10
# gaussian_grid truncates the normal density at this many deviations.
GAUSSIAN_CUTOFF = 8.0
# Trial functions come in blocks of at most this many values (0.5 MB).
TRIAL_BLOCK_ELEMENTS = 1 << 16


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
        if not (np.isfinite(nodes).all() and np.isfinite(weight).all()):
            raise InputError("grid nodes and weights must be finite")
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
    _check_count("m", m, 2)
    if not 0 < length < math.inf:
        raise InputError("length must be positive and finite")
    nodes = np.linspace(0.0, length, m + 1)
    return _normalize(nodes, np.ones(m + 1), "interval")


def gaussian_grid(m, sigma=1.0):
    """Centred normal density of deviation sigma truncated at
    +-GAUSSIAN_CUTOFF*sigma.

    The truncated tail mass is below 1e-14, negligible against every
    tolerance used here.
    """
    _check_count("m", m, 2)
    if not 0 < sigma < math.inf:
        raise InputError("sigma must be positive and finite")
    nodes = np.linspace(-GAUSSIAN_CUTOFF * sigma, GAUSSIAN_CUTOFF * sigma, m + 1)
    w = np.exp(-(nodes**2) / (2.0 * sigma**2))
    return _normalize(nodes, w, "gaussian-truncated")


def scale_grid(grid: GridSpace1D, r):
    """Metric scale change of the grid space."""
    if not 0 < r < math.inf:
        raise InputError("scale factor must be positive and finite")
    return GridSpace1D(grid.nodes * r, grid.weight / r, grid.kind)


# ---------------------------------------------------------------------------
# Poincare constants


def _edge_conductances(grid: GridSpace1D):
    """Midpoint densities per edge: the quadrature weights of the slope form."""
    w = grid.weight
    return 0.5 * (w[:-1] + w[1:]) * grid.h


def second_eigenvalue(grid: GridSpace1D, tol=1e-10, max_iter=100_000):
    """First nonzero eigenvalue of the weighted Neumann second-difference
    operator (edge-conductance form) by inverse iteration with deflation of
    the constant mode.  The shifted operator is factored once (LAPACK
    ``gttrf``) and each step is one solve with that factor (``gttrs``)."""
    mu = grid.node_mass()
    cond = _edge_conductances(grid) / grid.h**2
    n = mu.size
    diag = np.zeros(n)
    diag[:-1] += cond
    diag[1:] += cond
    off = -cond
    sq = np.sqrt(mu)

    shift = 1e-10 * float(np.max(diag / mu))  # regularises the deflated solve
    side = off / (sq[:-1] * sq[1:])
    *factor, info = dgttrf(side, diag / mu + shift, side)
    if info > 0:
        raise ConvergenceError("the shifted operator has a singular factor")

    def deflate(v):
        return v - np.dot(v, sq) / np.dot(sq, sq) * sq

    rng = np.random.default_rng(1)
    v = deflate(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    lam_old = math.inf
    for _ in range(max_iter):
        u = dgttrs(*factor, v)[0]
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


def poincare_c22(grid: GridSpace1D):
    """(2,2) constant: variance versus squared-slope energy, spectrally."""
    if grid.nodes.size < 65:
        raise InputError("poincare_c22 expects a grid with at least 64 subintervals")
    lam, _ = second_eigenvalue(grid)
    if lam <= 0:
        raise ConvergenceError(f"nonpositive spectral gap {lam}")
    return 1.0 / math.sqrt(lam)


def _trial_blocks(grid: GridSpace1D, trials, seed):
    """Yield the first ``trials`` functions of a smooth seeded family as the
    rows of matrices of at most TRIAL_BLOCK_ELEMENTS values (one row when a
    row alone is longer): the spectral eigenfunction and centred polynomials,
    then low-frequency cosine mixtures, amplitude-normalised.  Smoothness
    keeps the central-difference slope faithful."""
    x = grid.nodes
    t = (x - x[0]) / (x[-1] - x[0])
    rows = max(1, TRIAL_BLOCK_ELEMENTS // t.size)
    _, eig = second_eigenvalue(grid)
    head = ([eig / np.abs(eig).max()] + [(t - 0.5) ** deg for deg in range(1, 7)])[:trials]
    for start in range(0, len(head), rows):
        yield np.array(head[start:start + rows])
    rng = np.random.default_rng(seed)
    modes = [np.cos((j + 1) * math.pi * t) for j in range(12)]
    made = len(head)
    while made < trials:
        # one trial draws its term count, then its coefficients
        draws = [rng.standard_normal(rng.integers(1, 13)) for _ in range(min(rows, trials - made))]
        # each row sums c * mode left to right from zeros; with the rows
        # longest first, the rows that take mode j are a leading slice
        order = sorted(range(len(draws)), key=lambda i: -draws[i].size)
        f = np.zeros((len(draws), t.size))
        for j, mode in enumerate(modes):
            coeff = [draws[i][j] for i in order if draws[i].size > j]
            f[:len(coeff)] += np.array(coeff)[:, None] * mode
        peak = np.abs(f).max(axis=1)
        back = np.argsort(order)  # the rows in draw order
        back = back[peak[back] > 0]  # a zero mixture is dropped and drawing goes on
        made += back.size
        yield f[back] / peak[back, None]


def _trial_functions(grid: GridSpace1D, trials, seed):
    """The rows of ``_trial_blocks`` one at a time."""
    for block in _trial_blocks(grid, trials, seed):
        yield from block


def poincare_pq_lower(grid: GridSpace1D, p, q, trials=256, seed=0):
    """Lower bound on the (p,q) constant by maximising the deviation-to-slope
    ratio over the smooth trial family.

    The slope norm is the edge-midpoint quadrature, a second-order
    quadrature of the slope integral that equals the spectral quadratic form
    at q = 2, so that no trial beats the spectral supremum.  A trial whose
    slope norm, deviation or ratio is not finite raises ConvergenceError.
    """
    if not (1 <= p < math.inf and 1 <= q < math.inf):
        raise InputError("p and q must lie in [1, inf)")
    _check_count("trials", trials)
    _check_count("seed", seed, 0)
    mu = grid.node_mass()
    cond = _edge_conductances(grid)
    best = 0.0
    for block in _trial_blocks(grid, trials, seed):
        powered = (np.abs(np.diff(block, axis=1)) / grid.h) ** q
        for moment, slope_q in zip(_central_moment(mu, block, p), powered):
            energy = _finite(float(np.dot(cond, slope_q)) ** (1.0 / q))
            if energy <= 1e-14:
                continue
            best = max(best, _finite(float(moment) ** (1.0 / p) / energy))
    return best


def _finite(x):
    """``x`` when it is finite, else ConvergenceError: a NaN would drop out
    of the max folds, which keep their old value."""
    if not math.isfinite(x):
        raise ConvergenceError("a trial function gave a value that is not finite")
    return x


@dataclass(frozen=True)
class LogSobolevReport:
    constant: float
    max_violation: float
    lower_bound: float
    trials: int


def _entropies(mu, squares):
    """``entropy_weighted(mu, v)`` for each row v of ``squares``.  The rows
    positive everywhere take both sums in one pass over the block; any other
    row (a polynomial vanishes at the midpoint node) goes through
    ``entropy_weighted``, which leaves out its zeros."""
    full = (squares > 0).all(axis=1)
    weighted = mu * squares  # w * v * log v in entropy_weighted's order
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with a zero are not read
        s1 = np.sum(weighted * np.log(squares), axis=1)
    for v, whole, s, mean in zip(squares, full, s1.tolist(), np.sum(weighted, axis=1).tolist()):
        if whole:
            yield s - (mean * math.log(mean) if mean > 0 else 0.0)
        else:
            yield entropy_weighted(mu, v)


def log_sobolev_check(grid: GridSpace1D, constant, trials=1000, seed=0):
    """Evaluate the entropy-energy inequality at a candidate constant.

    Reports the worst value of Ent(f^2) - 2 C^2 * energy(f) over the trial
    family (positive means a counterexample) and the best certified lower
    bound on the optimal constant.  Near-constant perturbations along the
    spectral eigenfunction drive the lower bound up to the (2,2) constant.
    A trial whose entropy, energy or ratio is not finite raises
    ConvergenceError.
    """
    if not 0 < constant < math.inf:
        raise InputError("the candidate constant must be positive and finite")
    _check_count("trials", trials)
    _check_count("seed", seed, 0)
    mu = grid.node_mass()
    # 4 + max(trials - 4, 1) >= trials functions, so exactly trials are checked
    blocks = _trial_blocks(grid, max(trials - 4, 1), seed)
    first = next(blocks)  # its first row is the normalised spectral eigenfunction
    perturbed = 1.0 + np.array([0.003, 0.01, 0.03, 0.1])[:, None] * first[0]

    worst = -math.inf
    lower = 0.0
    for block in itertools.chain([np.vstack((perturbed, first))[:trials]], blocks):
        slopes = np.gradient(block, grid.nodes, axis=1)
        for g2, ent in zip(slopes * slopes, _entropies(mu, block**2)):
            ent, energy = _finite(ent), _finite(float(np.dot(mu, g2)))
            worst = max(worst, ent - 2.0 * constant**2 * energy)
            if energy > 1e-14 and ent > 0:
                lower = max(lower, math.sqrt(_finite(ent / (2.0 * energy))))
    return LogSobolevReport(float(constant), worst, lower, trials)


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
    return DisconnectedReport(True, True, tuple(f), _central_moment(sp.mass, f))


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
