"""Spectral functional constants of 1-D weighted grids.

Grids carry a density on uniformly spaced nodes with trapezoidal
normalisation, so node masses are w_i h with half weight at the endpoints and
integrals, spectra and quantile maps are all second-order accurate.  The
(2,2) constant is 1/sqrt of the first nonzero eigenvalue of the weighted
Neumann second-difference operator, computed by inverse iteration with
deflation of constants.  The (p,q) trial bounds measure slopes on edge
midpoints, the quadrature of that operator; the log-Sobolev check takes the
central difference at the grid's step h, one-sided at the ends.  Every
kernel reads the one step h.  The trial family is smooth so both surrogates
stay faithful.  It comes in row blocks of at most
core._TRIANGLE_BLOCK_ELEMENTS values, and slopes, powers and entropies are
taken a block at a time.

The long vectors are computed once and written into buffers each call owns:
the trial mixtures and their mode terms, a block's (p,q) slopes or squares,
and the inverse iteration's iterate and Rayleigh-quotient vectors, allocated
after its set-up arrays are dropped.  A yielded block is never written to.
Every value keeps its bits, because each operation keeps its operands and
its order: the modes are mixed left to right from zeros without einsum or
matmul, every dot is one ``core._row_dots`` row (np.dot's bits up to 8192
values, einsum's loop beyond) or, in the iteration, one ``core._dot``, so
no value depends on the BLAS thread count, and the per-row powers,
logarithms and square roots are taken on Python floats.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import dgttrf, dgttrs, ndtri
from .core import (FinitePmSpace, InputError, SizeLimitError, _block_rows, _central_moment,
                   _check_count, _check_positive, _dot, _row_dots, entropy_weighted)

GRID_NORMALIZATION_TOL = 1e-10
# gaussian_grid truncates the normal density at this many deviations.
GAUSSIAN_CUTOFF = 8.0
# A grid has at most this many nodes (beyond it a SizeLimitError, CLI exit
# code 3), so a huge size is refused before its nodes are allocated.  c22's
# inverse iteration takes six to nine times as long per doubling of the size
# (the README's limit table gives the time and memory at the limit).
GRID_MAX_NODES = 2**21 + 1


class ConvergenceError(InputError):
    """A grid at a scale that inverse iteration or the log-Sobolev check
    cannot resolve in floating point: an input error, CLI exit code 2."""


@contextlib.contextmanager
def _finite_arithmetic():
    """ConvergenceError where numpy overflows, divides by zero or takes an
    invalid operation: a grid at a scale its operator cannot represent."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise ConvergenceError(f"the grid's arithmetic is not finite: {e}") from e


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
        mu = self.weight * self.h  # a new array, so the halving stays in it
        mu[0] *= 0.5
        mu[-1] *= 0.5
        return mu

    def total_mass(self):
        return float(self.node_mass().sum())

    def cdf_midpoints(self):
        """CDF values at the nodes via cumulative midpoint masses."""
        mu = self.node_mass()
        return np.cumsum(mu) - mu / 2.0


def _check_squares(name, value, *factors):
    """``_check_positive(name, value)``, then InputError unless ``value`` and
    its multiples by ``factors`` (to a grid's extent and step) have squares
    that are normal floats: the spectral operator divides by the step squared
    and the Gaussian density squares its nodes.  Runs before any array is
    built."""
    _check_positive(name, value)
    lengths = [float(value) * f for f in (1.0, *factors)]
    if not all(np.finfo(float).tiny <= x * x < math.inf for x in lengths):
        raise InputError(f"{name} is too large or too small to square, got {value!r}")


def _check_nodes(m):
    """InputError unless the subinterval count m is an integer >= 2, then
    SizeLimitError when its m + 1 nodes exceed GRID_MAX_NODES."""
    _check_count("m", m, 2)
    if m + 1 > GRID_MAX_NODES:
        raise SizeLimitError(f"grids are limited to {GRID_MAX_NODES} nodes, got m = {m}")


def _normalize(nodes, weight, kind):
    nodes = np.asarray(nodes, dtype=float)
    weight = np.asarray(weight, dtype=float)
    h = nodes[1] - nodes[0]
    mu = weight * h
    total = mu.sum() - mu[0] / 2 - mu[-1] / 2
    return GridSpace1D(nodes, weight / total, kind)


def unit_interval_grid(m, length=1.0):
    """Uniformly weighted interval [0, length] on m+1 nodes."""
    _check_nodes(m)
    _check_squares("length", length, 1 / m)
    nodes = np.linspace(0.0, length, m + 1)
    return _normalize(nodes, np.ones(m + 1), "interval")


def gaussian_grid(m, sigma=1.0):
    """Centred normal density of deviation sigma truncated at
    +-GAUSSIAN_CUTOFF*sigma.

    The truncated tail mass is below 1e-14, negligible against every
    tolerance used here.
    """
    _check_nodes(m)
    _check_squares("sigma", sigma, GAUSSIAN_CUTOFF, 2 * GAUSSIAN_CUTOFF / m)
    nodes = np.linspace(-GAUSSIAN_CUTOFF * sigma, GAUSSIAN_CUTOFF * sigma, m + 1)
    w = np.exp(-(nodes**2) / (2.0 * sigma**2))
    return _normalize(nodes, w, "gaussian-truncated")


def scale_grid(grid: GridSpace1D, r):
    """Metric scale change of the grid space."""
    _check_positive("r", r)
    return GridSpace1D(grid.nodes * r, grid.weight / r, grid.kind)


# ---------------------------------------------------------------------------
# Poincare constants


def _edge_conductances(grid: GridSpace1D):
    """Midpoint densities per edge: the quadrature weights of the slope form."""
    w = grid.weight
    return 0.5 * (w[:-1] + w[1:]) * grid.h


@_finite_arithmetic()
def second_eigenvalue(grid: GridSpace1D):
    """First nonzero eigenvalue of the weighted Neumann second-difference
    operator (edge-conductance form) by inverse iteration with deflation of
    the constant mode.  The shifted operator is factored once (LAPACK
    ``gttrf``) and each step is one solve with that factor (``gttrs``), in
    the iterate's own buffer.  It stops when the Rayleigh quotient moves by
    at most 1e-10 max(1, |lambda|) in one step."""
    mu = grid.node_mass()
    cond = _edge_conductances(grid) / grid.h**2
    n = mu.size
    scaled = np.zeros(n)  # the diagonal, then over mu and shifted
    scaled[:-1] += cond
    scaled[1:] += cond
    scaled /= mu
    sq = np.sqrt(mu)
    del mu

    shift = 1e-10 * float(np.max(scaled))  # regularises the deflated solve
    # a power of two near the shift keeps each solve's u and its squares
    # normal at every scale, and scales exactly, so u / norm keeps its bits
    lift = math.ldexp(1.0, math.frexp(shift)[1])
    side = -cond / (sq[:-1] * sq[1:])
    scaled += shift
    *factor, info = dgttrf(side, scaled, side)
    if info > 0:
        raise ConvergenceError("the shifted operator has a singular factor")
    del scaled, side
    # u / sq and its steps, and the multiple of sq that deflation removes
    ratio, steps = np.empty(n), np.empty(n - 1)
    mass = _dot(sq, sq)

    def deflate(v):
        v -= np.multiply(sq, _dot(v, sq) / mass, out=ratio)

    rng = np.random.default_rng(1)
    u = rng.standard_normal(n)
    deflate(u)
    u /= math.sqrt(_dot(u, u))
    lam_old = math.inf
    for _ in range(100_000):
        u = dgttrs(*factor, u, overwrite_b=True)[0]
        u *= lift
        deflate(u)
        norm = math.sqrt(_dot(u, u))
        if norm == 0:
            raise ConvergenceError("inverse iteration collapsed onto the constants")
        u /= norm
        # Rayleigh quotient in edge form (u is unit and deflated, so the
        # denominator is 1).  The symmetrised form cancels the diagonal
        # against the off-diagonal, and at m ~ 65 000 its rounding alternated
        # between two values 1e-8 apart that never met the stopping test.
        np.divide(u, sq, out=ratio)
        np.square(np.subtract(ratio[1:], ratio[:-1], out=steps), out=steps)
        lam = _dot(cond, steps)
        if abs(lam - lam_old) <= 1e-10 * max(1.0, abs(lam)):
            if not lam > 0:  # a grid at a scale the iteration cannot resolve
                raise ConvergenceError(f"nonpositive spectral gap {lam}")
            return lam, ratio
        lam_old = lam
    raise ConvergenceError("inverse iteration did not reach 1e-10 in 100000 steps")


def poincare_c22(grid: GridSpace1D):
    """(2,2) constant: variance versus squared-slope energy, spectrally."""
    if grid.nodes.size < 65:
        raise InputError("poincare_c22 expects a grid with at least 64 subintervals")
    return 1.0 / math.sqrt(second_eigenvalue(grid)[0])


def _trial_blocks(grid: GridSpace1D, trials, seed):
    """Yield the first ``trials`` functions of a smooth seeded family as the
    rows of matrices of at most _TRIANGLE_BLOCK_ELEMENTS values (one row when
    a row alone is longer): the spectral eigenfunction and centred polynomials,
    then low-frequency cosine mixtures, amplitude-normalised.  Smoothness
    keeps the central-difference slope faithful."""
    x = grid.nodes
    t = (x - x[0]) / (x[-1] - x[0])
    rows = _block_rows(t.size)
    _, eig = second_eigenvalue(grid)
    head = ([eig / np.abs(eig).max()] + [(t - 0.5) ** deg for deg in range(1, 7)])[:trials]
    for start in range(0, len(head), rows):
        yield np.array(head[start:start + rows])
    rng = np.random.default_rng(seed)
    modes = [np.cos((j + 1) * math.pi * t) for j in range(12)]
    # the mixtures, and one coefficient times one mode per row (then |mix|)
    mix, term = np.empty((rows, t.size)), np.empty((rows, t.size))
    made = len(head)
    while made < trials:
        # one trial draws its term count, then its coefficients
        draws = [rng.standard_normal(rng.integers(1, 13)) for _ in range(min(rows, trials - made))]
        # each row sums c * mode left to right from zeros; with the rows
        # longest first, the rows that take mode j are a leading slice
        sizes = np.array([d.size for d in draws])
        order = np.argsort(-sizes, kind="stable")
        taking = np.arange(len(modes)) < sizes[order, None]
        coeff = np.zeros(taking.shape)
        coeff[taking] = np.concatenate([draws[i] for i in order])
        f = mix[:len(draws)]
        f.fill(0.0)
        for j, k in enumerate(taking.sum(axis=0).tolist()):  # the first k rows take mode j
            f[:k] += np.multiply(coeff[:k, j, None], modes[j], out=term[:k])
        peak = np.abs(f, out=term[:len(draws)]).max(axis=1)
        back = np.argsort(order)  # the rows in draw order
        back = back[peak[back] > 0]  # a zero mixture is dropped and drawing goes on
        made += back.size
        block = f[back]
        block /= peak[back, None]
        yield block


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
    slopes = np.empty((_block_rows(mu.size), mu.size - 1))  # |f'|^q on the edges
    best = 0.0
    for block in _trial_blocks(grid, trials, seed):
        powered = np.subtract(block[:, 1:], block[:, :-1], out=slopes[:len(block)])
        np.abs(powered, out=powered)
        powered /= grid.h
        powered **= q
        energies = _row_dots(powered, cond).tolist()
        for moment, energy in zip(_central_moment(mu, block, p), energies):
            energy = _finite(energy ** (1.0 / q))
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


@_finite_arithmetic()
def log_sobolev_check(grid: GridSpace1D, constant, trials=1000, seed=0):
    """Evaluate the entropy-energy inequality at a candidate constant.

    Reports the worst value of Ent(f^2) - 2 C^2 * energy(f) over the trial
    family (positive means a counterexample) and the best certified lower
    bound on the optimal constant.  The energy takes the slopes as central
    differences at the grid's step ``grid.h``, one-sided at the ends
    (``np.gradient``).  Near-constant perturbations along the
    spectral eigenfunction drive the lower bound up to the (2,2) constant.
    A trial whose entropy, energy or ratio is not finite raises
    ConvergenceError.
    """
    _check_squares("constant", constant)
    _check_count("trials", trials)
    _check_count("seed", seed, 0)
    mu = grid.node_mass()
    # 4 + max(trials - 4, 1) >= trials functions, so exactly trials are checked
    blocks = _trial_blocks(grid, max(trials - 4, 1), seed)
    first = next(blocks)  # its first row is the normalised spectral eigenfunction
    perturbed = 1.0 + np.array([0.003, 0.01, 0.03, 0.1])[:, None] * first[0]
    # the squares of the trials; the first block holds the 4 perturbed rows
    # besides at most a block's rows
    squares = np.empty((4 + _block_rows(mu.size), mu.size))

    worst = -math.inf
    lower = 0.0
    for block in itertools.chain([np.vstack((perturbed, first))[:trials]], blocks):
        g2 = np.gradient(block, grid.h, axis=1)
        g2 *= g2
        energies = _row_dots(g2, mu).tolist()
        block2 = np.multiply(block, block, out=squares[:len(block)])
        for ent, energy in zip(entropy_weighted(mu, block2), energies):
            ent, energy = _finite(ent), _finite(energy)
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
