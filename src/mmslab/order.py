"""Lipschitz-order domination between finite spaces.

X dominates Y when a 1-Lipschitz map pushes the mass of X exactly onto the
mass of Y.  The search is an exhaustive DFS over point assignments with
distance pruning on partial maps and per-target mass-feasibility pruning;
refusals are therefore proofs.  Masses are matched exactly with rational
arithmetic when both spaces carry rational masses, otherwise within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    FinitePmSpace,
    InputError,
    SizeLimitError,
    _distance_tol,
    _point_indices,
    mm_isomorphic,
    product,
)

MAX_SOURCE = 12
MAX_TARGET = 8


@dataclass(frozen=True)
class DominationWitness:
    """A verified 1-Lipschitz measure-preserving assignment of support points."""

    map: tuple
    pushforward: tuple
    nodes_explored: int = 0


@dataclass(frozen=True)
class Refusal:
    """Proof object for a failed exhaustive search."""

    nodes_explored: int
    reason: str = "exhausted"

    def __bool__(self):
        return False


def check_witness(sx: FinitePmSpace, sy: FinitePmSpace, mapping):
    """Verify the domination conditions for an explicit map, up to ``_distance_tol``."""
    mapping = _point_indices(sy, mapping, "mapping")
    if len(mapping) != sx.n:
        raise InputError("mapping shape does not match the spaces")
    tol = _distance_tol(max(sx.diam(), sy.diam()))
    if np.triu(sy.dist[np.ix_(mapping, mapping)] > sx.dist + tol, 1).any():
        return False
    push = np.bincount(mapping, weights=sx.mass, minlength=sy.n)
    return bool(np.abs(push - sy.mass).max() <= 1e-12)


def dominates(sx: FinitePmSpace, sy: FinitePmSpace):
    """Search for a 1-Lipschitz measure-preserving map from X onto Y.

    Returns a DominationWitness or a Refusal (a proven negative).  Points are
    processed by decreasing mass with deterministic tie-breaking, so the
    returned witness does not depend on scheduling.
    """
    if sx.n > MAX_SOURCE or sy.n > MAX_TARGET:
        raise SizeLimitError(
            f"dominates is limited to |X| <= {MAX_SOURCE}, |Y| <= {MAX_TARGET}"
        )
    exact = sx.mass_rational is not None and sy.mass_rational is not None
    if exact:
        src_mass = list(sx.mass_rational)
        need = list(sy.mass_rational)
        tol = Fraction(0)
    else:
        src_mass = [float(v) for v in sx.mass]
        need = [float(v) for v in sy.mass]
        tol = 1e-12

    nx, ny = sx.n, sy.n
    order = sorted(range(nx), key=lambda i: (-src_mass[i], i))
    y_order = sorted(range(ny), key=lambda j: (-need[j], j))
    dx, dy = sx.dist, sy.dist
    stretch = _distance_tol(max(sx.diam(), sy.diam()))
    assign = [-1] * nx
    nodes = 0

    def rec(k):
        nonlocal nodes
        nodes += 1
        if k == nx:
            return all(abs(v) <= tol for v in need)
        # fits[i][j]: sending source i to target j stretches no distance to a
        # point already placed
        placed = order[:k]
        targets = [assign[i] for i in placed]
        fits = (dy[None, :, targets] <= dx[:, None, placed] + stretch).all(axis=2).tolist()
        # every remaining target deficit must be coverable by points that can
        # still reach it under the distance constraints
        rest = order[k:]
        for j in range(ny):
            if need[j] > tol and sum(src_mass[i] for i in rest if fits[i][j]) < need[j] - tol:
                return False
        i = order[k]
        for j in [j for j in y_order if need[j] >= src_mass[i] - tol and fits[i][j]]:
            assign[i] = j
            need[j] -= src_mass[i]
            if rec(k + 1):
                return True
            need[j] += src_mass[i]
            assign[i] = -1
        return False

    if rec(0):
        push = np.bincount(assign, weights=sx.mass, minlength=ny)
        return DominationWitness(tuple(assign), tuple(push), nodes)
    return Refusal(nodes)


def antisymmetry_check(sx: FinitePmSpace, sy: FinitePmSpace):
    """With mutual domination established, the spaces must be mm-isomorphic."""
    w1 = dominates(sx, sy)
    w2 = dominates(sy, sx)
    if not (isinstance(w1, DominationWitness) and isinstance(w2, DominationWitness)):
        raise InputError("antisymmetry_check requires mutual domination")
    return mm_isomorphic(sx, sy)


def generator_idempotent(generators, p):
    """A finite surrogate of closure under products: every pairwise product of
    generators must be dominated by some generator.

    Pairs whose product exceeds the exact-search size are skipped
    (truncation-level semantics).
    """
    generators = list(generators)
    if not generators:
        raise InputError("generator list must be non-empty")
    for ga in generators:
        for gb in generators:
            prod = product(ga, gb, p)
            if prod.n > MAX_TARGET:
                continue
            if not any(
                g.n <= MAX_SOURCE and isinstance(dominates(g, prod), DominationWitness)
                for g in generators
            ):
                return False
    return True
