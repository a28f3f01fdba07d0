"""Atom-vector algebra and atom-membership machinery.

An atom vector is a nonincreasing, nonnegative, finitely stored sequence with
l1 norm at most one.  The module provides the sorting map, products,
contraction decisions, the two truncations, exact packing-based membership of
a finite space in the family carrying at least those atoms, an l1 upper bound
on the pyramid distance between two such families, and a finite-sequence
detector for mass dissipation at a given scale with prescribed atoms.

Infinite tails must be pre-truncated by the caller; every statement is then
tested at truncation level via the collapsing truncation, which is always a
contraction of the original vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scipy import connected_components
from .core import (FinitePmSpace, InputError, SizeLimitError, VALIDATION_TOL, _check_count,
                   _check_positive, _distance_tol)
from .observables import SEPARATION_MAX_POINTS, SEPARATION_MAX_POSITIVE, separation

MAX_CONTRACTION = 16
MAX_PACKING = 20

# detect_dissipation's bound on the last member's atom mismatch and small bins
_FINAL_TOL = 0.05


@dataclass(frozen=True)
class AtomVector:
    """Finite prefix of a nonincreasing nonnegative sequence, implicit zero tail.

    Entries may be floats or Fractions; Fractions enable exact contraction
    decisions.
    """

    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not all(e >= 0 for e in self.entries):
            raise InputError("atom entries must be nonnegative")
        if float(sum(self.entries)) > 1.0 + VALIDATION_TOL:
            raise InputError("atom entries must have l1 norm <= 1")
        for a, b in zip(self.entries, self.entries[1:]):
            if b > a:
                raise InputError("atom entries must be nonincreasing; use sort_atoms")

    def __getitem__(self, i):
        return self.entries[i] if 0 <= i < len(self.entries) else 0

    def __len__(self):
        return len(self.entries)

    def norm1(self):
        return math.fsum(float(e) for e in self.entries)

    def support_size(self):
        return sum(1 for e in self.entries if e > 0)

    def as_floats(self):
        return np.array([float(e) for e in self.entries])


ONE = AtomVector((1,))
ZERO = AtomVector(())


def sort_atoms(raw):
    """Sorting map: nonincreasing rearrangement with zeros dropped.  Idempotent."""
    entries = list(raw.entries) if isinstance(raw, AtomVector) else list(raw)
    if not all(e >= 0 for e in entries):
        raise InputError("atom entries must be nonnegative numbers")
    if float(sum(entries)) > 1.0 + VALIDATION_TOL:
        raise InputError("atom entries must have l1 norm <= 1")
    entries = sorted((e for e in entries if e > 0), reverse=True)
    return AtomVector(tuple(entries))


def atom_product(alpha: AtomVector, beta: AtomVector):
    """All pairwise entry products, sorted; the l1 norm is multiplicative."""
    prods = [a * b for a in alpha.entries for b in beta.entries]
    return sort_atoms(prods)


def truncate(alpha: AtomVector, n, kind="zero"):
    """Keep the first n entries; ``collapse`` folds the tail into slot n and
    re-sorts, producing a contraction of the input."""
    _check_count("truncation length", n)
    if kind == "zero":
        return AtomVector(alpha.entries[:n])
    if kind == "collapse":
        head = list(alpha.entries[: n - 1])
        tail = alpha.entries[n - 1 :]
        if tail:
            head.append(sum(tail))
        return sort_atoms(head)
    raise InputError(f"unknown truncation kind {kind!r}")


# ---------------------------------------------------------------------------
# packing search shared by contraction and membership


def _pack(items, caps, tol, fill):
    """Exhaustive packing of nonincreasing ``items`` into slots of residual
    capacity ``caps``: an item fits a slot whose residual is at least the item
    minus ``tol``, slots are tried in index order and slots with equal
    residuals once (exactly when ``tol`` is zero, else to 12 digits).  An item
    equal to the previous one starts at its slot, which skips reorderings of
    equal items and keeps the first packing in slot order.  With ``fill``
    every residual must end within ``tol`` of zero.

    Returns the slot of each item, or None when no packing exists.
    """
    caps = list(caps)
    slot = [-1] * len(items)

    def rec(i):
        if i == len(items):
            return not fill or all(abs(v) <= tol for v in caps)
        # items are sorted descending, so once an item fails everywhere the
        # branch is dead
        tried = set()
        start = slot[i - 1] if i and items[i] == items[i - 1] else 0
        for j in range(start, len(caps)):
            cap = caps[j]
            key = round(float(cap), 12) if tol else cap
            if key in tried:
                continue
            tried.add(key)
            if cap < items[i] - tol:
                continue
            caps[j] -= items[i]
            slot[i] = j
            if rec(i + 1):
                return True
            caps[j] += items[i]
            slot[i] = -1
        return False

    return slot if rec(0) else None


def is_contraction(alpha: AtomVector, beta: AtomVector):
    """Decide whether beta arises from alpha by summing groups of entries.

    Returns the grouping (a tuple per beta slot of alpha indices) or None.
    Exact with Fraction entries; otherwise float sums within 1e-10.  The l1
    norms must agree since every alpha entry lands in some group.
    """
    a = [e for e in alpha.entries if e > 0]
    b = [e for e in beta.entries if e > 0]
    if len(a) > MAX_CONTRACTION or len(b) > MAX_CONTRACTION:
        raise SizeLimitError(f"contraction search is limited to {MAX_CONTRACTION} atoms")
    exact = all(isinstance(e, Fraction) for e in a + b)
    tol = Fraction(0) if exact else 1e-10
    if abs(sum(a) - sum(b)) > tol:
        return None
    slot = _pack(a, b, tol, fill=True)
    if slot is None:
        return None
    return tuple(tuple(i for i, s in enumerate(slot) if s == j) for j in range(len(beta.entries)))


# ---------------------------------------------------------------------------
# membership of a finite space


@dataclass(frozen=True)
class AtomAssignment:
    """Map atom index -> support point index with capacities respected."""

    map: tuple

    def verify(self, sp: FinitePmSpace, alpha: AtomVector):
        load = np.bincount(self.map, weights=alpha.as_floats()[:len(self.map)], minlength=sp.n)
        return bool(np.all(load <= sp.mass + VALIDATION_TOL))


def member(sp: FinitePmSpace, alpha: AtomVector, delta=math.inf):
    """Decide whether the space carries atoms of sizes at least alpha (and has
    diameter at most delta): exact bin-packing of entries into point masses.

    Returns an AtomAssignment or None (a proven refusal).  Deterministic:
    largest atoms first, ties broken by point index, so the lexicographically
    smallest assignment is returned.
    """
    if math.isnan(delta):
        raise InputError("delta must not be NaN")
    entries = [float(e) for e in alpha.entries if e > 0]
    if len(entries) > MAX_PACKING or sp.n > MAX_PACKING:
        raise SizeLimitError(f"membership packing is limited to {MAX_PACKING} items/points")
    if sp.diam() > delta + _distance_tol(sp.diam()):
        return None
    slot = _pack(entries, [float(m) for m in sp.mass], VALIDATION_TOL, fill=False)
    return None if slot is None else AtomAssignment(tuple(slot))


def pyramid_distance_upper(alpha: AtomVector, beta: AtomVector):
    """l1 distance between the vectors: a certified upper bound on the distance
    between the corresponding atom-generated families."""
    n = max(len(alpha.entries), len(beta.entries))
    return math.fsum(abs(float(alpha[i]) - float(beta[i])) for i in range(n))


# ---------------------------------------------------------------------------
# dissipation detection


@dataclass(frozen=True)
class DissipationEvidence:
    accepted: bool
    delta: float
    atom_error: tuple         # per space: sum |bin mass - target|
    max_small: tuple          # per space: largest leftover bin
    bin_counts: tuple         # per space: number of leftover bins
    sep_checked: tuple = ()   # (index, kappa length, value) triples
    reason: str = ""

    def __bool__(self):
        return self.accepted


def _greedy_families(sp: FinitePmSpace, targets, delta):
    """Assign components of the strict sub-delta graph to atom bins (best fit
    decreasing) and leave the rest as small bins."""
    strict = sp.dist < delta - _distance_tol(delta)
    _, labels = connected_components(strict, directed=False)
    comps = sorted(np.bincount(labels, weights=sp.mass), reverse=True)
    atom_bins = [0.0] * len(targets)
    small = []
    remaining_targets = list(range(len(targets)))
    for c in comps:
        best_j, best_gap = None, math.inf
        for j in remaining_targets:
            gap = abs(targets[j] - c)
            if gap < best_gap - 1e-15:
                best_gap, best_j = gap, j
        if best_j is not None and best_gap <= 0.5 * targets[best_j] + VALIDATION_TOL:
            atom_bins[best_j] = c
            remaining_targets.remove(best_j)
        else:
            small.append(c)
    return atom_bins, small


def detect_dissipation(sequence, alpha: AtomVector, delta):
    """Detect whether a finite sequence of spaces spreads its mass apart at
    scale delta while retaining atoms alpha.

    For each space, components of the strict sub-delta graph are matched to
    the atom targets and the rest become small bins; acceptance requires, over
    the last half of the sequence, (a) nonincreasing atom-mass mismatch ending
    below 0.05, (b) nonincreasing largest small bin, vanishing when
    diffuse mass exists, (c) nondecreasing small-bin counts when diffuse mass
    exists.  A separation cross-check at the prescribed thresholds runs on the
    members within separation's point limit, for each threshold sequence
    within its limit on positive entries, and must reach delta.
    """
    spaces = list(sequence)
    if len(spaces) < 4:
        raise InputError("detect_dissipation needs a sequence of length >= 4")
    _check_positive("delta", delta)
    targets = [float(e) for e in alpha.entries if e > 0]
    if abs(alpha.norm1() - 1.0) < VALIDATION_TOL and len(targets) == 1:
        raise InputError("the single-full-atom vector dissipates vacuously")
    diffuse = 1.0 - alpha.norm1()

    counts, errs, max_small = [], [], []
    for sp in spaces:
        ab, sm = _greedy_families(sp, targets, delta)
        counts.append(len(sm))
        errs.append(math.fsum(abs(a - t) for a, t in zip(ab, targets)))
        max_small.append(max(sm) if sm else 0.0)

    half = len(spaces) // 2
    tail = slice(half, None)
    reasons = []
    if errs[-1] > _FINAL_TOL:
        reasons.append(f"atom mismatch {errs[-1]:.4f} above {_FINAL_TOL}")
    if _slope(errs[tail]) > 1e-9:
        reasons.append("atom mismatch not decreasing")
    if diffuse > _FINAL_TOL:
        if max_small[-1] > _FINAL_TOL:
            reasons.append(f"largest small bin {max_small[-1]:.4f} above {_FINAL_TOL}")
        if _slope(max_small[tail]) > 1e-9:
            reasons.append("largest small bin not decreasing")
        if _slope(counts[tail]) < -1e-9:
            reasons.append("small-bin count decreasing")

    # Separation cross-check.  The defining condition subtracts a slack from
    # the thresholds and takes the limit in n before the slack goes to zero,
    # so the finite surrogate records, per member, the smallest grid slack at
    # which the prescribed separation is reached; it must exist at the last
    # checkable member and must not grow along the sequence.
    sep_rows = []
    kappas = [()]
    if diffuse > 2 * VALIDATION_TOL:
        kappas += [(diffuse,), (diffuse / 2, diffuse / 2)]
    checked = [i for i in range(half, len(spaces)) if spaces[i].n <= SEPARATION_MAX_POINTS]
    for kap in kappas:
        merged = tuple(targets) + kap
        cap = min(merged) / 2 if merged else 0.1
        eps_grid = [e for e in (0.01, 0.02, 0.05, 0.1) if e < cap] or (
            [cap / 2] if cap > VALIDATION_TOL else []
        )
        # every slack is below min(merged) / 2, so all len(merged) reduced
        # thresholds stay positive: beyond separation's limit, skip the kappa
        if not eps_grid or not checked or len(merged) > SEPARATION_MAX_POSITIVE:
            continue
        slack = [_smallest_slack(spaces[idx], merged, eps_grid, delta) for idx in checked]
        sep_rows += [(idx, len(kap), eps) for idx, eps in zip(checked, slack)]
        if math.isinf(slack[-1]):
            reasons.append(
                f"separation never reaches delta at index {checked[-1]} (kappa length {len(kap)})"
            )
        elif slack[0] < slack[-1] - 1e-12:
            reasons.append(
                f"separation slack grows along the sequence (kappa length {len(kap)})"
            )

    return DissipationEvidence(
        accepted=not reasons,
        delta=float(delta),
        atom_error=tuple(errs),
        max_small=tuple(max_small),
        bin_counts=tuple(counts),
        sep_checked=tuple(sep_rows),
        reason="; ".join(reasons),
    )


def _smallest_slack(sp, kappa, eps_grid, delta):
    """The first slack in ``eps_grid`` at which the separation of ``sp`` at
    thresholds ``kappa`` minus the slack reaches delta, or inf."""
    reach = delta - _distance_tol(delta)
    for eps in eps_grid:
        reduced = tuple(k - eps for k in kappa)
        if sum(k for k in reduced if k > 0) > 1.0:
            continue
        if separation(sp, reduced) >= reach:
            return eps
    return math.inf


def _slope(values):
    """Least-squares slope of ``values`` (at least two) against their index."""
    x = np.arange(len(values), dtype=float)
    y = np.asarray(values, dtype=float)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


# ---------------------------------------------------------------------------
# product consistency


def algebra_consistency_report(alpha: AtomVector, beta: AtomVector, p, samples=None):
    """Check the product law on witnesses: products of members carry the
    product atoms, and a generator of the product family is dominated by a
    product of members at truncation level."""
    from .core import product as space_product
    from .generators import atom_space, dissipation_family
    from .order import MAX_SOURCE, MAX_TARGET, DominationWitness, dominates

    report = {"violations": [], "checked": 0}
    prod = atom_product(alpha, beta)
    if samples is None:
        samples = [(atom_space(alpha, 2), atom_space(beta, 2))]
    for sa, sb in samples:
        if member(sa, alpha) is None or member(sb, beta) is None:
            report["violations"].append("sample space lost its own atoms")
            continue
        sp = space_product(sa, sb, p)
        if sp.n <= MAX_PACKING:
            report["checked"] += 1
            if member(sp, prod) is None:
                report["violations"].append("product of members refused product atoms")
    # generator side: a small member of the product family should be dominated
    # by a product of dissipation-family members
    gen = dissipation_family(prod, 1.0, 1)
    a_big = dissipation_family(alpha, 1.0, 1)
    b_big = dissipation_family(beta, 1.0, 1)
    prod_space = space_product(a_big, b_big, p if p != math.inf else math.inf)
    if prod_space.n <= MAX_SOURCE and gen.n <= MAX_TARGET:
        w = dominates(prod_space, gen)
        report["generator_dominated"] = isinstance(w, DominationWitness)
        if not report["generator_dominated"]:
            report["violations"].append("generator not dominated by member product")
    report["ok"] = not report["violations"]
    return report
