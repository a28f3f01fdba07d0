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
from .core import FinitePmSpace, InputError, SizeLimitError, VALIDATION_TOL
from .observables import KappaSequence, interleave, separation

MAX_CONTRACTION = 16
MAX_PACKING = 20


@dataclass(frozen=True)
class AtomVector:
    """Finite prefix of a nonincreasing nonnegative sequence, implicit zero tail.

    Entries may be floats or Fractions; Fractions enable exact contraction
    decisions.
    """

    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if any(e < 0 for e in self.entries):
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
    if n < 1:
        raise InputError("truncation length must be >= 1")
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
# contraction


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
    if not a:
        return tuple(() for _ in beta.entries)

    remaining = [list() for _ in b]
    need = list(b)

    def rec(i):
        if i == len(a):
            return all(abs(v) <= tol for v in need)
        # entries are sorted descending, so once an entry fails everywhere the
        # branch is dead; identical residual needs are only tried once
        tried = set()
        for j in range(len(b)):
            key = need[j] if exact else round(float(need[j]), 12)
            if key in tried:
                continue
            tried.add(key)
            if need[j] < a[i] - tol:
                continue
            need[j] -= a[i]
            remaining[j].append(i)
            if rec(i + 1):
                return True
            remaining[j].pop()
            need[j] += a[i]
        return False

    if rec(0):
        groups = [tuple(g) for g in remaining]
        groups += [()] * (len(beta.entries) - len(groups))
        return tuple(groups)
    return None


# ---------------------------------------------------------------------------
# membership of a finite space


@dataclass(frozen=True)
class AtomAssignment:
    """Map atom index -> support point index with capacities respected."""

    map: tuple

    def verify(self, sp: FinitePmSpace, alpha: AtomVector):
        load = np.zeros(sp.n)
        for i, x in enumerate(self.map):
            load[x] += float(alpha.entries[i])
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
    if sp.diam() > delta + VALIDATION_TOL:
        return None
    if not entries:
        return AtomAssignment(())
    cap = [float(m) for m in sp.mass]
    assign = [-1] * len(entries)

    def rec(i):
        if i == len(entries):
            return True
        seen = set()
        for x in range(sp.n):
            key = round(cap[x], 12)
            if key in seen:
                continue  # equal residual capacities are interchangeable
            seen.add(key)
            if cap[x] < entries[i] - VALIDATION_TOL:
                continue
            cap[x] -= entries[i]
            assign[i] = x
            if rec(i + 1):
                return True
            cap[x] += entries[i]
            assign[i] = -1
        return False

    return AtomAssignment(tuple(assign)) if rec(0) else None


def membership_intersection_report(sp: FinitePmSpace, alpha: AtomVector, ns):
    """Membership must be equivalent to membership of every truncation at or
    beyond the support size, with a monotone implication chain below it."""
    full = member(sp, alpha) is not None
    rows = []
    ok = True
    prev_accept = None
    for n in sorted(ns):
        acc = member(sp, truncate(alpha, n, "zero")) is not None
        rows.append((n, acc))
        if n >= alpha.support_size() and acc != full:
            ok = False
        if prev_accept is not None and prev_accept is False and acc:
            ok = False  # more constraints cannot rescue a refused prefix
        prev_accept = acc
    return {"ok": ok, "full": full, "truncations": rows}


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
    atom_bins: tuple          # per space: tuple of atom-bin masses
    small_bins: tuple         # per space: tuple of leftover-bin masses
    covered: tuple            # per space: covered mass (always 1 here)
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
    strict = sp.dist < delta * (1.0 - 1e-9) - VALIDATION_TOL
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


def detect_dissipation(sequence, alpha: AtomVector, delta, final_tol=0.05):
    """Detect whether a finite sequence of spaces spreads its mass apart at
    scale delta while retaining atoms alpha.

    For each space, components of the strict sub-delta graph are matched to
    the atom targets and the rest become small bins; acceptance requires, over
    the last half of the sequence, (a) nonincreasing atom-mass mismatch ending
    below ``final_tol``, (b) nonincreasing largest small bin, vanishing when
    diffuse mass exists, (c) nondecreasing small-bin counts when diffuse mass
    exists.  A separation cross-check at the prescribed thresholds runs on the
    members within the exact-search size limits and must reach delta.
    """
    spaces = list(sequence)
    if len(spaces) < 4:
        raise InputError("detect_dissipation needs a sequence of length >= 4")
    if not delta > 0:
        raise InputError("delta must be positive")
    targets = [float(e) for e in alpha.entries if e > 0]
    if abs(alpha.norm1() - 1.0) < VALIDATION_TOL and len(targets) == 1:
        raise InputError("the single-full-atom vector dissipates vacuously")
    diffuse = 1.0 - alpha.norm1()

    atom_bins, small_bins, counts, errs, max_small, covered = [], [], [], [], [], []
    for sp in spaces:
        ab, sm = _greedy_families(sp, targets, delta)
        atom_bins.append(tuple(ab))
        small_bins.append(tuple(sm))
        counts.append(len(sm))
        errs.append(math.fsum(abs(a - t) for a, t in zip(ab, targets)))
        max_small.append(max(sm) if sm else 0.0)
        covered.append(math.fsum(ab) + math.fsum(sm))

    half = len(spaces) // 2
    tail = slice(half, None)
    reasons = []
    if errs[-1] > final_tol:
        reasons.append(f"atom mismatch {errs[-1]:.4f} above {final_tol}")
    if _slope(errs[tail]) > 1e-9:
        reasons.append("atom mismatch not decreasing")
    if covered[-1] < 1.0 - final_tol:
        reasons.append(f"covered mass {covered[-1]:.4f} below {1 - final_tol}")
    if diffuse > final_tol:
        if max_small[-1] > final_tol:
            reasons.append(f"largest small bin {max_small[-1]:.4f} above {final_tol}")
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
    kappas = [KappaSequence(())]
    if diffuse > 2 * VALIDATION_TOL:
        kappas.append(KappaSequence((diffuse,)))
        kappas.append(KappaSequence((diffuse / 2, diffuse / 2)))
    checked = [i for i in range(half, len(spaces)) if spaces[i].n <= 20]
    for kap in kappas:
        entries = tuple(targets) + kap.entries
        cap = min(entries) / 2 if entries else 0.1
        eps_grid = [e for e in (0.01, 0.02, 0.05, 0.1) if e < cap] or (
            [cap / 2] if cap > VALIDATION_TOL else []
        )
        if not eps_grid or not checked:
            continue
        min_eps = {}
        for idx in checked:
            merged = interleave(KappaSequence(tuple(targets)), kap)
            passing = math.inf
            for eps in eps_grid:
                reduced = merged.minus(eps)
                if sum(k for k in reduced.entries if k > 0) > 1.0:
                    continue
                try:
                    val = separation(spaces[idx], reduced)
                except SizeLimitError:
                    val = None
                if val is not None and val >= delta - 1e-9:
                    passing = eps
                    break
            min_eps[idx] = passing
            sep_rows.append((idx, len(kap.entries), passing))
        last = checked[-1]
        if math.isinf(min_eps[last]):
            reasons.append(
                f"separation never reaches delta at index {last} (kappa length {len(kap.entries)})"
            )
        elif min_eps[checked[0]] < min_eps[last] - 1e-12:
            reasons.append(
                f"separation slack grows along the sequence (kappa length {len(kap.entries)})"
            )

    return DissipationEvidence(
        accepted=not reasons,
        delta=float(delta),
        atom_bins=tuple(atom_bins),
        small_bins=tuple(small_bins),
        covered=tuple(covered),
        atom_error=tuple(errs),
        max_small=tuple(max_small),
        bin_counts=tuple(counts),
        sep_checked=tuple(sep_rows),
        reason="; ".join(reasons),
    )


def _slope(values):
    values = list(values)
    if len(values) < 2:
        return 0.0
    x = np.arange(len(values), dtype=float)
    y = np.asarray(values, dtype=float)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    return float(np.dot(x, y - y.mean()) / denom) if denom else 0.0


# ---------------------------------------------------------------------------
# product consistency


def algebra_consistency_report(alpha: AtomVector, beta: AtomVector, p, samples=None):
    """Check the product law on witnesses: products of members carry the
    product atoms, and a generator of the product family is dominated by a
    product of members at truncation level."""
    from .core import product as space_product
    from .generators import atom_space, dissipation_family
    from .order import DominationWitness, dominates

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
    if prod_space.n <= 12 and gen.n <= 8:
        w = dominates(prod_space, gen)
        report["generator_dominated"] = isinstance(w, DominationWitness)
        if not report["generator_dominated"]:
            report["violations"].append("generator not dominated by member product")
    report["ok"] = not report["violations"]
    return report
