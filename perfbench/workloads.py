"""Seeded inputs, fixed task lists and output checks of the four workloads.

A workload's inputs depend only on ``--seed``; the seed changes geometry,
masses and grid lengths, never the sizes, so every seed runs the same mix of
task families at the same sizes.  A run builds one input set ("part") per
batch: part 0 is the seed's reference inputs, and part p > 0 draws the same
task list on further inputs from the same seed, so that a run averages over
several inputs instead of repeating one.  Each task is one call into mmslab
(or one ``mmslab`` process for ``cli_plans``) and carries a check of its
output.  Checks run after the timed batch and may read the outputs of other
tasks of the same batch (heuristic <= exact, box_lower <= box_upper).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from mmslab import atoms, boxmetric, core, functional, generators, observables, order

# Absolute tolerance, scaled by max(1, |reference|), for values that must agree.
EXACT_TOL = 1e-9
# Relative tolerance for "estimate" values against the recorded reference.
ESTIMATE_RTOL = 1e-6

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")
CLI_TIMEOUT_S = 120


@dataclass
class Task:
    """One call of a workload's fixed task list.

    ``check(out, outs)`` returns an error text or None; ``outs`` maps task keys
    to the outputs of the same batch.  ``values(out)`` returns
    ``{label: (certificate, value)}`` for the comparison with the recorded
    reference, where certificate is one of exact, lower, upper, estimate.
    """

    key: str
    kind: str
    call: Callable
    check: Callable
    values: Callable = lambda out: {}


@dataclass
class Workload:
    """``parts[p]`` is the task list on input set p; ``tasks`` is part 0."""

    name: str
    in_process: bool
    parts: list
    workdir: str

    @property
    def tasks(self):
        return self.parts[0]


def _rng(seed, salt, part=0):
    return np.random.default_rng([salt, seed] if part == 0 else [salt, seed, part])


# ---------------------------------------------------------------------------
# inputs (metric by construction, as in the test corpus)


def embedded_space(rng, n, dim=3):
    """Random points in the unit cube with the Euclidean metric."""
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return core.space([f"p{i}" for i in range(n)], dist, _masses(rng, n, 2.0), coords=pts)


def shortest_path_space(rng, n):
    """Random symmetric weights completed to a metric by Floyd-Warshall."""
    raw = rng.uniform(0.2, 1.0, size=(n, n))
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, 0.0)
    for k in range(n):
        raw = np.minimum(raw, raw[:, k][:, None] + raw[k][None, :])
    return core.space([f"q{i}" for i in range(n)], raw, _masses(rng, n, 1.0))


def _masses(rng, n, conc):
    mass = np.maximum(rng.dirichlet(np.ones(n) * conc), 1e-3)
    return mass / mass.sum()


def corpus(rng, sizes):
    """One space per size, alternating the two constructions."""
    return [
        embedded_space(rng, n) if k % 2 else shortest_path_space(rng, n)
        for k, n in enumerate(sizes)
    ]


def quotient_pair(rng, n, k):
    """(X, Y, map): Y merges the points of X into k groups with the smallest
    cross-group distances, closed to a metric, so ``map`` is a 1-Lipschitz
    measure-preserving map of X onto Y."""
    sx = embedded_space(rng, n)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    mapping = np.empty(n, dtype=int)
    for g, part in enumerate(np.split(perm, cuts)):
        mapping[part] = g
    dy = np.full((k, k), np.inf)
    for a in range(k):
        for b in range(k):
            dy[a, b] = 0.0 if a == b else sx.dist[np.ix_(mapping == a, mapping == b)].min()
    for c in range(k):
        dy = np.minimum(dy, dy[:, c][:, None] + dy[c][None, :])
    my = np.zeros(k)
    np.add.at(my, mapping, sx.mass)
    sy = core.space([f"g{g}" for g in range(k)], dy, my / my.sum())
    return sx, sy, tuple(int(v) for v in mapping)


def packing_alpha(rng, sp):
    """An atom vector the space provably carries: atoms cut from point masses."""
    entries = []
    for i in rng.choice(sp.n, size=min(sp.n, 5), replace=False):
        cut = rng.uniform(0.3, 0.95) * sp.mass[i]
        entries.extend([cut / 2, cut / 2] if rng.random() < 0.4 else [cut])
    return atoms.sort_atoms(entries)


def grouped_atoms(rng, count, groups):
    """(alpha, beta): beta sums disjoint groups of alpha's entries, exactly."""
    nums = rng.integers(1, 40, size=count)
    nums = np.sort(nums)[::-1]
    alpha_entries = [Fraction(int(c), 512) for c in nums]
    owner = rng.permutation(np.arange(count) % groups)
    beta_entries = [sum((alpha_entries[i] for i in range(count) if owner[i] == g), Fraction(0))
                    for g in range(groups)]
    return atoms.AtomVector(tuple(alpha_entries)), atoms.sort_atoms(beta_entries)


# ---------------------------------------------------------------------------
# generic checks


def _close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _first(*errors):
    return next((e for e in errors if e), None)


def _need(cond, text):
    return None if cond else text


def _le(a, b, what):
    return _need(a <= b + EXACT_TOL * max(1.0, abs(b)), f"{what}: {a!r} > {b!r}")


def _coupling_ok(est, sx, sy):
    if est.witness_coupling is None:
        return None
    try:
        est.witness_coupling.check_margins(sx.mass, sy.mass, tol=1e-9)
    except core.InputError as e:
        return f"coupling witness: {e}"
    return None


def _separation_ok(sp, kappa, out):
    val, cfg = out
    needs = sorted((k for k in kappa if k > 0), reverse=True)
    if math.isinf(val) or val <= 0.0:
        return None
    if len(cfg.groups) != len(needs):
        return f"separation witness has {len(cfg.groups)} groups for {len(needs)} needs"
    seen = set()
    for g, need in zip(cfg.groups, needs):
        if seen.intersection(g):
            return "separation witness groups overlap"
        seen.update(g)
        if sp.mass[list(g)].sum() < need - 1e-9:
            return "separation witness group below its need"
    for a in range(len(cfg.groups)):
        for b in range(a + 1, len(cfg.groups)):
            gap = sp.dist[np.ix_(cfg.groups[a], cfg.groups[b])].min()
            if gap < val - 1e-9:
                return f"separation witness groups at distance {gap} < {val}"
    return None


def _contraction_ok(alpha, beta, groups, expect):
    if groups is None:
        return _need(not expect, "contraction refused but one exists")
    if not expect:
        return "contraction reported where none exists"
    used = sorted(i for g in groups for i in g)
    if used != list(range(len(alpha.entries))):
        return "contraction groups do not partition alpha"
    for g, b in zip(groups, beta.entries):
        if sum(alpha.entries[i] for i in g) != b:
            return "contraction group sum differs from beta"
    return None


# ---------------------------------------------------------------------------
# small_exact


def _small_exact(seed, part):
    rng = _rng(seed, 11, part)
    ob, bm = observables, boxmetric
    tasks = []
    exact_spaces = corpus(rng, (6, 5, 5, 5, 5, 4))
    kappa = float(rng.choice([0.1, 0.2, 0.3]))
    for k, sp in enumerate(exact_spaces):
        tag = f"n{sp.n}_{k}"
        diam = sp.diam()
        tasks += [
            Task(f"obs_diam_exact_{tag}", "obs_diam_exact",
                 lambda sp=sp: ob.obs_diam(sp, kappa, mode="exact"),
                 lambda out, outs, d=diam: _le(out, d, "obs_diam above diam"),
                 lambda out: {"value": ("exact", out)}),
            Task(f"obs_diam_heur_{tag}", "obs_diam_heuristic",
                 lambda sp=sp: ob.obs_diam(sp, kappa, mode="heuristic", seed=seed),
                 lambda out, outs, t=tag: _le(out, outs[f"obs_diam_exact_{t}"],
                                              "heuristic obs_diam above exact"),
                 lambda out: {"value": ("lower", out)}),
            Task(f"variance_exact_{tag}", "variance_exact",
                 lambda sp=sp: ob.variance(sp, mode="exact"),
                 lambda out, outs, d=diam: _le(out, d * d / 4, "variance above diam^2/4"),
                 lambda out: {"value": ("exact", out)}),
            Task(f"variance_heur_{tag}", "variance_heuristic",
                 lambda sp=sp: ob.variance(sp, mode="heuristic", seed=seed),
                 lambda out, outs, t=tag: _le(out, outs[f"variance_exact_{t}"],
                                              "heuristic variance above exact"),
                 lambda out: {"value": ("lower", out)}),
            Task(f"p_dev_exact_{tag}", "p_deviation_exact",
                 lambda sp=sp: ob.p_deviation(sp, 3, mode="exact"),
                 lambda out, outs, d=diam: _le(out, d, "p_deviation above diam"),
                 lambda out: {"value": ("exact", out)}),
            Task(f"p_dev_heur_{tag}", "p_deviation_heuristic",
                 lambda sp=sp: ob.p_deviation(sp, 3, mode="heuristic", seed=seed),
                 lambda out, outs, t=tag: _le(out, outs[f"p_dev_exact_{t}"],
                                              "heuristic p_deviation above exact"),
                 lambda out: {"value": ("lower", out)}),
        ]
    for k, sp in enumerate(corpus(rng, (8, 10, 12, 14, 16))):
        diam = sp.diam()
        tasks += [
            Task(f"obs_diam_heur_mid_{k}", "obs_diam_heuristic",
                 lambda sp=sp: ob.obs_diam(sp, kappa, mode="heuristic", seed=seed),
                 lambda out, outs, d=diam: _le(out, d, "obs_diam above diam"),
                 lambda out: {"value": ("lower", out)}),
            Task(f"variance_heur_mid_{k}", "variance_heuristic",
                 lambda sp=sp: ob.variance(sp, mode="heuristic", seed=seed),
                 lambda out, outs, d=diam: _le(out, d * d / 4, "variance above diam^2/4"),
                 lambda out: {"value": ("lower", out)}),
        ]
    for k, (nx, ny) in enumerate(((3, 4), (4, 3), (2, 6), (3, 3), (2, 5), (2, 4))):
        sx, sy = corpus(rng, (nx, ny))
        tasks += [
            Task(f"box_exact_{k}", "box_exact_small",
                 lambda sx=sx, sy=sy: bm.box_exact_small(sx, sy),
                 lambda out, outs, sx=sx, sy=sy, k=k: _first(
                     _coupling_ok(out, sx, sy),
                     _le(outs[f"box_lower_{k}"], out.upper, "box_lower above exact")),
                 lambda out: {"value": ("exact", out.upper)}),
            Task(f"box_lower_{k}", "box_lower",
                 lambda sx=sx, sy=sy: bm.box_lower(sx, sy),
                 lambda out, outs: _need(0.0 <= out <= 1.0, "box_lower outside [0, 1]"),
                 lambda out: {"value": ("lower", out)}),
        ]
    sep_kappas = ((0.2, 0.2, 0.2), (0.3, 0.3), (0.25, 0.25, 0.1), (0.15, 0.15, 0.15, 0.15))
    for k, sp in enumerate(corpus(rng, (14, 12, 12, 10))):
        kap = sep_kappas[k]
        tasks.append(Task(f"separation_{k}", "separation",
                          lambda sp=sp, kap=kap: ob.separation_witness(sp, kap),
                          lambda out, outs, sp=sp, kap=kap: _separation_ok(sp, kap, out),
                          lambda out: {"value": ("exact", out[0])}))
    for k, (n, g) in enumerate(((8, 4), (8, 3), (7, 5), (6, 2))):
        sx, sy, _ = quotient_pair(rng, n, g)
        tasks += [
            Task(f"dominates_{k}", "dominates",
                 lambda sx=sx, sy=sy: order.dominates(sx, sy),
                 lambda out, outs, sx=sx, sy=sy: _need(
                     isinstance(out, order.DominationWitness)
                     and order.check_witness(sx, sy, out.map),
                     "quotient map exists but no verified witness returned"),
                 lambda out: {"found": ("exact", float(bool(out)))}),
            Task(f"dominated_{k}", "dominates",
                 lambda sx=sx, sy=sy: order.dominates(sy, sx),
                 lambda out, outs: _need(isinstance(out, order.Refusal),
                                         "fewer points cannot push onto more points"),
                 lambda out: {"found": ("exact", float(bool(out)))}),
        ]
    for k, n in enumerate((16, 15, 14, 12)):
        sp = corpus(rng, (n,))[0]
        other = _masses(rng, n, 1.0)
        tv = core.total_variation(sp.mass, other)
        tasks.append(Task(f"prokhorov_{k}", "prokhorov",
                          lambda sp=sp, other=other: core.prokhorov(sp, sp.mass, other),
                          lambda out, outs, tv=tv: _first(
                              _need(out >= 0.0, "prokhorov negative"),
                              _le(out, tv, "prokhorov above total variation")),
                          lambda out: {"value": ("exact", out)}))
    for k, n in enumerate((18, 15, 12)):
        sp = corpus(rng, (n,))[0]
        alpha = packing_alpha(rng, sp)
        too_big = atoms.AtomVector((min(1.0, float(sp.mass.max()) * 1.01),))
        tasks += [
            Task(f"member_{k}", "member",
                 lambda sp=sp, alpha=alpha: atoms.member(sp, alpha),
                 lambda out, outs, sp=sp, alpha=alpha: _need(
                     out is not None and out.verify(sp, alpha),
                     "packing exists but no verified assignment returned"),
                 lambda out: {"found": ("exact", float(out is not None))}),
            Task(f"member_refused_{k}", "member",
                 lambda sp=sp, a=too_big: atoms.member(sp, a),
                 lambda out, outs: _need(out is None, "atom above every point mass accepted"),
                 lambda out: {"found": ("exact", float(out is not None))}),
        ]
    for k, (count, groups) in enumerate(((10, 4), (9, 3), (8, 3))):
        alpha, beta = grouped_atoms(rng, count, groups)
        shift = Fraction(1, 1024)
        bad = atoms.AtomVector((beta.entries[0] + shift, *beta.entries[1:-1],
                                beta.entries[-1] - shift))
        tasks += [
            Task(f"contraction_{k}", "is_contraction",
                 lambda a=alpha, b=beta: atoms.is_contraction(a, b),
                 lambda out, outs, a=alpha, b=beta: _contraction_ok(a, b, out, True),
                 lambda out: {"found": ("exact", float(out is not None))}),
            Task(f"contraction_refused_{k}", "is_contraction",
                 lambda a=alpha, b=bad: atoms.is_contraction(a, b),
                 lambda out, outs, a=alpha, b=bad: _contraction_ok(a, b, out, False),
                 lambda out: {"found": ("exact", float(out is not None))}),
        ]
    for k, n in enumerate((10, 9, 8)):
        sp = embedded_space(rng, n)
        perm = rng.permutation(n)
        copy = core.space([sp.points[i] for i in perm], sp.dist[np.ix_(perm, perm)],
                          sp.mass[perm])
        swap = sp.mass.copy()
        a, b = np.argsort(swap)[[0, -1]]
        swap[[a, b]] = swap[[b, a]]
        other = core.space(sp.points, sp.dist, swap)
        tasks += [
            Task(f"isomorphic_{k}", "mm_isomorphic",
                 lambda x=sp, y=copy: core.mm_isomorphic(x, y),
                 lambda out, outs: _need(out is True, "permuted copy not isomorphic"),
                 lambda out: {"found": ("exact", float(out))}),
            Task(f"not_isomorphic_{k}", "mm_isomorphic",
                 lambda x=sp, y=other: core.mm_isomorphic(x, y),
                 lambda out, outs: _need(out is False, "mass swap reported isomorphic"),
                 lambda out: {"found": ("exact", float(out))}),
        ]
    # Six more n=5 heuristic variances widen the group of ~7 ms tasks that
    # holds the batch median; without them the median sat on its lower edge,
    # next to ~3 ms tasks, and moved 4.8-7.2 ms between seeds.
    for k, sp in enumerate(corpus(rng, (5,) * 6)):
        tasks.append(Task(f"variance_heur_n5_extra_{k}", "variance_heuristic",
                          lambda sp=sp: ob.variance(sp, mode="heuristic", seed=seed),
                          lambda out, outs, d=sp.diam(): _le(out, d * d / 4,
                                                             "variance above diam^2/4"),
                          lambda out: {"value": ("lower", out)}))
    return tasks


# ---------------------------------------------------------------------------
# large_search


def _large_search(seed, part):
    # Counts are chosen so that the batch median falls inside the five
    # obs_diam tasks and the p75 inside the box_upper 20x20 tasks, not on a
    # jump between two task kinds, and so that three batches fit in 20 s.
    rng = _rng(seed, 13, part)
    ob, bm = observables, boxmetric
    tasks = []
    for k in range(2):
        s64 = embedded_space(rng, 64)
        tasks.append(Task(f"p_dev_heur_n64_{k}", "p_deviation_heuristic",
                          lambda sp=s64: ob.p_deviation(sp, 3, mode="heuristic", starts=16,
                                                        seed=seed),
                          lambda out, outs, d=s64.diam(): _le(out, d, "p_deviation above diam"),
                          lambda out: {"value": ("lower", out)}))
    for k in range(5):
        s128 = embedded_space(rng, 128)
        tasks.append(Task(f"obs_diam_heur_n128_{k}", "obs_diam_heuristic",
                          lambda sp=s128: ob.obs_diam(sp, 0.1, mode="heuristic", starts=8,
                                                      seed=seed),
                          lambda out, outs, d=s128.diam(): _first(
                              _need(out > 0.0, "obs_diam not positive"),
                              _le(out, d, "obs_diam above diam")),
                          lambda out: {"value": ("lower", out)}))
    for k in range(3):
        s256 = embedded_space(rng, 256)
        tasks.append(Task(f"variance_heur_n256_{k}", "variance_heuristic",
                          lambda sp=s256: ob.variance(sp, mode="heuristic", starts=16, seed=seed),
                          lambda out, outs, d=s256.diam(): _le(out, d * d / 4,
                                                               "variance above diam^2/4"),
                          lambda out: {"value": ("lower", out)}))
    tasks.append(Task("validate_n600_0", "validate",
                      lambda sp=generators.gaussian_sample(
                          600, 3, 1.0, seed=[seed, 0] if part == 0 else [seed, 0, part]):
                      core.validate(sp),
                      lambda out, outs: _need(out is None, f"valid sample rejected: {out}")))
    for m, count in ((20, 2), (40, 1), (64, 1)):
        for k in range(count):
            sx, sy = embedded_space(rng, m), embedded_space(rng, m)
            tag = f"{m}x{m}_{k}"
            if m != 64:
                tasks.append(Task(f"box_upper_{tag}", "box_upper",
                                  lambda sx=sx, sy=sy: bm.box_upper(sx, sy, restarts=8, seed=seed),
                                  lambda out, outs, sx=sx, sy=sy, tag=tag: _first(
                                      _coupling_ok(out, sx, sy),
                                      _le(outs[f"box_lower_{tag}"], out.upper,
                                          "box_lower above box_upper")),
                                  lambda out: {"value": ("upper", out.upper)}))
            tasks.append(Task(f"box_lower_{tag}", "box_lower",
                              lambda sx=sx, sy=sy: bm.box_lower(sx, sy),
                              lambda out, outs: _need(0.0 <= out <= 1.0, "box_lower outside [0, 1]"),
                              lambda out: {"value": ("lower", out)}))
    return tasks


# ---------------------------------------------------------------------------
# grids_1d


def _grids_1d(seed, part):
    rng = _rng(seed, 17, part)
    fn = functional
    lengths = [float(v) for v in rng.uniform(0.5, 2.0, size=3)]
    sigmas = [float(v) for v in rng.uniform(0.5, 2.0, size=3)]
    jitter = [int(j) for j in rng.integers(0, 256, size=5)]
    sizes = [base + j for base, j in zip((4096, 16384, 32768, 65536, 131072), jitter)]

    def grid(kind, m, k=0):
        if kind == "interval":
            return fn.unit_interval_grid(m, lengths[k]), lengths[k] / math.pi
        return fn.gaussian_grid(m, sigmas[k]), sigmas[k]

    tasks = []
    for m in sizes:
        for kind in ("interval", "gaussian"):
            g, const = grid(kind, m)
            tasks.append(Task(
                f"c22_{kind}_m{m}", "poincare_c22", lambda g=g: fn.poincare_c22(g),
                lambda out, outs, c=const: _need(abs(out - c) <= 1e-5 * c,
                                                 f"c22 {out} is not the closed form {c}"),
                lambda out: {"value": ("estimate", out)}))
    for m, k in ((sizes[0], 0), (sizes[2], 1), (sizes[-1], 0)):
        g, _ = grid("interval", m, k)
        target = lengths[k] / math.sqrt(2 * math.pi)
        tasks.append(Task(f"domination_scale_m{m}_{k}", "gaussian_domination_scale",
                          lambda g=g: fn.gaussian_domination_scale(g),
                          lambda out, outs, t=target: _need(abs(out - t) <= 1e-4 * t,
                                                            f"scale {out} is not {t}"),
                          lambda out: {"value": ("estimate", out)}))
    for m, kind, k in ((512, "interval", 0), (512, "gaussian", 0), (4096, "interval", 0),
                       (4096, "gaussian", 0), (4096, "interval", 1)):
        g, const = grid(kind, m, k)
        tasks.append(Task(
            f"log_sobolev_{kind}_m{m}_{k}", "log_sobolev_check",
            lambda g=g, c=const: fn.log_sobolev_check(g, c, trials=1000, seed=seed),
            lambda out, outs, c=const: _first(
                _need(out.max_violation <= 1e-4 * c * c, "log-Sobolev violated at its constant"),
                _need(out.lower_bound >= c * (1 - 1e-3), "certified lower bound too low"),
                _need(out.trials == 1000, "trial count")),
            lambda out: {"lower_bound": ("lower", out.lower_bound),
                         "max_violation": ("estimate", out.max_violation)}))
    # The four extra m=512 trial bounds (25-35 ms each) widen the group of
    # tasks that holds the batch median; with two, c22 solves whose cost
    # depends on the seed crossed it and the median moved 22-31 ms.
    for m, p, q, kind in ((512, 2, 2, "interval"), (512, 1, 2, "gaussian"),
                          (16384, 4, 1, "interval"), (512, 1, 2, "interval"),
                          (512, 2, 1, "interval"), (512, 1, 1, "gaussian"),
                          (512, 3, 2, "gaussian")):
        g, _ = grid(kind, m)
        tasks.append(Task(
            f"pq_lower_{p}{q}_{kind}_m{m}", "poincare_pq_lower",
            lambda g=g, p=p, q=q: fn.poincare_pq_lower(g, p, q, seed=seed),
            lambda out, outs, g=g, p=p, q=q: _first(
                _need(0.0 < out < math.inf, "pq lower bound not positive"),
                _le(out, fn.poincare_c22(g) * (1 + 1e-9), "(2,2) trial bound above c22")
                if (p, q) == (2, 2) else None),
            lambda out: {"value": ("lower", out)}))
    return tasks


# ---------------------------------------------------------------------------
# cli_plans


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def run_cli(args):
    """One fresh ``mmslab`` process through the entry-point shim; it traces
    itself when PERFBENCH_TRACE_DIR is set in the environment."""
    proc = subprocess.run([sys.executable, CLI_CHILD, *args], capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli_json(out):
    if out.returncode != 0:
        raise ValueError(f"exit code {out.returncode}: {out.stderr.strip()[-200:]}")
    return json.loads(out.stdout)


def _cli_check(body):
    """Wrap a check on the parsed JSON output: non-zero exits and unparsable
    output are failures."""
    def check(out, outs):
        try:
            return body(_cli_json(out))
        except (ValueError, KeyError, TypeError) as e:
            return f"cli output: {e}"
    return check


def _cli_values(body):
    def values(out):
        try:
            return body(_cli_json(out))
        except (ValueError, KeyError, TypeError):
            return {}
    return values


def _plan_rows(out):
    rows = list(csv.reader(io.StringIO(out.stdout)))
    return {row[2]: float(row[3]) for row in rows[1:]}


def _plan_check(targets):
    def check(out, outs):
        if out.returncode != 0:
            return f"plan exit code {out.returncode}: {out.stderr.strip()[-200:]}"
        rows = _plan_rows(out)
        for key, (target, tol) in targets.items():
            if key not in rows or abs(rows[key] - target) > tol:
                return f"plan row {key} = {rows.get(key)} not within {tol} of {target}"
        return None
    return check


def _cli_plans(seed, part, workdir):
    rng = _rng(seed, 19, part)
    if part:
        workdir = os.path.join(workdir, f"part{part}")
    os.makedirs(workdir, exist_ok=True)

    def save(name, sp):
        path = os.path.join(workdir, name)
        core.save_space(sp, path)
        return path

    kappa = float(rng.choice([0.1, 0.2, 0.3]))
    n6 = save("n6.json", corpus(rng, (6,))[0])
    bx, by = (save(f"box_{t}.json", sp) for t, sp in zip("ab", corpus(rng, (3, 4))))
    dx_sp, dy_sp, _ = quotient_pair(rng, 10, 4)
    dx, dy = save("dom_x.json", dx_sp), save("dom_y.json", dy_sp)
    mem_sp = corpus(rng, (14,))[0]
    alpha = packing_alpha(rng, mem_sp)
    mem = save("member.json", mem_sp)
    alpha_arg = ",".join(repr(float(e)) for e in alpha.entries)
    cx, cy = (save(f"cmp_{t}.json", sp) for t, sp in zip("ab", corpus(rng, (3, 4))))
    ls_const = 1.0 / math.pi

    def dominated(res):
        return _need(res["dominates"] and order.check_witness(dx_sp, dy_sp, res["map"]),
                     "quotient map exists but no verified witness returned")

    def member_ok(res):
        got = atoms.AtomAssignment(tuple(res["assignment"])) if res["member"] else None
        return _need(got is not None and got.verify(mem_sp, alpha),
                     "packing exists but no verified assignment returned")

    def compare_ok(res):
        return _first(_le(res["lower"], res["upper"], "compare lower above upper"),
                      _need(res["certificate"] == "exact", "3x4 compare is not exact"))

    def help_ok(out, outs):
        return _need(out.returncode == 0 and "usage: mmslab" in out.stdout,
                     f"--help exit code {out.returncode}")

    inv_scale = "interval:gauss_domination_scale"
    return [
        Task("help", "help", lambda: run_cli(["--help"]), help_ok),
        Task("run_cube_vs_gaussian", "run_cube_vs_gaussian", lambda: run_cli(["run", "cube_vs_gaussian"]),
             _plan_check({inv_scale: (1 / math.sqrt(2 * math.pi), 1e-4),
                          "interval:c22": (1 / math.pi, 1e-3), "gaussian:c22": (1.0, 1e-3)}),
             lambda out: {k: ("estimate", v) for k, v in _plan_rows(out).items()}),
        Task("invariant_obsdiam_exact_n6", "invariant",
             lambda: run_cli(["invariant", n6, "--kind", "obsdiam", "--kappa", repr(kappa),
                              "--exact"]),
             _cli_check(lambda r: _need(r["certificate"] == "exact" and r["value"] >= 0,
                                        "exact obs_diam certificate")),
             _cli_values(lambda r: {"value": ("exact", r["value"])})),
        Task("box_exact", "box", lambda: run_cli(["box", bx, by, "--exact"]),
             _cli_check(lambda r: _le(r["lower"], r["upper"], "box lower above upper")),
             _cli_values(lambda r: {"upper": ("exact", r["upper"]),
                                    "lower": ("lower", r["lower"])})),
        Task("dominates", "dominates", lambda: run_cli(["dominates", dx, dy]),
             _cli_check(dominated),
             _cli_values(lambda r: {"found": ("exact", float(r["dominates"]))})),
        Task("atoms_member", "atoms_member",
             lambda: run_cli(["atoms", "member", "--alpha", alpha_arg, "--space", mem]),
             _cli_check(member_ok),
             _cli_values(lambda r: {"found": ("exact", float(r["member"]))})),
        Task("spectral_ls_512", "spectral",
             lambda: run_cli(["--seed", str(seed), "spectral", "--space", "interval",
                              "--constant", "ls", "--size", "512"]),
             _cli_check(lambda r: _first(
                 _need(r["max_violation"] <= 1e-4, "log-Sobolev violated at 1/pi"),
                 _need(r["lower_bound"] >= ls_const - 1e-3, "certified lower bound too low"))),
             _cli_values(lambda r: {"lower_bound": ("lower", r["lower_bound"])})),
        Task("compare", "compare", lambda: run_cli(["--seed", str(seed), "compare", cx, cy]),
             _cli_check(compare_ok),
             _cli_values(lambda r: {"upper": ("exact", r["upper"])})),
        Task("run_gaussian_obsdiam", "run_gaussian_obsdiam", lambda: run_cli(["run", "gaussian_obsdiam"]),
             _plan_check({}),
             lambda out: {k: ("estimate", v) for k, v in _plan_rows(out).items()}),
    ]


def build(name, seed, workdir, parts=1):
    """Build ``parts`` input sets of one workload and its task list on each."""
    if name == "cli_plans":
        return Workload(name, False, [_cli_plans(seed, p, workdir) for p in range(parts)],
                        workdir)
    make = {"small_exact": _small_exact, "large_search": _large_search, "grids_1d": _grids_1d}
    return Workload(name, True, [make[name](seed, p) for p in range(parts)], workdir)


def warm_up():
    """Touch each module's numeric paths once on tiny inputs, so that lazy
    imports, first BLAS/LAPACK calls and caches are not timed."""
    rng = _rng(0, 23)
    sx, sy = corpus(rng, (4, 5))
    observables.obs_diam(sx, 0.1, mode="exact")
    observables.obs_diam(sy, 0.1, mode="heuristic", starts=4)
    observables.variance(sx, mode="exact")
    observables.separation(sy, (0.3, 0.3))
    boxmetric.box_upper(embedded_space(rng, 5), embedded_space(rng, 5), restarts=2)
    boxmetric.box_lower(sx, sy)
    core.validate(embedded_space(rng, 60))
    order.dominates(sy, generators.two_point())
    functional.poincare_c22(functional.unit_interval_grid(128))
    functional.log_sobolev_check(functional.gaussian_grid(128), 1.0, trials=20)


# ---------------------------------------------------------------------------
# running and checking one batch


def run_batch(tasks, tracer=None, pacer=None):
    """Run the task list once in a closed loop: each task starts when the
    previous one returned.  Returns (wall_s, latencies_s, outputs, errors);
    wall_s is the sum of the latencies, so a pacer's calibrations between
    tasks are not in it."""
    outs, lat, errors = {}, [], {}
    for task in tasks:
        if pacer is not None:
            pacer.before()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outs[task.key] = task.call()
            else:
                tracer.task = task.key
                before = dict(tracer.counts)
                try:
                    with tracer.span(f"task/{task.kind}"):
                        outs[task.key] = task.call()
                finally:
                    tracer.task_counts[task.key] = {
                        k: v - before[k] for k, v in tracer.counts.items() if v != before[k]}
        except Exception as e:  # a failing task is counted, the batch goes on
            errors[task.key] = f"raised {type(e).__name__}: {e}"
        lat.append(time.perf_counter() - t0)
    return sum(lat), lat, outs, errors


def check_batch(tasks, outs, errors, reference=None):
    """Return {task key: reason} for every task that raised, exited non-zero,
    failed its own check or, when a reference is given, moved away from it."""
    failures = dict(errors)
    for task in tasks:
        if task.key in failures:
            continue
        try:
            err = task.check(outs[task.key], outs)
            if err is None and reference is not None:
                err = compare_reference(task.values(outs[task.key]), reference.get(task.key))
        except Exception as e:  # a check that cannot run fails its task
            err = f"check raised {type(e).__name__}: {e}"
        if err:
            failures[task.key] = err
    return failures


def compare_reference(values, ref):
    """Exact values must match within EXACT_TOL, one-sided values may be no
    looser (a lower value no lower, an upper value no higher), estimates
    must match within ESTIMATE_RTOL."""
    if ref is None:
        return "no reference value recorded"
    if set(values) != set(ref):
        return f"reference labels {sorted(ref)} differ from {sorted(values)}"
    for label, (cert, want) in ref.items():
        got = values[label][1]
        scale = max(1.0, abs(want)) if math.isfinite(want) else 1.0
        if cert == "exact":
            ok = _close(got, want, EXACT_TOL)
        elif cert == "lower":
            ok = got >= want - EXACT_TOL * scale
        elif cert == "upper":
            ok = got <= want + EXACT_TOL * scale
        else:
            ok = _close(got, want, ESTIMATE_RTOL)
        if not ok:
            return f"{label} = {got!r} against reference {want!r} ({cert})"
    return None
