"""Command-line front end and experiment runner.

Subcommands: gen, invariant, box, dominates, atoms, spectral, compare, run.
Exit codes: 0 ok, 1 embedded assertion failed, 2 input error, 3 size limit
(an exact search's limit, or memory running out).  Every reported number
carries a certificate tag (exact | bound | estimate) and infinities are
printed as the string "inf".  Plans run their steps in order and their CSV
output is byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field


class _Lazy:
    """A module imported on first attribute access, so that a process imports
    only the modules its command runs (``--help`` imports no numpy)."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


atoms_mod = _Lazy(f"{__package__}.atoms")
boxmetric = _Lazy(f"{__package__}.boxmetric")
core = _Lazy(f"{__package__}.core")
functional = _Lazy(f"{__package__}.functional")
generators = _Lazy(f"{__package__}.generators")
observables = _Lazy(f"{__package__}.observables")
order = _Lazy(f"{__package__}.order")

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _print_json(obj, fmt="json"):
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for k, v in _jsonable(obj).items():  # a nested or bool cell as its JSON text
            writer.writerow([k, json.dumps(v) if isinstance(v, (dict, list, bool)) else v])
    else:
        json.dump(_jsonable(obj), sys.stdout, indent=2)
        sys.stdout.write("\n")


def _fmt_value(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# space construction from CLI / plan parameters


def _parse_alpha(text):
    try:
        if text.endswith(".json"):
            with open(text, encoding="utf-8") as fh:
                entries = [float(e) for e in json.load(fh)["entries"]]
        else:
            entries = [float(t) for t in text.split(",") if t.strip() != ""]
    except (OSError, KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise core.InputError(f"cannot read atom vector {text!r}: {e}") from e
    return atoms_mod.sort_atoms(entries)


# generator kind -> (space it builds: finite or grid, parameters it cannot do
# without, parameters with a default, build(params, seed)); builders look
# generators up at call time
_SPACE_KINDS = {
    "two_point": ("finite", (), ("d", "first_mass"), lambda p, seed: generators.two_point(
        p.get("d", 1.0), p.get("first_mass", 0.5))),
    "interval_grid": ("finite", ("m",), ("r",), lambda p, seed: generators.interval_grid(
        int(p["m"]), p.get("r", 1.0))),
    "gaussian_sample": ("finite", ("n_points",), ("dim", "sigma", "seed"),
                        lambda p, seed: generators.gaussian_sample(
        int(p["n_points"]), int(p.get("dim", 1)), p.get("sigma", 1.0), p.get("seed", seed))),
    "sphere_sample": ("finite", ("n_dim", "n_points"), ("radius", "seed"),
                      lambda p, seed: generators.sphere_sample(
        int(p["n_dim"]), p.get("radius", 1.0), int(p["n_points"]), p.get("seed", seed))),
    "atom_space": ("finite", ("alpha",), ("m_diffuse",), lambda p, seed: generators.atom_space(
        atoms_mod.sort_atoms(p["alpha"]), int(p.get("m_diffuse", 8)))),
    "dissipation_family": ("finite", ("alpha", "n"), ("delta",),
                           lambda p, seed: generators.dissipation_family(
        atoms_mod.sort_atoms(p["alpha"]), p.get("delta", 1.0), int(p["n"]))),
    "grid_interval": ("grid", (), ("m", "length"), lambda p, seed: functional.unit_interval_grid(
        int(p.get("m", 512)), p.get("length", 1.0))),
    "grid_gaussian": ("grid", (), ("m", "sigma"), lambda p, seed: functional.gaussian_grid(
        int(p.get("m", 512)), p.get("sigma", 1.0))),
}


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x):
    return _is_real(x) and math.isfinite(x)


# plan field -> (test of its JSON value or None, the library's rule(field,
# value) or None), applied before any space is built; kappa's rule depends on
# the row (_check_kappa), and counts (4.0 passes, 3.9 not) are range-checked
# when built
_FIELDS = {
    **dict.fromkeys(("m", "n_points", "dim", "n_dim", "n", "m_diffuse"),
                    (lambda v: _is_finite(v) and v == int(v), None)),
    **dict.fromkeys(("d", "r", "sigma", "radius", "delta", "length"),
                    (None, lambda key, v: core._check_positive(key, v))),
    "constant": (None, lambda key, v: functional._check_squares(key, v)),
    "first_mass": (_is_finite, None),
    "alpha": (lambda v: isinstance(v, list) and all(map(_is_finite, v)), None),
    "seed": (None, lambda key, v: core._check_count(key, v, 0)),
    "trials": (None, lambda key, v: core._check_count(key, v)),
    "p": (_is_real, lambda key, v: core._check_p(v)),
    "kappa": (lambda v: _is_real(v) or isinstance(v, list) and all(map(_is_real, v)), None),
    "exact": (lambda v: isinstance(v, bool), None),
    **dict.fromkeys(("id", "path"), (lambda v: isinstance(v, str), None)),
    **dict.fromkeys(("spaces", "invariants", "assertions"),
                    (lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v), None)),
    **dict.fromkeys(("target", "atol", "rtol", "threshold"), (_is_real, None)),
}


def _check_fields(doc, required, optional, what):
    """Reject a plan object that lacks a required field, holds a field that
    nothing reads, or holds a value that the field's entry in _FIELDS
    refuses, naming the field."""
    for key in required:
        if key not in doc:
            raise core.InputError(f"{what} needs {key!r}")
    for key, v in doc.items():
        if key not in required + optional:
            raise core.InputError(f"{what} has no field {key!r}")
        test, rule = _FIELDS.get(key, (None, None))
        if test is not None and not test(v):
            raise core.InputError(f"parameter {key!r} of {what} cannot be {v!r}")
        if rule is not None:
            rule(key, v)


def _check_params(kind, params):
    """Reject a generator kind or parameters that make_space cannot use."""
    if kind not in _SPACE_KINDS:
        raise core.InputError(f"unknown generator kind {kind!r}")
    if not isinstance(params, dict):
        raise core.InputError("generator params must be a JSON object")
    _, required, optional, _ = _SPACE_KINDS[kind]
    _check_fields(params, required, optional, kind)


def make_space(kind, params, seed=0):
    _check_params(kind, params)
    return _SPACE_KINDS[kind][3](params, seed)


def _cmd_gen(args):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise core.InputError(f"--params is not valid JSON: {e}") from e
    if args.kind in _SPACE_KINDS and _SPACE_KINDS[args.kind][0] == "grid":
        raise core.InputError("gen writes finite spaces; grid kinds exist only inside plans")
    sp = make_space(args.kind, params, seed=args.seed)
    core.save_space(sp, args.output)
    print(f"wrote {sp.n} points to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant evaluation


def _kappas(spec):
    """The row's kappa as a list (one number becomes one item), or None."""
    kappa = spec.get("kappa")
    return [kappa] if isinstance(kappa, (int, float)) else kappa


def _first_kappa(spec):
    kappas = _kappas(spec)
    return kappas[0] if kappas else 0.1


def _moded(spec, evaluate):
    """evaluate(mode) in the row's mode, tagged with that mode's certificate."""
    exact = spec.get("exact", False)
    return evaluate("exact" if exact else "heuristic"), "exact" if exact else "estimate"


def _separation(sp, spec, seed):
    kappas = _kappas(spec)
    if kappas is None:
        raise core.InputError("sep requires --kappa")
    return observables.separation(sp, kappas), "exact"


# invariant kind -> (space it needs: finite, grid or either, fields it needs,
# fields with a default, evaluate(space, spec, seed) -> (value, certificate));
# rows look the library functions up at call time
_INVARIANTS = {
    "diam": ("finite", (), (), lambda sp, spec, seed: (sp.diam(), "exact")),
    "var": ("finite", (), ("exact",), lambda sp, spec, seed: _moded(
        spec, lambda mode: observables.variance(sp, mode=mode, seed=seed))),
    "pvar": ("finite", (), ("p", "exact"), lambda sp, spec, seed: _moded(
        spec, lambda mode: observables.p_deviation(sp, spec.get("p", 2.0), mode=mode, seed=seed))),
    "obsdiam": ("finite", (), ("kappa", "exact"), lambda sp, spec, seed: _moded(
        spec, lambda mode: observables.obs_diam(sp, _first_kappa(spec), mode=mode, seed=seed))),
    "obsdiam_projection": ("finite", (), ("kappa",), lambda sp, spec, seed: (
        observables.obs_diam_projection_estimate(sp, _first_kappa(spec)), "estimate")),
    "sep": ("finite", ("kappa",), (), _separation),
    "c22": ("grid", (), (), lambda grid, spec, seed: (functional.poincare_c22(grid), "estimate")),
    "ls_check": ("grid", ("constant",), ("trials",), lambda grid, spec, seed: (
        functional.log_sobolev_check(grid, spec["constant"], trials=spec.get("trials", 1000),
                                     seed=seed).max_violation, "bound")),
    "gauss_domination_scale": ("grid", (), (), lambda grid, spec, seed: (
        functional.gaussian_domination_scale(grid), "estimate")),
    "gauss_obsdiam_formula": ("either", ("kappa",), ("sigma",), lambda sp, spec, seed: (
        observables.gaussian_obs_diam(spec.get("sigma", 1.0), spec["kappa"]), "exact")),
}


def _cmd_invariant(args):
    try:
        kappa = [float(t) for t in args.kappa.split(",")] if args.kappa else None
    except ValueError as e:
        raise core.InputError(f"--kappa must be comma-separated numbers: {e}") from e
    sp = core.load_space(args.file)
    spec = {"kappa": kappa, "p": args.p, "exact": args.exact}
    value, cert = _INVARIANTS[args.kind][3](sp, spec, args.seed)
    _print_json({"kind": args.kind, "value": value, "certificate": cert}, args.format)
    return EXIT_OK


def _exact_first(evaluate):
    """evaluate(True), or evaluate(False) where the exact search is beyond its size limit."""
    try:
        return evaluate(True)
    except core.SizeLimitError:
        return evaluate(False)


def _box_bounds(sx, sy, exact, seed):
    """box_upper's answer, or box_exact_small's where ``exact``, with the
    larger of its lower side and the Levy bound below."""
    est = boxmetric.box_exact_small(sx, sy) if exact else boxmetric.box_upper(sx, sy, seed=seed)
    return {"lower": max(boxmetric.box_lower(sx, sy), est.lower), "upper": est.upper,
            "certificate": est.certificate}


def _cmd_box(args):
    sx = core.load_space(args.fileA)
    sy = core.load_space(args.fileB)
    _print_json(_box_bounds(sx, sy, args.exact, args.seed), args.format)
    return EXIT_OK


def _verdict(kind, found, payload):
    """The answer of a search: kind true with payload(found), or kind false
    and refused where it found nothing (None; an empty answer is found)."""
    if found is None:
        return {kind: False, "refused": True}
    return {kind: True, **payload(found)}


def _cmd_dominates(args):
    sx = core.load_space(args.fileX)
    sy = core.load_space(args.fileY)
    res = order.dominates(sx, sy)
    out = _verdict("dominates", res if isinstance(res, order.DominationWitness) else None,
                   lambda w: {"map": list(w.map)})
    _print_json({**out, "nodes_explored": res.nodes_explored}, args.format)
    return EXIT_OK


def _dissipation(args, a):
    ev = atoms_mod.detect_dissipation([core.load_space(p) for p in args.spaces], a, args.delta)
    return {"accepted": ev.accepted, "delta": ev.delta, "atom_error": list(ev.atom_error),
            "max_small_bin": list(ev.max_small), "bin_counts": list(ev.bin_counts),
            "sep_checked": ev.sep_checked, "reason": ev.reason}


# atoms action -> (flags it needs, answer(args, alpha) -> the JSON it prints);
# a flag is missing when absent or empty (--delta 0 is given)
_ATOM_ACTIONS = {
    "product": (("beta",), lambda args, a: {
        "entries": list(atoms_mod.atom_product(a, _parse_alpha(args.beta)).entries)}),
    "contract": (("beta",), lambda args, a: _verdict(
        "contraction", atoms_mod.is_contraction(a, _parse_alpha(args.beta)),
        lambda groups: {"groups": [list(g) for g in groups]})),
    "member": (("space",), lambda args, a: _verdict(
        "member", atoms_mod.member(core.load_space(args.space), a,
                                   math.inf if args.delta is None else args.delta),
        lambda res: {"assignment": list(res.map)})),
    "dissipate": (("spaces", "delta"), _dissipation),
}


def _cmd_atoms(args):
    flags, answer = _ATOM_ACTIONS[args.action]
    if any(getattr(args, f) in (None, "", []) for f in flags):
        raise core.InputError(f"atoms {args.action} requires "
                              + " and ".join(f"--{f}" for f in flags))
    _print_json(answer(args, _parse_alpha(args.alpha)), args.format)
    return EXIT_OK


def _cmd_spectral(args):
    def grid(m):  # the plan kind grid_<space>; grid_interval reads no sigma
        return _SPACE_KINDS[f"grid_{args.space}"][3]({"m": m, "sigma": args.sigma}, args.seed)

    core._check_positive("sigma", args.sigma)  # for both spaces, before any grid is built
    c22 = _INVARIANTS["c22"][3]
    if args.convergence_table:
        if args.constant != "c22":
            raise core.InputError("--convergence-table tabulates c22 only, not --constant ls")
        functional._check_nodes(args.size)  # the largest grid is refused before any is built
        rows = [["size", "c22"]]
        m = min(64, args.size)  # below 64 poincare_c22 rejects the size itself
        while m <= args.size:
            rows.append([m, c22(grid(m), {}, args.seed)[0]])
            m *= 2
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return EXIT_OK
    if args.constant == "c22":
        value, cert = c22(grid(args.size), {}, args.seed)
        out = {"constant": "c22", "size": args.size, "value": value, "certificate": cert}
    else:
        reference = 1.0 / math.pi if args.space == "interval" else args.sigma
        rep = functional.log_sobolev_check(
            grid(args.size), reference, trials=args.trials, seed=args.seed
        )
        out = {
            "constant": "ls",
            "size": args.size,
            "candidate": reference,
            "max_violation": rep.max_violation,
            "lower_bound": rep.lower_bound,
            "certificate": "bound",
        }
    _print_json(out, args.format)
    return EXIT_OK


def _cmd_compare(args):
    sx = core.load_space(args.fileA)
    sy = core.load_space(args.fileB)
    out = _box_bounds(sx, sy, False, args.seed)
    if out["certificate"] == "exact":  # the exact value also reads as "box"
        out = {"lower": out["lower"], "upper": out["upper"], "box": out["upper"],
               "certificate": "exact"}
    for tag, a, b in (("x_dominates_y", sx, sy), ("y_dominates_x", sy, sx)):
        try:
            out[tag] = isinstance(order.dominates(a, b), order.DominationWitness)
        except core.SizeLimitError:
            out[tag] = "skipped (size)"
    table = {}
    for name, spn in (("A", sx), ("B", sy)):
        row, tags = {}, {}
        for column, kind, spec in (("diam", "diam", {}), ("variance", "var", {}),
                                   ("obsdiam_0.1", "obsdiam", {"kappa": 0.1}),
                                   ("sep_quarters", "sep", {"kappa": [0.25, 0.25]})):
            try:
                row[column], tags[column] = _exact_first(
                    lambda exact: _INVARIANTS[kind][3](spn, {**spec, "exact": exact}, args.seed))
            except core.SizeLimitError:  # separation has no heuristic mode
                row[column] = "skipped (size)"
        row["certificate"] = "exact" if all(t == "exact" for t in tags.values()) else "estimate"
        row["certificates"] = tags
        table[name] = row
    out["invariants"] = table
    _print_json(out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment plans


@dataclass
class ExperimentPlan:
    name: str
    seed: int = 0
    spaces: list = field(default_factory=list)       # {"id", "kind", "params"} or {"id", "path"}
    invariants: list = field(default_factory=list)   # {"space", "kind", ...}
    assertions: list = field(default_factory=list)   # {"row", "op", ...}

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise core.InputError("a plan must be a JSON object")
        _check_fields(d, (), ("name", "seed", "spaces", "invariants", "assertions"), "a plan")
        parts = {k: d.get(k, []) for k in ("spaces", "invariants", "assertions")}
        return ExperimentPlan(name=d.get("name", "plan"), seed=d.get("seed", 0), **parts)


def _row_key(spec):
    extras = sorted((k, v) for k, v in spec.items() if k not in ("space", "kind"))
    blob = ",".join(f"{k}={_fmt_value(v)}" for k, v in extras)
    return f"{spec['space']}:{spec['kind']}" + (f":{blob}" if blob else "")


# assertion op -> (fields it needs, fields with a default,
# holds(lhs, assertion, values by row key))
_ASSERTIONS = {
    "close": (("target",), ("atol", "rtol"), lambda lhs, a, values: abs(lhs - a["target"])
              <= a.get("atol", 0.0) + a.get("rtol", 0.0) * abs(a["target"])),
    "gap_gt": (("other", "threshold"), (),
               lambda lhs, a, values: abs(lhs - values[a["other"]]) > a["threshold"]),
    "le": (("target",), ("atol",),
           lambda lhs, a, values: lhs <= a["target"] + a.get("atol", 0.0)),
    "ge": (("target",), ("atol",),
           lambda lhs, a, values: lhs >= a["target"] - a.get("atol", 0.0)),
}


def _check_kappa(kind, kappa):
    """The library's rule for a row's kappa: sep takes any finite entries,
    the Gaussian formula one number in (0, 1), and an observable diameter
    every entry in [0, 1)."""
    if kind == "sep":
        observables._as_kappa(kappa)
    elif kind == "gauss_obsdiam_formula":
        observables._gaussian_kappa(kappa)
    else:
        for k in kappa if isinstance(kappa, list) else [kappa]:
            observables._kappa_fraction(k)


def _check_plan(plan):
    """Reject a malformed plan whole, before any space is built."""
    if not isinstance(plan.name, str):
        raise core.InputError(f"plan name must be a string, got {plan.name!r}")
    grids = {}
    for spec in plan.spaces:
        path = "path" in spec
        _check_fields(spec, ("id", "path" if path else "kind"), () if path else ("params",),
                      f"space entry {spec!r}")
        if not path:
            _check_params(spec["kind"], spec.get("params", {}))
        grids[spec["id"]] = "finite" if path else _SPACE_KINDS[spec["kind"]][0]
    for spec in plan.invariants:
        space, kind = spec.get("space"), spec.get("kind")
        if not (isinstance(space, str) and space in grids and isinstance(kind, str)
                and kind in _INVARIANTS):
            raise core.InputError(f"invariant {spec!r} needs a known kind and space id")
        needs, required, optional, _ = _INVARIANTS[kind]
        if needs not in ("either", grids[space]):
            raise core.InputError(f"invariant {kind!r} needs a {needs} space, not {space!r}")
        _check_fields(spec, ("space", "kind") + required, optional, f"invariant {kind!r}")
        if "kappa" in spec:
            _check_kappa(kind, spec["kappa"])
    keys = {_row_key(spec) for spec in plan.invariants}
    for a in plan.assertions:
        op = a.get("op")
        if not (isinstance(op, str) and op in _ASSERTIONS):
            raise core.InputError(f"unknown assertion op {op!r}")
        for row in [a.get("row")] + ([a["other"]] if "other" in a else []):
            if not (isinstance(row, str) and row in keys):
                raise core.InputError(f"assertion names unknown row {row!r}")
        required, optional, _ = _ASSERTIONS[op]
        _check_fields(a, ("row", "op") + required, optional, f"assertion {op!r}")


def run_experiment(plan: ExperimentPlan, csv_path=None, json_path=None):
    """Execute a plan: build spaces, evaluate invariants, check assertions.

    Returns the report dict; CSV rows follow the plan order exactly.
    """
    _check_plan(plan)
    built = {}
    for spec in plan.spaces:
        if "path" in spec:
            built[spec["id"]] = core.load_space(spec["path"])
        else:
            built[spec["id"]] = make_space(spec["kind"], spec.get("params", {}), plan.seed)
    rows = []
    for spec in plan.invariants:
        value, cert = _INVARIANTS[spec["kind"]][3](built[spec["space"]], spec, plan.seed)
        rows.append({"space": spec["space"], "invariant": spec["kind"], "row_key": _row_key(spec),
                     "value": value, "certificate": cert})
    values = {row["row_key"]: row["value"] for row in rows}
    failures = [{"assertion": a, "value": values[a["row"]]} for a in plan.assertions
                if not _ASSERTIONS[a["op"]][2](values[a["row"]], a, values)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["space", "invariant", "row_key", "value", "certificate"])
    writer.writerows([_fmt_value(v) for v in row.values()] for row in rows)
    csv_text = buf.getvalue()
    report = {"name": plan.name, "seed": plan.seed, "rows": rows, "failures": failures,
              "ok": not failures}
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(report), fh, indent=2)
            fh.write("\n")
    report["csv"] = csv_text
    return report


# observables.gaussian_obs_diam(1.0, kappa), recorded so that building the
# plan imports no scipy; tests/test_cli.py pins each value bit for bit
GAUSSIAN_OBS_DIAM = {0.1: 3.289707253902946, 0.3: 2.072866778987579, 0.5: 1.3489795003921636}


def bundled_plan(name, seed=0):
    """Plans shipped with the tool; see the README for their claims."""
    if name == "gaussian_obsdiam":
        spaces = [
            {"id": f"gauss_dim{d}", "kind": "gaussian_sample",
             "params": {"n_points": 5000, "dim": d, "sigma": 1.0, "seed": seed}}
            for d in (1, 5)
        ]
        invariants, assertions = [], []
        for d in (1, 5):
            for kappa, target in GAUSSIAN_OBS_DIAM.items():
                row = {"space": f"gauss_dim{d}", "kind": "obsdiam_projection", "kappa": kappa}
                invariants.append(row)
                assertions.append(
                    {"row": _row_key(row), "op": "close", "target": target, "rtol": 0.02}
                )
        return ExperimentPlan("gaussian_obsdiam", seed, spaces, invariants, assertions)
    if name == "cube_vs_gaussian":
        spaces = [
            {"id": "interval", "kind": "grid_interval", "params": {"m": 512}},
            {"id": "gaussian", "kind": "grid_gaussian", "params": {"m": 512}},
        ]
        inv_scale = {"space": "interval", "kind": "gauss_domination_scale"}
        inv_ci = {"space": "interval", "kind": "c22"}
        inv_cg = {"space": "gaussian", "kind": "c22"}
        invariants = [inv_scale, inv_ci, inv_cg]
        assertions = [
            {"row": _row_key(inv_scale), "op": "close",
             "target": 1.0 / math.sqrt(2 * math.pi), "atol": 1e-4},
            {"row": _row_key(inv_ci), "op": "close", "target": 1.0 / math.pi, "atol": 1e-3},
            {"row": _row_key(inv_cg), "op": "close", "target": 1.0, "atol": 1e-3},
            {"row": _row_key(inv_scale), "op": "gap_gt", "other": _row_key(inv_ci),
             "threshold": 0.08},
        ]
        return ExperimentPlan("cube_vs_gaussian", seed, spaces, invariants, assertions)
    raise core.InputError(f"unknown bundled plan {name!r}")


def _cmd_run(args):
    if args.plan.endswith(".json"):
        try:
            with open(args.plan, encoding="utf-8") as fh:
                plan = ExperimentPlan.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as e:
            raise core.InputError(f"cannot read plan: {e}") from e
        if args.seed is not None:
            plan.seed = args.seed
    else:
        plan = bundled_plan(args.plan, seed=args.seed or 0)
    report = run_experiment(plan, csv_path=args.csv, json_path=args.json_out)
    sys.stdout.write(report["csv"])
    if report["failures"]:
        for f in report["failures"]:
            print(f"ASSERTION FAILED: {_jsonable(f)}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    ap = argparse.ArgumentParser(prog="mmslab", description=__doc__)
    ap.add_argument("--seed", type=int, default=None, help="global RNG seed")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a space and write it as JSON")
    g.add_argument("kind")
    g.add_argument("--params", help='JSON dict of generator parameters, e.g. \'{"m": 5}\'')
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    i = sub.add_parser("invariant", help="evaluate an invariant of a space file")
    i.add_argument("file")
    i.add_argument("--kind", required=True,
                   choices=[k for k, row in _INVARIANTS.items() if row[0] == "finite"])
    i.add_argument("--kappa", help="comma-separated thresholds")
    i.add_argument("--p", type=float, default=2.0)
    i.add_argument("--exact", action="store_true")
    i.set_defaults(func=_cmd_invariant)

    b = sub.add_parser("box", help="box-distance bounds between two space files")
    b.add_argument("fileA")
    b.add_argument("fileB")
    b.add_argument("--exact", action="store_true")
    b.set_defaults(func=_cmd_box)

    d = sub.add_parser("dominates", help="search for a Lipschitz-order witness")
    d.add_argument("fileX")
    d.add_argument("fileY")
    d.set_defaults(func=_cmd_dominates)

    a = sub.add_parser("atoms", help="atom-vector algebra operations")
    a.add_argument("action", choices=("product", "contract", "member", "dissipate"))
    a.add_argument("--alpha", required=True, help="comma list or AtomVector JSON path")
    a.add_argument("--beta", help="comma list or AtomVector JSON path")
    a.add_argument("--space", help="space file for membership")
    a.add_argument("--spaces", nargs="*", default=[], help="sequence of space files")
    a.add_argument("--delta", type=float)
    a.set_defaults(func=_cmd_atoms)

    s = sub.add_parser("spectral", help="spectral constants of 1-D grid spaces")
    s.add_argument("--space", choices=("interval", "gaussian"), required=True)
    s.add_argument("--size", type=int, default=512)
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--constant", choices=("c22", "ls"), default="c22")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--convergence-table", action="store_true",
                   help="CSV of c22 at sizes 64, 128, ... up to --size (always CSV, c22 only)")
    s.set_defaults(func=_cmd_spectral)

    c = sub.add_parser("compare", help="box bounds, dominations and invariants side by side")
    c.add_argument("fileA")
    c.add_argument("fileB")
    c.set_defaults(func=_cmd_compare)

    r = sub.add_parser("run", help="run an experiment plan (bundled name or JSON file)")
    r.add_argument("plan")
    r.add_argument("--csv", help="write the CSV table here")
    r.add_argument("--json-out", help="write the JSON report here")
    r.set_defaults(func=_cmd_run)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # usage errors (code 2) and --help (code 0)
        return e.code
    if args.seed is None and args.command != "run":
        args.seed = 0  # a plan carries its own seed unless --seed overrides it
    try:
        if args.seed is not None:
            core._check_count("--seed", args.seed, 0)
        return args.func(args)
    except (core.SizeLimitError, MemoryError) as e:
        print(f"size limit: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_SIZE
    except (core.InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
