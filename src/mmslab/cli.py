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
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import atoms as atoms_mod
from . import boxmetric, core, functional, generators, observables, order

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
    if isinstance(x, np.floating):
        return _jsonable(float(x))
    if isinstance(x, np.integer):
        return int(x)
    return x


def _print_json(obj, fmt="json"):
    if fmt == "csv":
        flat = _jsonable(obj)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if isinstance(flat, dict):
            for k, v in flat.items():
                writer.writerow([k, v])
        else:
            for row in flat:
                writer.writerow(row if isinstance(row, (list, tuple)) else [row])
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


def _check_fields(doc, required, optional, what):
    """Reject a plan object that lacks a required field or holds a field that
    nothing reads, naming the field."""
    for key in required:
        if key not in doc:
            raise core.InputError(f"{what} needs {key!r}")
    for key in doc:
        if key not in required + optional:
            raise core.InputError(f"{what} has no field {key!r}")


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x):
    return _is_real(x) and math.isfinite(x)


# generator parameters that count points or dimensions (4 and 4.0 pass, 3.9 not)
_INTEGER_PARAMS = ("m", "n_points", "dim", "n_dim", "n", "m_diffuse")


def _check_params(kind, params):
    """Reject a generator kind or parameters that make_space cannot use."""
    if kind not in _SPACE_KINDS:
        raise core.InputError(f"unknown generator kind {kind!r}")
    if not isinstance(params, dict):
        raise core.InputError("generator params must be a JSON object")
    _, required, optional, _ = _SPACE_KINDS[kind]
    _check_fields(params, required, optional, kind)
    for key, v in params.items():
        if key == "alpha":
            ok = isinstance(v, list) and all(map(_is_finite, v))
        elif key == "seed":
            ok = isinstance(v, int) and not isinstance(v, bool) and v >= 0
        else:
            ok = _is_finite(v) and (key not in _INTEGER_PARAMS or v == int(v))
        if not ok:
            raise core.InputError(f"parameter {key!r} of {kind} cannot be {v!r}")


def make_space(kind, params, seed=0):
    _check_params(kind, params)
    return _SPACE_KINDS[kind][3](params, seed)


def _cmd_gen(args):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise core.InputError(f"--params is not valid JSON: {e}") from e
    sp = make_space(args.kind, params, seed=args.seed)
    if isinstance(sp, functional.GridSpace1D):
        raise core.InputError("gen writes finite spaces; grid kinds exist only inside plans")
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


def _mode(spec):
    return "exact" if spec.get("exact", False) else "heuristic"


def _mode_certificate(spec):
    return "exact" if spec.get("exact", False) else "estimate"


def _separation(sp, spec, seed):
    kappas = _kappas(spec)
    if not kappas:
        raise core.InputError("sep requires --kappa")
    return observables.separation(sp, tuple(kappas)), "exact"


# invariant kind -> (space it needs: finite, grid or either, fields it needs,
# fields with a default, evaluate(space, spec, seed) -> (value, certificate));
# rows look the library functions up at call time
_INVARIANTS = {
    "diam": ("finite", (), (), lambda sp, spec, seed: (sp.diam(), "exact")),
    "var": ("finite", (), ("exact",), lambda sp, spec, seed: (
        observables.variance(sp, mode=_mode(spec), seed=seed), _mode_certificate(spec))),
    "pvar": ("finite", (), ("p", "exact"), lambda sp, spec, seed: (
        observables.p_deviation(sp, spec.get("p", 2.0), mode=_mode(spec), seed=seed),
        _mode_certificate(spec))),
    "obsdiam": ("finite", (), ("kappa", "exact"), lambda sp, spec, seed: (
        observables.obs_diam(sp, _first_kappa(spec), mode=_mode(spec), seed=seed),
        _mode_certificate(spec))),
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


def _cmd_box(args):
    sx = core.load_space(args.fileA)
    sy = core.load_space(args.fileB)
    lower = boxmetric.box_lower(sx, sy)
    if args.exact:
        est = boxmetric.box_exact_small(sx, sy)
        out = {"lower": max(lower, est.lower), "upper": est.upper, "certificate": "exact"}
    else:
        est = boxmetric.box_upper(sx, sy, seed=args.seed)
        out = {"lower": lower, "upper": est.upper, "certificate": est.certificate}
    _print_json(out, args.format)
    return EXIT_OK


def _cmd_dominates(args):
    sx = core.load_space(args.fileX)
    sy = core.load_space(args.fileY)
    res = order.dominates(sx, sy)
    if isinstance(res, order.DominationWitness):
        _print_json(
            {"dominates": True, "map": list(res.map), "nodes_explored": res.nodes_explored},
            args.format,
        )
    else:
        _print_json(
            {"dominates": False, "refused": True, "nodes_explored": res.nodes_explored},
            args.format,
        )
    return EXIT_OK


def _cmd_atoms(args):
    if args.action in ("product", "contract") and not args.beta:
        raise core.InputError(f"atoms {args.action} requires --beta")
    if args.action == "member" and not args.space:
        raise core.InputError("atoms member requires --space")
    if args.action == "dissipate" and (not args.spaces or args.delta is None):
        raise core.InputError("atoms dissipate requires --spaces and --delta")
    if args.action == "product":
        a = _parse_alpha(args.alpha)
        b = _parse_alpha(args.beta)
        _print_json({"entries": list(atoms_mod.atom_product(a, b).entries)}, args.format)
        return EXIT_OK
    if args.action == "contract":
        a = _parse_alpha(args.alpha)
        b = _parse_alpha(args.beta)
        groups = atoms_mod.is_contraction(a, b)
        if groups is None:
            _print_json({"contraction": False, "refused": True}, args.format)
        else:
            _print_json({"contraction": True, "groups": [list(g) for g in groups]}, args.format)
        return EXIT_OK
    if args.action == "member":
        sp = core.load_space(args.space)
        a = _parse_alpha(args.alpha)
        delta = math.inf if args.delta is None else args.delta
        res = atoms_mod.member(sp, a, delta)
        if res is None:
            _print_json({"member": False, "refused": True}, args.format)
        else:
            _print_json({"member": True, "assignment": list(res.map)}, args.format)
        return EXIT_OK
    if args.action == "dissipate":
        spaces = [core.load_space(p) for p in args.spaces]
        a = _parse_alpha(args.alpha)
        ev = atoms_mod.detect_dissipation(spaces, a, args.delta)
        _print_json(
            {
                "accepted": ev.accepted,
                "delta": ev.delta,
                "atom_error": list(ev.atom_error),
                "max_small_bin": list(ev.max_small),
                "bin_counts": list(ev.bin_counts),
                "reason": ev.reason,
            },
            args.format,
        )
        return EXIT_OK
    raise core.InputError(f"unknown atoms action {args.action!r}")


def _cmd_spectral(args):
    def grid(m):
        if args.space == "interval":
            return functional.unit_interval_grid(m)
        return functional.gaussian_grid(m, args.sigma)

    if args.convergence_table:
        if args.constant != "c22":
            raise core.InputError("--convergence-table tabulates c22 only, not --constant ls")
        rows = [["size", "c22"]]
        m = min(64, args.size)  # below 64 poincare_c22 rejects the size itself
        while m <= args.size:
            rows.append([m, functional.poincare_c22(grid(m))])
            m *= 2
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return EXIT_OK
    if args.constant == "c22":
        value = functional.poincare_c22(grid(args.size))
        out = {"constant": "c22", "size": args.size, "value": value, "certificate": "estimate"}
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
    out = {"lower": boxmetric.box_lower(sx, sy)}
    if sx.n * sy.n <= boxmetric.EXACT_MAX_CELLS:
        est = boxmetric.box_exact_small(sx, sy)
        out.update(upper=est.upper, box=est.upper, certificate="exact")
    else:
        out.update(upper=boxmetric.box_upper(sx, sy, seed=args.seed).upper, certificate="bound")
    for tag, a, b in (("x_dominates_y", sx, sy), ("y_dominates_x", sy, sx)):
        try:
            out[tag] = isinstance(order.dominates(a, b), order.DominationWitness)
        except core.SizeLimitError:
            out[tag] = "skipped (size)"
    table = {}
    for name, spn in (("A", sx), ("B", sy)):
        exact = spn.n <= observables.EXACT_MAX_POINTS
        mode = "exact" if exact else "heuristic"
        row = {
            "diam": spn.diam(),
            "variance": observables.variance(spn, mode=mode, seed=args.seed),
            "obsdiam_0.1": observables.obs_diam(spn, 0.1, mode=mode, seed=args.seed),
            "certificate": "exact" if exact else "estimate",
        }
        try:
            row["sep_quarters"] = observables.separation(spn, (0.25, 0.25))
        except core.SizeLimitError:
            row["sep_quarters"] = "skipped (size)"
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
        seed = d.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise core.InputError(f"plan seed must be an integer >= 0, got {seed!r}")
        parts = {k: d.get(k, []) for k in ("spaces", "invariants", "assertions")}
        for key, items in parts.items():
            if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
                raise core.InputError(f"plan {key} must be a list of objects")
        return ExperimentPlan(name=d.get("name", "plan"), seed=seed, **parts)


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


# invariant field -> (test every value of it passes, the library's message when
# one fails); sep is exempt from the kappa test, as it takes any finite entries
_FIELD_RANGES = {
    "kappa": (lambda v: 0.0 <= v < 1.0, "kappa must be a finite number in [0, 1), got {}"),
    "p": (lambda v: v >= 1, "p must satisfy p >= 1"),
    "sigma": (lambda v: v > 0, "sigma must be positive"),
    "constant": (lambda v: v > 0, "the candidate constant must be positive"),
    "trials": (lambda v: v >= 1, "trials must be at least 1, got {}"),
}


def _check_plan(plan):
    """Reject a malformed plan whole, before any space is built."""
    if not isinstance(plan.name, str):
        raise core.InputError(f"plan name must be a string, got {plan.name!r}")
    grids = {}
    for spec in plan.spaces:
        path = "path" in spec
        _check_fields(spec, ("id", "path" if path else "kind"), () if path else ("params",),
                      f"space entry {spec!r}")
        if not isinstance(spec["id"], str):
            raise core.InputError(f"space entry {spec!r} needs a string id")
        if path:
            if not isinstance(spec["path"], str):
                raise core.InputError(f"space path {spec['path']!r} is not a string")
        else:
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
        kappa = spec.get("kappa", 0.0)
        listed = isinstance(kappa, list) and all(map(_is_real, kappa))
        if not (_is_real(kappa) or listed and kind != "gauss_obsdiam_formula"):
            raise core.InputError(f"invariant {spec!r}: kappa must be a number or numbers")
        for key in ("p", "sigma", "constant", "trials"):
            ok = _is_real(spec.get(key)) and (key != "trials" or isinstance(spec[key], int))
            if key in spec and not ok:
                raise core.InputError(f"invariant {spec!r}: {key} must be a number")
        for key, (in_range, message) in _FIELD_RANGES.items():
            values = spec.get(key, [])
            for v in values if isinstance(values, list) else [values]:
                if not (key == "kappa" and kind == "sep" or in_range(v)):
                    raise core.InputError(f"invariant {spec!r}: {message.format(v)}")
        if kind == "gauss_obsdiam_formula" and not 0.0 < kappa:
            raise core.InputError(f"invariant {spec!r}: kappa must lie in (0, 1)")
        if not isinstance(spec.get("exact", False), bool):
            raise core.InputError(f"invariant {spec!r}: exact must be true or false")
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
        if not all(_is_real(a[k]) for k in a if k not in ("row", "op", "other")):
            raise core.InputError(f"assertion {a!r} needs numeric {', '.join(required)}")


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
    values = {}
    for spec in plan.invariants:
        value, cert = _INVARIANTS[spec["kind"]][3](built[spec["space"]], spec, plan.seed)
        key = _row_key(spec)
        values[key] = value
        rows.append((spec["space"], spec["kind"], key, value, cert))
    failures = [{"assertion": a, "value": values[a["row"]]} for a in plan.assertions
                if not _ASSERTIONS[a["op"]][2](values[a["row"]], a, values)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["space", "invariant", "row_key", "value", "certificate"])
    for space_id, kind, key, value, cert in rows:
        writer.writerow([space_id, kind, key, _fmt_value(value), cert])
    csv_text = buf.getvalue()
    report = {
        "name": plan.name,
        "seed": plan.seed,
        "rows": [
            {"space": s, "invariant": k, "row_key": key, "value": v, "certificate": c}
            for s, k, key, v, c in rows
        ],
        "failures": failures,
        "ok": not failures,
    }
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(report), fh, indent=2)
            fh.write("\n")
    report["csv"] = csv_text
    return report


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
            for kappa in (0.1, 0.3, 0.5):
                row = {"space": f"gauss_dim{d}", "kind": "obsdiam_projection", "kappa": kappa}
                invariants.append(row)
                target = observables.gaussian_obs_diam(1.0, kappa)
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
        if args.seed is not None and args.seed < 0:
            raise core.InputError("--seed must be >= 0")
        return args.func(args)
    except (core.SizeLimitError, MemoryError) as e:
        print(f"size limit: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_SIZE
    except core.InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
