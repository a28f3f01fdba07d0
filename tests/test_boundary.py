"""Input boundary: malformed plans, atom files and numeric arguments end in
exit code 2 with ``input error:``, never in a traceback.  The library entry
points reject NaN and out-of-range thresholds themselves, and Hypothesis fuzzes
space documents, plan documents and numeric CLI arguments through
``cli.main`` in-process."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmslab import (atoms, boxmetric, cli, core, functional, generators,
                    observables as obs, order)

NAN, INF = math.nan, math.inf


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def workdir():
    """A temporary directory holding a valid three-point space file."""
    with tempfile.TemporaryDirectory() as d:
        core.save_space(generators.interval_grid(3), os.path.join(d, "space.json"))
        yield d


def write_json(d, name, doc):
    path = os.path.join(d, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


GRID = {"id": "a", "kind": "interval_grid", "params": {"m": 4}}
LINE = {"id": "g", "kind": "grid_interval", "params": {"m": 64}}
LS_CHECK = {"space": "g", "kind": "ls_check", "constant": 0.3}
UNKNOWN_KEYS = [
    ("plan", {"spaces": [GRID], "invariant": [{"space": "a", "kind": "diam"}]}, "invariant"),
    ("space", {"spaces": [{"id": "a", "kind": "two_point", "param": {"d": 5.0}}]}, "param"),
    ("param", {"spaces": [{"id": "a", "kind": "gaussian_sample",
                           "params": {"n_points": 8, "dims": 3}}]}, "dims"),
    ("invariant", {"spaces": [GRID],
                   "invariants": [{"space": "a", "kind": "sep", "kappa": 0.1, "kapa": 0.4}]},
     "kapa"),
    ("assertion", {"spaces": [GRID], "invariants": [{"space": "a", "kind": "diam"}],
                   "assertions": [{"row": "a:diam", "op": "close", "target": 3.1,
                                   "tolerance": 0.2}]}, "tolerance"),
]
BAD_PLANS = [
    ("space_without_kind", {"spaces": [{"id": "a", "params": {"m": 4}}]}),
    ("non_numeric_param", {"spaces": [{**GRID, "params": {"m": "x"}}]}),
    ("missing_param", {"spaces": [{**GRID, "params": {}}]}),
    ("top_level_list", [GRID]),
    ("string_seed", {"seed": "x", "spaces": [GRID]}),
    ("string_kappa", {"spaces": [GRID],
                      "invariants": [{"space": "a", "kind": "obsdiam", "kappa": "0.1"}]}),
    ("grid_invariant_on_finite_space", {"spaces": [GRID],
                                        "invariants": [{"space": "a", "kind": "c22"}]}),
    ("assertion_without_target", {"spaces": [GRID],
                                  "invariants": [{"space": "a", "kind": "diam"}],
                                  "assertions": [{"row": "a:diam", "op": "le"}]}),
    ("string_exact", {"spaces": [GRID],
                      "invariants": [{"space": "a", "kind": "var", "exact": "no"}]}),
    ("non_string_name", {"name": 3, "spaces": [GRID]}),
    ("boolean_trials", {"spaces": [LINE], "invariants": [{**LS_CHECK, "trials": True}]}),
    ("negative_trials", {"spaces": [LINE], "invariants": [{**LS_CHECK, "trials": -2}]}),
    ("kappa_above_one", {"spaces": [GRID],
                         "invariants": [{"space": "a", "kind": "obsdiam", "kappa": 1.5}]}),
    ("negative_kappa", {"spaces": [GRID], "invariants": [
        {"space": "a", "kind": "obsdiam_projection", "kappa": -0.1}]}),
    ("kappa_list_entry_one", {"spaces": [GRID],
                              "invariants": [{"space": "a", "kind": "obsdiam",
                                              "kappa": [0.1, 1.0]}]}),
    ("p_below_one", {"spaces": [GRID],
                     "invariants": [{"space": "a", "kind": "pvar", "p": 0.5}]}),
    ("zero_constant", {"spaces": [LINE], "invariants": [{**LS_CHECK, "constant": 0}]}),
    ("negative_sigma", {"spaces": [GRID], "invariants": [
        {"space": "a", "kind": "gauss_obsdiam_formula", "kappa": 0.1, "sigma": -1.0}]}),
    # a misspelt or unread key at each level of a plan
    *[(f"unknown_{level}_key", doc) for level, doc, _ in UNKNOWN_KEYS],
    # samples whose distances are not a metric in floating point (squares that
    # overflow, coordinates that overflow, squares that underflow to 0), at
    # sizes on both sides of 300 points
    *[(f"sample_sigma_{sigma:g}_n{n}", {"spaces": [{
        "id": "a", "kind": "gaussian_sample",
        "params": {"n_points": n, "dim": 1, "sigma": sigma, "seed": 1}}]})
      for sigma in (1e160, 1e308, 1e-170) for n in (10, 300, 301)],
]

# one plan per range check, with the message the library itself raises
OUT_OF_RANGE = [
    ({"kind": "obsdiam", "kappa": 1.5}, "kappa must be a finite number in [0, 1), got 1.5"),
    ({"kind": "obsdiam", "kappa": [0.1, -0.2]},
     "kappa must be a finite number in [0, 1), got -0.2"),
    ({"kind": "pvar", "p": 0.5}, "p must satisfy p >= 1, got 0.5"),
    ({"kind": "gauss_obsdiam_formula", "kappa": 0.1, "sigma": 0},
     "sigma must be positive and finite, got 0"),
    ({"kind": "gauss_obsdiam_formula", "kappa": 0.1, "sigma": INF},
     "sigma must be positive and finite, got inf"),
    ({"kind": "gauss_obsdiam_formula", "kappa": 0}, "kappa must lie in (0, 1), got 0"),
    ({"kind": "gauss_obsdiam_formula", "kappa": [0.1]}, "kappa must lie in (0, 1), got [0.1]"),
    # 1 - kappa rounds to 1, where PsiInv is infinite
    ({"kind": "gauss_obsdiam_formula", "kappa": 1e-17}, "kappa must lie in (0, 1), got 1e-17"),
    ({"kind": "sep", "kappa": [0.3, INF]}, "kappa entries must be finite"),
    ({"kind": "ls_check", "constant": -0.3}, "constant must be positive and finite, got -0.3"),
    ({"kind": "ls_check", "constant": INF}, "constant must be positive and finite, got inf"),
    ({"kind": "ls_check", "constant": 1e300},
     "constant is too large or too small to square, got 1e+300"),
    ({"kind": "ls_check", "constant": 0.3, "trials": 0}, "trials must be an integer >= 1, got 0"),
]
# one generator parameter per positive rule, with the library's message
PARAMS_OUT_OF_RANGE = [
    ("two_point", {"d": -1}, "d must be positive and finite, got -1"),
    ("interval_grid", {"m": 4, "r": -1}, "r must be positive and finite, got -1"),
    ("gaussian_sample", {"n_points": 4, "sigma": NAN},
     "sigma must be positive and finite, got nan"),
    ("sphere_sample", {"n_dim": 2, "n_points": 4, "radius": INF},
     "radius must be positive and finite, got inf"),
    ("dissipation_family", {"alpha": [0.3], "n": 2, "delta": 0},
     "delta must be positive and finite, got 0"),
    ("grid_interval", {"length": -INF}, "length must be positive and finite, got -inf"),
    ("grid_gaussian", {"sigma": "1"}, "sigma must be positive and finite, got '1'"),
]


@pytest.mark.parametrize("doc", [case[1] for case in BAD_PLANS], ids=[c[0] for c in BAD_PLANS])
def test_malformed_plan_is_input_error(doc):
    with workdir() as d:
        code, _, err = run_main(["run", write_json(d, "plan.json", doc)])
    assert code == 2
    assert err.startswith("input error:")


@pytest.mark.parametrize("doc,key", [case[1:] for case in UNKNOWN_KEYS],
                         ids=[case[0] for case in UNKNOWN_KEYS])
def test_unknown_plan_key_is_named(doc, key):
    with workdir() as d:
        code, out, err = run_main(["run", write_json(d, "plan.json", doc)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.strip().endswith(repr(key))


def _run_without_building(monkeypatch, doc):
    def no_build(*args, **kwargs):
        raise AssertionError("make_space called for a plan that is out of range")

    monkeypatch.setattr(cli, "make_space", no_build)
    with workdir() as d:
        code, out, err = run_main(["run", write_json(d, "plan.json", doc)])
    assert code == 2 and out == ""
    assert err.startswith("input error:")
    return err.strip()


BIG = {"id": "a", "kind": "gaussian_sample", "params": {"n_points": 3000}}


@pytest.mark.parametrize("row,message", OUT_OF_RANGE,
                         ids=["kappa", "kappa_list", "p", "sigma", "sigma_inf", "kappa_formula",
                              "kappa_formula_list", "kappa_formula_tiny", "kappa_sep_inf",
                              "constant", "constant_inf", "constant_1e300", "trials"])
def test_out_of_range_plan_fails_before_any_space_is_built(monkeypatch, row, message):
    space = {**LINE, "id": "a"} if row["kind"] == "ls_check" else BIG
    doc = {"spaces": [space], "invariants": [{"space": "a", **row}]}
    assert _run_without_building(monkeypatch, doc).endswith(message)


@pytest.mark.parametrize("kind,params,message", PARAMS_OUT_OF_RANGE,
                         ids=[case[0] for case in PARAMS_OUT_OF_RANGE])
def test_out_of_range_parameter_fails_before_any_space_is_built(monkeypatch, kind, params,
                                                                message):
    doc = {"spaces": [BIG, {"id": "b", "kind": kind, "params": params}]}
    assert _run_without_building(monkeypatch, doc).endswith(message)


@pytest.mark.parametrize("call,name", [
    (lambda bad: generators.interval_grid(4, bad), "r"),
    (lambda bad: generators.gaussian_sample(5, 1, bad, seed=0), "sigma"),
    (lambda bad: generators.sphere_sample(2, bad, 5, seed=0), "radius"),
    (lambda bad: generators.two_point(bad), "d"),
    (lambda bad: generators.dissipation_family(atoms.sort_atoms([0.3]), bad, 2), "delta"),
    (lambda bad: functional.unit_interval_grid(64, bad), "length"),
    (lambda bad: functional.gaussian_grid(64, bad), "sigma"),
    (lambda bad: functional.scale_grid(functional.unit_interval_grid(64), bad), "r"),
    (lambda bad: functional.log_sobolev_check(functional.unit_interval_grid(64), bad), "constant"),
    (lambda bad: obs.gaussian_obs_diam(bad, 0.1), "sigma"),
    (lambda bad: obs.gaussian_vs_uniform_crossover(bad), "sigma"),
    (lambda bad: boxmetric.box_converges([generators.two_point()], generators.two_point(), bad),
     "tol"),
    (lambda bad: atoms.detect_dissipation([generators.two_point()] * 4, atoms.sort_atoms([0.3]),
                                          bad), "delta"),
], ids=["interval_grid", "gaussian_sample", "sphere_sample", "two_point", "dissipation_family",
        "unit_interval_grid", "gaussian_grid", "scale_grid", "log_sobolev_check",
        "gaussian_obs_diam", "crossover", "box_converges", "detect_dissipation"])
def test_positive_parameter_is_named_not_a_distance(call, name):
    """NaN, infinities, zero, negatives and non-numbers fail the one positive
    rule, with the parameter's name, not as a distance that is not finite."""
    for bad in (NAN, INF, -INF, 0, -1.0, True, "1"):
        with pytest.raises(core.InputError) as e:
            call(bad)
        assert type(e.value) is core.InputError
        assert str(e.value) == f"{name} must be positive and finite, got {bad!r}"


def test_sep_keeps_negative_and_large_thresholds():
    doc = {"spaces": [GRID],
           "invariants": [{"space": "a", "kind": "sep", "kappa": [0.3, -5.0, 1.5]}]}
    with workdir() as d:
        code, _, err = run_main(["run", write_json(d, "plan.json", doc)])
    assert code == 0, err


def test_sep_of_no_thresholds_is_infinite():
    """An empty threshold list passes the plan check, so the row evaluates:
    with no positive entry the separation is infinite, as the library says."""
    doc = {"spaces": [GRID], "invariants": [{"space": "a", "kind": "sep", "kappa": []}]}
    with workdir() as d:
        code, out, err = run_main(["run", write_json(d, "plan.json", doc)])
    assert code == 0, err
    assert out.splitlines()[1] == "a,sep,a:sep:kappa=[],inf,exact"


BAD_ARGS = [
    ("kappa_above_one", ["invariant", "{space}", "--kind", "obsdiam", "--kappa", "1.5"]),
    ("kappa_nan", ["invariant", "{space}", "--kind", "obsdiam", "--kappa", "nan"]),
    # every entry of --kappa is checked as a plan row's kappa, not only the first
    ("kappa_second_entry_above_one",
     ["invariant", "{space}", "--kind", "obsdiam", "--kappa", "0.1,2"]),
    ("kappa_second_entry_nan",
     ["invariant", "{space}", "--kind", "obsdiam", "--kappa", "0.1,nan"]),
    ("projection_kappa_second_entry_above_one",
     ["invariant", "{space}", "--kind", "obsdiam_projection", "--kappa", "0.2,1.5"]),
    ("kappa_text", ["invariant", "{space}", "--kind", "obsdiam", "--kappa", "abc"]),
    ("projection_kappa_nan",
     ["invariant", "{space}", "--kind", "obsdiam_projection", "--kappa", "nan"]),
    ("sep_kappa_inf", ["invariant", "{space}", "--kind", "sep", "--kappa", "0.3,inf"]),
    ("p_nan", ["invariant", "{space}", "--kind", "pvar", "--p", "nan"]),
    ("delta_nan", ["atoms", "member", "--space", "{space}", "--alpha", "0.3", "--delta", "nan"]),
    ("alpha_not_json", ["atoms", "product", "--alpha", "{bad}", "--beta", "0.5"]),
    ("alpha_nan", ["atoms", "product", "--alpha", "0.3,nan", "--beta", "0.5"]),
    ("negative_seed", ["--seed", "-1", "invariant", "{space}", "--kind", "var"]),
    ("negative_trials", ["spectral", "--space", "interval", "--constant", "ls", "--trials", "-2"]),
    *((f"interval_sigma_{s}", ["spectral", "--space", "interval", "--sigma", s])
      for s in ("nan", "0", "inf")),
    ("output_is_a_directory", ["gen", "two_point", "-o", "{dir}"]),
    ("csv_is_a_directory", ["run", "cube_vs_gaussian", "--csv", "{dir}"]),
    ("json_out_is_a_directory", ["run", "cube_vs_gaussian", "--json-out", "{dir}"]),
]


@pytest.mark.parametrize("argv", [case[1] for case in BAD_ARGS], ids=[c[0] for c in BAD_ARGS])
def test_bad_argument_is_input_error(argv):
    with workdir() as d:
        bad = os.path.join(d, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{")
        argv = [a.format(space=os.path.join(d, "space.json"), bad=bad, dir=d) for a in argv]
        code, _, err = run_main(argv)
    assert code == 2
    assert err.startswith("input error:")


# each kind of file the CLI reads as JSON, given as a file that is not UTF-8
# (byte 0xff or a Latin-1 point name)
NOT_UTF8 = [
    ("invariant", ["invariant", "{bad}", "--kind", "diam"]),
    ("box", ["box", "{space}", "{bad}"]),
    ("run", ["run", "{bad}"]),
    ("atoms_alpha", ["atoms", "product", "--alpha", "{bad}", "--beta", "0.5"]),
]


@pytest.mark.parametrize("argv", [c[1] for c in NOT_UTF8], ids=[c[0] for c in NOT_UTF8])
@pytest.mark.parametrize("content", [b'{"name": "\xff"}',
                                     b'{"points": ["\xe9", "b"], "dist": [[0, 1], [1, 0]], '
                                     b'"mass": [0.5, 0.5]}'], ids=["byte_ff", "latin1"])
def test_file_that_is_not_utf8_is_input_error(argv, content):
    with workdir() as d:
        bad = os.path.join(d, "bad.json")
        with open(bad, "wb") as fh:
            fh.write(content)
        argv = [a.format(space=os.path.join(d, "space.json"), bad=bad) for a in argv]
        code, out, err = run_main(argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot read")


# input checks of the library, each called with one input it refuses; the
# call raises InputError, or returns the Violation of ``validate``, with a
# message that the pattern matches
PAIR_DOC = {"points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]], "mass": [0.5, 0.5]}
BAD_MASS_RATIONAL = [
    ("mass_rational_length", ["1/2"], "mass_rational length mismatch"),
    ("mass_rational_sum", ["1/2", "1/3"], "mass_rational does not sum to 1"),
    ("mass_rational_mismatch", ["1/4", "3/4"], r"mass_rational\[0\] != mass\[0\]"),
]


def _pair(mass_rational=None):
    return core.FinitePmSpace(PAIR_DOC["points"], PAIR_DOC["dist"], PAIR_DOC["mass"],
                              mass_rational)


GRID3 = generators.interval_grid(3)
INPUT_CHECKS = [
    *((name, lambda mr=mr: core.validate(_pair(mr)), message)
      for name, mr, message in BAD_MASS_RATIONAL),
    ("from_json_ragged", lambda: core.from_json_dict({**PAIR_DOC, "mass": [[0.5], [0.5, 0.0]]}),
     "must be rectangular"),
    ("as_lipschitz_above_bound", lambda: core.as_lipschitz(GRID3, [0.0, 1.0, 2.0], 1.0),
     "Lipschitz constant"),
    ("margins_rows", lambda: core.Coupling([[0.5, 0.0], [0.25, 0.25]]).check_margins(
        [0.25, 0.75], [0.75, 0.25]), "row sums"),
    ("margins_columns", lambda: core.Coupling([[0.5, 0.0], [0.25, 0.25]]).check_margins(
        [0.5, 0.5], [0.5, 0.5]), "column sums"),
    ("prokhorov_length", lambda: core.prokhorov(GRID3, [0.5, 0.5], [0.5, 0.5]),
     "must match the space"),
    ("ky_fan_other_space",
     lambda: core.ky_fan(GRID3, *[core.LipschitzFunction([0.0, 1.0], 1.0)] * 2),
     "live on the given space"),
    ("ky_fan_lengths_differ",
     lambda: core.ky_fan(GRID3, core.LipschitzFunction([0.0, 1.0], 1.0),
                         core.LipschitzFunction([0.0, 1.0, 2.0], 1.0)),
     "live on the given space"),
    *((f"lipschitz_bound_{name}", lambda b=b: core.LipschitzFunction([0.0, 1.0, 2.0], b),
       f"lip_bound must be finite and >= 0, got {b!r}") for name, b in (("inf", INF),
                                                                         ("negative", -1.0))),
    ("as_lipschitz_bound_inf", lambda: core.as_lipschitz(GRID3, [0.0, 0.5, 1.0], INF),
     "lip_bound must be finite and >= 0, got inf"),
    ("entropy_length", lambda: core.entropy(GRID3, [1.0, 2.0]), "one value per point"),
    ("entropy_nan", lambda: core.entropy(GRID3, [1.0, NAN, 1.0]), "finite values"),
    ("lipschitz_constant_length", lambda: core.lipschitz_constant(GRID3, [0.0, 1.0]),
     "one value per point"),
    ("lipschitz_constant_nan", lambda: core.lipschitz_constant(GRID3, [0.0, NAN, 1.0]),
     "finite values"),
    ("as_lipschitz_length", lambda: core.as_lipschitz(GRID3, [0.0] * 4, 1.0),
     "one value per point"),
    ("as_lipschitz_nan", lambda: core.as_lipschitz(GRID3, [0.0, NAN, 1.0], 1.0),
     "finite values"),
    ("mcshane_empty_subset", lambda: core.mcshane_extend(GRID3, [], [], 1.0), "non-empty"),
    *((f"mcshane_subset_{name}", lambda i=i: core.mcshane_extend(GRID3, [i], [0.0], 1.0),
       "integer indices") for name, i in (("negative", -1), ("past_the_end", 7),
                                          ("fraction", 1.5), ("bool", True))),
    ("mcshane_values_length", lambda: core.mcshane_extend(GRID3, [0, 1], [0.0], 1.0),
     "subset length"),
    *((f"mcshane_bound_{name}", lambda b=b: core.mcshane_extend(GRID3, [0], [0.0], b),
       f"lip_bound must be finite and >= 0, got {b!r}") for name, b in (("inf", INF),
                                                                         ("nan", NAN))),
    ("projection_without_coords",
     lambda: obs.obs_diam_projection_estimate(generators.two_point(), 0.1), "no coordinates"),
    ("obs_diam_mode", lambda: obs.obs_diam(GRID3, 0.1, mode="fast"), "unknown mode"),
    ("variance_mode", lambda: obs.variance(GRID3, mode="fast"), "unknown mode"),
    ("variance_of_length", lambda: obs.variance_of(GRID3, [1.0, 2.0]), "one value per point"),
    ("p_variance_length", lambda: obs.p_variance(GRID3, [1.0, 2.0], 2), "one value per point"),
    ("p_variance_nan", lambda: obs.p_variance(GRID3, [1.0, NAN, 2.0], 3), "finite values"),
    ("variance_of_inf", lambda: obs.variance_of(GRID3, [1.0, INF, 2.0]), "finite values"),
    ("p_deviation_mode", lambda: obs.p_deviation(GRID3, 2, mode="fast"), "unknown mode"),
    ("atoms_above_one", lambda: atoms.AtomVector((0.7, 0.6)), "l1 norm"),
    ("atoms_increasing", lambda: atoms.AtomVector((0.1, 0.2)), "nonincreasing"),
    ("truncate_kind", lambda: atoms.truncate(atoms.sort_atoms([0.3]), 1, kind="drop"),
     "unknown truncation kind"),
    ("dissipation_of_the_full_atom",
     lambda: atoms.detect_dissipation([GRID3] * 4, atoms.AtomVector((1.0,)), 1.0),
     "vacuously"),
    ("box_lower_above_upper", lambda: boxmetric.BoxEstimate(0.5, 0.25), "exceeds upper"),
    ("box_exact_not_equal", lambda: boxmetric.BoxEstimate(0.25, 0.5, certificate="exact"),
     "lower == upper"),
    ("grid_two_nodes", lambda: functional.GridSpace1D([0.0, 1.0], [1.0, 1.0]), "3 nodes"),
    ("grid_weight_shape", lambda: functional.GridSpace1D([0.0, 0.5, 1.0], [1.0, 1.0]),
     "match the nodes"),
    ("grid_weight_zero", lambda: functional.GridSpace1D([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]),
     "positive"),
    ("two_point_first_mass", lambda: generators.two_point(1.0, 1.0), "first_mass"),
    ("sphere_without_seed", lambda: generators.sphere_sample(2, 1.0, 4), "requires a seed"),
    ("witness_shape", lambda: order.check_witness(GRID3, generators.two_point(), (0, 1)),
     "mapping shape"),
    *((f"witness_{name}", lambda m=m: order.check_witness(GRID3, GRID3, m), "integer indices")
      for name, m in (("fraction", (0, 1, 1.7)), ("past_the_end", (0, 1, 3)),
                      ("negative", (0, 1, -1)))),
    ("no_generators", lambda: order.generator_idempotent([], 2), "non-empty"),
]


@pytest.mark.parametrize("call,pattern", [c[1:] for c in INPUT_CHECKS],
                         ids=[c[0] for c in INPUT_CHECKS])
def test_input_check_refuses(call, pattern):
    try:
        got = call()
    except core.InputError as e:
        got = e
    assert isinstance(got, (core.InputError, core.Violation))
    assert re.search(pattern, str(got))


@pytest.mark.parametrize("mass_rational", [c[1] for c in BAD_MASS_RATIONAL],
                         ids=[c[0] for c in BAD_MASS_RATIONAL])
def test_space_file_with_bad_mass_rational_exits_2(mass_rational):
    with workdir() as d:
        path = write_json(d, "space.json", {**PAIR_DOC, "mass_rational": mass_rational})
        code, out, err = run_main(["invariant", path, "--kind", "diam"])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


# coordinates that do not belong to the points or to the metric of the file
THREE_POINT_DOC = {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                   "mass": [0.25, 0.5, 0.25]}
BAD_COORDS = [
    ("two_rows_for_three_points", [[0.0], [1.0]]),
    ("column_not_lipschitz", [[0.0], [500.0], [1000.0]]),
    ("nan_coordinate", [[0.0], [NAN], [2.0]]),
]


@pytest.mark.parametrize("coords", [c[1] for c in BAD_COORDS], ids=[c[0] for c in BAD_COORDS])
def test_space_file_with_bad_coords_is_invalid(coords):
    with workdir() as d:
        good = {**THREE_POINT_DOC, "coords": [[0], [1], [2]]}
        assert core.load_space(write_json(d, "good.json", good))
        path = write_json(d, "coords.json", {**THREE_POINT_DOC, "coords": coords})
        with pytest.raises(core.InvalidSpaceError):
            core.load_space(path)
        code, out, err = run_main(["invariant", path, "--kind", "obsdiam_projection"])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("kind,params,key", [
    ("interval_grid", {"m": 3.9}, "m"),
    ("gaussian_sample", {"n_points": 5, "dim": 2.5}, "dim"),
    ("gaussian_sample", {"n_points": 4.5}, "n_points"),
    ("sphere_sample", {"n_dim": 1.5, "n_points": 4}, "n_dim"),
    ("atom_space", {"alpha": [0.3], "m_diffuse": 2.2}, "m_diffuse"),
    ("dissipation_family", {"alpha": [0.3], "n": 1.5}, "n"),
    ("grid_interval", {"m": 64.5}, "m"),
])
def test_fractional_count_parameter_is_input_error(kind, params, key):
    with pytest.raises(core.InputError, match=f"parameter {key!r} of {kind} cannot be"):
        cli.make_space(kind, params)
    cli.make_space(kind, {**params, key: 64.0 if kind == "grid_interval" else 4.0})
    with workdir() as d:
        code, out, err = run_main(["gen", kind, "--params", json.dumps(params),
                                   "-o", os.path.join(d, "out.json")])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("message,shown", [("Unable to allocate 298. GiB",) * 2,
                                           ("", "out of memory")], ids=["numpy", "bare"])
def test_out_of_memory_is_size_limit(monkeypatch, message, shown):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    with workdir() as d:
        monkeypatch.setattr(generators, "interval_grid", no_memory)
        code, out, err = run_main(["gen", "interval_grid", "--params", '{"m": 200000}',
                                   "-o", os.path.join(d, "out.json")])
    assert code == 3 and out == ""
    assert err.strip() == f"size limit: {shown}"


def test_exact_searches_refuse_one_past_their_limit():
    # the README's limit table, one item past each limit
    with pytest.raises(core.SizeLimitError):
        obs.separation(generators.interval_grid(3), [0.05] * (obs.SEPARATION_MAX_POSITIVE + 1))
    many = atoms.AtomVector((0.04,) * (atoms.MAX_PACKING + 1))
    with pytest.raises(core.SizeLimitError):
        atoms.member(generators.interval_grid(3), many)
    with pytest.raises(core.SizeLimitError):
        atoms.member(generators.interval_grid(atoms.MAX_PACKING + 1), atoms.AtomVector((0.04,)))
    with pytest.raises(core.SizeLimitError):
        atoms.is_contraction(atoms.AtomVector((0.05,) * (atoms.MAX_CONTRACTION + 1)),
                             atoms.AtomVector((0.85,)))


def test_atoms_past_their_limit_exit_3():
    with workdir() as d:
        for argv in (["member", "--space", os.path.join(d, "space.json"),
                      "--alpha", ",".join(["0.04"] * (atoms.MAX_PACKING + 1))],
                     ["contract", "--beta", "0.85",
                      "--alpha", ",".join(["0.05"] * (atoms.MAX_CONTRACTION + 1))]):
            code, out, err = run_main(["atoms", *argv])
            assert code == 3 and out == ""
            assert err.startswith("size limit:")


def test_library_rejects_nan_and_out_of_range():
    sp = generators.interval_grid(4)
    for kappa in (NAN, INF, -0.1, 1.0, 1.5):
        with pytest.raises(core.InputError):
            obs.obs_diam(sp, kappa, mode="heuristic")
        with pytest.raises(core.InputError):
            obs.obs_diam_projection_estimate(sp, kappa)
    with pytest.raises(core.InputError):
        obs.p_deviation(sp, NAN, mode="heuristic")
    assert obs.p_deviation(sp, INF, mode="exact") == pytest.approx(0.5)
    for kappa in ((0.3, NAN), (0.3, INF), (0.3, -INF)):
        with pytest.raises(core.InputError):
            obs.separation(sp, kappa)
    assert obs.separation(sp, (0.3, -5.0, 0.3)) == obs.separation(sp, (0.3, 0.3))
    with pytest.raises(core.InputError):
        atoms.member(sp, atoms.sort_atoms([0.25]), NAN)
    with pytest.raises(core.InputError):
        atoms.sort_atoms([0.2, NAN])
    with pytest.raises(core.InputError):
        atoms.AtomVector((NAN,))
    with pytest.raises(core.InputError):
        obs.p_variance(sp, sp.dist[0], NAN)
    with pytest.raises(core.InputError):
        core.product(sp, sp, NAN)
    with pytest.raises(core.InputError):
        core.LipschitzFunction(sp.dist[0], NAN)
    for bad in (NAN, INF):
        with pytest.raises(core.InputError):
            core.LipschitzFunction([bad, 0.0, 0.5, 1.0], 1.0)
        masses = [bad, 0.0, 0.5, 0.5]
        for a, b in ((masses, sp.mass), (sp.mass, masses)):
            with pytest.raises(core.InputError):
                core.prokhorov(sp, a, b)
            with pytest.raises(core.InputError):
                core.total_variation(a, b)
    # a negative entry, and a sum 2e-12 above 1, are no probability vector
    for masses in ([2.0, -1.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25 + 2e-12]):
        for a, b in ((masses, sp.mass), (sp.mass, masses)):
            with pytest.raises(core.InputError):
                core.prokhorov(sp, a, b)
            with pytest.raises(core.InputError):
                core.total_variation(a, b)
    grid = functional.unit_interval_grid(64)
    for bad in (NAN, INF):
        with pytest.raises(core.InputError):
            functional.unit_interval_grid(64, bad)
        with pytest.raises(core.InputError):
            functional.gaussian_grid(64, bad)
        with pytest.raises(core.InputError):
            functional.scale_grid(grid, bad)
        with pytest.raises(core.InputError):
            functional.GridSpace1D([0.0, 0.5, bad], [1.0, 1.0, 1.0])
        with pytest.raises(core.InputError):
            functional.GridSpace1D([0.0, 0.5, 1.0], [1.0, bad, 1.0])
    # a fractional, NaN or boolean count or a bad seed is an input error, not
    # an error from deep inside the trial loop or a count copied into a report
    for effort in ({"trials": 0}, {"trials": -2}, {"trials": 2.5}, {"trials": NAN},
                   {"trials": True}, {"trials": 20, "seed": -1}, {"trials": 20, "seed": 1.0},
                   {"trials": 5, "seed": True}):
        with pytest.raises(core.InputError):
            functional.log_sobolev_check(grid, 0.3, **effort)
        with pytest.raises(core.InputError):
            functional.poincare_pq_lower(grid, 2, 2, **effort)
    assert functional.log_sobolev_check(grid, 0.3, trials=np.int64(5)).trials == 5
    # an infinite constant would report max_violation = -inf
    for constant in (INF, NAN, 0.0, -0.3):
        with pytest.raises(core.InputError):
            functional.log_sobolev_check(grid, constant, trials=5)
    # a search with no starts would return 0.0 without looking
    pair = (generators.interval_grid(3), generators.interval_grid(4))
    for effort in ({"starts": 0}, {"starts": -2}, {"starts": 2.5}, {"starts": True},
                   {"seed": -1}, {"seed": 1.0}):
        for call in (lambda: obs.obs_diam(sp, 0.2, mode="heuristic", **effort),
                     lambda: obs.variance(sp, mode="heuristic", **effort),
                     lambda: obs.p_deviation(sp, 2, mode="heuristic", **effort)):
            with pytest.raises(core.InputError):
                call()
        restarts = {"restarts": effort["starts"]} if "starts" in effort else effort
        with pytest.raises(core.InputError):
            boxmetric.box_upper(*pair, **restarts)
    for tol in (NAN, INF, 0.0, -0.1):
        with pytest.raises(core.InputError):
            boxmetric.box_converges([pair[0]], pair[1], tol)
    # a count that is not an integer is an input error, not a TypeError from
    # numpy or range, and a boolean is not a count
    alpha = atoms.sort_atoms([0.3])
    for bad in (2.5, NAN, True):
        for call in (lambda: generators.interval_grid(bad),
                     lambda: generators.gaussian_sample(bad, 2, seed=0),
                     lambda: generators.gaussian_sample(4, bad, seed=0),
                     lambda: generators.sphere_sample(bad, 1.0, 4, seed=0),
                     lambda: generators.sphere_sample(2, 1.0, bad, seed=0),
                     lambda: generators.atom_space(alpha, bad),
                     lambda: generators.dissipation_family(alpha, 1.0, bad),
                     lambda: generators.product_tower(generators.two_point(), 2, bad),
                     lambda: atoms.truncate(alpha, bad),
                     lambda: functional.unit_interval_grid(bad),
                     lambda: functional.gaussian_grid(bad)):
            with pytest.raises(core.InputError):
                call()
    assert generators.interval_grid(np.int64(3)).n == 3


@pytest.mark.parametrize("values,masses,kappa", [
    ([], [], 0.5),
    ([0.0, NAN], [0.5, 0.5], 0.2),
    ([0.0, INF], [0.5, 0.5], 0.2),
    ([0.0, 1.0], [0.5, NAN], 0.2),
    ([0.0, 1.0], [0.5, INF], 0.2),
    ([0.0, 1.0], [1.5, -0.5], 0.2),
    ([0.0, 1.0], [0.5, 0.5], NAN),
    ([0.0, 1.0], [0.5, 0.5], -INF),
    ([0.0, 1.0, 2.0], [0.3, 0.4, 0.3], -0.5),
    ([0.0, 1.0], [1.0], 0.2),
    ([[0.0, 1.0]], [[0.5, 0.5]], 0.2),
], ids=["empty", "nan_value", "inf_value", "nan_mass", "inf_mass", "negative_mass",
        "nan_kappa", "infinite_kappa", "negative_kappa", "length_mismatch", "two_dimensional"])
def test_partial_diameter_rejects_empty_and_non_finite(values, masses, kappa):
    with pytest.raises(core.InputError):
        obs.partial_diameter(values, masses, kappa)


# ---------------------------------------------------------------------------
# fuzzing through cli.main

# anything a JSON document may hold where a number or a list is expected
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.sampled_from([NAN, INF, -INF, [], [1], {"x": 1}]))
SIZES = st.one_of(st.integers(-2, 6), st.sampled_from([0.5, 3.0]), JUNK)
REALS = st.one_of(st.floats(-3.0, 3.0), JUNK)
KAPPAS = st.one_of(REALS, st.lists(st.floats(-1.0, 1.0), max_size=4))

SPACE_SPECS = st.one_of(
    st.fixed_dictionaries({"id": st.just("a"), "kind": st.just("two_point")},
                          optional={"params": st.fixed_dictionaries(
                              {}, optional={"d": REALS, "first_mass": REALS})}),
    st.fixed_dictionaries({"id": st.just("a"), "kind": st.just("interval_grid")},
                          optional={"params": st.one_of(JUNK, st.fixed_dictionaries(
                              {}, optional={"m": SIZES, "r": REALS, "seed": SIZES}))}),
    st.fixed_dictionaries({"id": st.just("g"), "kind": st.just("grid_interval"),
                           "params": st.fixed_dictionaries({"m": SIZES})}),
    st.fixed_dictionaries({"id": st.just("f"), "path": st.sampled_from(
        ["{space}", "{missing}", "{dir}", 5, None])}),
    st.fixed_dictionaries({}, optional={"id": JUNK, "kind": JUNK, "params": JUNK}),
)
INVARIANTS = st.fixed_dictionaries(
    {"space": st.sampled_from(["a", "g", "f", "zz", 1, None]),
     "kind": st.sampled_from(list(cli._INVARIANTS) + ["bogus", None])},
    optional={"kappa": KAPPAS, "p": REALS, "exact": st.booleans(), "constant": REALS,
              "trials": st.one_of(st.integers(-2, 12), JUNK), "sigma": REALS})
ASSERTIONS = st.fixed_dictionaries(
    {"row": st.sampled_from(["a:diam", "f:var", "zz", None, 3]),
     "op": st.sampled_from(list(cli._ASSERTIONS) + ["bogus", None])},
    optional={"target": REALS, "atol": REALS, "rtol": REALS, "threshold": REALS,
              "other": st.sampled_from(["a:diam", "zz", None])})
PLANS = st.one_of(JUNK, st.lists(SPACE_SPECS, max_size=2), st.fixed_dictionaries(
    {}, optional={"name": JUNK, "seed": SIZES,
                  "spaces": st.one_of(st.lists(SPACE_SPECS, max_size=3), JUNK),
                  "invariants": st.one_of(st.lists(INVARIANTS, max_size=3), JUNK),
                  "assertions": st.one_of(st.lists(ASSERTIONS, max_size=2), JUNK)}))


def fill(doc, d):
    """Replace the path placeholders of a drawn plan with real paths."""
    places = {"{space}": os.path.join(d, "space.json"),
              "{missing}": os.path.join(d, "missing.json"), "{dir}": d}
    if isinstance(doc, dict):
        return {k: fill(v, d) for k, v in doc.items()}
    if isinstance(doc, list):
        return [fill(v, d) for v in doc]
    return places.get(doc, doc) if isinstance(doc, str) else doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(PLANS)
def test_fuzz_plan_documents(doc):
    with workdir() as d:
        code, _, err = run_main(["run", write_json(d, "plan.json", fill(doc, d))])
    has_assertions = isinstance(doc, dict) and bool(doc.get("assertions"))
    assert code in ((0, 1, 2, 3) if has_assertions else (0, 2, 3))
    assert "Traceback" not in err


MATRICES = st.one_of(st.just([[0.0, 1.0], [1.0, 0.0]]),
                     st.lists(st.lists(REALS, max_size=3), max_size=3), JUNK)
VECTORS = st.one_of(st.just([0.5, 0.5]), st.lists(REALS, max_size=3), JUNK)
SPACE_DOCS = st.one_of(JUNK, st.fixed_dictionaries(
    {"points": st.one_of(st.just(["x", "y"]), st.lists(st.text(max_size=2), max_size=3), JUNK),
     "dist": MATRICES, "mass": VECTORS},
    optional={"coords": MATRICES,
              "mass_rational": st.one_of(st.lists(st.one_of(
                  st.text(max_size=4), st.integers(-2, 3), st.floats()), max_size=3), JUNK)}))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SPACE_DOCS, st.sampled_from(["diam", "var", "obsdiam", "pvar", "sep"]), st.booleans())
def test_fuzz_space_documents(doc, kind, exact):
    with workdir() as d:
        argv = ["invariant", write_json(d, "doc.json", doc), "--kind", kind]
        code, _, err = run_main(argv + ["--kappa", "0.25,0.25"] + (["--exact"] if exact else []))
    assert code in (0, 2, 3)
    assert "Traceback" not in err


NUMBERS = st.one_of(st.floats().map(repr), st.text(max_size=5),
                    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3).map(
                        lambda xs: ",".join(map(repr, xs))),
                    st.sampled_from(["nan", "inf", "-inf", "", ",", "0.3,0.3"]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["kappa", "p", "delta", "alpha", "seed"]),
       st.sampled_from(["obsdiam", "obsdiam_projection", "sep", "pvar"]), NUMBERS)
def test_fuzz_numeric_arguments(arg, kind, value):
    with workdir() as d:
        space = os.path.join(d, "space.json")
        if arg in ("kappa", "p"):
            argv = ["invariant", space, "--kind", kind, f"--{arg}={value}"]
        elif arg == "seed":
            argv = [f"--seed={value}", "invariant", space, "--kind", kind, "--kappa", "0.2,0.2"]
        else:
            options = {"alpha": "0.3", "delta": "1.0", arg: value}
            argv = ["atoms", "member", "--space", space,
                    f"--alpha={options['alpha']}", f"--delta={options['delta']}"]
        code, _, err = run_main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def grid_plan(kind, params, row):
    return {"spaces": [{"id": "g", "kind": kind, "params": params}],
            "invariants": [{"space": "g", **row}]}


# each once ended in a traceback (OverflowError or ConvergenceError); now it
# is an input error naming the parameter, or with None the grid's value
EXTREME_GRIDS = [
    (["spectral", "--space", "gaussian", "--sigma", "1e300"], "sigma"),
    (["spectral", "--space", "gaussian", "--sigma", "1e150", "--constant", "ls", "--trials", "5"],
     None),
    (["spectral", "--space", "gaussian", "--size", "64", "--sigma", "1e-150"], None),
    (grid_plan("grid_gaussian", {"sigma": 1e300}, {"kind": "c22"}), "sigma"),
    (grid_plan("grid_interval", {"length": 1e300}, {"kind": "ls_check", "constant": 1e300}),
     "constant"),
    (grid_plan("grid_interval", {"length": 1e-300}, {"kind": "c22"}), "length"),
]


@pytest.mark.parametrize("case,name", EXTREME_GRIDS,
                         ids=["sigma_1e300", "ls_sigma_1e150", "sigma_1e-150", "plan_sigma_1e300",
                              "plan_length_constant_1e300", "plan_length_1e-300"])
def test_grid_at_an_extreme_scale_is_input_error_or_value(case, name):
    with workdir() as d:
        argv = case if isinstance(case, list) else ["run", write_json(d, "plan.json", case)]
        code, out, err = run_main(argv)
    if name is None:
        assert code == 0 and err == ""
        values = json.loads(out)
        assert all(math.isfinite(values[k]) for k in ("value", "max_violation") if k in values)
    else:
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {name} is too large or too small to square")


SCALES = st.floats(-300.0, 300.0).map(lambda u: 10.0**u)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.sampled_from(["interval", "gaussian"]), SCALES, st.integers(64, 4096),
       st.sampled_from(["c22", "ls"]), st.integers(1, 5), SCALES, st.booleans())
def test_fuzz_grids_across_scales(space, scale, size, constant, trials, candidate, plan):
    """A 1-D grid at any scale from 1e-300 to 1e300, through ``spectral`` or
    a plan, gives its constant or an input error, never a traceback."""
    with workdir() as d:
        if plan:
            kind, key = {"interval": ("grid_interval", "length"),
                         "gaussian": ("grid_gaussian", "sigma")}[space]
            row = ({"kind": "c22"} if constant == "c22" else
                   {"kind": "ls_check", "constant": candidate, "trials": trials})
            doc = grid_plan(kind, {"m": size, key: scale}, row)
            code, _, err = run_main(["run", write_json(d, "plan.json", doc)])
        else:
            code, _, err = run_main(["spectral", "--space", space, "--sigma", repr(scale),
                                     "--size", str(size), "--constant", constant,
                                     "--trials", str(trials)])
    assert code in (0, 2), err
    assert "Traceback" not in err
