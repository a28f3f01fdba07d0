"""Command-line surface: subcommands, exit codes, output formats, plan runs
and CSV determinism."""

import csv
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmslab import boxmetric, cli, core, functional, generators as gen, observables


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mmslab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def space_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    core.save_space(gen.two_point(1.0), a)
    core.save_space(gen.interval_grid(3), b)
    return str(a), str(b)


def _save(folder, *spaces):
    """Write spaces to numbered files in folder and return their paths."""
    paths = [str(folder / f"s{k}.json") for k in range(len(spaces))]
    for sp, path in zip(spaces, paths):
        core.save_space(sp, path)
    return paths


# pairs within boxmetric.EXACT_MAX_CELLS, where compare's box is exact
SMALL_PAIRS = {
    "two_point_grid4": lambda: (gen.two_point(1.0, 0.3), gen.interval_grid(4)),
    "grid3_grid4": lambda: (gen.interval_grid(3), gen.interval_grid(4)),
    "one_point_grid3": lambda: (gen.gaussian_sample(1, 1, seed=3), gen.interval_grid(3)),
    "two_point_gauss5": lambda: (gen.two_point(1.0, 0.3), gen.gaussian_sample(5, 2, seed=1)),
}


class TestSubcommands:
    def test_gen_and_load(self, tmp_path):
        # a grid of length 1e4 has triangle excesses from rounding alone
        for params, n in (('{"m": 4}', 4), ('{"m": 7, "r": 1e4}', 7)):
            out = tmp_path / "g.json"
            code, stdout, _ = run_cli("gen", "interval_grid", "--params", params, "-o", str(out))
            assert code == 0
            sp = core.load_space(out)
            assert sp.n == n

    def test_invariant_var_exact(self, space_files):
        a, _ = space_files
        code, stdout, _ = run_cli("invariant", a, "--kind", "var", "--exact")
        assert code == 0
        data = json.loads(stdout)
        assert data["value"] == pytest.approx(0.25)
        assert data["certificate"] == "exact"

    def test_invariant_sep_prints_inf(self, space_files):
        a, _ = space_files
        code, stdout, _ = run_cli("invariant", a, "--kind", "sep", "--kappa", "0.4")
        assert code == 0
        assert json.loads(stdout)["value"] == "inf"

    def test_box_exact(self, space_files):
        a, b = space_files
        code, stdout, _ = run_cli("box", a, b, "--exact")
        assert code == 0
        data = json.loads(stdout)
        assert data["certificate"] == "exact"
        assert data["lower"] <= data["upper"]

    def test_dominates(self, space_files, tmp_path):
        a, b = space_files
        code, stdout, _ = run_cli("dominates", b, a)
        assert code == 0
        assert json.loads(stdout) == {"dominates": False, "refused": True, "nodes_explored": 3}
        (c,) = _save(tmp_path, gen.interval_grid(4, 3.0))
        code, stdout, _ = run_cli("dominates", c, a)
        assert code == 0
        assert json.loads(stdout) == {"dominates": True, "map": [0, 0, 1, 1], "nodes_explored": 5}

    def test_atoms_product_and_member(self, space_files, tmp_path):
        code, stdout, _ = run_cli("atoms", "product", "--alpha", "0.5,0.25", "--beta", "0.5,0.5")
        assert code == 0
        assert json.loads(stdout)["entries"] == [0.25, 0.25, 0.125, 0.125]
        sp_path = tmp_path / "m.json"
        core.save_space(gen.atom_space(cli.atoms_mod.sort_atoms([0.5, 0.3]), 3), sp_path)
        code, stdout, _ = run_cli("atoms", "member", "--alpha", "0.5,0.3", "--space", str(sp_path))
        assert code == 0 and json.loads(stdout) == {"member": True, "assignment": [3, 4]}
        code, stdout, _ = run_cli("atoms", "member", "--alpha", "0.6,0.3", "--space", str(sp_path))
        assert code == 0 and json.loads(stdout) == {"member": False, "refused": True}

    @pytest.mark.parametrize("alpha,beta,want", [
        ("0.25,0.25,0.25,0.25", "0.5,0.5", {"contraction": True, "groups": [[0, 1], [2, 3]]}),
        ("0.25,0.25,0.25,0.25", "0.6,0.4", {"contraction": False, "refused": True}),
        # two empty vectors: the empty grouping is found, not refused
        ("0", "0", {"contraction": True, "groups": []}),
    ], ids=["found", "refused", "empty"])
    def test_atoms_contract(self, alpha, beta, want):
        code, stdout, _ = run_cli("atoms", "contract", "--alpha", alpha, "--beta", beta)
        assert code == 0 and json.loads(stdout) == want

    @pytest.mark.parametrize("argv,message", [
        (["product"], "atoms product requires --beta"),
        (["contract"], "atoms contract requires --beta"),
        (["member"], "atoms member requires --space"),
        (["dissipate"], "atoms dissipate requires --spaces and --delta"),
        (["dissipate", "--delta", "1"], "atoms dissipate requires --spaces and --delta"),
        (["dissipate", "--spaces", "s.json"], "atoms dissipate requires --spaces and --delta"),
    ], ids=["product", "contract", "member", "dissipate", "dissipate_no_spaces",
            "dissipate_no_delta"])
    def test_atoms_missing_flag(self, argv, message):
        code, stdout, err = run_cli("atoms", *argv, "--alpha", "0.5")
        assert (code, stdout, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("family,alpha,delta", [
        ("dissipation", "0.4,0.2", "2"), ("atom", "0.3,0.2", "0.6"), ("atom", "0.3,0.2", "0.15"),
    ], ids=["accepted", "refused_large_bin", "refused_slack"])
    def test_atoms_dissipate_json_unchanged(self, tmp_path, family, alpha, delta):
        a = cli.atoms_mod.sort_atoms([float(t) for t in alpha.split(",")])
        if family == "dissipation":
            spaces = [gen.dissipation_family(a, 2.0, n) for n in range(1, 6)]
        else:
            spaces = [gen.atom_space(a, m) for m in (2, 3, 4, 5, 7)]
        paths = [str(tmp_path / f"s{k}.json") for k in range(len(spaces))]
        for sp, path in zip(spaces, paths):
            core.save_space(sp, path)
        code, stdout, _ = run_cli("atoms", "dissipate", "--alpha", alpha, "--delta", delta,
                                  "--spaces", *paths)
        assert code == 0
        assert json.loads(stdout) == DISSIPATE_RECORDED[f"{family}:{delta}"]

    def test_spectral(self):
        code, stdout, _ = run_cli("spectral", "--space", "interval", "--size", "128")
        assert code == 0
        assert json.loads(stdout)["value"] == pytest.approx(1 / math.pi, abs=1e-3)

    @pytest.mark.parametrize("size", [functional.GRID_MAX_NODES, 10**9], ids=["limit+1", "1e9"])
    @pytest.mark.parametrize("extra", [["--space", "interval"], ["--space", "gaussian"],
                                       ["--space", "interval", "--constant", "ls"],
                                       ["--space", "interval", "--convergence-table"]],
                             ids=["interval", "gaussian", "ls", "convergence_table"])
    def test_spectral_node_limit_exit(self, monkeypatch, capsys, extra, size):
        # a size + 1 node grid is refused before any grid is built, the
        # table's smaller ones included
        def no_arrays(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(np, "linspace", no_arrays)
        assert cli.main(["spectral", "--size", str(size), *extra]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"size limit: grids are limited to {functional.GRID_MAX_NODES} nodes")

    def test_spectral_convergence_table(self):
        code, stdout, _ = run_cli(
            "spectral", "--space", "interval", "--size", "256", "--convergence-table"
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "size,c22"
        assert len(lines) == 4  # 64, 128, 256

    @pytest.mark.parametrize("size", ["32", "63"])
    def test_convergence_table_below_64_is_input_error(self, capsys, size):
        single = cli.main(["spectral", "--space", "interval", "--size", size])
        single_err = capsys.readouterr().err
        table = cli.main(["spectral", "--space", "interval", "--size", size,
                          "--convergence-table"])
        out, err = capsys.readouterr()
        assert single == table == 2 and out == ""
        assert err == single_err
        assert err.startswith("input error:") and "at least 64 subintervals" in err

    def test_convergence_table_is_c22_only(self):
        code, stdout, stderr = run_cli(
            "spectral", "--space", "interval", "--size", "128", "--constant", "ls",
            "--convergence-table",
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith("input error:") and "c22 only" in stderr

    @pytest.mark.parametrize("argv", [
        ["spectral", "--space", "interval", "--size", "128", "--convergence-table"],
        ["--format", "csv", "spectral", "--space", "interval", "--size", "128"],
    ], ids=["convergence_table", "format_csv"])
    def test_csv_output_ends_lines_with_newline_only(self, capsys, argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "\r" not in out
        assert out.endswith("\n") and len(out.splitlines()) >= 2

    def test_compare(self, space_files):
        a, b = space_files
        code, stdout, _ = run_cli("compare", a, b)
        assert code == 0
        data = json.loads(stdout)
        assert set(data["invariants"]) == {"A", "B"}
        for row in data["invariants"].values():
            assert row["certificate"] == "exact"
            assert set(row["certificates"].values()) == {"exact"}

    def test_compare_variance_exact_up_to_vertex_limit(self, tmp_path):
        """Between obs_diam's exact limit (6) and the vertex limit (9), variance
        is exact and obsdiam is an estimate, so the row reads estimate."""
        spaces = [gen.gaussian_sample(8, 2, 1.0, seed=s) for s in (0, 1)]
        paths = [str(tmp_path / f"g{s}.json") for s in (0, 1)]
        for sp, path in zip(spaces, paths):
            core.save_space(sp, path)
        code, stdout, _ = run_cli("compare", *paths)
        assert code == 0
        table = json.loads(stdout)["invariants"]
        for name, sp in zip("AB", spaces):
            row = table[name]
            assert row["variance"] == observables.variance(sp, mode="exact")
            assert row["certificates"] == {"diam": "exact", "variance": "exact",
                                           "obsdiam_0.1": "estimate", "sep_quarters": "exact"}
            assert row["certificate"] == "estimate"
        # the heuristic read a few ulp above these
        assert [table[k]["variance"] for k in "AB"] == [1.304963211742536, 0.4375119748266303]

    @pytest.mark.parametrize("pair", list(SMALL_PAIRS))
    def test_compare_box_is_box_exact_within_the_limit(self, tmp_path, capsys, pair):
        """On a pair of at most boxmetric.EXACT_MAX_CELLS cells compare prints
        box --exact's bounds; on two_point(1.0, 0.3) and interval_grid(4) its
        lower once read the Levy bound 0.165 beside the exact 1/3.  box prints
        the same JSON as box --exact there."""
        paths = _save(tmp_path, *SMALL_PAIRS[pair]())
        assert cli.main(["compare", *paths]) == 0
        compare = json.loads(capsys.readouterr().out)
        printed = []
        for flags in (["--exact"], []):
            assert cli.main(["box", *paths, *flags]) == 0
            printed.append(capsys.readouterr().out)
        box = json.loads(printed[0])
        assert printed[1] == printed[0] and box["certificate"] == "exact"
        assert {k: compare[k] for k in box} == box and compare["box"] == box["upper"]
        if pair == "two_point_grid4":
            assert box["lower"] == box["upper"] == pytest.approx(1 / 3)

    def test_csv_cells_are_the_json_values(self, space_files, tmp_path, capsys):
        """Under --format csv a string value is its cell's text, and any other
        (nested rows, booleans, numbers) is its cell's JSON text."""
        a, b = space_files
        grid, *family = _save(tmp_path, gen.interval_grid(4, 3.0), *(
            gen.dissipation_family(cli.atoms_mod.sort_atoms([0.4, 0.2]), 2.0, n)
            for n in range(1, 6)))
        for argv in (["compare", a, b], ["dominates", grid, a], ["dominates", b, a],
                     ["atoms", "dissipate", "--alpha", "0.4,0.2", "--delta", "2",
                      "--spaces", *family]):
            assert cli.main(argv) == 0
            want = json.loads(capsys.readouterr().out)
            assert cli.main(["--format", "csv", *argv]) == 0
            rows = list(csv.reader(capsys.readouterr().out.splitlines()))
            assert [k for k, _ in rows] == list(want)
            for k, cell in rows:
                assert cell == want[k] if isinstance(want[k], str) else json.loads(cell) == want[k]

    def test_compare_beyond_the_exact_limits(self, tmp_path, capsys):
        """Each column is the library's exact value where its exact mode
        returns and the seeded heuristic where that raises SizeLimitError,
        with the matching tag; separation above 20 points is skipped.  The
        pairs have 42 and 210 cells, past boxmetric.EXACT_MAX_CELLS, so the
        box columns are box_upper's."""
        pairs = [(gen.interval_grid(6), gen.gaussian_sample(7, 2, seed=2)),
                 (gen.gaussian_sample(10, 2, seed=5), gen.interval_grid(21))]
        tags = []
        for sx, sy in pairs:
            assert cli.main(["--seed", "3", "compare", *_save(tmp_path, sx, sy)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["lower"] == boxmetric.box_lower(sx, sy)
            assert out["upper"] == boxmetric.box_upper(sx, sy, seed=3).upper
            assert out["certificate"] == "bound" and "box" not in out
            for name, sp in zip("AB", (sx, sy)):
                want = {"diam": (sp.diam(), "exact")}
                for column, f in (("variance", observables.variance),
                                  ("obsdiam_0.1", lambda sp, **kw: observables.obs_diam(
                                      sp, 0.1, **kw))):
                    try:
                        want[column] = (f(sp, mode="exact"), "exact")
                    except core.SizeLimitError:
                        want[column] = (f(sp, mode="heuristic", seed=3), "estimate")
                try:
                    want["sep_quarters"] = (observables.separation(sp, (0.25, 0.25)), "exact")
                except core.SizeLimitError:
                    want["sep_quarters"] = ("skipped (size)", None)
                row = out["invariants"][name]
                assert {k: row[k] for k in want} == {k: v for k, (v, _) in want.items()}
                assert row["certificates"] == {k: t for k, (_, t) in want.items() if t}
                assert row["certificate"] == (
                    "exact" if all(t == "exact" for _, t in want.values()) else "estimate")
                tags.append((sp.n, row["certificate"], *row["certificates"].values()))
        assert tags == [(6, "exact", "exact", "exact", "exact", "exact"),
                        (7, "estimate", "exact", "exact", "estimate", "exact"),
                        (10, "estimate", "exact", "estimate", "estimate", "exact"),
                        (21, "estimate", "exact", "estimate", "estimate")]

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5])
    def test_gaussian_plan_targets_are_the_formula(self, kappa):
        assert cli.GAUSSIAN_OBS_DIAM[kappa] == observables.gaussian_obs_diam(1.0, kappa)
        plan = cli.bundled_plan("gaussian_obsdiam")
        targets = {a["row"]: a["target"] for a in plan.assertions}
        for d in (1, 5):
            assert targets[f"gauss_dim{d}:obsdiam_projection:kappa={kappa!r}"] == (
                observables.gaussian_obs_diam(1.0, kappa))


# recorded before the dissipation detector dropped its unread outputs;
# sep_checked ([member index, kappa length, slack] rows) was added afterwards
DISSIPATE_RECORDED = {
    "dissipation:2": {
        "accepted": True, "delta": 2.0, "atom_error": [0.0] * 5,
        "max_small_bin": [0.19999999999999996, 0.09999999999999998, 0.04999999999999999,
                          0.024999999999999994, 0.012499999999999997],
        "bin_counts": [2, 4, 8, 16, 32], "reason": "",
        "sep_checked": [[2, 0, 0.01], [3, 0, 0.01], [2, 1, 0.01], [3, 1, 0.01], [2, 2, 0.01],
                        [3, 2, 0.01]]},
    "atom:0.6": {
        "accepted": False, "delta": 0.6, "atom_error": [0.04999999999999999] + [0.0] * 4,
        "max_small_bin": [0.25, 0.5, 0.5, 0.5, 0.4999999999999999],
        "bin_counts": [2, 1, 1, 1, 1],
        "reason": "largest small bin 0.5000 above 0.05; separation never reaches delta at "
                  "index 4 (kappa length 2)",
        "sep_checked": [[2, 0, 0.01], [3, 0, 0.01], [4, 0, 0.01], [2, 1, 0.01], [3, 1, 0.01],
                        [4, 1, 0.01], [2, 2, "inf"], [3, 2, "inf"], [4, 2, "inf"]]},
    "atom:0.15": {
        "accepted": False, "delta": 0.15, "atom_error": [0.04999999999999999] + [0.0] * 4,
        "max_small_bin": [0.25, 0.16666666666666666, 0.125, 0.1, 0.07142857142857142],
        "bin_counts": [2, 3, 4, 5, 7],
        "reason": "largest small bin 0.0714 above 0.05; separation slack grows along the "
                  "sequence (kappa length 2)",
        "sep_checked": [[2, 0, 0.01], [3, 0, 0.01], [4, 0, 0.01], [2, 1, 0.01], [3, 1, 0.01],
                        [4, 1, 0.01], [2, 2, 0.01], [3, 2, 0.05], [4, 2, 0.05]]},
}


class TestExitCodes:
    def test_missing_file_is_input_error(self):
        code, _, err = run_cli("invariant", "/nonexistent.json", "--kind", "var")
        assert code == 2

    def test_size_limit_exit(self, tmp_path):
        big = gen.gaussian_sample(10, 2, 1.0, seed=0)
        path = tmp_path / "big.json"
        core.save_space(big, path)
        code, _, err = run_cli("invariant", str(path), "--kind", "var", "--exact")
        assert code == 3
        # 100 cells, past boxmetric.EXACT_MAX_CELLS
        code, out, _ = run_cli("box", str(path), str(path), "--exact")
        assert code == 3 and out == ""

    def test_vertex_limit_above_obsdiam_limit(self, tmp_path):
        # nine points: within the exact variance's limit, beyond obs_diam's
        path = tmp_path / "nine.json"
        core.save_space(gen.gaussian_sample(9, 2, 1.0, seed=0), path)
        code, out, _ = run_cli("invariant", str(path), "--kind", "var", "--exact")
        assert code == 0 and json.loads(out)["certificate"] == "exact"
        code, _, _ = run_cli("invariant", str(path), "--kind", "obsdiam", "--exact")
        assert code == 3

    def test_assertion_failure_exit(self, tmp_path):
        plan = {
            "name": "failing",
            "seed": 0,
            "spaces": [{"id": "tp", "kind": "two_point", "params": {"d": 1.0}}],
            "invariants": [{"space": "tp", "kind": "diam"}],
            "assertions": [{"row": "tp:diam", "op": "close", "target": 5.0, "atol": 0.1}],
        }
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(plan))
        code, stdout, err = run_cli("run", str(p))
        assert code == 1
        assert "ASSERTION FAILED" in err


class TestPlans:
    def test_plan_seed_used_unless_overridden(self, tmp_path):
        plan = {
            "name": "seeded",
            "seed": 7,
            "spaces": [{"id": "tp", "kind": "two_point", "params": {"d": 1.0}}],
            "invariants": [{"space": "tp", "kind": "diam"}],
        }
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(plan))
        report = tmp_path / "report.json"
        assert run_cli("run", str(p), "--json-out", str(report))[0] == 0
        assert json.loads(report.read_text())["seed"] == 7
        assert run_cli("--seed", "3", "run", str(p), "--json-out", str(report))[0] == 0
        assert json.loads(report.read_text())["seed"] == 3

    def test_empty_plan(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"name": "empty"}))
        code, stdout, _ = run_cli("run", str(p))
        assert code == 0
        assert stdout.strip() == "space,invariant,row_key,value,certificate"

    def test_csv_deterministic(self, tmp_path):
        plan = cli.bundled_plan("cube_vs_gaussian")
        r1 = cli.run_experiment(plan)
        r2 = cli.run_experiment(plan)
        assert r1["csv"] == r2["csv"]

    def test_cube_vs_gaussian_assertions_pass(self):
        report = cli.run_experiment(cli.bundled_plan("cube_vs_gaussian"))
        assert report["ok"], report["failures"]
        vals = {r["row_key"]: r["value"] for r in report["rows"]}
        assert vals["interval:gauss_domination_scale"] == pytest.approx(
            1 / math.sqrt(2 * math.pi), abs=1e-4
        )
        assert vals["interval:c22"] == pytest.approx(1 / math.pi, abs=1e-3)
        assert vals["gaussian:c22"] == pytest.approx(1.0, abs=1e-3)

    def test_plan_writes_outputs(self, tmp_path):
        plan = cli.bundled_plan("cube_vs_gaussian")
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        cli.run_experiment(plan, csv_path=str(csv_path), json_path=str(json_path))
        assert csv_path.read_text().startswith("space,invariant")
        assert json.loads(json_path.read_text())["ok"] is True


# One plan over every space kind, invariant kind and assertion op, finite and
# grid spaces, one kappa and a kappa list, exact and heuristic modes.  The
# recorded CSV pins every value and certificate; failures pin every op both ways.
PINNED_PLAN = {
    "name": "pinned",
    "seed": 5,
    "spaces": [
        {"id": "tp", "kind": "two_point", "params": {"d": 2.0, "first_mass": 0.25}},
        {"id": "ig", "kind": "interval_grid", "params": {"m": 5, "r": 3.0}},
        {"id": "gs", "kind": "gaussian_sample", "params": {"n_points": 12, "dim": 2}},
        {"id": "sph", "kind": "sphere_sample", "params": {"n_dim": 2, "n_points": 8, "seed": 1}},
        {"id": "at", "kind": "atom_space", "params": {"alpha": [0.25, 0.5], "m_diffuse": 3}},
        {"id": "dis", "kind": "dissipation_family",
         "params": {"alpha": [0.4], "delta": 2.0, "n": 4}},
        {"id": "gi", "kind": "grid_interval", "params": {"m": 64}},
        {"id": "gg", "kind": "grid_gaussian", "params": {"m": 64, "sigma": 1.5}},
    ],
    "invariants": [
        {"space": "ig", "kind": "diam"},
        {"space": "sph", "kind": "diam"},
        {"space": "ig", "kind": "var", "exact": True},
        {"space": "gs", "kind": "var"},
        {"space": "dis", "kind": "var"},
        {"space": "ig", "kind": "pvar", "p": 1, "exact": True},
        {"space": "gs", "kind": "pvar", "p": 3.0},
        {"space": "at", "kind": "obsdiam", "kappa": 0.2, "exact": True},
        {"space": "gs", "kind": "obsdiam", "kappa": [0.1, 0.3]},
        {"space": "sph", "kind": "obsdiam"},
        {"space": "gs", "kind": "obsdiam_projection", "kappa": 0.25},
        {"space": "tp", "kind": "sep", "kappa": [0.2, 0.2]},
        {"space": "tp", "kind": "sep", "kappa": 0.4},
        {"space": "at", "kind": "sep", "kappa": [0.3, 0.3, 0.05]},
        {"space": "gi", "kind": "c22"},
        {"space": "gg", "kind": "c22"},
        {"space": "gi", "kind": "ls_check", "constant": 0.32, "trials": 20},
        {"space": "gg", "kind": "ls_check", "constant": 1},
        {"space": "gi", "kind": "gauss_domination_scale"},
        {"space": "gi", "kind": "gauss_obsdiam_formula", "kappa": 0.1, "sigma": 2.0},
        {"space": "tp", "kind": "gauss_obsdiam_formula", "kappa": 0.5},
    ],
    "assertions": [
        {"row": "ig:diam", "op": "close", "target": 3.0, "atol": 1e-12},
        {"row": "ig:diam", "op": "close", "target": 2.9, "rtol": 0.01},
        {"row": "gi:c22", "op": "gap_gt", "other": "gg:c22", "threshold": 0.5},
        {"row": "gi:c22", "op": "gap_gt", "other": "gg:c22", "threshold": 1.5},
        {"row": "ig:var:exact=True", "op": "le", "target": 1.2},
        {"row": "ig:var:exact=True", "op": "le", "target": 1.1, "atol": 0.01},
        {"row": "tp:sep:kappa=0.4", "op": "ge", "target": 1e9},
        {"row": "gs:var", "op": "ge", "target": 5.0, "atol": 0.5},
    ],
}
PINNED_CSV = (
    'space,invariant,row_key,value,certificate\n'
    'ig,diam,ig:diam,3.0,exact\n'
    'sph,diam,sph:diam,1.9364646235583698,exact\n'
    'ig,var,ig:var:exact=True,1.125,exact\n'
    'gs,var,gs:var,1.2053443921891422,estimate\n'
    'dis,var,dis:var,0.9993750000000028,estimate\n'
    'ig,pvar,"ig:pvar:exact=True,p=1",0.9,exact\n'
    'gs,pvar,gs:pvar:p=3.0,1.2179551239826756,estimate\n'
    'at,obsdiam,"at:obsdiam:exact=True,kappa=0.2",2.0,exact\n'
    'gs,obsdiam,"gs:obsdiam:kappa=[0.1, 0.3]",3.0892238754527925,estimate\n'
    'sph,obsdiam,sph:obsdiam,1.9364646235583698,estimate\n'
    'gs,obsdiam_projection,gs:obsdiam_projection:kappa=0.25,1.8777374659814345,estimate\n'
    'tp,sep,"tp:sep:kappa=[0.2, 0.2]",2.0,exact\n'
    'tp,sep,tp:sep:kappa=0.4,inf,exact\n'
    'at,sep,"at:sep:kappa=[0.3, 0.3, 0.05]",1.0,exact\n'
    'gi,c22,gi:c22,0.3183418463620757,estimate\n'
    'gg,c22,gg:c22,1.5002334848057206,estimate\n'
    'gi,ls_check,"gi:ls_check:constant=0.32,trials=20",-8.871016161825232e-08,bound\n'
    'gg,ls_check,gg:ls_check:constant=1,0.05494152473344781,bound\n'
    'gi,gauss_domination_scale,gi:gauss_domination_scale,0.3989422804014327,estimate\n'
    'gi,gauss_obsdiam_formula,"gi:gauss_obsdiam_formula:kappa=0.1,sigma=2.0",6.579414507805892,exact\n'
    'tp,gauss_obsdiam_formula,tp:gauss_obsdiam_formula:kappa=0.5,1.3489795003921636,exact\n'
)


def test_pinned_plan_csv():
    assert {s["kind"] for s in PINNED_PLAN["spaces"]} == set(cli._SPACE_KINDS)
    assert {r["kind"] for r in PINNED_PLAN["invariants"]} == set(cli._INVARIANTS)
    assert {a["op"] for a in PINNED_PLAN["assertions"]} == set(cli._ASSERTIONS)
    report = cli.run_experiment(cli.ExperimentPlan.from_dict(PINNED_PLAN))
    assert report["csv"] == PINNED_CSV
    for row in list(csv.reader(report["csv"].splitlines()))[1:]:
        float(row[3])
    failed = [PINNED_PLAN["assertions"].index(f["assertion"]) for f in report["failures"]]
    assert failed == [1, 3, 5, 7]


def test_readme_names_every_space_and_invariant_kind():
    with open(Path(__file__).parent.parent / "README.md", encoding="utf-8") as fh:
        readme = fh.read()
    missing = [k for k in (*cli._SPACE_KINDS, *cli._INVARIANTS) if f"`{k}`" not in readme]
    assert not missing


def test_readme_limit_table_names_live_constants():
    # each row's constants (`module.NAME`, or a bare `NAME` on the module
    # before it) resolve, so a deleted limit cannot leave a stale row
    with open(Path(__file__).parent.parent / "README.md", encoding="utf-8") as fh:
        table = fh.read().split("| exact search | limit | constant |")[1].split("\n\n")[0]
    cells = [line.rsplit("|", 2)[1] for line in table.splitlines()
             if line.strip().startswith("| ")]
    assert len(cells) >= 8
    for cell in cells:
        names = re.findall(r"`(?:(\w+)\.)?([A-Z_]+)`", cell)
        assert names and names[0][0], cell
        module = None
        for mod, name in names:
            module = importlib.import_module(f"mmslab.{mod}") if mod else module
            assert isinstance(getattr(module, name, None), int), (cell, name)


SPACE_DOC = {"points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]], "mass": [0.5, 0.5]}
PLAN_SPACES = [{"id": "tp", "kind": "two_point", "params": {"d": 1.0}}]
PLAN_ROWS = [{"space": "tp", "kind": "diam"}]
INVARIANT = ["invariant", "{input}", "--kind", "diam"]
MALFORMED_INPUTS = [
    ("ragged_dist", {**SPACE_DOC, "dist": [[0.0, 1.0], [1.0]]}, INVARIANT),
    ("non_numeric_coords", {**SPACE_DOC, "coords": [["x"], [1.0]]}, INVARIANT),
    ("params_not_an_object", None, ["gen", "two_point", "--params", "[1]", "-o", "{output}"]),
    ("params_not_json", None, ["gen", "two_point", "--params", "d=1", "-o", "{output}"]),
    ("unknown_space_id",
     {"spaces": PLAN_SPACES, "invariants": [{"space": "other", "kind": "diam"}]},
     ["run", "{input}"]),
    ("unknown_assertion_row",
     {"spaces": PLAN_SPACES, "invariants": PLAN_ROWS,
      "assertions": [{"row": "tp:var", "op": "le", "target": 1.0}]},
     ["run", "{input}"]),
]


@pytest.mark.parametrize("doc,argv", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_is_input_error(tmp_path, doc, argv):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    argv = [a.format(input=path, output=tmp_path / "out.json") for a in argv]
    code, _, err = run_cli(*argv)
    assert code == 2
    assert "input error:" in err
    assert "Traceback" not in err
