"""Start-up: a command loads only the modules it runs.

``import mmslab`` resolves the public names on first access, and the command
line reaches each library module, and through it numpy, by a handle that
imports it on first use.  Each scipy function mmslab uses is reached through a
shim in ``mmslab._scipy`` that imports it on the first call.  These tests pin,
each in a fresh process, that ``--help`` and a usage error load no numpy and no
library module, that ``box``, ``dominates``, ``atoms``, ``spectral``, ``gen``
and the Gaussian plan load only the modules they use (``gen`` refuses a grid
kind without loading ``functional``), that the Gaussian plan loads no scipy,
and that every public name still imports from ``mmslab``.  They also pin that
no module imports scipy at module level, that ``mmslab --help`` loads no scipy
module while an exact observable diameter loads ``scipy.optimize``, that
validating a space given by distances and coords and reading the distances of a
sampled space load none, and that the shims return what scipy returns.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
import scipy.special

import mmslab
from mmslab import atoms, core, functional, generators, observables as obs

from conftest import random_embedded_space

SOURCES = sorted(Path(mmslab.__file__).parent.glob("*.py"))


def _import_time_statements(body):
    """Statements run when the module is imported: not function bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(node, field, []))


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "scipy"
    return False


def test_no_module_imports_scipy_at_import_time():
    assert len(SOURCES) >= 9
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SOURCES
             for node in _import_time_statements(ast.parse(path.read_text()).body)
             if _imports_scipy(node)]
    assert not found, ("module-level scipy imports (use a shim in mmslab/_scipy.py): "
                       + "; ".join(found))


FRESH_PROCESS = """
import contextlib, io, runpy, sys
import mmslab
import mmslab.cli
sys.argv = ["mmslab", "--help"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("mmslab.cli", run_name="__main__", alter_sys=True)
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
from mmslab import generators, observables
observables.obs_diam(generators.interval_grid(4), 0.1, mode="exact")
print("scipy.optimize" in sys.modules)
"""


def test_fresh_process_loads_scipy_only_when_it_needs_it():
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert after == "True"


COMMAND_PROCESS = """
import contextlib, io, json, sys
from mmslab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(k for k in sys.modules if k.split(".")[0] in
                               ("numpy", "scipy", "mmslab"))]))
"""


def _run_command(*argv):
    """Exit code and the numpy, scipy and mmslab modules loaded by one command."""
    proc = subprocess.run([sys.executable, "-c", COMMAND_PROCESS, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["box", "--help"], 0), (["frobnicate"], 2), (["box", "only_one.json"], 2),
], ids=["help", "command_help", "unknown_command", "missing_argument"])
def test_help_and_usage_errors_load_no_numpy(argv, code):
    assert _run_command(*argv) == [code, ["mmslab", "mmslab.cli"]]


@pytest.fixture(scope="module")
def space_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("spaces")
    a, b = folder / "a.json", folder / "b.json"
    core.save_space(generators.two_point(1.0), a)
    core.save_space(generators.interval_grid(3), b)
    return str(a), str(b)


@pytest.mark.parametrize("argv,modules", [
    (["box", "A", "B", "--exact"], ["boxmetric", "core"]),
    (["dominates", "B", "A"], ["core", "order"]),
    (["atoms", "product", "--alpha", "0.5,0.25", "--beta", "0.5,0.5"],
     ["_scipy", "atoms", "core", "observables"]),
    (["spectral", "--space", "interval", "--size", "128"], ["_scipy", "core", "functional"]),
], ids=["box_exact", "dominates", "atoms", "spectral"])
def test_command_loads_only_its_modules(space_files, argv, modules):
    files = dict(zip("AB", space_files))
    code, loaded = _run_command(*(files.get(arg, arg) for arg in argv))
    assert code == 0
    assert [k for k in loaded if k.startswith("mmslab.")] == sorted(
        ["mmslab.cli"] + [f"mmslab.{m}" for m in modules])
    assert ("scipy" in loaded) == (argv[0] == "spectral")


@pytest.mark.parametrize("argv,code,modules", [
    (["gen", "two_point", "-o", "OUT"], 0, ["core", "generators"]),
    (["gen", "grid_interval", "-o", "OUT"], 2, ["core"]),
    (["run", "gaussian_obsdiam"], 0, ["_scipy", "core", "generators", "observables"]),
], ids=["gen_two_point", "gen_grid_refused", "gaussian_plan"])
def test_gen_and_plan_load_only_their_modules(tmp_path, argv, code, modules):
    """Generators reach atoms and order only inside the functions that use
    them, and gen refuses a grid kind before building it."""
    out = str(tmp_path / "space.json")
    got, loaded = _run_command(*(out if arg == "OUT" else arg for arg in argv))
    assert got == code
    assert [k for k in loaded if k.startswith("mmslab.")] == sorted(
        ["mmslab.cli"] + [f"mmslab.{m}" for m in modules])
    assert not [k for k in loaded if k.split(".")[0] == "scipy"]


def test_gaussian_plan_loads_no_scipy():
    code, loaded = _run_command("run", "gaussian_obsdiam")
    assert code == 0
    assert "mmslab.observables" in loaded
    assert not [k for k in loaded if k.split(".")[0] == "scipy"]


# the names `from mmslab import ...` gave when the package imported every module
EXPORTS = (
    "Coupling FinitePmSpace InputError InvalidSpaceError LipschitzFunction SizeLimitError "
    "Violation as_lipschitz check_valid entropy from_json_dict ky_fan load_space "
    "mcshane_extend mm_isomorphic product prokhorov save_space scale space to_json_dict "
    "total_variation validate gaussian_obs_diam obs_diam obs_diam_projection_estimate "
    "p_deviation p_variance partial_diameter separation separation_witness variance "
    "BoxEstimate box_converges box_exact_small box_lower box_upper DominationWitness Refusal "
    "antisymmetry_check dominates generator_idempotent AtomAssignment AtomVector atom_product "
    "detect_dissipation is_contraction member pyramid_distance_upper sort_atoms truncate "
    "GridSpace1D gaussian_domination_scale gaussian_grid log_sobolev_check poincare_c22 "
    "poincare_pq_lower unit_interval_grid"
).split()

EXPORT_PROCESS = """
import sys
import mmslab
print("numpy" in sys.modules)
names = sys.argv[1:]
exec(f"from mmslab import {', '.join(names)}")
print(sorted(mmslab.__all__) == sorted(names), sorted(set(names) - set(dir(mmslab))))
"""


def test_every_export_imports_from_the_package():
    proc = subprocess.run([sys.executable, "-c", EXPORT_PROCESS, *EXPORTS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True []"]
    assert mmslab.obs_diam is obs.obs_diam and mmslab.observables is obs
    with pytest.raises(AttributeError, match="no_such_name"):
        mmslab.no_such_name


VALIDATE_PROCESS = """
import sys
import numpy as np
from mmslab import core, generators
pts = np.random.default_rng(0).uniform(size=(60, 3))
dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
certified, seen = core._certified, []
core._certified = lambda *a: seen.append(certified(*a)) or seen[-1]
sp = core.space(list(range(60)), dist, np.full(60, 1 / 60), coords=pts)
print(seen == [True])
print(generators.gaussian_sample(400, 3, seed=1).dist.shape)
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""


def test_certified_validation_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", VALIDATE_PROCESS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "(400, 400)", "[]"]


def _same(a, b):
    np.testing.assert_array_equal(a, b)
    assert np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("x", [0.3, -0.95, np.array([-0.5, 0.0, 0.25, 0.999])])
def test_erfinv_shim(x):
    _same(obs.erfinv(x), scipy.special.erfinv(x))


@pytest.mark.parametrize("x", [0.5, 1e-9, np.array([0.01, 0.3, 0.7, 0.99])])
def test_ndtri_shim(x):
    _same(functional.ndtri(x), scipy.special.ndtri(x))


def test_tridiagonal_factor_and_solve_shims():
    n = 6
    side, diag = -np.ones(n - 1), 3.0 * np.ones(n)
    factor = functional.dgttrf(side, diag, side)
    want = scipy.linalg.lapack.dgttrf(side, diag, side)
    assert len(factor) == len(want) == 6
    for got, ref in zip(factor, want):
        _same(got, ref)
    ab = np.vstack([np.r_[0.0, side], diag, np.r_[side, 0.0]])
    dense = np.diag(diag) - np.eye(n, k=1) - np.eye(n, k=-1)
    # one factor serves every right-hand side, each bit for bit as a fresh solve
    for rhs in (np.arange(1.0, n + 1.0), np.array([0.5, -2.0, 1e-3, 7.0, 0.0, -1.25])):
        x, info = functional.dgttrs(*factor[:5], rhs)
        want_x, want_info = scipy.linalg.lapack.dgttrs(*want[:5], rhs)
        _same(x, want_x)
        assert info == want_info == 0
        _same(x, scipy.linalg.solve_banded((1, 1), ab, rhs))
        np.testing.assert_allclose(dense @ x, rhs)


def test_connected_components_shim():
    graph = np.zeros((5, 5), dtype=bool)
    graph[0, 1] = graph[1, 2] = graph[3, 4] = True
    count, labels = atoms.connected_components(graph, directed=False)
    want_count, want_labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    assert count == want_count == 2
    _same(labels, want_labels)
    sparse = scipy.sparse.csr_matrix(graph)
    assert atoms.connected_components(sparse, directed=False)[0] == 2


def test_every_lp_goes_through_the_observables_name(monkeypatch):
    """perfbench counts LP solves by replacing ``observables.linprog``."""
    sp = random_embedded_space(np.random.default_rng(7), 4)
    plain = obs.obs_diam(sp, 0.1, mode="exact")
    through_name, through_scipy = [], []
    shim, solver = obs.linprog, scipy.optimize.linprog

    def counted_shim(*args, **kwargs):
        through_name.append(1)
        return shim(*args, **kwargs)

    def counted_solver(*args, **kwargs):
        through_scipy.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(obs, "linprog", counted_shim)
    monkeypatch.setattr(scipy.optimize, "linprog", counted_solver)
    assert obs.obs_diam(sp, 0.1, mode="exact") == plain
    assert len(through_name) == len(through_scipy) > 0
