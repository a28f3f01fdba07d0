"""The small numeric kernels shared by several invariants give the values
recorded before each was reduced to one copy: threshold sequences
(separation, its witness and property report, dissipation evidence), the
central moment (variance, p-variance, p-deviation, (p, q) trial bounds, the
disconnected-space witness), the smooth trial family of the (p, q) bounds
and the log-Sobolev check, the fixed-point threshold scan (Prokhorov, Ky
Fan), the cell-pair discrepancy block (l_p products, exact and searched box
distances), the max-flow orientation of the exact box distance on both
sides of |X| = |Y|, the vertices of the Lipschitz polytope (their order
included) and the bins of the dissipation detector.  The inverse iteration
of the spectral gap gives the eigenvalue and eigenvector it gave when each
step solved the tridiagonal system from scratch.  Floats compare by
``float.hex`` and arrays by a digest of their bytes, so a change in any bit
fails.  The linear programs of the exact observable diameter are pinned by
their inputs: every ordering's constraint rows, in the order they are
solved."""

import hashlib
import math
import types

import numpy as np

from mmslab import atoms, boxmetric, core, functional, generators, observables as obs
from conftest import (random_embedded_space, random_shortest_path_space,
                      separation_properties_report)


def pin(x):
    """float.hex of a float, a short digest of an array's bytes, and the same
    item by item inside tuples, lists and dicts."""
    if isinstance(x, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()[:16]
    if isinstance(x, dict):
        return {k: pin(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [pin(v) for v in x]
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x).hex()


def test_threshold_sequences_unchanged():
    rng = np.random.default_rng(2029)
    spaces = [random_embedded_space(rng, n) for n in (4, 7, 10)]
    spaces.append(random_shortest_path_space(rng, 6))
    kappas = [0.3, (0.2, 0.2), (0.3, -0.1, 0.25), (0.15,) * 3, (0.1,) * 4, (0.5, 0.6), [0.45]]
    got = []
    for sp in spaces:
        for kappa in kappas:
            val, config = obs.separation_witness(sp, kappa)
            got.append(pin((val, config.threshold, config.groups)))
        for kappa, lam in (((0.2, 0.1, 0.3), (0.1, 0.05)), (0.25, (0.2, 0.2, 0.1))):
            got.append(pin(separation_properties_report(
                sp, kappa, lam, np.random.default_rng(3))))
    for alpha, scale, delta in (([0.4, 0.2, 0.2], 2.0, 2.0), ([0.4, 0.2], 2.0, 2.0),
                                ([0.25, 0.125, 0.125], 3.0, 3.0),
                                ([0.25, 0.125, 0.125], 3.0, 4.0), ([0.5, 0.25, 0.25], 2.0, 2.0)):
        alpha = atoms.sort_atoms(alpha)
        seq = [core.scale(generators.dissipation_family(alpha, 1.0, n), scale)
               for n in range(1, 7)]
        ev = atoms.detect_dissipation(seq, alpha, delta)
        got.append(pin((ev.accepted, ev.sep_checked, ev.atom_error, ev.reason)))
    assert got == SEQUENCES_RECORDED


def test_central_moments_unchanged():
    rng = np.random.default_rng(2030)
    got = []
    for sp in (random_embedded_space(rng, 6), random_shortest_path_space(rng, 5)):
        f = sp.dist[0] * rng.uniform(0.5, 1.0, sp.n)
        got.append(pin([obs.variance_of(sp, f)]
                       + [obs.p_variance(sp, f, p) for p in (1, 2, 2.0, 1.5, 3, math.inf)]))
        got.append(pin([obs.variance(sp, mode="exact")]
                       + [obs.p_deviation(sp, p, mode="exact") for p in (1, 2, 3, math.inf)]))
        got.append(pin(functional.mm_disconnected_constant(sp).witness_variance))
    sp = random_embedded_space(rng, 12)
    got.append(pin([obs.variance(sp, mode="heuristic", starts=4),
                    obs.p_deviation(sp, 3, mode="heuristic", starts=4)]))
    for grid in (functional.unit_interval_grid(64), functional.gaussian_grid(96, 0.7)):
        got.append(pin([functional.poincare_pq_lower(grid, p, q, trials=12, seed=1)
                        for p, q in ((2, 2), (1, 2), (3, 1.5))]))
    assert got == MOMENTS_RECORDED


def test_threshold_scans_unchanged():
    rng = np.random.default_rng(2031)
    got = []
    for n in (1, 3, 5, 8, 12):
        sp = random_embedded_space(rng, n)
        other = rng.dirichlet(np.ones(n))
        f = core.LipschitzFunction(sp.dist[0], 1.0)
        g = core.LipschitzFunction(sp.dist[-1] * 0.5, 1.0)
        got.append(pin([core.prokhorov(sp, sp.mass, other), core.prokhorov(sp, other, sp.mass),
                        core.prokhorov(sp, sp.mass, sp.mass),
                        core.ky_fan(sp, f, g), core.ky_fan(sp, f, f)]))
    assert got == SCANS_RECORDED


def test_cell_blocks_unchanged():
    rng = np.random.default_rng(2032)
    got = []
    sx, sy = random_embedded_space(rng, 4), random_shortest_path_space(rng, 3)
    for p in (1, 2, 1.5, math.inf):
        prod = core.product(sx, sy, p)
        got.append(pin([prod.dist, prod.mass]))
    for nx, ny in ((2, 6), (6, 2), (3, 4), (4, 3), (2, 5), (3, 3), (1, 7)):
        a, b = random_embedded_space(rng, nx), random_shortest_path_space(rng, ny)
        est = boxmetric.box_exact_small(a, b)
        got.append(pin([est.upper, None if est.witness_coupling is None
                        else est.witness_coupling.joint]))
    for nx, ny in ((70, 5), (12, 12), (24, 20)):
        a, b = random_embedded_space(rng, nx), random_embedded_space(rng, ny, dim=2)
        est = boxmetric.box_upper(a, b, restarts=4, seed=1)
        got.append(pin([est.upper, est.witness_coupling.joint]))
    assert got == BLOCKS_RECORDED


def test_trial_family_unchanged():
    got = []
    for grid in (functional.unit_interval_grid(512), functional.gaussian_grid(384, 0.7)):
        for seed in (0, 4):
            for trials in (1, 3, 6, 12, 200):
                rep = functional.log_sobolev_check(grid, 0.3, trials=trials, seed=seed)
                got.append(pin([rep.max_violation, rep.lower_bound, rep.trials]))
            got.append(pin([functional.poincare_pq_lower(grid, p, q, trials=trials, seed=seed)
                            for trials in (1, 7, 64) for p, q in ((2, 2), (3, 1.5))]))
            got.append(pin(np.array(list(functional._trial_functions(grid, 40, seed)))))
    assert got == TRIALS_RECORDED


def _vertex_spaces():
    """Generic spaces (one vertex per tree and sign) and collinear or
    equidistant ones, where many trees reach the same vertex."""
    rng = np.random.default_rng(2033)
    out = []
    for n in (2, 3, 4, 5, 6):
        out.append(random_embedded_space(rng, n))
        out.append(random_shortest_path_space(rng, n))
        out.append(generators.interval_grid(n, 0.7))
    out.append(generators.atom_space(atoms.sort_atoms([0.3, 0.2]), 3))
    out.append(generators.dissipation_family(atoms.sort_atoms([0.4]), 1.5, 2))
    return out


def test_lipschitz_vertices_unchanged():
    got = [[[len(V), pin(V)] for V in (obs.lipschitz_vertices(core.scale(sp, t))
                                       for sp in _vertex_spaces())]
           for t in (1e-3, 1.0, 30.0, 1000.0)]
    assert got == VERTICES_RECORDED


def _equidistant_member(alpha, n):
    """n diffuse points and the atoms of ``alpha``, every distance n."""
    ats = [float(e) for e in alpha.entries]
    masses = [(1.0 - sum(ats)) / n] * n + ats
    dist = np.full((len(masses),) * 2, float(n))
    np.fill_diagonal(dist, 0.0)
    return core.space([f"p{i}" for i in range(len(masses))], dist, masses)


def _dissipation_cases():
    """(sequence, alpha, delta) triples, accepted and refused, with and
    without diffuse mass."""
    cases = []
    for alpha, scale, delta in (([0.4, 0.2, 0.2], 2.0, 2.0), ([0.4, 0.2], 2.0, 2.0),
                                ([0.25, 0.125, 0.125], 3.0, 4.0), ([0.5, 0.25, 0.25], 2.0, 2.0)):
        alpha = atoms.sort_atoms(alpha)
        cases.append(([core.scale(generators.dissipation_family(alpha, 1.0, n), scale)
                       for n in range(1, 7)], alpha, delta))
    for trunc in (1, 3):
        alpha = atoms.truncate(atoms.sort_atoms([0.3, 0.2, 0.1, 0.05]), trunc, "collapse")
        cases.append(([_equidistant_member(alpha, n) for n in range(2, 9)], alpha, 2.0))
    alpha = atoms.sort_atoms([0.3, 0.2])
    for delta in (0.15, 0.6):
        cases.append(([generators.atom_space(alpha, m) for m in (2, 3, 4, 5, 7)], alpha, delta))
    cases.append(([generators.interval_grid(m) for m in (4, 6, 8, 10)],
                  atoms.sort_atoms([0.25]), 0.3))
    return cases


def test_dissipation_bins_unchanged():
    got = []
    for seq, alpha, delta in _dissipation_cases():
        ev = atoms.detect_dissipation(seq, alpha, delta)
        got.append(pin((ev.accepted, ev.max_small, ev.bin_counts, ev.atom_error,
                        ev.sep_checked, ev.reason)))
    assert got == BINS_RECORDED


def test_trial_family_has_the_requested_size():
    grid = functional.unit_interval_grid(128)
    for k in range(1, 11):
        assert len(list(functional._trial_functions(grid, k, 3))) == k


def _lp_spaces():
    """Spaces of 2-6 points, embedded, shortest-path and uniform grids, each
    at three scales."""
    rng = np.random.default_rng(2039)
    bases = [random_embedded_space(rng, 2), random_shortest_path_space(rng, 3),
             random_embedded_space(rng, 4), generators.interval_grid(4),
             random_shortest_path_space(rng, 5), random_embedded_space(rng, 6),
             generators.interval_grid(6, 0.7)]
    return [core.scale(sp, t) for sp in bases for t in (1e-3, 1.0, 1e3)]


def _edge_kappa(sp):
    """A kappa whose need - VALIDATION_TOL equals, as the exact test
    computes it, the mass of a window of the identity ordering: the first
    such window, longest first, that a kappa reaches exactly."""
    csum = np.concatenate(([0.0], np.cumsum(sp.mass)))
    for size in range(sp.n - 1, 0, -1):
        for i in range(sp.n - size + 1):
            mass = csum[i + size] - csum[i]
            k0 = 1.0 - (mass + core.VALIDATION_TOL)
            for kappa in k0 + np.arange(-4, 5) * np.spacing(k0):
                if (1.0 - kappa) - core.VALIDATION_TOL == mass:
                    return float(kappa)
    raise AssertionError("no window of the identity ordering is on the edge")


def test_exact_lp_inputs_unchanged(monkeypatch):
    """Every linprog call of exact obs_diam gets the inputs it got when each
    ordering's windows came from a two-pointer loop of its own.  The stub
    solves nothing and reports failure, so only the inputs are compared."""
    digest = None
    calls = 0

    def stub(c, A_ub, b_ub, A_eq, b_eq, bounds, method):
        nonlocal calls
        calls += 1
        for a in (c, A_ub, b_ub, A_eq, b_eq):
            a = np.ascontiguousarray(a, dtype=float)
            digest.update(repr(a.shape).encode() + a.tobytes())
        digest.update(repr((bounds, method)).encode())
        return types.SimpleNamespace(status=2, fun=None)

    monkeypatch.setattr(obs, "linprog", stub)
    got = []
    for sp in _lp_spaces():
        digest, calls = hashlib.sha256(), 0
        for kappa in (1.0 / sp.n, 1.0 - 1.0 / sp.n, _edge_kappa(sp)):
            assert obs.obs_diam(sp, kappa, mode="exact") == 0.0
        got.append([calls, digest.hexdigest()[:16]])
    assert got == LP_INPUTS_RECORDED


def test_second_eigenvalue_unchanged():
    grids = [g for m in (64, 512, 4096, 131072)
             for g in (functional.unit_interval_grid(m), functional.gaussian_grid(m))]
    # the grid whose symmetrised Rayleigh quotient once never converged
    grids.append(functional.unit_interval_grid(65768, 0.9855584598921796))
    assert [pin(functional.second_eigenvalue(g)) for g in grids] == EIGEN_RECORDED


# recorded before each kernel was reduced to one copy
SEQUENCES_RECORDED = [['inf', 'inf', [[0, 1, 2, 3]]], ['0x1.039ab1004b45dp-1', '0x1.039ab1004b45dp-1', [[1], [2]]],
 ['0x1.00e5a30bc5294p-1', '0x1.00e5a30bc5294p-1', [[0], [1]]],
 ['0x1.cee67bfddd253p-2', '0x1.cee67bfddd253p-2', [[0], [1], [2]]],
 ['0x0.0p+0', '0x0.0p+0', []], ['0x0.0p+0', '0x0.0p+0', []], ['inf', 'inf', [[0, 1, 2, 3]]],
 {'ok': True, 'violations': []}, {'ok': True, 'violations': []},
 ['inf', 'inf', [[0, 1, 2, 3, 4, 5, 6]]],
 ['0x1.7ef06e99a63e0p-1', '0x1.7ef06e99a63e0p-1', [[0], [2]]],
 ['0x1.7ef06e99a63e0p-1', '0x1.7ef06e99a63e0p-1', [[0, 4], [1, 2]]],
 ['0x1.05763506f9926p-1', '0x1.05763506f9926p-1', [[0], [2], [1, 3]]],
 ['0x1.591454ca2a483p-2', '0x1.591454ca2a483p-2', [[0], [6], [2], [3]]],
 ['0x0.0p+0', '0x0.0p+0', []], ['inf', 'inf', [[0, 1, 2, 3, 4, 5, 6]]],
 {'ok': True, 'violations': []}, {'ok': True, 'violations': []},
 ['inf', 'inf', [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]],
 ['0x1.6a62574bd9864p-1', '0x1.6a62574bd9864p-1', [[2, 3, 4], [5, 9]]],
 ['0x1.51cc650f670b6p-1', '0x1.51cc650f670b6p-1', [[1], [4, 8, 9]]],
 ['0x1.4d96c45a42586p-1', '0x1.4d96c45a42586p-1', [[1], [3, 4], [8, 9]]],
 ['0x1.f0d8fed09fa66p-2', '0x1.f0d8fed09fa66p-2', [[1], [3], [5], [2, 6]]],
 ['0x0.0p+0', '0x0.0p+0', []], ['inf', 'inf', [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]],
 {'ok': True, 'violations': []}, {'ok': True, 'violations': []},
 ['inf', 'inf', [[0, 1, 2, 3, 4, 5]]],
 ['0x1.3c2f1e999a974p-1', '0x1.3c2f1e999a974p-1', [[2], [3, 5]]],
 ['0x1.2a8adbcb40d71p-1', '0x1.2a8adbcb40d71p-1', [[0], [3, 5]]],
 ['0x1.95fa746a8e906p-2', '0x1.95fa746a8e906p-2', [[0], [2], [3, 5]]],
 ['0x1.95fa746a8e906p-2', '0x1.95fa746a8e906p-2', [[0], [2], [5], [3]]],
 ['0x0.0p+0', '0x0.0p+0', []], ['inf', 'inf', [[0, 1, 2, 3, 4, 5]]],
 {'ok': True, 'violations': []}, {'ok': True, 'violations': []},
 [True,
  [[3, 0, '0x1.47ae147ae147bp-7'], [3, 1, '0x1.47ae147ae147bp-7'],
   [3, 2, '0x1.47ae147ae147bp-7']],
  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'], ''],
 [True,
  [[3, 0, '0x1.47ae147ae147bp-7'], [3, 1, '0x1.47ae147ae147bp-7'],
   [3, 2, '0x1.47ae147ae147bp-7']],
  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'], ''],
 [True,
  [[3, 0, '0x1.47ae147ae147bp-7'], [3, 1, '0x1.47ae147ae147bp-7'],
   [3, 2, '0x1.47ae147ae147bp-7']],
  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'], ''],
 [False, [[3, 0, 'inf'], [3, 1, 'inf'], [3, 2, 'inf']],
  ['0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1',
   '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1'],
  'atom mismatch 0.5000 above 0.05; largest small bin 1.0000 above 0.05; separation never '
  'reaches delta at index 3 (kappa length 0); separation never reaches delta at index 3 (kappa '
  'length 1); separation never reaches delta at index 3 (kappa length 2)'],
 [True,
  [[3, 0, '0x1.47ae147ae147bp-7'], [4, 0, '0x1.47ae147ae147bp-7'],
   [5, 0, '0x1.47ae147ae147bp-7']],
  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'], '']]
MOMENTS_RECORDED = [['0x1.e1538fda8bcd2p-5', '0x1.6dfe452e1dbbdp-3', '0x1.e1538fda8bcd2p-5',
  '0x1.e1538fda8bcd2p-5', '0x1.951ebeb952561p-4', '0x1.82b844b4babaep-6',
  '0x1.151b3d1946bbfp-1'],
 ['0x1.48480d8a1a0a5p-4', '0x1.efc32a7055aa0p-3', '0x1.21e5892ead2fap-2',
  '0x1.61f7efa1224ecp-2', '0x1.65e17bf346becp-1'],
 '0x1.0ecd4aa67ef35p-4',
 ['0x1.bcbb4af031804p-7', '0x1.67ec21206cc68p-4', '0x1.bcbb4af031804p-7',
  '0x1.bcbb4af031804p-7', '0x1.0f5a91f21ffcdp-5', '0x1.4bdab0679cb4ap-9',
  '0x1.b9eca287f7101p-3'],
 ['0x1.171ba358aeb01p-4', '0x1.fe5098732054bp-3', '0x1.0b4deca523c28p-2',
  '0x1.2548ef28bebfdp-2', '0x1.e9cc28b0cbaacp-2'],
 '0x1.ea31c7f77ced0p-6', ['0x1.63214e3643c40p-3', '0x1.d9660d13b93d4p-2'],
 ['0x1.45fb67ac4f28cp-2', '0x1.256d93b0d13fdp-2', '0x1.6a1ed3b6fb420p-2'],
 ['0x1.66694a51b5cecp-1', '0x1.1f55fcea91c39p-1', '0x1.2ba50a6281612p+1']]
SCANS_RECORDED = [['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
 ['0x1.66a6c2e0552bcp-1', '0x1.66a6c2e0552bcp-1', '0x0.0p+0', '0x1.9e8ff0162a45cp-2',
  '0x0.0p+0'],
 ['0x1.4f91501dcf41ep-2', '0x1.4f91501dcf422p-2', '0x0.0p+0', '0x1.977b086d59e6cp-2',
  '0x0.0p+0'],
 ['0x1.7905208c64652p-2', '0x1.7905208c64653p-2', '0x0.0p+0', '0x1.ddd044d2b7261p-2',
  '0x0.0p+0'],
 ['0x1.b2ba1fde699f3p-2', '0x1.b2ba1fde699f4p-2', '0x0.0p+0', '0x1.5b2cd1635c3c6p-2',
  '0x0.0p+0']]
BLOCKS_RECORDED = [['464d8a2308951220', '0a46a02b279caf13'], ['1f7156eb546361a5', '0a46a02b279caf13'],
 ['e1a74bfc8d3ef6b3', '0a46a02b279caf13'], ['70d027f6f06f2c78', '0a46a02b279caf13'],
 ['0x1.12f0a7ab271e0p-1', 'cc82f52d11009297'], ['0x1.b6f694ec307cbp-2', '4a77ccaed902707a'],
 ['0x1.6878472646d50p-3', 'fcef3ad565b05246'], ['0x1.04ef692ae354ap-2', 'eb28bdb32cfb232d'],
 ['0x1.97e754189eecfp-2', 'da1956f5cee06f75'], ['0x1.9392634025454p-2', 'e21027596c78b371'],
 ['0x1.14dd83561f7e3p-1', 'f13999700c4919aa'], ['0x1.3c84b184413dap-1', 'cb5b31cdd594e285'],
 ['0x1.e337cde2117f4p-2', 'c9fa9821756af10d'], ['0x1.07b0eba440301p-1', '7c34700820892785']]
# recorded before the trial family was streamed
TRIALS_RECORDED = [['0x1.0df76613eea78p-20', '0x1.45f37a80f8fedp-2', 1],
 ['0x1.a5312397dec30p-14', '0x1.45f37a80f8fedp-2', 3],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 6],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 12],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 200],
 ['0x1.45f3285f41233p-2', '0x1.6a16481e04b0bp-2', '0x1.45f3285f41233p-2',
  '0x1.6a16481e04b0bp-2', '0x1.45f3285f4361ep-2', '0x1.6a16481e0be13p-2'],
 'b4189f1127f8567c', ['0x1.0df76613eea78p-20', '0x1.45f37a80f8fedp-2', 1],
 ['0x1.a5312397dec30p-14', '0x1.45f37a80f8fedp-2', 3],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 6],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 12],
 ['0x1.20063d9601400p-10', '0x1.45f37a80f8fedp-2', 200],
 ['0x1.45f3285f41233p-2', '0x1.6a16481e04b0bp-2', '0x1.45f3285f41233p-2',
  '0x1.6a16481e04b0bp-2', '0x1.45f3285f4361ep-2', '0x1.6a16481e0be13p-2'],
 '22f37415404118f4', ['0x1.031a3921ef29ep-22', '0x1.6666687502640p-1', 1],
 ['0x1.94d80b03d3da8p-16', '0x1.6666687502640p-1', 3],
 ['0x1.854c73725cffcp-8', '0x1.6666687502640p-1', 6],
 ['0x1.a7a858ce835d0p-6', '0x1.6666687502640p-1', 12],
 ['0x1.e9ef53071c550p-4', '0x1.6666687502640p-1', 200],
 ['0x1.6666695885b4bp-1', '0x1.a2c1c9b5f3455p-1', '0x1.6666695885b4bp-1',
  '0x1.31854459ed7dfp+1', '0x1.6666695885b4bp-1', '0x1.31854459ed7dfp+1'],
 '9e3dad1e93a80390', ['0x1.031a3921ef29ep-22', '0x1.6666687502640p-1', 1],
 ['0x1.94d80b03d3da8p-16', '0x1.6666687502640p-1', 3],
 ['0x1.854c73725cffcp-8', '0x1.6666687502640p-1', 6],
 ['0x1.5b5dfd69d5b0ep-5', '0x1.6666687502640p-1', 12],
 ['0x1.04290fe5fb6e3p-3', '0x1.6666687502640p-1', 200],
 ['0x1.6666695885b4bp-1', '0x1.a2c1c9b5f3455p-1', '0x1.6666695885b4bp-1',
  '0x1.31854459ed7dfp+1', '0x1.6666695885b4bp-1', '0x1.31854459ed7dfp+1'],
 '0cbb90eac3edcb72']
# recorded before the vertex dedup moved to numpy and the dissipation
# detector dropped its unread outputs
VERTICES_RECORDED = [[[2, '2192687a095d398f'], [2, '65d733ff583c8e3e'], [2, '0d1c3978a31f1f04'],
                      [6, 'f9a1a8f3ffb4b79f'], [6, 'e471652a4793d27a'], [4, '2a94f2f2e94bd3e5'],
                      [20, 'ffdd57104da51fcf'], [20, '555115df1ca3d603'], [8, 'b6aa15997106e9fc'],
                      [70, 'd6b715ece89da6b5'], [70, '44b24fb16381bfce'], [16, '93ab6b6f3a9412f3'],
                      [252, '14f9811125254dc0'], [252, 'b3c680ada614605a'],
                      [32, '9d1d810282ca8db2'], [16, 'e972a9f0769663b2'],
                      [30, '65c3bf497adf96ca']],
                     [[2, 'f1ef72f37a701f79'], [2, '373e4c13e50d9a20'], [2, '45b5946f7ae27184'],
                      [6, '210ee88e4cd767bf'], [6, '1d7d448cfcb6f0d8'], [4, '33b7351f71705e16'],
                      [20, 'f20e6bc5eed04048'], [20, '3d41e1dcf44c688a'], [8, 'ba5423d84a9b2dc3'],
                      [70, '4b9a28887b5d78a4'], [70, '9d584fe9de1ebbbd'], [16, 'c17a51bdb76a2032'],
                      [252, '11350df9a035c5ea'], [252, '4c0e970a5b1a681e'],
                      [32, '023521509a6468ca'], [16, 'fd553efa39ce59c3'],
                      [30, 'd0c5ec4cd1e51765']],
                     [[2, '37809f1c45f5ec71'], [2, 'ad3f19556ccb7904'], [2, '6e4c03fd6b29de9f'],
                      [6, 'c502e4e1fca672e8'], [6, 'ad150e3ba1d26e95'], [4, '190a69dd10406b51'],
                      [20, 'a878a4e4a6f31b81'], [20, 'f37b6767abe0ce00'], [8, '893e65c6abfad1db'],
                      [70, '5645ae3aab0ca66b'], [70, 'bab5b09010dad294'], [16, 'a4ea0fb6def73161'],
                      [252, 'db4ce95e772c6929'], [252, 'bb11135de2ef4e6e'],
                      [32, '61e23d6f8447adde'], [16, '76eaa19b348713ad'],
                      [30, '798f43836831322d']],
                     [[2, 'd01713b448b3f90c'], [2, '491fb094c0d97ad7'], [2, 'e8bffbb6641b2949'],
                      [6, 'daa0b7b8cb99b903'], [6, '7815cd25a2c38e9c'], [4, '0bc4c9627484a8d5'],
                      [20, '47c3d47d9756d98a'], [20, '9267f4c27f46e757'], [8, '435489ea15a5398e'],
                      [70, '90d7beadad6613bb'], [70, '4a745e93be067c25'], [16, '5b63a1846debd0fc'],
                      [252, '0e9f0b1c00c8dc0f'], [252, '75dbe57834bdd78d'],
                      [32, 'eb9d44158b78a1bd'], [16, '6656324b0bb35cf8'],
                      [30, '3ea4b9b03d681052']]]
BINS_RECORDED = [[True,
                  ['0x1.9999999999998p-4', '0x1.9999999999998p-5', '0x1.9999999999998p-6',
                   '0x1.9999999999998p-7', '0x1.9999999999998p-8', '0x1.9999999999998p-9'],
                  [2, 4, 8, 16, 32, 64],
                  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [[3, 0, '0x1.47ae147ae147bp-7'], [3, 1, '0x1.47ae147ae147bp-7'],
                   [3, 2, '0x1.47ae147ae147bp-7']],
                  ''],
                 [True,
                  ['0x1.9999999999998p-3', '0x1.9999999999998p-4', '0x1.9999999999998p-5',
                   '0x1.9999999999998p-6', '0x1.9999999999998p-7', '0x1.9999999999998p-8'],
                  [2, 4, 8, 16, 32, 64],
                  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [[3, 0, '0x1.47ae147ae147bp-7'], [3, 1, '0x1.47ae147ae147bp-7'],
                   [3, 2, '0x1.47ae147ae147bp-7']],
                  ''],
                 [False,
                  ['0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                   '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'],
                  [1, 1, 1, 1, 1, 1],
                  ['0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1',
                   '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1'],
                  [[3, 0, 'inf'], [3, 1, 'inf'], [3, 2, 'inf']],
                  'atom mismatch 0.5000 above 0.05; largest small bin 1.0000 above 0.05; '
                  'separation never reaches delta at index 3 (kappa length 0); separation never '
                  'reaches delta at index 3 (kappa length 1); separation never reaches delta at '
                  'index 3 (kappa length 2)'],
                 [True, ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [0, 0, 0, 0, 0, 0],
                  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [[3, 0, '0x1.47ae147ae147bp-7'], [4, 0, '0x1.47ae147ae147bp-7'],
                   [5, 0, '0x1.47ae147ae147bp-7']],
                  ''],
                 [True,
                  ['0x1.6666666666666p-3', '0x1.dddddddddddddp-4', '0x1.6666666666666p-4',
                   '0x1.1eb851eb851ebp-4', '0x1.dddddddddddddp-5', '0x1.9999999999999p-5',
                   '0x1.6666666666666p-5'],
                  [2, 3, 4, 5, 6, 7, 8],
                  ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                   '0x0.0p+0'],
                  [[3, 0, '0x1.47ae147ae147bp-7'], [4, 0, '0x1.47ae147ae147bp-7'],
                   [5, 0, '0x1.47ae147ae147bp-7'], [6, 0, '0x1.47ae147ae147bp-7'],
                   [3, 1, '0x1.47ae147ae147bp-7'], [4, 1, '0x1.47ae147ae147bp-7'],
                   [5, 1, '0x1.47ae147ae147bp-7'], [6, 1, '0x1.47ae147ae147bp-7'],
                   [3, 2, '0x1.999999999999ap-5'], [4, 2, '0x1.47ae147ae147bp-7'],
                   [5, 2, '0x1.999999999999ap-5'], [6, 2, '0x1.47ae147ae147bp-7']],
                  ''],
                 [True,
                  ['0x1.6666666666666p-3', '0x1.dddddddddddddp-4', '0x1.6666666666666p-4',
                   '0x1.1eb851eb851ebp-4', '0x1.dddddddddddddp-5', '0x1.9999999999999p-5',
                   '0x1.6666666666666p-5'],
                  [2, 3, 4, 5, 6, 7, 8],
                  ['0x1.9999999999990p-6', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                   '0x0.0p+0', '0x0.0p+0'],
                  [[3, 0, '0x1.47ae147ae147bp-7'], [4, 0, '0x1.47ae147ae147bp-7'],
                   [5, 0, '0x1.47ae147ae147bp-7'], [6, 0, '0x1.47ae147ae147bp-7'],
                   [3, 1, '0x1.47ae147ae147bp-7'], [4, 1, '0x1.47ae147ae147bp-7'],
                   [5, 1, '0x1.47ae147ae147bp-7'], [6, 1, '0x1.47ae147ae147bp-7'],
                   [3, 2, '0x1.999999999999ap-5'], [4, 2, '0x1.47ae147ae147bp-7'],
                   [5, 2, '0x1.999999999999ap-5'], [6, 2, '0x1.47ae147ae147bp-7']],
                  ''],
                 [False,
                  ['0x1.0000000000000p-2', '0x1.5555555555555p-3', '0x1.0000000000000p-3',
                   '0x1.999999999999ap-4', '0x1.2492492492492p-4'],
                  [2, 3, 4, 5, 7],
                  ['0x1.9999999999998p-5', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [[2, 0, '0x1.47ae147ae147bp-7'], [3, 0, '0x1.47ae147ae147bp-7'],
                   [4, 0, '0x1.47ae147ae147bp-7'], [2, 1, '0x1.47ae147ae147bp-7'],
                   [3, 1, '0x1.47ae147ae147bp-7'], [4, 1, '0x1.47ae147ae147bp-7'],
                   [2, 2, '0x1.47ae147ae147bp-7'], [3, 2, '0x1.999999999999ap-5'],
                   [4, 2, '0x1.999999999999ap-5']],
                  'largest small bin 0.0714 above 0.05; separation slack grows along the sequence '
                  '(kappa length 2)'],
                 [False,
                  ['0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x1.0000000000000p-1',
                   '0x1.0000000000000p-1', '0x1.ffffffffffffep-2'],
                  [2, 1, 1, 1, 1],
                  ['0x1.9999999999998p-5', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
                  [[2, 0, '0x1.47ae147ae147bp-7'], [3, 0, '0x1.47ae147ae147bp-7'],
                   [4, 0, '0x1.47ae147ae147bp-7'], [2, 1, '0x1.47ae147ae147bp-7'],
                   [3, 1, '0x1.47ae147ae147bp-7'], [4, 1, '0x1.47ae147ae147bp-7'], [2, 2, 'inf'],
                   [3, 2, 'inf'], [4, 2, 'inf']],
                  'largest small bin 0.5000 above 0.05; separation never reaches delta at index 4 '
                  '(kappa length 2)'],
                 [False,
                  ['0x1.0000000000000p-2', '0x1.fffffffffffffp-1', '0x1.0000000000000p+0',
                   '0x1.fffffffffffffp-1'],
                  [3, 1, 1, 1],
                  ['0x0.0p+0', '0x1.0000000000000p-2', '0x1.0000000000000p-2',
                   '0x1.0000000000000p-2'],
                  [[2, 0, '0x1.47ae147ae147bp-7'], [3, 0, '0x1.47ae147ae147bp-7'], [2, 1, 'inf'],
                   [3, 1, 'inf'], [2, 2, 'inf'], [3, 2, 'inf']],
                  'atom mismatch 0.2500 above 0.05; largest small bin 1.0000 above 0.05; '
                  'separation never reaches delta at index 3 (kappa length 1); separation never '
                  'reaches delta at index 3 (kappa length 2)']]
# recorded while each inverse-iteration step still factored the operator anew
EIGEN_RECORDED = [['0x1.3bc390d258106p+3', '02700ba1991b9d4e'], ['0x1.ffd73481084e0p-1', '4b991281b0847b12'],
 ['0x1.3bd38bab71ee7p+3', 'd3321d4c451d87b7'], ['0x1.fffffd55eb1b4p-1', 'dc102e648e6ea79b'],
 ['0x1.3bd3cb9823aa6p+3', '1cc6d0ff735a11c5'], ['0x1.0000000007215p+0', '29b0405760b7850c'],
 ['0x1.3bd3cc9ba6a98p+3', 'fb64508f7739eec9'], ['0x1.000000000a9f2p+0', 'a88c2aed4dd209e3'],
 ['0x1.4526a0893a908p+3', '271493f01078beba']]


# recorded when each exact ordering found its windows with a two-pointer loop
LP_INPUTS_RECORDED = [[3, '9e6dd08b2e2a5bec'],
 [3, '83923c45a95712b6'],
 [3, '9d9094efbf07b5ce'],
 [9, '5784033cf83e71cc'],
 [9, '6d35794102aeaa4f'],
 [9, '6554ff15e7b6e9c1'],
 [36, '60277078eebf9c53'],
 [36, '3564950541edf0d7'],
 [36, 'ea4ce453e8ebd511'],
 [36, '953d2094ba5be889'],
 [36, '1757f0202f2bc55b'],
 [36, '770f43bcf2b75aad'],
 [180, '0a18075c1fd807ce'],
 [180, '6ea07e5e66f64548'],
 [180, 'e3099dd41bc6837a'],
 [1080, '88e6cab244b0553a'],
 [1080, '6b18809107c59f31'],
 [1080, 'de363ea5a628b29e'],
 [1080, '1abb7a38626155c6'],
 [1080, '38f65a7cbe12ab96'],
 [1080, '3aeafe9a267d6c60']]
