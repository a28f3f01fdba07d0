"""Sampled spaces: the distance matrix computed from ``coords`` on its first
read, ``validate`` on every generator's output at every size and scale, the
measured gap in triangle messages, and scaling that keeps coordinate
projections 1-Lipschitz and a sample given by its coords alone."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from mmslab import core, generators as gen, observables as obs
from mmslab.atoms import sort_atoms


@pytest.mark.parametrize("make", [lambda: gen.gaussian_sample(320, 3, seed=1),
                                  lambda: gen.sphere_sample(2, 1.0, 320, seed=2),
                                  lambda: gen.gaussian_sample(700, 40, 1e3, seed=3),
                                  lambda: gen.sphere_sample(39, 1e-3, 500, seed=4)],
                         ids=["gaussian", "sphere", "gaussian_d40", "sphere_d40"])
def test_dist_is_built_on_first_read_frozen_and_kept(make):
    sp = make()  # certified from its coords, so validating it builds no matrix
    assert sp._dist is None
    # more than one row block of at most core._TRIANGLE_BLOCK_ELEMENTS values
    assert sp.n > core._TRIANGLE_BLOCK_ELEMENTS // sp.n
    d = sp.dist
    assert np.array_equal(d, squareform(pdist(sp.coords)))
    assert not d.flags.writeable
    assert sp.dist is d


@pytest.mark.parametrize("scale, code", [(1e200, "finite"), (1e-170, "positivity")])
def test_dist_of_extreme_coords_is_silent_and_rejected(scale, code):
    """Squares that overflow give infinite distances and squares that
    underflow give zeros, as pdist does, without a warning; validate then
    rejects the space."""
    pts = np.random.default_rng(8).normal(size=(50, 3)) * scale
    sp = core.FinitePmSpace(tuple(range(50)), None, np.full(50, 1 / 50), coords=pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = sp.dist
    assert np.array_equal(d, squareform(pdist(pts)))
    assert core.validate(sp).code == code


def test_space_without_dist_needs_a_row_of_coords_per_point():
    with pytest.raises(core.InputError):
        core.FinitePmSpace(("a", "b"), None, [0.5, 0.5])
    with pytest.raises(core.InputError):
        core.FinitePmSpace(("a", "b"), None, [0.5, 0.5], coords=[[0.0], [1.0], [2.0]])
    with pytest.raises(core.InputError):
        core.FinitePmSpace(("a", "b"), None, [0.5, 0.5], coords=[0.0, 1.0])


# SHA-256 of json.dumps(to_json_dict(sp)): the first two recorded when both
# samplers still built their matrix eagerly, the others when each sampler
# still built its own labels, masses and space.
JSON_SHA256 = {
    "gaussian": (lambda: gen.gaussian_sample(400, 3, seed=5),
                 "0e7fa382470d556c207affaca45f7fde9c0a07fd939e1c98ca55a6f770044572"),
    "sphere": (lambda: gen.sphere_sample(2, 1.0, 400, seed=5),
               "03de1853a9a5cc3c033ecd335af37f46177fee8a67548315a3b0597b955936de"),
    "gaussian_one_point": (lambda: gen.gaussian_sample(1, 1, seed=3),
                           "928a8503e8c544112aebffb902776cd768bdac56b2d2d57ca4b838e7d3ccbfb6"),
    "gaussian_d4_seed_list": (lambda: gen.gaussian_sample(50, 4, 2.5, seed=[7, 1]),
                              "f980fd7293a83faef453cbd4d07e228c384d3e60f8f0f91de0d265e9c4b94beb"),
    "gaussian_small_sigma": (lambda: gen.gaussian_sample(30, 2, 1e-3, seed=9),
                             "b89b59230c0f3ed259c2ca5b47b61fb566d14fcad2e6bd307e8bc794ae4dc542"),
    "sphere_circle": (lambda: gen.sphere_sample(1, 1.0, 40, seed=0),
                      "921ff421515d2c2b7ded150d1471c80c41e81d5ee1b2fce99a4e35bd6fdbf85b"),
    "sphere_d5_seed_list": (lambda: gen.sphere_sample(5, 3.0, 25, seed=[2, 5]),
                            "2768bf47b8ea2914fa303b04d6078456ad6673e97a9cb015e3bbc1bf73aff742"),
}


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
def test_json_text_is_unchanged(name):
    make, want = JSON_SHA256[name]
    text = json.dumps(core.to_json_dict(make()))
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_save_and_load_round_trip():
    sp = gen.gaussian_sample(400, 3, seed=5)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.json")
        core.save_space(sp, path)
        back = core.load_space(path)
    assert back.points == sp.points
    assert np.array_equal(back.dist, sp.dist)
    assert np.array_equal(back.mass, sp.mass)
    assert np.array_equal(back.coords, sp.coords)


OBSDIAM_PLAN = """
import contextlib, hashlib, io, sys
from mmslab import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["run", "gaussian_obsdiam"])
# VmHWM is this process's own peak; ru_maxrss would carry over the parent's
# peak across exec and so measure the test runner
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, hwm_kb // 1024,
      "scipy.spatial" in sys.modules, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_obsdiam_plan_builds_no_distance_matrix():
    """The two 5000-point samples are read through ``coords`` only: one
    5000 x 5000 matrix alone would take 200 MB."""
    proc = subprocess.run([sys.executable, "-c", OBSDIAM_PLAN],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, rss_mb, spatial, csv_sha = proc.stdout.split()
    assert code == "0"
    assert int(rss_mb) < 150
    assert spatial == "False"
    assert csv_sha == "72f98c4e7d340384413d2a864413fc1793049257a91be0f9179438ac424b0d1b"


@pytest.mark.parametrize("t", [0.1, 10.0, 2.0])
def test_scale_keeps_coordinate_projections_1_lipschitz(t):
    sp = gen.gaussian_sample(200, 2, 1.0, seed=3)
    scaled = core.scale(sp, t)
    assert scaled._dist is None  # the scaled coords define the metric
    assert np.array_equal(scaled.dist, squareform(pdist(sp.coords * t)))
    if t == 2.0:
        assert np.array_equal(scaled.dist, sp.dist * t)
    for col in scaled.coords.T:
        assert core.lipschitz_constant(scaled, col) <= 1 + 1e-9
    assert obs.obs_diam_projection_estimate(scaled, 0.2) <= scaled.diam()


SCALED_SAMPLE = """
from mmslab import core, generators
sp = core.scale(generators.gaussian_sample(3000, 3, seed=0), 2.0)
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(sp._dist is None, hwm_kb // 1024)
"""


def test_scaled_sample_builds_no_distance_matrix():
    """A 3000-point sample scaled by 2 stays given by its coords.  One
    3000 x 3000 matrix alone takes 72 MB; building and keeping the source's
    and the result's, as ``scale`` once did, peaks at 174 MB in this script,
    and the bound is half of that."""
    proc = subprocess.run([sys.executable, "-c", SCALED_SAMPLE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    unbuilt, rss_mb = proc.stdout.split()
    assert unbuilt == "True"
    assert int(rss_mb) <= 87


def generator_outputs(scale, size):
    """Every generator's output at this scale with about ``size`` points,
    where the generator takes a size; atom spaces have no scale."""
    alpha = sort_atoms([0.4, 0.3])
    towers = gen.product_tower(gen.interval_grid(15, scale), 2, 2)[0]
    return [
        gen.two_point(scale, 0.3),
        gen.interval_grid(size, scale),
        gen.gaussian_sample(size, 1, scale, seed=1),
        gen.gaussian_sample(size, 3, scale, seed=2),
        gen.sphere_sample(2, scale, size, seed=3),
        gen.atom_space(alpha, size - 2),
        gen.dissipation_family(alpha, scale, 7 if size < 300 else 8),
        *towers,
    ]


def test_generators_are_valid_at_every_size_and_scale():
    # 301 points lay above the 300-point gate below which the generators
    # used to call validate; rounding alone exceeded the absolute 1e-12
    # triangle tolerance of earlier versions at 1e3 and 1e5
    for scale in (1e-3, 1.0, 1e3, 1e5):
        for size in (200, 301):
            for sp in generator_outputs(scale, size):
                assert core.validate(sp) is None
    alpha = sort_atoms([0.4, 0.3])
    assert core.validate(gen.dissipation_family(alpha, 1.0, 9)) is None  # 514 points
    with pytest.raises(core.InputError):
        gen.dissipation_family(alpha, math.inf, 9)


@pytest.mark.parametrize("n", [200, 301])
def test_a_wide_sample_validates_and_round_trips(n):
    sp = gen.gaussian_sample(n, 1, 2e3, seed=1)  # diameter about 1.5e4
    assert core.validate(sp) is None and sp._dist is None
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.json")
        core.save_space(sp, path)
        back = core.load_space(path)  # dist given, certified against coords
    assert np.array_equal(back.dist, sp.dist) and core.validate(back) is None


def test_scaled_samples_are_valid():
    for sp in (gen.gaussian_sample(100, 1, 1.0, seed=1), gen.gaussian_sample(60, 3, 1.0, seed=2),
               gen.sphere_sample(2, 1.0, 80, seed=3), gen.interval_grid(50)):
        for t in (1e-3, 0.1, 10.0, 1e3, 1e4, 1e5):
            assert core.validate(core.scale(sp, t)) is None


@pytest.mark.parametrize("coords, mass, message", [
    (np.arange(602.0).reshape(301, 2), np.full(301, 2 / 301), "sum"),
    (np.vstack([np.arange(600.0).reshape(300, 2), [[0.0, 1.0]]]), np.full(301, 1 / 301),
     r"dist\[0\]\[300\] = 0.0 <= 0 for i != j"),
    (np.vstack([np.arange(600.0).reshape(300, 2), [[np.nan, 1.0]]]), np.full(301, 1 / 301),
     r"dist\[0\]\[300\] is not finite"),
], ids=["mass_sum", "equal_rows", "nan"])
def test_checks_above_the_validation_limit(coords, mass, message):
    # 301 points lay above the 300-point gate of earlier versions, where a
    # separate check stood in for validate; validate now reports these
    points = tuple(range(len(coords)))
    with pytest.raises(core.InvalidSpaceError, match=message):
        core.space(points, None, mass, coords=coords)


def test_triangle_message_prints_the_measured_gap():
    # n = 200 takes the blocked sweep, which compares D[i,k] with D[i,j] + D[j,k];
    # rounding alone at diameter 3e5 stays within the tolerance, a planted
    # excess of 1e-9 times the diameter does not
    sp = gen.gaussian_sample(200, 1, 1e5, seed=1)
    D = np.array(sp.dist)
    order = np.argsort(sp.coords[:, 0])
    i, j, k = order[0], order[1], order[-1]
    D[i, k] = D[k, i] = D[i, j] + D[j, k] + 1e-9 * sp.diam()
    with pytest.raises(core.InvalidSpaceError, match=r"dist\[\d+\]\[\d+\] > ") as info:
        core.space(sp.points, D, sp.mass)
    gap = float(str(info.value).rsplit("by ", 1)[1])
    assert gap > core.VALIDATION_TOL * sp.diam()
    small = core.FinitePmSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]], [1 / 3] * 3)
    assert core.validate(small).message.endswith("by 1.000e+00")
