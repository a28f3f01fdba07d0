"""Sampled spaces: the distance matrix computed from ``coords`` on its first
read, the checks that stand in for ``validate`` above
``generators._VALIDATE_LIMIT`` points, the measured gap in triangle messages,
and scaling that keeps coordinate projections 1-Lipschitz."""

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
    sp = make()  # above _VALIDATE_LIMIT, so the generator does not read it
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


# SHA-256 of json.dumps(to_json_dict(sp)), recorded when both samplers still
# built their matrix eagerly.
JSON_SHA256 = {
    "gaussian": (lambda: gen.gaussian_sample(400, 3, seed=5),
                 "0e7fa382470d556c207affaca45f7fde9c0a07fd939e1c98ca55a6f770044572"),
    "sphere": (lambda: gen.sphere_sample(2, 1.0, 400, seed=5),
               "03de1853a9a5cc3c033ecd335af37f46177fee8a67548315a3b0597b955936de"),
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


@pytest.mark.parametrize("t", [0.1, 10.0])
def test_scale_keeps_coordinate_projections_1_lipschitz(t):
    sp = gen.gaussian_sample(200, 2, 1.0, seed=3)
    scaled = core.scale(sp, t)
    assert np.array_equal(scaled.dist, sp.dist * t)
    for col in scaled.coords.T:
        assert core.lipschitz_constant(scaled, col) <= 1 + 1e-9
    assert obs.obs_diam_projection_estimate(scaled, 0.2) <= scaled.diam()


def test_generators_above_the_validation_limit_are_valid():
    alpha = sort_atoms([0.4, 0.3])
    spaces = [
        gen.interval_grid(400, 2.0),
        gen.gaussian_sample(400, 2, 1.0, seed=0),
        gen.sphere_sample(2, 1.5, 400, seed=0),
        gen.atom_space(alpha, 398),
        gen.dissipation_family(alpha, 1.0, 9),
    ]
    for sp in spaces:
        assert sp.n > gen._VALIDATE_LIMIT
        assert core.validate(sp) is None
    with pytest.raises(core.InputError):
        gen.dissipation_family(alpha, math.inf, 9)


@pytest.mark.parametrize("coords, mass, message", [
    (np.arange(602.0).reshape(301, 2), np.full(301, 2 / 301), "sum"),
    (np.vstack([np.arange(600.0).reshape(300, 2), [[0.0, 1.0]]]), np.full(301, 1 / 301),
     "equal coords"),
    (np.vstack([np.arange(600.0).reshape(300, 2), [[np.nan, 1.0]]]), np.full(301, 1 / 301),
     "not finite"),
], ids=["mass_sum", "equal_rows", "nan"])
def test_checks_above_the_validation_limit(coords, mass, message):
    points = tuple(range(len(coords)))
    assert len(points) > gen._VALIDATE_LIMIT
    with pytest.raises(core.InvalidSpaceError, match=message):
        gen._finish(points, None, mass, coords=coords)


def test_triangle_message_prints_the_measured_gap():
    # n = 200 takes the blocked sweep, which compares D[i,k] with D[i,j] + D[j,k]
    with pytest.raises(core.InvalidSpaceError, match=r"dist\[\d+\]\[\d+\] > ") as info:
        gen.gaussian_sample(200, 1, 1e5, seed=1)
    gap = float(str(info.value).rsplit("by ", 1)[1])
    assert gap > core.VALIDATION_TOL
    small = core.FinitePmSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]], [1 / 3] * 3)
    assert core.validate(small).message.endswith("by 1.000e+00")
