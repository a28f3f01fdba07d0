"""Generated example spaces: structural validity, seeded reproducibility,
projection witnesses, and the statistical claims the samplers support."""

import math

import numpy as np
import pytest

from mmslab import atoms, core, generators as gen, observables as obs, order
from mmslab.atoms import sort_atoms

from conftest import random_embedded_space


def dissipation_projection(alpha, delta, n):
    """The mod-2^(n-1) projection witnessing that the level-(n-1) member is
    dominated by the level-n member."""
    big = gen.dissipation_family(alpha, delta, n)
    small = gen.dissipation_family(alpha, delta, n - 1)
    n_atoms = sum(1 for e in alpha.entries if e > 0)
    diffuse = big.n - n_atoms
    half = diffuse // 2
    mapping = []
    for j in range(diffuse):
        mapping.append(j % half if half else 0)
    for i in range(n_atoms):
        mapping.append((diffuse // 2) + i)
    push = np.bincount(mapping, weights=big.mass, minlength=small.n)
    return big, small, order.DominationWitness(tuple(mapping), tuple(push))


class TestValidity:
    def test_all_generators_validate(self):
        alpha = sort_atoms([0.4, 0.3])
        spaces = [
            gen.two_point(1.5, 0.3),
            gen.interval_grid(7, 2.0),
            gen.gaussian_sample(40, 2, 1.0, seed=0),
            gen.sphere_sample(2, 1.5, 40, seed=0),
            gen.atom_space(alpha, 5),
            gen.dissipation_family(alpha, 1.0, 3),
        ]
        for sp in spaces:
            assert core.validate(sp) is None

    def test_coordinates_stay_lipschitz_under_scaling(self):
        # the coords rule of validate holds at every scale; the triangle
        # sweep's tolerance is absolute, so it is not checked here
        rng = np.random.default_rng(4)
        spaces = [
            gen.interval_grid(7, 2.0),
            gen.interval_grid(301, 1e3),
            gen.gaussian_sample(40, 1, 1.0, seed=0),
            gen.gaussian_sample(300, 5, 1e-3, seed=1),
            gen.sphere_sample(2, 1.5, 40, seed=0),
            gen.atom_space(sort_atoms([0.4, 0.3]), 5),
            *(random_embedded_space(rng, n, dim) for n, dim in ((3, 1), (20, 3), (64, 8))),
        ]
        for sp in spaces:
            for t in (1e-3, 1.0, 30.0, 1e5):
                scaled = core.scale(sp, t)
                assert core._projection_violation(scaled.coords, scaled.dist) is None

    def test_interval_grid_two_points(self):
        sp = gen.interval_grid(2, 1.0)
        assert sp.n == 2 and sp.dist[0, 1] == 1.0
        assert np.allclose(sp.mass, 0.5)

    def test_interval_diam(self):
        assert gen.interval_grid(9, 2.5).diam() == pytest.approx(2.5)

    def test_parameter_errors(self):
        with pytest.raises(core.InputError):
            gen.interval_grid(1)
        with pytest.raises(core.InputError):
            gen.gaussian_sample(10, 1, 1.0)  # seed mandatory
        with pytest.raises(core.InputError):
            gen.dissipation_family(sort_atoms([0.5]), 1.0, 17)


class TestReproducibility:
    def test_gaussian_bitwise(self):
        a = gen.gaussian_sample(25, 3, 1.0, seed=11)
        b = gen.gaussian_sample(25, 3, 1.0, seed=11)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.coords, b.coords)

    def test_sphere_bitwise(self):
        a = gen.sphere_sample(4, 2.0, 30, seed=5)
        b = gen.sphere_sample(4, 2.0, 30, seed=5)
        assert np.array_equal(a.dist, b.dist)


class TestSamplers:
    def test_gaussian_projection_matches_formula(self):
        sp = gen.gaussian_sample(4000, 1, 1.0, seed=2)
        for kappa in (0.2, 0.5):
            est = obs.partial_diameter(sp.coords[:, 0], sp.mass, kappa)
            want = obs.gaussian_obs_diam(1.0, kappa)
            assert est == pytest.approx(want, rel=0.05)

    def test_gaussian_scaling(self):
        a = gen.gaussian_sample(500, 2, 1.0, seed=3)
        b = gen.gaussian_sample(500, 2, 2.0, seed=3)
        assert np.allclose(b.dist, 2.0 * a.dist)

    def test_circle_diam(self):
        sp = gen.sphere_sample(1, 2.0, 400, seed=1)
        assert sp.diam() == pytest.approx(4.0, rel=0.01)

    def test_sphere_projection_approaches_gaussian(self):
        # radius sqrt(n): coordinate projections approach the normal window
        kappa = 0.3
        want = obs.gaussian_obs_diam(1.0, kappa)
        errs = []
        for n in (4, 64):
            sp = gen.sphere_sample(n, math.sqrt(n), 3000, seed=7)
            est = obs.partial_diameter(sp.coords[:, 0], sp.mass, kappa)
            errs.append(abs(est - want))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.05 * want

    def test_small_radius_small_obsdiam(self):
        sp = gen.sphere_sample(2, 1e-3, 100, seed=9)
        assert obs.obs_diam(sp, 0.1, "heuristic", starts=8) <= 2e-3


class TestAtomSpaces:
    def test_atom_only_vector(self):
        sp = gen.atom_space(sort_atoms([0.6, 0.4]), 5)
        assert sp.n == 2  # no diffuse part
        assert atoms.member(sp, sort_atoms([0.6, 0.4])) is not None

    def test_membership_of_generator(self):
        alpha = sort_atoms([0.3, 0.3, 0.2])
        sp = gen.atom_space(alpha, 6)
        res = atoms.member(sp, alpha)
        assert res is not None and res.verify(sp, alpha)

    def test_dissipation_family_diam(self):
        alpha = sort_atoms([0.4])
        assert gen.dissipation_family(alpha, 2.5, 3).diam() == pytest.approx(2.5)

    def test_projection_witness(self):
        alpha = sort_atoms([0.4, 0.1])
        big, small, w = dissipation_projection(alpha, 1.0, 3)
        assert order.check_witness(big, small, w.map)


class TestProductTower:
    def test_one_point_tower_constant(self):
        one = core.space(["o"], [[0.0]], [1.0])
        towers, witnesses = gen.product_tower(one, 2, 4)
        assert all(t.n == 1 for t in towers)
        assert all(w.map == (0,) for w in witnesses)

    def test_square_level(self):
        towers, _ = gen.product_tower(gen.two_point(), 2, 2)
        sq = towers[1]
        assert sq.n == 4
        assert sq.diam() == pytest.approx(math.sqrt(2.0))

    def test_witnesses_verify(self):
        towers, witnesses = gen.product_tower(gen.two_point(1.0, 0.3), 2, 3)
        for k, w in enumerate(witnesses):
            assert order.check_witness(towers[k + 1], towers[k], w.map)

    def test_dominates_accepts_each_level(self):
        towers, _ = gen.product_tower(gen.two_point(1.0, 0.3), 2, 3)
        for k in range(len(towers) - 1):
            res = order.dominates(towers[k + 1], towers[k])
            assert isinstance(res, order.DominationWitness)

    def test_variance_subadditive_along_tower(self):
        base = gen.two_point(1.0, 0.4)
        towers, _ = gen.product_tower(base, 2, 2)
        v1 = obs.variance(base, "exact")
        v2 = obs.variance(towers[1], "exact")
        assert v2 <= 2 * v1 + 1e-9

    def test_size_guard(self):
        with pytest.raises(core.InputError):
            gen.product_tower(gen.interval_grid(10), 2, 5)
