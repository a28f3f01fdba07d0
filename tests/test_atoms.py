"""Atom-vector algebra: sorting map, products, contractions, truncations,
packing membership, the l1 distance bound, and dissipation detection."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmslab import atoms, core, generators as gen
from mmslab.atoms import AtomVector, sort_atoms


def membership_intersection_report(sp, alpha, ns):
    """Membership must be equivalent to membership of every truncation at or
    beyond the support size, with a monotone implication chain below it."""
    full = atoms.member(sp, alpha) is not None
    rows = []
    ok = True
    prev_accept = None
    for n in sorted(ns):
        acc = atoms.member(sp, atoms.truncate(alpha, n, "zero")) is not None
        rows.append((n, acc))
        if n >= alpha.support_size() and acc != full:
            ok = False
        if prev_accept is not None and prev_accept is False and acc:
            ok = False  # more constraints cannot rescue a refused prefix
        prev_accept = acc
    return {"ok": ok, "full": full, "truncations": rows}


def entries_strategy(max_len=6):
    return st.lists(
        st.floats(min_value=0.0, max_value=0.25, allow_nan=False),
        min_size=0,
        max_size=max_len,
    ).filter(lambda xs: sum(xs) <= 1.0)


class TestSortingMap:
    def test_basic(self):
        assert sort_atoms([0.2, 0.5, 0.1]).entries == (0.5, 0.2, 0.1)

    @settings(max_examples=200, derandomize=True)
    @given(entries_strategy())
    def test_idempotent(self, xs):
        once = sort_atoms(xs)
        assert sort_atoms(once).entries == once.entries

    @settings(max_examples=200, derandomize=True)
    @given(entries_strategy())
    def test_sorted_and_clean(self, xs):
        out = sort_atoms(xs).entries
        assert all(a >= b for a, b in zip(out, out[1:]))
        assert all(e > 0 for e in out)

    def test_continuity_under_perturbation(self, rng):
        # small sup-norm changes of the raw sequence move the sorted sequence
        # by at most the same sup-norm
        for _ in range(50):
            base = rng.uniform(0, 0.2, size=6)
            noise = rng.uniform(-1e-3, 1e-3, size=6)
            pert = np.clip(base + noise, 0, None)
            a = sort_atoms(base).as_floats()
            b = sort_atoms(pert).as_floats()
            k = max(len(a), len(b))
            a = np.pad(a, (0, k - len(a)))
            b = np.pad(b, (0, k - len(b)))
            assert np.abs(a - b).max() <= np.abs(pert - base).max() + 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(core.InputError):
            sort_atoms([-0.1, 0.5])
        with pytest.raises(core.InputError):
            sort_atoms([0.7, 0.7])

    def test_pointwise_equals_uniform_convergence(self):
        # vectors converging pointwise converge uniformly (bounded l1 mass)
        target = sort_atoms([0.4, 0.3, 0.2])
        sups = []
        for n in (2, 4, 8, 16, 32):
            approx = sort_atoms([0.4 - 1 / (10 * n), 0.3, 0.2, 1 / (20 * n)])
            a, t = approx.as_floats(), target.as_floats()
            k = max(len(a), len(t))
            sups.append(
                np.abs(np.pad(a, (0, k - len(a))) - np.pad(t, (0, k - len(t)))).max()
            )
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.01


class TestProduct:
    def test_identity_and_zero(self):
        a = sort_atoms([0.5, 0.25])
        assert atoms.atom_product(a, atoms.ONE).entries == a.entries
        assert atoms.atom_product(a, atoms.ZERO).entries == ()

    def test_expansion(self):
        a = sort_atoms([0.5, 0.5])
        assert atoms.atom_product(a, a).entries == (0.25, 0.25, 0.25, 0.25)

    @settings(max_examples=150, derandomize=True)
    @given(entries_strategy(4), entries_strategy(4))
    def test_norm_multiplicative(self, xs, ys):
        a, b = sort_atoms(xs), sort_atoms(ys)
        prod = atoms.atom_product(a, b)
        assert prod.norm1() == pytest.approx(a.norm1() * b.norm1(), abs=1e-12)

    def test_commutative_associative(self, rng):
        for _ in range(20):
            a = sort_atoms(rng.dirichlet(np.ones(3)) * rng.uniform(0.2, 1.0))
            b = sort_atoms(rng.dirichlet(np.ones(2)) * rng.uniform(0.2, 1.0))
            c = sort_atoms(rng.dirichlet(np.ones(2)) * rng.uniform(0.2, 1.0))
            ab = atoms.atom_product(a, b)
            ba = atoms.atom_product(b, a)
            assert np.allclose(ab.as_floats(), ba.as_floats(), atol=1e-12)
            left = atoms.atom_product(ab, c)
            right = atoms.atom_product(a, atoms.atom_product(b, c))
            assert np.allclose(left.as_floats(), right.as_floats(), atol=1e-12)


class TestContraction:
    def test_total_collapse(self, rng):
        for _ in range(10):
            a = sort_atoms(rng.dirichlet(np.ones(4)) * 0.9)
            b = AtomVector((a.norm1(),))
            groups = atoms.is_contraction(a, b)
            assert groups is not None
            assert sorted(i for g in groups for i in g) == list(range(4))

    def test_example_grouping(self):
        a = AtomVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        b = AtomVector((Fraction(1, 2), Fraction(1, 2)))
        groups = atoms.is_contraction(a, b)
        assert groups is not None
        assert sorted(map(sorted, groups[:2])) == [[0], [1, 2]]

    def test_norm_mismatch_refused(self):
        assert atoms.is_contraction(sort_atoms([0.5]), sort_atoms([0.4])) is None

    def test_refusal(self):
        a = sort_atoms([0.5, 0.3, 0.2])
        b = sort_atoms([0.6, 0.4])
        assert atoms.is_contraction(a, b) is None  # no grouping sums to 0.6

    def test_mutual_contraction_is_equality(self, rng):
        hits = 0
        for _ in range(200):
            a = sort_atoms(rng.dirichlet(np.ones(rng.integers(1, 5))) * 0.8)
            if rng.uniform() < 0.5:
                # derive b by a random grouping of a
                k = int(rng.integers(1, len(a.entries) + 1))
                slots = rng.integers(0, k, size=len(a.entries))
                sums = [0.0] * k
                for e, s in zip(a.entries, slots):
                    sums[s] += e
                b = sort_atoms([s for s in sums if s > 0])
            else:
                b = sort_atoms(rng.dirichlet(np.ones(3)) * 0.8)
            fwd = atoms.is_contraction(a, b)
            bwd = atoms.is_contraction(b, a)
            if fwd is not None and bwd is not None:
                hits += 1
                assert np.allclose(a.as_floats(), b.as_floats(), atol=1e-9)
        assert hits > 0

    def test_partial_order_transitive(self):
        a = AtomVector((Fraction(1, 4),) * 4)
        b = AtomVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        c = AtomVector((Fraction(1, 2), Fraction(1, 2)))
        assert atoms.is_contraction(a, b) is not None
        assert atoms.is_contraction(b, c) is not None
        assert atoms.is_contraction(a, c) is not None

    def test_partial_order_reflexive(self, rng):
        for _ in range(10):
            a = sort_atoms(rng.dirichlet(np.ones(4)) * 0.9)
            assert atoms.is_contraction(a, a) is not None


class TestTruncations:
    def test_short_vector_unchanged(self):
        a = sort_atoms([0.4, 0.3])
        assert atoms.truncate(a, 5, "zero").entries == a.entries
        assert atoms.truncate(a, 5, "collapse").entries == a.entries

    def test_geometric_collapse(self):
        geo = sort_atoms([0.5 * 0.5**k for k in range(25)])
        col = atoms.truncate(geo, 2, "collapse")
        assert col.entries[0] == pytest.approx(0.5, abs=1e-7)
        assert col.entries[1] == pytest.approx(0.5, abs=1e-7)

    def test_collapse_is_contraction(self, rng):
        for _ in range(10):
            a = sort_atoms(rng.dirichlet(np.ones(6)) * 0.95)
            for n in range(1, 6):
                col = atoms.truncate(a, n, "collapse")
                assert atoms.is_contraction(a, col) is not None

    def test_zero_truncation_prefix(self):
        a = sort_atoms([0.4, 0.3, 0.2])
        assert atoms.truncate(a, 2, "zero").entries == (0.4, 0.3)


class TestMembership:
    def test_zero_vector_always_member(self, rng):
        sp = gen.two_point()
        res = atoms.member(sp, atoms.ZERO)
        assert res is not None and res.map == ()

    def test_packing_example(self):
        sp = core.space(
            ["a", "b", "c"],
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [0.5, 0.3, 0.2],
        )
        res = atoms.member(sp, sort_atoms([0.4, 0.3]))
        assert res is not None and res.map == (0, 1)
        assert res.verify(sp, sort_atoms([0.4, 0.3]))
        assert atoms.member(sp, sort_atoms([0.6])) is None

    def test_diameter_gate(self):
        sp = gen.two_point(3.0)
        assert atoms.member(sp, sort_atoms([0.4]), delta=2.0) is None
        assert atoms.member(sp, sort_atoms([0.4]), delta=3.0) is not None

    def test_exhaustive_oracle(self, rng):
        # brute-force all assignments of atoms to points
        import itertools

        for _ in range(15):
            n = int(rng.integers(2, 5))
            mass = rng.dirichlet(np.ones(n))
            mass = np.maximum(mass, 0.05)
            mass = mass / mass.sum()
            dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
            sp = core.space([f"p{i}" for i in range(n)], dist, mass)
            k = int(rng.integers(1, 4))
            alpha = sort_atoms(rng.dirichlet(np.ones(k)) * rng.uniform(0.3, 1.0))
            want = False
            for assign in itertools.product(range(n), repeat=len(alpha.entries)):
                load = np.zeros(n)
                for i, x in enumerate(assign):
                    load[x] += alpha.entries[i]
                if np.all(load <= mass + 1e-12):
                    want = True
                    break
            got = atoms.member(sp, alpha) is not None
            assert got == want

    def test_contraction_monotone(self, rng):
        # coarser atoms are harder: membership of a contraction implies
        # membership of the original
        for _ in range(20):
            a = sort_atoms(rng.dirichlet(np.ones(4)) * 0.9)
            col = atoms.truncate(a, int(rng.integers(1, 4)), "collapse")
            sp = gen.atom_space(col, m_diffuse=3)
            if atoms.member(sp, col) is not None:
                assert atoms.member(sp, a) is not None

    def test_intersection_report(self):
        sp = core.space(["a", "b"], [[0, 1], [1, 0]], [0.6, 0.4])
        alpha = sort_atoms([0.5, 0.3, 0.2])
        rep = membership_intersection_report(sp, alpha, range(1, 5))
        assert rep["ok"]
        assert rep["full"] is False
        accepted = dict(rep["truncations"])
        assert accepted[1] is True and accepted[3] is False

    def test_membership_of_own_atom_space(self, rng):
        for _ in range(10):
            a = sort_atoms(rng.dirichlet(np.ones(3)) * rng.uniform(0.5, 1.0))
            sp = gen.atom_space(a, m_diffuse=4)
            res = atoms.member(sp, a)
            assert res is not None and res.verify(sp, a)

    def test_refusal_with_equal_atoms_is_fast(self):
        # 7 points hold 9 atoms of 0.05 between them and 13 hold none, so 12
        # atoms are refused; a search that tries every order of the equal
        # atoms takes seconds here, one order per packing takes milliseconds
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, size=(20, 3))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        big = rng.uniform(0.05, 0.12, size=7)
        sp = core.space(range(20), dist, np.concatenate([big, [(1.0 - big.sum()) / 13] * 13]))
        start = time.perf_counter()
        assert atoms.member(sp, AtomVector((0.05,) * 12)) is None
        assert time.perf_counter() - start < 1.0
        assert atoms.member(sp, AtomVector((0.05,) * 9)) is not None


class TestDistanceBound:
    def test_zero_on_equal(self):
        a = sort_atoms([0.5, 0.5])
        assert atoms.pyramid_distance_upper(a, a) == 0.0

    def test_l1_value(self):
        assert atoms.pyramid_distance_upper(
            sort_atoms([0.5, 0.5]), sort_atoms([0.5, 0.4])
        ) == pytest.approx(0.1)

    def test_linf_comparison(self, rng):
        for _ in range(30):
            a = sort_atoms(rng.dirichlet(np.ones(4)) * 0.9)
            b = sort_atoms(rng.dirichlet(np.ones(3)) * 0.9)
            l1 = atoms.pyramid_distance_upper(a, b)
            k = max(len(a.entries), len(b.entries))
            linf = max(abs(a[i] - b[i]) for i in range(k))
            assert l1 <= k * linf + 1e-12


class TestDissipation:
    def test_family_accepts(self):
        a = sort_atoms([0.4, 0.2, 0.2])
        seq = [gen.dissipation_family(a, 2.0, n) for n in range(1, 7)]
        ev = atoms.detect_dissipation(seq, a, 2.0)
        assert ev.accepted, ev.reason
        assert ev.bin_counts[-1] > ev.bin_counts[0]

    def test_atoms_only_family_accepts(self):
        a = sort_atoms([0.5, 0.25, 0.25])
        seq = [gen.dissipation_family(a, 2.0, n) for n in range(1, 7)]
        assert atoms.detect_dissipation(seq, a, 2.0).accepted

    def test_one_point_refused(self):
        one = core.space(["p"], [[0.0]], [1.0])
        a = sort_atoms([0.5, 0.25])
        ev = atoms.detect_dissipation([one] * 5, a, 1.0)
        assert not ev.accepted

    def test_blowup_family_infinite_dissipation(self):
        # growing-distance members dissipate at every tested scale for the
        # collapsed truncations
        base = sort_atoms([0.3, 0.2, 0.1, 0.05])

        def member_space(alpha, n):
            ats = [float(e) for e in alpha.entries]
            diffuse = 1.0 - sum(ats)
            masses = [diffuse / n] * n + ats
            labels = [f"y{i}" for i in range(n)] + [f"x{i}" for i in range(len(ats))]
            dmat = np.full((len(masses),) * 2, float(n))
            np.fill_diagonal(dmat, 0.0)
            return core.space(labels, dmat, masses)

        for trunc in (1, 2, 3):
            ac = atoms.truncate(base, trunc, "collapse")
            seq = [member_space(ac, n) for n in range(2, 9)]
            for delta in (1.0, 2.0, 5.0):
                assert atoms.detect_dissipation(seq, ac, delta).accepted

    def test_scale_consistency(self):
        a = sort_atoms([0.25, 0.125, 0.125])
        seq = [gen.dissipation_family(a, 1.0, n) for n in range(1, 7)]
        scaled = [core.scale(sp, 3.0) for sp in seq]
        assert atoms.detect_dissipation(scaled, a, 3.0).accepted
        assert not atoms.detect_dissipation(scaled, a, 4.0).accepted

    def test_collapsing_scale_refused(self):
        # atoms persist but the spread decays, so no positive scale survives
        a = sort_atoms([0.25, 0.125, 0.125])
        seq = [
            core.scale(gen.dissipation_family(a, 1.0, n), 1.0 / 2**n)
            for n in range(1, 7)
        ]
        assert not atoms.detect_dissipation(seq, a, 1.0).accepted
        assert not atoms.detect_dissipation(seq, a, 0.5).accepted

    def test_thresholds_beyond_the_separation_limit_are_skipped(self):
        # 13 atoms give 13 positive thresholds at every slack, one more than
        # separation takes: the cross-check is skipped, not read as "never
        # reaches delta"; with 12 atoms it runs
        for k, rows in ((13, ()), (12, ((2, 0, 0.01), (3, 0, 0.01)))):
            a = sort_atoms([Fraction(1, k)] * k)
            seq = [gen.dissipation_family(a, 1.0, n) for n in range(1, 5)]
            ev = atoms.detect_dissipation(seq, a, 1.0)
            assert ev.accepted, ev.reason
            assert ev.sep_checked == rows

    @pytest.mark.parametrize("order,reasons", [
        ("reversed", ["largest small bin not decreasing", "small-bin count decreasing"]),
        ("merging", ["atom mismatch not decreasing"]),
    ])
    def test_not_decreasing_reasons(self, order, reasons):
        # reversed, the family's small bins grow and fewer; merging, the last
        # member's points lie closer than delta, so the atoms fuse
        a = sort_atoms([0.4, 0.2, 0.2])
        if order == "reversed":
            seq = [gen.dissipation_family(a, 2.0, n) for n in range(6, 0, -1)]
        else:
            seq = [gen.dissipation_family(a, d, 3) for d in (2.0,) * 5 + (0.5,)]
        ev = atoms.detect_dissipation(seq, a, 2.0)
        assert not ev.accepted
        assert all(r in ev.reason.split("; ") for r in reasons)

    def test_short_sequence_rejected(self):
        a = sort_atoms([0.5])
        with pytest.raises(core.InputError):
            atoms.detect_dissipation([gen.two_point()] * 3, a, 1.0)


class TestAlgebraConsistency:
    def test_identity_cases(self):
        one = atoms.ONE
        rep = atoms.algebra_consistency_report(one, one, 2)
        assert rep["ok"], rep["violations"]

    def test_half_half_times_identity(self):
        a = sort_atoms([0.5, 0.5])
        rep = atoms.algebra_consistency_report(a, atoms.ONE, math.inf)
        assert rep["ok"], rep["violations"]

    def test_half_half_squared_linf(self):
        a = sort_atoms([0.5, 0.5])
        rep = atoms.algebra_consistency_report(a, a, math.inf)
        assert rep["ok"], rep["violations"]
        assert rep["checked"] >= 1

    def test_products_of_members_keep_product_atoms(self, rng):
        for p in (1, 2, math.inf):
            a = sort_atoms([0.5, 0.3])
            b = sort_atoms([0.6, 0.2])
            sa = gen.atom_space(a, m_diffuse=2)
            sb = gen.atom_space(b, m_diffuse=2)
            rep = atoms.algebra_consistency_report(a, b, p, samples=[(sa, sb)])
            assert rep["ok"], rep["violations"]
