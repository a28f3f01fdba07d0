"""The exact decision searches return the same witnesses, refusals and node
counts as recorded before their inner loops were vectorised and their two
packing searches merged: domination maps with pushforwards, witness checks,
mm-isomorphism, atom membership and contraction groupings."""

from fractions import Fraction

import numpy as np

from mmslab import atoms, core, generators, order
from conftest import random_embedded_space, random_shortest_path_space


def quotient_pair(rng, n, k):
    """(X, Y): Y merges the points of X into k groups at their smallest
    cross-group distances, closed to a metric, so X dominates Y."""
    sx = random_embedded_space(rng, n)
    group = rng.permutation(np.arange(n) % k)
    dy = np.array([[0.0 if a == b else sx.dist[np.ix_(group == a, group == b)].min()
                    for b in range(k)] for a in range(k)])
    for c in range(k):
        dy = np.minimum(dy, dy[:, c][:, None] + dy[c][None, :])
    my = np.bincount(group, weights=sx.mass, minlength=k)
    return sx, core.space([f"g{g}" for g in range(k)], dy, my / my.sum())


def domination_cases():
    rng = np.random.default_rng(2026)
    cases = []
    for n, k in ((5, 2), (7, 3), (8, 5), (10, 4), (12, 8)):
        sx, sy = quotient_pair(rng, n, k)
        cases += [(sx, sy), (sy, sx)] if n <= 8 else [(sx, sy)]
    for sp in (random_embedded_space(rng, 5), random_shortest_path_space(rng, 6)):
        cases += [(core.scale(sp, 2.0), sp), (sp, core.scale(sp, 2.0))]
    cases += [(generators.interval_grid(6, 2.5), generators.interval_grid(3)),
              (generators.interval_grid(4), generators.interval_grid(3, 2.0))]
    return cases


def summary(result):
    if isinstance(result, order.DominationWitness):
        return result.map, tuple(map(float, result.pushforward)), result.nodes_explored
    return result.nodes_explored


def test_domination_values_unchanged():
    got = []
    for sx, sy in domination_cases():
        result = order.dominates(sx, sy)
        got.append(summary(result))
        if result:
            bent = list(result.map)
            bent[0] = (bent[0] + 1) % sy.n
            got.append((order.check_witness(sx, sy, result.map),
                        order.check_witness(sx, sy, bent)))
    assert got == DOMINATION_RECORDED


def test_isomorphism_values_unchanged():
    rng = np.random.default_rng(2027)
    got = []
    for n in (4, 7, 10):
        sp = random_embedded_space(rng, n)
        perm = rng.permutation(n)
        copy = core.space(list(sp.points), sp.dist[np.ix_(perm, perm)], sp.mass[perm])
        swap = sp.mass.copy()
        a, b = np.argsort(swap)[[0, -1]]
        swap[[a, b]] = swap[[b, a]]
        got += [core.mm_isomorphic(sp, copy), core.mm_isomorphic(sp, core.space(
            sp.points, sp.dist, swap))]
    assert got == [True, False] * 3


def test_packing_values_unchanged():
    rng = np.random.default_rng(2028)
    got = []
    for n in (6, 12, 18):
        sp = random_embedded_space(rng, n)
        cuts = [0.9 * sp.mass[i] / 2 for i in rng.choice(n, size=4, replace=False)]
        alpha = atoms.sort_atoms(cuts + cuts)
        too_big = atoms.AtomVector((min(1.0, float(sp.mass.max()) * 1.01),))
        for result in (atoms.member(sp, alpha), atoms.member(sp, too_big),
                       atoms.member(sp, alpha, delta=0.5 * sp.diam())):
            got.append(None if result is None else result.map)
    for count, groups in ((6, 2), (9, 3), (12, 5)):
        nums = np.sort(rng.integers(1, 40, size=count))[::-1]
        alpha = [Fraction(int(c), 512) for c in nums]
        owner = rng.permutation(np.arange(count) % groups)
        beta = atoms.sort_atoms([sum((alpha[i] for i in range(count) if owner[i] == g),
                                     Fraction(0)) for g in range(groups)])
        alpha = atoms.AtomVector(tuple(alpha))
        shift = Fraction(1, 1024)
        shifted = atoms.sort_atoms((beta.entries[0] + shift, *beta.entries[1:-1],
                                    beta.entries[-1] - shift))
        as_float = [atoms.AtomVector(tuple(float(e) for e in v.entries)) for v in (alpha, beta)]
        got += [atoms.is_contraction(alpha, beta), atoms.is_contraction(*as_float),
                atoms.is_contraction(alpha, shifted)]
    assert got == PACKING_RECORDED


# recorded before the searches were vectorised and merged
DOMINATION_RECORDED = [
    ((0, 0, 0, 1, 1), (0.4858545403471146, 0.5141454596528855), 6),
    (True, False),
    1,
    ((2, 1, 0, 0, 0, 2, 1), (0.2876035533642405, 0.3900685504279844, 0.32232789620777513), 8),
    (True, False),
    1,
    ((0, 4, 1, 3, 0, 1, 2, 2),
     (0.16287444954724825, 0.12325195060501387, 0.5071010190177039, 0.1730151386503755,
      0.03375744217965866),
     9),
    (True, False),
    1,
    ((0, 3, 3, 2, 0, 0, 2, 1, 1, 1),
     (0.11342206374109509, 0.23540783778482735, 0.1896619641275492, 0.46150813434652843),
     14),
    (True, False),
    ((0, 6, 2, 3, 1, 7, 3, 0, 1, 5, 4, 2),
     (0.181712534322392, 0.18047090368512841, 0.14630164413472363, 0.12676682550779922,
      0.1253814250699883, 0.051789639143979674, 0.13757785042901116, 0.04999917770697766),
     97),
    (True, False),
    ((0, 1, 2, 3, 4),
     (0.22894700409686017, 0.13605431948080918, 0.11914100167270247, 0.3815767660709984,
      0.13428090867862982),
     6),
    (True, False),
    2,
    ((0, 1, 2, 3, 4, 5),
     (0.10641635281441213, 0.02624406760069478, 0.052881507289662205, 0.13411481967063335,
      0.36861946908051796, 0.31172378354407965),
     7),
    (True, False),
    2,
    ((0, 0, 1, 1, 2, 2), (0.3333333333333333, 0.3333333333333333, 0.3333333333333333), 7),
    (True, False),
    4,
]
PACKING_RECORDED = [
    (1, 1, 3, 4, 2, 2, 0, 0),
    None,
    None,
    (0, 0, 1, 1, 1, 3, 0, 2),
    None,
    None,
    (1, 7, 0, 0, 0, 0, 1, 2),
    None,
    None,
    ((0, 1, 3), (2, 4, 5)),
    ((0, 1, 3), (2, 4, 5)),
    None,
    ((0, 4, 6), (1, 3, 7), (2, 5, 8)),
    ((0, 4, 6), (1, 3, 7), (2, 5, 8)),
    None,
    ((1, 4, 6), (2, 3), (0, 5), (7, 8, 9), (10, 11)),
    ((1, 4, 6), (2, 3), (0, 5), (7, 8, 9), (10, 11)),
    None,
]
