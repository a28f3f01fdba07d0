"""Box distance between finite spaces: exact tiny values, certified bounds,
and convergence witnesses.

The exact routine bisects over the cell-pair discrepancies and, at each
threshold, searches the maximal cliques of cells within it for the largest
transportation max-flow, up to boxmetric.EXACT_MAX_CELLS coupling cells;
bounds come from structured couplings and the Levy distance between
pairwise-distance distributions.
"""

import numpy as np

from mmslab import boxmetric, core, generators as gen

two = gen.two_point(1.0)
two_long = gen.two_point(1.3)
three = gen.interval_grid(3)

print("=== exact values on tiny instances ===")
for name, (a, b) in {
    "identical": (two, two),
    "stretched metric": (two, two_long),
    "two vs three points": (two, three),
}.items():
    est = boxmetric.box_exact_small(a, b)
    print(f"{name:22s} box = {est.upper:.6f}  ({est.certificate})")

print()
print("=== an exact value past 12 cells: level 2 of two towers ===")
l1 = gen.product_tower(two, 1, 2)[0][1]
l2 = gen.product_tower(two, 2, 2)[0][1]
est = boxmetric.box_exact_small(l1, l2)
print(f"{l1.n} x {l2.n} points ({l1.n * l2.n} cells), l1 vs l2 square: "
      f"box = {est.upper:.6f}  ({est.certificate})")

print()
print("=== bounds bracket the exact value ===")
lo = boxmetric.box_lower(two, three)
ex = boxmetric.box_exact_small(two, three).upper
up = boxmetric.box_upper(two, three).upper
print(f"lower {lo:.6f} <= exact {ex:.6f} <= upper {up:.6f}")

print()
print("=== mass perturbations shrink in the box metric ===")
limit = gen.two_point(1.0, 0.5)
sequence = [gen.two_point(1.0, 0.5 + 1.0 / n) for n in (4, 8, 16, 32, 64)]
uppers = [boxmetric.box_upper(sp, limit).upper for sp in sequence]
print("upper bounds along the sequence:", [round(u, 4) for u in uppers])
print("box-converges:", boxmetric.box_converges(sequence, limit, tol=0.3))

print()
print("=== scaling continuity ===")
rng = np.random.default_rng(0)
pts = rng.uniform(0, 1, size=(4, 2))
dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
sp = core.space([f"p{i}" for i in range(4)], dist, np.full(4, 0.25))
for t in (2.0, 1.5, 1.1, 1.01):
    print(f"box_upper(scale(X, {t}), X) = {boxmetric.box_upper(core.scale(sp, t), sp).upper:.4f}")
