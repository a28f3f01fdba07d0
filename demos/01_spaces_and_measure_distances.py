"""Finite metric measure spaces and the basic measure distances.

Builds a few small spaces, shows what validation rejects, and walks through
total variation, Prokhorov and Ky Fan distances plus the Lipschitz extension.
"""

import numpy as np

from mmslab import core

print("=== building and validating spaces ===")
triangle = core.space(
    ["a", "b", "c"],
    [[0.0, 1.0, 1.5], [1.0, 0.0, 0.8], [1.5, 0.8, 0.0]],
    [0.5, 0.3, 0.2],
)
print(f"triangle space: {triangle.n} points, diameter {triangle.diam()}")

broken = core.FinitePmSpace(
    ["a", "b", "c"],
    [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
    [1 / 3, 1 / 3, 1 / 3],
)
print("a metric defect is reported, never repaired:", core.validate(broken))

print()
print("=== measure distances on a fixed carrier ===")
mass_a = np.array([0.5, 0.3, 0.2])
mass_b = np.array([0.2, 0.3, 0.5])
print("total variation (half sum):", core.total_variation(mass_a, mass_b))
print("Prokhorov distance (exact, max-flow):", core.prokhorov(triangle, mass_a, mass_b))
print("Prokhorov never exceeds total variation.")

print()
print("=== Ky Fan distance between observables ===")
f = core.as_lipschitz(triangle, triangle.dist[0])
g = core.as_lipschitz(triangle, triangle.dist[2])
print("observables:", f.values, "and", g.values)
print("Ky Fan distance:", core.ky_fan(triangle, f, g))

print()
print("=== Lipschitz extension from a subset ===")
ext = core.mcshane_extend(triangle, [0, 2], [0.0, 1.0], lip_bound=1.0)
print("extended values:", ext.values)
print("certified Lipschitz constant:", core.lipschitz_constant(triangle, ext.values))

print()
print("=== entropy functional ===")
print("entropy of the constant observable (Jensen equality):", core.entropy(triangle, [1, 1, 1]))
print("entropy of (2, 0, 1):", core.entropy(triangle, [2.0, 0.0, 1.0]))
