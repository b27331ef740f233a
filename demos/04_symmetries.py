"""The automorphism group of the hexagon and its two degree-63 faces.

A deterministic individualization-refinement search on the incidence graph
finds a handful of generators and reads the group order off its tree;
Schreier-Sims on the search's spine as its base pins the same exact order,
12096 = 2^6 * 3^3 * 7.  No two lines share all their points and no two
points lie on the same lines, so restricting to points and to lines gives
two faithful degree-63 actions of that one group, with its order, without
building either; both are transitive.  A scan of the generators, then of
the group's elements, finds an element whose fixed-point counts differ, so
the two permutation characters (hence the two representations) are
genuinely different.  A search generator already separates them, so the
witness does not depend on the chain's base.
"""

import time

from splithex.geometry import hyperoval_partitions
from splithex.groups import (
    PermutationGroup,
    automorphism_generators,
    induced_actions,
    nonequivalence_certificate,
)
from splithex.hexagon import build, incidence_graph

structure = build(hyperoval_partitions()[0])
graph = incidence_graph(structure)

print("=== searching for automorphisms ===\n")
start = time.perf_counter()
generators = automorphism_generators(graph, [0] * 63 + [1] * 63)
elapsed = time.perf_counter() - start
print(f"found {len(generators)} generators in {elapsed * 1000:.1f} ms")

print(f"spine (the vertices individualized on the way to the first leaf): "
      f"{list(generators.base)}")
print(f"order read off the search tree: {generators.order}")

# An automorphism fixing the spine fixes every spine partition class by
# class, and the last one is discrete: the spine is a base of the group, so
# Schreier-Sims sifts each Schreier generator by its images of the spine.
group = PermutationGroup(126, generators)
print(f"group order from Schreier-Sims on the spine: {group.order}")
assert group.order == generators.order == 12096 == 2**6 * 3**3 * 7
print(f"base length: {len(group.base)}, base: {group.base}")

print("\n=== the two degree-63 actions ===\n")
points_action, lines_action = induced_actions(group, structure)
print(f"point action: order {points_action.order}, "
      f"orbits {len(points_action.orbits())}")
print(f"line action : order {lines_action.order}, "
      f"orbits {len(lines_action.orbits())}")
print(f"point-stabilizer orbit sizes: {points_action.stabilizer_orbit_sizes(0)}")

print("\n=== separating the two permutation characters ===\n")
witness = nonequivalence_certificate(points_action, lines_action)
print(f"witness found: fixed-point count {witness.fixed_points} on points, "
      f"{witness.fixed_lines} on lines")
assert witness.fixed_points != witness.fixed_lines
print("\nThe two degree-63 representations are not equivalent: the same group")
print("element fixes different numbers of points and lines, so the two")
print("permutation characters disagree.")
