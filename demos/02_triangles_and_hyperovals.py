"""From self-polar triangles to the three hyperoval partitions.

The 12 exterior points fall into 4 triangles of mutually orthogonal points.
Gluing two triangles gives a 6-point hyperoval of PG(2,4); the complement is
another one.  There are exactly 3 ways to split the triangles into such a
pair, and each split induces a division of the 36 norm-one vectors into two
halves of 18.
"""

from splithex.algebra import hermitian
from splithex.geometry import (
    hyperoval_partitions,
    projective_points,
    self_polar_triangles,
    strata_for,
    unital_points,
)


def polar(p):
    """The PG(2,4) line of the points hermitian-orthogonal to p."""
    return frozenset(q for q in projective_points() if hermitian(p, q) == 0)


print("=== the four self-polar triangles ===\n")
for i, tri in enumerate(self_polar_triangles()):
    print(f"  triangle {i}: {sorted(tri)}")
    for p in tri:
        for q in tri:
            if p != q:
                assert hermitian(p, q) == 0

print("\n=== the three hyperoval partitions ===\n")
for partition in hyperoval_partitions():
    strata = strata_for(partition)
    print(f"pairing {partition.index}:")
    print(f"  oval: {sorted(partition.oval)}")
    print(f"  twin: {sorted(partition.twin)}")
    print(f"  vectors over each half: {len(strata.oval_vectors)}, "
          f"{len(strata.twin_vectors)}")

print("\n=== hyperoval sanity: every PG(2,4) line meets a hyperoval in 0 or 2 ===\n")
partition = hyperoval_partitions()[0]
profile = {}
for line in {polar(p) for p in projective_points()}:
    meet = len(line & partition.oval)
    profile[meet] = profile.get(meet, 0) + 1
    assert meet in (0, 2)
print(f"line intersection profile with the oval: {dict(sorted(profile.items()))}")

print("\ntangent lines (perps of unital points) meet both halves twice:")
for a in unital_points()[:3]:
    tangent = polar(a)
    print(f"  tangent at {a}: oval {len(tangent & partition.oval)}, "
          f"twin {len(tangent & partition.twin)}")
