"""Build the 63/63 incidence structure and watch it pass every check.

Lines come in three kinds, all seeded by isotropic vectors; the resulting
structure is a generalized hexagon of order (2,2): its incidence graph has
diameter 6 and girth 12, and the point graph is the distance-regular graph
with distribution 1 + 6 + 24 + 32.
"""

from splithex.geometry import hyperoval_partitions, strata_for
from splithex.hexagon import (
    build,
    concurrency_graph,
    diameter,
    distance_distribution,
    dual,
    girth,
    incidence_graph,
    oval_line,
    point_graph,
    scalar_line,
    twin_line,
    verify_generalized_hexagon,
    verify_partial_linear_space,
    verify_plane_property,
)

partition = hyperoval_partitions()[0]
strata = strata_for(partition)

print("=== the three kinds of lines, for one seed ===\n")
a = (1, 1, 0)
print(f"seed a = {a} (isotropic)")
print(f"  scalar line: {sorted(scalar_line(a).points)}")
print(f"  oval line  : {sorted(oval_line(a, strata).points)}")
print(f"  twin line  : {sorted(twin_line(a, strata).points)}")
union = (
    scalar_line(a).points | oval_line(a, strata).points | twin_line(a, strata).points
)
print(f"  union of the three lines: {len(union)} vectors (a totally isotropic plane)")

print("\n=== the full structure ===\n")
structure = build(partition)
kinds = [t.kind for t in structure.tags]
print(f"points: {len(structure.points)}, lines: {len(structure.lines)} "
      f"({kinds.count('scalar')} scalar + {kinds.count('oval')} oval + "
      f"{kinds.count('twin')} twin)")

pls = verify_partial_linear_space(structure)
print(f"partial linear space of order (2,2): {'PASS' if pls.passed else 'FAIL'}")

planes = verify_plane_property(structure)
print(f"three lines through each point span a t.i. plane: "
      f"{'PASS' if planes.passed else 'FAIL'}")

conc = concurrency_graph(structure)
print(f"concurrency graph: connected={conc.connected}, "
      f"degrees={sorted(set(conc.degrees()))}")

graph = incidence_graph(structure)
print(f"\nincidence graph: {graph.vertex_count} vertices, {graph.edge_count} edges")
print(f"  diameter = {diameter(graph)}   girth = {girth(graph)}")

pg = point_graph(structure)
print(f"point graph distance distribution from vertex 0: "
      f"{distance_distribution(pg, 0)}")

verdict = verify_generalized_hexagon(structure)
print(f"\ngeneralized hexagon GH(2,2): {'PASS' if verdict.passed else 'FAIL'}")

co = dual(structure)
co_verdict = verify_generalized_hexagon(co)
print(f"dual structure GH(2,2):      {'PASS' if co_verdict.passed else 'FAIL'}")

print("\n=== all three pairings ===\n")
for p in hyperoval_partitions():
    ok = verify_generalized_hexagon(build(p)).passed
    print(f"pairing {p.index}: {'PASS' if ok else 'FAIL'}")
