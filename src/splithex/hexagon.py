"""The incidence structure on the 63 nonzero vectors and its verification.

Lines come in three kinds, each seeded by an isotropic vector a:

* ``scalar`` -- the three nonzero multiples of a;
* ``oval``   -- {a, u, a+u} where u and a+u are the two norm-one vectors
  over the chosen hyperoval that are orthogonal to a;
* ``twin``   -- the same with the complementary hyperoval.

That yields 9 + 27 + 27 = 63 lines.  The verifiers below check, with
witnesses, that the result is a partial linear space of order (2,2), that
the three lines through any point fill a totally isotropic plane, that the
line-concurrency graph is connected, and that the incidence graph has
diameter 6 and girth 12 -- i.e. that the structure is a generalized hexagon,
the split Cayley hexagon of order 2.

Every distance -- diameter, girth and each distance distribution -- is
read off one bit-parallel sweep (:func:`sphere_sweep`): the balls around
all vertices grow together as int bitmasks, their differences are the
distance spheres, and two rules on the spheres give the exact girth.  A
graph and a structure keep their sweep (``sweep``).  :func:`dual`
hands its result the structure's index views swapped and its sweep
relabelled, since the dual's incidence graph is the same with the parts
swapped.  The plane and concurrency-witness checks work on 6-bit vector
codes (:func:`geometry.vector_codes`), under which addition is XOR and a set
of vectors is an int mask.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .algebra import ZERO_VECTOR, Vector3, hermitian, to_gf2, v_add
from .geometry import (
    HyperovalPartition,
    Strata,
    hermitian_unit_pairs,
    nonzero_vectors,
    perp_line,
    perp_masks,
    point_vectors,
    proj_rep,
    proj_reps,
    span_perp,
    strata_for,
    ti_plane_masks,
    vector_codes,
)

SCALAR = "scalar"
OVAL = "oval"
TWIN = "twin"

# how many points lie at distance 0, 2, 4 and 6 from a point of a GH(2, 2)
DISTANCE_DISTRIBUTION = (1, 6, 24, 32)


class OvalSelectionError(ValueError):
    """The chosen hyperoval partition does not produce 3-point lines."""


@dataclass(frozen=True)
class HexLine:
    kind: str
    points: frozenset
    seed: Vector3

    def sort_key(self):
        return tuple(sorted(map(to_gf2, self.points)))


@dataclass(frozen=True)
class IncidenceStructure:
    """Points, lines (as frozensets of points) and optional line metadata.

    The incidences are indexed once per instance, in two views that every
    graph builder and verifier reads: ``incidences`` and ``pencils``.  Two
    more views hold the incidence graph (``adjacency``) and its distance
    sweep (``sweep``).  The views are cached properties, kept in the
    instance's ``__dict__``, where :func:`dual` puts the ones it hands over.
    """

    points: tuple
    lines: tuple
    tags: tuple | None = None

    @cached_property
    def incidences(self) -> tuple:
        """Each line as the ascending indices of its points."""
        index = {p: i for i, p in enumerate(self.points)}
        try:
            return tuple(tuple(sorted(index[p] for p in line)) for line in self.lines)
        except KeyError as exc:
            raise ValueError(
                f"a line holds {exc.args[0]!r}, which is not one of the points"
            ) from None

    @cached_property
    def pencils(self) -> tuple:
        """For each point index, the ascending indices of the lines through it."""
        pencils = [[] for _ in self.points]
        for j, line in enumerate(self.incidences):
            for i in line:
                pencils[i].append(j)
        return tuple(map(tuple, pencils))

    @cached_property
    def adjacency(self) -> tuple:
        """The incidence graph's neighbour tuples, points then lines: a
        point's neighbours are its pencil and a line's are its points, both
        already ascending."""
        npts = len(self.points)
        points = (tuple(npts + j for j in pencil) for pencil in self.pencils)
        return (*points, *self.incidences)

    @cached_property
    def sweep(self) -> tuple:
        """:func:`sphere_sweep` of the incidence graph: (spheres, girth)."""
        return sphere_sweep(Graph(adjacency=self.adjacency))


@dataclass(frozen=True)
class Check:
    """One verified claim: pass/fail plus a witness on failure.

    ``detail`` carries informative data recorded regardless of outcome
    (counts, computed invariants).
    """

    name: str
    passed: bool
    witness: object = None
    detail: object = None


@dataclass(frozen=True)
class Report:
    """The checks of one verifier; it passes when every check passes."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


# ---------------------------------------------------------------------------
# line construction


def scalar_line(a: Vector3) -> HexLine:
    """The projective point of a as a 3-vector line."""
    if a == ZERO_VECTOR or hermitian(a, a) != 0:
        raise ValueError(f"seed not isotropic: {a}")
    return HexLine(kind=SCALAR, points=frozenset(point_vectors(a)), seed=proj_rep(a))


def _half_line(a: Vector3, half: frozenset, kind: str) -> HexLine:
    if a == ZERO_VECTOR or hermitian(a, a) != 0:
        raise ValueError(f"seed not isotropic: {a}")
    partners = [x for x in half if hermitian(a, x) == 0 and v_add(a, x) in half]
    if len(partners) != 2:
        raise OvalSelectionError(
            f"hyperoval selection gives {len(partners)} partners for seed {a}, "
            "expected 2"
        )
    return HexLine(kind=kind, points=frozenset({a, *partners}), seed=a)


def oval_line(a: Vector3, strata: Strata) -> HexLine:
    """The line {a, u, a+u} with u, a+u norm-one vectors over the hyperoval."""
    if strata.oval_vectors is None:
        raise ValueError("strata carry no hyperoval selection")
    return _half_line(a, strata.oval_vectors, OVAL)


def twin_line(a: Vector3, strata: Strata) -> HexLine:
    """The line {a, v, a+v} with v, a+v over the complementary hyperoval."""
    if strata.twin_vectors is None:
        raise ValueError("strata carry no hyperoval selection")
    return _half_line(a, strata.twin_vectors, TWIN)


def build(partition: HyperovalPartition) -> IncidenceStructure:
    """Assemble the 63-point, 63-line structure for a hyperoval partition.

    Points are the nonzero vectors in bit order; lines are deduplicated and
    sorted by their sorted member bit patterns, so the output is bit-exact
    reproducible.
    """
    strata = strata_for(partition)
    seen = set()
    tags = []
    for a in sorted(strata.isotropic, key=to_gf2):
        for line in (scalar_line(a), oval_line(a, strata), twin_line(a, strata)):
            if line.points not in seen:
                seen.add(line.points)
                tags.append(line)
    tags.sort(key=HexLine.sort_key)
    return IncidenceStructure(
        points=nonzero_vectors(),
        lines=tuple(t.points for t in tags),
        tags=tuple(tags),
    )


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as a tuple of sorted neighbor tuples."""

    adjacency: tuple

    @cached_property
    def sweep(self) -> tuple:
        """:func:`sphere_sweep` of the graph, kept: diameter, girth and the
        distance distributions from every base read one sweep."""
        return sphere_sweep(self)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degrees(self) -> tuple:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(adjacency=tuple(tuple(sorted(s)) for s in nbrs))


def bfs_distances(graph: Graph, start: int) -> list:
    """Distances from start; -1 marks unreachable vertices."""
    dist = [-1] * graph.vertex_count
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(graph: Graph) -> bool:
    if graph.vertex_count == 0:
        return True
    return -1 not in bfs_distances(graph, 0)


def sphere_sweep(graph: Graph) -> tuple:
    """Distance spheres of every vertex at once, fused with the girth scan.

    Each vertex's ball is an int bitmask over the vertices, and all balls
    grow together: B_0(v) = 1<<v and B_{k+1}(v) is B_k(v) together with the
    balls B_k(w) of the neighbours w of v, until no ball grows.  Returns
    ``(spheres, girth)``, where ``spheres[k][v]`` = B_k(v) & ~B_{k-1}(v) is
    the bitmask of the vertices at distance exactly k from v (the spheres
    of the round in which nothing grew are not kept, so the largest finite
    distance is ``len(spheres) - 1``), and ``girth`` is the length of a
    shortest cycle, or None if the graph is acyclic.

    The girth is exact: it is the first of 2k, 2k+1 (k = 1, 2, ...) at
    which one of these rules fires.

    * 2k: some w has neighbours u1 != u2 with S_{k-1}(u1) & S_{k-1}(u2) &
      S_k(w) != 0 -- two geodesics from w to a common vertex that leave w
      apart, so a cycle of length at most 2k;
    * 2k+1: some edge (u, w) has S_k(u) & S_k(w) != 0 -- an odd closed
      walk of length 2k+1, so an odd cycle of length at most 2k+1.

    Conversely, on a shortest cycle graph distance is cycle distance, so a
    shortest cycle of length 2k fires the first rule at the vertex opposite
    a vertex of it, and one of length 2k+1 fires the second at the edge
    opposite a vertex.
    """
    adjacency = graph.adjacency
    balls = [1 << v for v in range(len(adjacency))]
    spheres = [balls]
    best = None
    while True:
        grown = []
        for ball, nbrs in zip(balls, adjacency):
            for w in nbrs:
                ball |= balls[w]
            grown.append(ball)
        shell = [new & ~old for new, old in zip(grown, balls)]
        if not any(shell):
            return spheres, best
        if best is None:
            k, inner = len(spheres), spheres[-1]
            for s, nbrs in zip(shell, adjacency):
                once = twice = 0
                for u in nbrs:
                    twice |= once & inner[u]
                    once |= inner[u]
                if twice & s:
                    best = 2 * k
                    break
            else:
                if any(s & shell[u] for s, nbrs in zip(shell, adjacency) for u in nbrs):
                    best = 2 * k + 1
        balls = grown
        spheres.append(shell)


def diameter(graph: Graph) -> int:
    spheres, _ = graph.sweep
    n = graph.vertex_count
    if n and sum(layer[0].bit_count() for layer in spheres) < n:
        raise ValueError("infinite diameter: graph is disconnected")
    return len(spheres) - 1


def girth(graph: Graph) -> int:
    """Length of a shortest cycle (see :func:`sphere_sweep`)."""
    _, best = graph.sweep
    if best is None:
        raise ValueError("acyclic graph has no girth")
    return best


def distance_distribution(graph: Graph, base: int) -> tuple:
    """Counts of vertices at each distance from base (unreachables dropped),
    read off the graph's cached sweep (:func:`sphere_sweep`) at base."""
    spheres, _ = graph.sweep
    counts = (layer[base].bit_count() for layer in spheres)
    return tuple(c for c in counts if c)


def incidence_graph(structure: IncidenceStructure) -> Graph:
    """Bipartite graph on points then lines; edges are incident pairs (see
    ``IncidenceStructure.adjacency``)."""
    return Graph(adjacency=structure.adjacency)


def concurrency_graph(structure: IncidenceStructure) -> Graph:
    """Graph on lines, adjacent when they share a point: each point's pencil
    of lines is a clique."""
    edges = (pair for pencil in structure.pencils for pair in combinations(pencil, 2))
    return Graph.from_edges(len(structure.lines), edges)


def point_graph(structure: IncidenceStructure) -> Graph:
    """Collinearity graph on points."""
    edges = (pair for line in structure.incidences for pair in combinations(line, 2))
    return Graph.from_edges(len(structure.points), edges)


# ---------------------------------------------------------------------------
# verifiers


def verify_partial_linear_space(structure: IncidenceStructure) -> Report:
    """Check the order-(2,2) partial linear space axioms, with witnesses."""
    checks = []
    npts, nlines = len(structure.points), len(structure.lines)
    checks.append(Check("point-count", npts == 63, detail=npts))
    checks.append(Check("line-count", nlines == 63, detail=nlines))

    if structure.tags is not None:
        kinds = {SCALAR: 0, OVAL: 0, TWIN: 0}
        for tag in structure.tags:
            kinds[tag.kind] += 1
        counts = (kinds[SCALAR], kinds[OVAL], kinds[TWIN])
        checks.append(Check("line-kind-counts", counts == (9, 27, 27), detail=counts))

    bad_line = next((i for i, L in enumerate(structure.lines) if len(L) != 3), None)
    checks.append(Check("points-per-line", bad_line is None, witness=bad_line, detail=3))

    bad_point = next((p for p, pencil in zip(structure.points, structure.pencils)
                      if len(pencil) != 3), None)
    checks.append(
        Check("lines-per-point", bad_point is None, witness=bad_point, detail=3)
    )

    pair_witness = None
    seen_pairs = {}
    for i, line in enumerate(structure.lines):
        for pair in combinations(line, 2):
            key = frozenset(pair)
            if key in seen_pairs:
                pair_witness = (tuple(pair), seen_pairs[key], i)
                break
            seen_pairs[key] = i
        if pair_witness:
            break
    checks.append(Check("two-points-one-line", pair_witness is None, witness=pair_witness))

    uniform = bad_line is None and bad_point is None
    checks.append(Check("order", uniform, detail=(2, 2) if uniform else None))
    return Report(checks=tuple(checks))


def verify_plane_property(structure: IncidenceStructure) -> Report:
    """For every point, the union of its 3 lines must be a 7-vector
    totally isotropic plane: closed under addition with 0 adjoined and
    pairwise symplectic-orthogonal.  Cross-checked against the enumerated
    planes of the symplectic space.

    Each union is an int mask over the vector codes (see
    :func:`geometry.vector_codes`), under which addition is XOR, so the
    four checks are bit tests against the union and the cached perp and
    plane masks.  Raises ValueError if a point is not a nonzero GF(4)
    triple."""
    code, perps, known_planes = vector_codes(), perp_masks(), ti_plane_masks()
    bits = []
    for p in structure.points:
        if p not in code:
            raise ValueError(f"point {p!r} is not a nonzero GF(4) triple")
        bits.append(1 << code[p])
    line_masks = [sum(bits[i] for i in line) for line in structure.incidences]
    bad_size, bad_closure, bad_orthogonal, bad_membership = [], [], [], []
    for x, pencil in zip(structure.points, structure.pencils):
        union = 0
        for i in pencil:
            union |= line_masks[i]
        if union.bit_count() != 7:
            bad_size.append(x)
            continue
        members, rest = [], union
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        # u != v, so u ^ v is the code of a nonzero sum.
        if not all(union >> (u ^ v) & 1 for u, v in combinations(members, 2)):
            bad_closure.append(x)
        if any(perps[u] & union != union for u in members):
            bad_orthogonal.append(x)
        if union not in known_planes:
            bad_membership.append(x)
    checks = (
        Check("plane-size-7", not bad_size, witness=bad_size or None,
              detail=len(structure.points)),
        Check("plane-closed-under-addition", not bad_closure, witness=bad_closure or None),
        Check("plane-symplectic-orthogonal", not bad_orthogonal,
              witness=bad_orthogonal or None),
        Check("plane-among-enumerated", not bad_membership,
              witness=bad_membership or None),
    )
    return Report(checks=checks)


def verify_concurrency_witnesses(
    strata: Strata, partition: HyperovalPartition
) -> Report:
    """For every ordered pair of isotropic vectors a, b with hermitian value 1
    whose spanned projective line meets the hyperoval in two points, exhibit
    a norm-one vector u over the hyperoval, orthogonal to both, with [u+a]
    and [u+b] again over the hyperoval.  Such a u puts the oval lines of a
    and b on a common point.

    Since hermitian(a, b) = 1, a and b are independent, and the projective
    line they span is the polar of ``span_perp(a, b)``.  The projective
    points [u+a], [u+b] are looked up by vector code (u+a has code
    code(u) ^ code(a)), and the pairs come from the cached
    :func:`geometry.hermitian_unit_pairs` table of the isotropic stratum."""
    oval_vecs = strata.oval_vectors
    if oval_vecs is None:
        raise ValueError("strata carry no hyperoval selection")
    code, reps, oval = vector_codes(), proj_reps(), partition.oval
    qualifying = 0
    failures = []
    nonorthogonal = []
    for a, b in hermitian_unit_pairs(strata.isotropic):
        perp = span_perp(a, b)
        if len(perp_line(perp) & oval) != 2:
            continue
        qualifying += 1
        ca, cb = code[a], code[b]
        witness = None
        for u in point_vectors(perp):
            if (
                u in oval_vecs
                and reps[code[u] ^ ca] in oval
                and reps[code[u] ^ cb] in oval
            ):
                witness = u
                break
        if witness is None:
            failures.append((a, b))
        elif hermitian(a, witness) != 0 or hermitian(b, witness) != 0:
            nonorthogonal.append((a, b, witness))
    checks = (
        Check("qualifying-pairs-have-witness", not failures,
              witness=failures or None, detail=qualifying),
        Check("witnesses-orthogonal-to-both", not nonorthogonal,
              witness=nonorthogonal or None),
    )
    return Report(checks=checks)


def verify_generalized_hexagon(structure: IncidenceStructure) -> Report:
    """The headline verdict: a partial linear space of order (2,2) whose
    incidence graph has diameter 6 and girth 12.  Also records the point
    distance distribution, which must be (1, 6, 24, 32) from every point.
    All three are read off the structure's ``sweep``, which :func:`dual`
    hands over relabelled."""
    pls = verify_partial_linear_space(structure)
    graph = incidence_graph(structure)
    checks = [
        Check("partial-linear-space", pls.passed,
              witness=[c.name for c in pls.failures()] or None),
        Check("incidence-vertex-count", graph.vertex_count == 126,
              detail=graph.vertex_count),
        Check("incidence-edge-count", graph.edge_count == 189,
              detail=graph.edge_count),
    ]
    connected = is_connected(graph)
    checks.append(Check("incidence-connected", connected))
    if connected:
        spheres, g = structure.sweep
        d = len(spheres) - 1
        checks.append(Check("incidence-diameter", d == 6, detail=d))
        checks.append(Check("incidence-girth", g == 12, detail=g))
        # Points come first in the incidence graph, and two points at
        # incidence distance 2k are at collinearity distance k.
        npts = len(structure.points)
        points = (1 << npts) - 1
        bad = None
        for base in range(npts):
            counts = [(layer[base] & points).bit_count() for layer in spheres[::2]]
            while counts and not counts[-1]:
                counts.pop()
            dist = tuple(counts)
            if dist != DISTANCE_DISTRIBUTION:
                bad = (base, dist)
                break
        checks.append(
            Check("point-distance-distribution", bad is None, witness=bad,
                  detail=DISTANCE_DISTRIBUTION)
        )
    else:
        checks.append(Check("incidence-diameter", False, witness="disconnected"))
        checks.append(Check("incidence-girth", False, witness="not computed"))
    return Report(checks=tuple(checks))


def verify_classification_hypotheses(structure: IncidenceStructure) -> Report:
    """The package of properties under which a line set on this point set is
    known to define the split Cayley hexagon of order 2: every point lies on
    3 lines whose union spans a plane, and the concurrency graph of the line
    set is connected.  Hypotheses only; the hexagon conclusion is verified
    independently by the generalized-hexagon check."""
    planes = verify_plane_property(structure)
    connected = is_connected(concurrency_graph(structure))
    checks = (
        Check("three-lines-span-a-plane", planes.passed,
              witness=[c.name for c in planes.failures()] or None,
              detail="supplied by the point-plane-property check"),
        Check("concurrency-graph-connected", connected,
              detail="supplied by the concurrency-graph check"),
    )
    return Report(checks=checks)


def dual(structure: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines: dual points are line indices, dual lines are
    the pencils of lines through each point.

    The result's incidence graph is the structure's with the parts
    swapped, so it is handed the views it would derive again: its
    ``incidences`` are the structure's ``pencils``, its ``pencils`` the
    structure's ``incidences``, and its ``sweep`` the structure's, swept
    now if it was not yet.  A ``dataclasses.replace`` of the result
    derives its own."""
    result = IncidenceStructure(
        points=tuple(range(len(structure.lines))),
        lines=tuple(map(frozenset, structure.pencils)),
    )
    (spheres, girth), npts = structure.sweep, len(structure.points)
    # Dual vertex v is vertex (v + npts) mod n of the structure: rotate every
    # sphere list and every mask by npts.
    low, nlines = (1 << npts) - 1, len(structure.lines)
    rotated = [[(m >> npts) | ((m & low) << nlines) for m in layer[npts:] + layer[:npts]]
               for layer in spheres]
    result.__dict__.update(incidences=structure.pencils, pencils=structure.incidences,
                           sweep=(rotated, girth))
    return result
