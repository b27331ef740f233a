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
all vertices grow together as int bitmasks, each round from the spheres of
the round before, one OR per neighbour.  Each new shell is counted as the
round makes it, and the exact girth is read off those counts: the arcs are
scanned only in the one round whose counts show a cycle.  A :class:`Graph`
keeps the sweep's sphere sizes and girth, not its masks, and its
connectivity (``sweep``, ``connected``), and a
structure keeps its incidence and line-concurrency graphs (``graph`` and
``concurrency``, returned by :func:`incidence_graph` and
:func:`concurrency_graph`).  A structure also keeps the reports of
:func:`verify_partial_linear_space` and :func:`verify_plane_property`, so
:func:`verify_generalized_hexagon` and
:func:`verify_classification_hypotheses` read the ones a caller already
has.  The concurrency-witness report depends on the pairing alone, so
:func:`verify_concurrency_witnesses` builds it, its hermitian cross-check
included, once per ``(strata, partition)`` and keeps it.  :func:`dual`
hands its result the structure's index views swapped and its graph's
connectivity and sweep, the sizes relabelled by one slice per layer, since
the dual's incidence graph is the same with the parts swapped.  The oval
and twin lines and the plane and concurrency-witness checks work on 6-bit
vector codes (:func:`geometry.vector_codes`), under which addition is XOR
and a set of vectors is an int mask.  A point's plane passes when its mask is
one of the enumerated plane masks, and only another mask is searched for
witnesses; the concurrency witnesses are read off hermitian-perp masks
alone.
"""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property
from itertools import combinations
from operator import mul

from ._frozen import Frozen
from .algebra import ZERO_VECTOR, Vector3, hermitian, to_gf2
from .geometry import (
    HyperovalPartition,
    Strata,
    code_vectors,
    hermitian_perp_masks,
    hermitian_unit_pairs,
    mask_codes,
    nonzero_vectors,
    perp_masks,
    point_vectors,
    proj_rep,
    strata_for,
    ti_plane_masks,
    vector_codes,
    vector_mask,
)

SCALAR = "scalar"
OVAL = "oval"
TWIN = "twin"

# how many points lie at distance 0, 2, 4 and 6 from a point of a GH(2, 2)
DISTANCE_DISTRIBUTION = (1, 6, 24, 32)


class OvalSelectionError(ValueError):
    """The chosen hyperoval partition does not produce 3-point lines."""


class HexLine(Frozen):
    _fields = ("kind", "points", "seed")

    def __init__(self, kind: str, points: frozenset, seed: Vector3):
        self.__dict__.update(kind=kind, points=points, seed=seed)

    def sort_key(self):
        return tuple(sorted(map(to_gf2, self.points)))


class IncidenceStructure(Frozen):
    """Points, lines (as frozensets of points) and optional line metadata.

    The incidences are indexed once per instance, in two views that every
    graph builder and verifier reads: ``incidences`` and ``pencils``.  Two
    more views hold the incidence graph (``graph``) and the line-concurrency
    graph (``concurrency``), each a :class:`Graph` that keeps its sweep and
    connectivity, and two hold the reports of the verifiers that read only
    the structure (``partial_linear_space`` and ``plane_property``).  The
    views are cached properties, kept in the instance's ``__dict__``, where
    :func:`dual` puts the ones it hands over; it hands over no report.
    """

    _fields = ("points", "lines", "tags")

    def __init__(self, points: tuple, lines: tuple, tags: tuple | None = None):
        self.__dict__.update(points=points, lines=lines, tags=tags)

    @cached_property
    def incidences(self) -> tuple:
        """Each line as the ascending indices of its points.  A point listed
        twice, in the points or in a line, or a line point off the point
        set, raises ValueError.  A frozenset cannot repeat a point, so only
        lines of other types are checked for one listed twice."""
        points = self.points
        index = {p: i for i, p in enumerate(points)}
        if len(index) < len(points):
            i = next(i for i, p in enumerate(points) if index[p] != i)
            raise ValueError(f"point {points[i]!r} is listed twice, at "
                             f"{i} and {points.index(points[i], i + 1)}")
        get = index.__getitem__
        try:
            rows = tuple([tuple(sorted(map(get, line))) for line in self.lines])
        except KeyError as exc:
            raise ValueError(
                f"a line holds {exc.args[0]!r}, which is not one of the points"
            ) from None
        if not {frozenset}.issuperset(map(type, self.lines)):
            for j, row in enumerate(rows):
                for i, k in zip(row, row[1:]):
                    if i == k:
                        raise ValueError(f"line {j} lists point {points[i]!r} twice")
        return rows

    @cached_property
    def pencils(self) -> tuple:
        """For each point index, the ascending indices of the lines through it."""
        pencils = [[] for _ in self.points]
        for j, line in enumerate(self.incidences):
            for i in line:
                pencils[i].append(j)
        return tuple(map(tuple, pencils))

    @cached_property
    def graph(self) -> Graph:
        """The incidence graph, points then lines: a point's neighbours are
        its pencil and a line's are its points, both already ascending."""
        npts = len(self.points)
        points = (tuple(map(npts.__add__, pencil)) for pencil in self.pencils)
        return Graph(adjacency=(*points, *self.incidences))

    @cached_property
    def concurrency(self) -> Graph:
        """The concurrency graph: each line's neighbours are the lines
        through its points, itself left out, ascending."""
        pencils, rows = self.pencils, []
        for j, line in enumerate(self.incidences):
            near = set()
            for i in line:
                near.update(pencils[i])
            near.discard(j)
            rows.append(tuple(sorted(near)))
        return Graph(adjacency=tuple(rows))

    @cached_property
    def partial_linear_space(self) -> Report:
        """The report of :func:`verify_partial_linear_space`."""
        return _partial_linear_space(self)

    @cached_property
    def plane_property(self) -> Report:
        """The report of :func:`verify_plane_property`."""
        return _plane_property(self)


class Check(Frozen):
    """One verified claim: pass/fail plus a witness on failure.

    ``detail`` carries informative data recorded regardless of outcome
    (counts, computed invariants).
    """

    _fields = ("name", "passed", "witness", "detail")

    def __init__(self, name: str, passed: bool, witness: object = None,
                 detail: object = None):
        self.__dict__.update(name=name, passed=passed, witness=witness, detail=detail)


class Report(Frozen):
    """The checks of one verifier; it passes when every check passes."""

    _fields = ("checks",)

    def __init__(self, checks: tuple):
        self.__dict__.update(checks=checks)

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
    """The line of seed a over a half: its partners are the x of the half
    hermitian-orthogonal to a with a + x in the half, read off the half's
    mask and a's hermitian perp (codes add by XOR)."""
    if a == ZERO_VECTOR or hermitian(a, a) != 0:
        raise ValueError(f"seed not isotropic: {a}")
    ca, mask, vec = vector_codes()[a], vector_mask(half), code_vectors()
    partners = [vec[x] for x in mask_codes(hermitian_perp_masks()[ca] & mask)
                if mask >> (ca ^ x) & 1]
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


class Graph(Frozen):
    """Undirected simple graph as a tuple of sorted neighbor tuples, each
    edge in the rows of both its ends.  It keeps its sphere sizes
    (``sweep``) and connectivity (``connected``).  Rows passed in are not
    checked; :meth:`from_edges` and the package's own graphs are symmetric."""

    _fields = ("adjacency",)

    def __init__(self, adjacency: tuple):
        self.__dict__.update(adjacency=adjacency)

    @cached_property
    def sweep(self) -> tuple:
        """``(sizes, girth)`` of :func:`sphere_sweep`, kept: ``sizes[k][v]``
        is |S_k(v)|.  Diameter, girth and the distance distributions from
        every base read one sweep."""
        _, sizes, best = sphere_sweep(self)
        return sizes, best

    @cached_property
    def connected(self) -> bool:
        """Does one queue BFS from vertex 0 reach every vertex?  Kept."""
        return not self.adjacency or -1 not in bfs_distances(self, 0)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degrees(self) -> tuple:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            _check_vertex(n, u)
            _check_vertex(n, v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(adjacency=tuple(tuple(sorted(s)) for s in nbrs))


def bfs_distances(graph: Graph, start: int) -> list:
    """Distances from start; -1 marks unreachable vertices.  A start that is
    not one of the graph's vertices raises ``ValueError``."""
    _check_vertex(graph.vertex_count, start)
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


def _check_vertex(n: int, v: int) -> None:
    if type(v) is not int or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} is not one of the graph's {n} vertices")


def sphere_sweep(graph: Graph) -> tuple:
    """Distance spheres of every vertex at once, with their sizes and the girth.

    Each vertex's ball is an int bitmask over the vertices, and all balls
    grow together from the spheres of the round before: B_0(w) = S_0(w) =
    1<<w, and for k >= 1

        B_k(w) = B_{k-1}(w) | U_k(w),   S_k(w) = U_k(w) & ~B_{k-1}(w),

    where U_k(w) is the union of S_{k-1}(u) over the neighbours u of w (a
    vertex at distance k from w is at distance k-1 from the next vertex of
    a geodesic, and a vertex at distance k-1 from a neighbour is at most k
    from w).  What is kept of a ball is its complement R_k(w), the vertices
    not yet reached: S_k(w) = U_k(w) & R_{k-1}(w) and R_k(w) = R_{k-1}(w) ^
    S_k(w), two operations where the ball took three, after one OR per
    neighbour.  Each new shell is counted in the round that makes it.  The
    rounds stop when no ball grows or, once the girth is known, as soon as
    every ball is the whole vertex set (every complement is empty).
    Returns ``(spheres, sizes, girth)``, where ``spheres[k][v]`` is the
    bitmask S_k(v) of the vertices at distance exactly k from v (the
    spheres of a round in which nothing grew are not kept, so the largest
    finite distance is ``len(spheres) - 1``), ``sizes[k][v]`` is |S_k(v)|,
    and ``girth`` is the length of a shortest cycle, or None if the graph
    is acyclic.

    The rows must be symmetric: u is listed in the row of w as often as w
    in the row of u.  Every graph the package builds is.  The girth is the
    first of 2k, 2k+1 (k = 1, 2, ...) at which one of these rules fires.

    * 2k: some w has neighbours u1 != u2 with S_{k-1}(u1) & S_{k-1}(u2) &
      S_k(w) != 0 -- two geodesics from w to a common vertex that leave w
      apart, so a cycle of length at most 2k;
    * 2k+1: some edge (u, w) has S_k(u) & S_k(w) != 0 -- an odd closed
      walk of length 2k+1, so an odd cycle of length at most 2k+1.

    Conversely, on a shortest cycle graph distance is cycle distance, so a
    shortest cycle of length 2k fires the first rule at the vertex opposite
    a vertex of it, and one of length 2k+1 fires the second at the edge
    opposite a vertex.

    Round k reads the odd rule of level k-1 and the even rule of level k
    off integer counts.  While the girth is unknown no cycle is shorter
    than 2k-1.  Then, of each S_{k-1}(u) with u a neighbour of w, the
    vertices inside B_{k-1}(w) are those of S_{k-2}(w) off u's branch
    (only w itself when k = 2) and those of S_{k-1}(u) & S_{k-1}(w), so

        reach - back - total = sum over w of
            sum over x in S_k(w) of (M_w(x) - 1)  +  O_w,

    with reach = sum over u of deg(u) |S_{k-1}(u)|; back = 0 when k = 1,
    the sum of the degrees when k = 2, and the sum over w of (deg(w) - 1)
    |S_{k-2}(w)| after that; total = sum over w of |S_k(w)|; M_w(x) the
    number of neighbours u of w with x in S_{k-1}(u); and O_w the number
    of pairs (u, x) with u ~ w and x in S_{k-1}(u) & S_{k-1}(w).  The step
    from the neighbours of each w to deg(u) needs the symmetric rows.
    Every term is >= 0, and the difference is > 0 exactly when one of the
    two rules fires.  Only in that round are the arcs scanned for the odd
    rule, which is taken first, since 2k-1 < 2k: the girth is 2k-1 if some
    arc (u, w) has S_{k-1}(u) & S_{k-1}(w) != 0, and 2k otherwise.  A loop
    gives girth 1 and a neighbour listed twice girth 2 in round 1.  While
    the girth is unknown, a round in which nothing grows is still run,
    even when every ball is already full, since it applies the odd rule of
    the last level kept.  Once it is known, the rounds stop when every
    ball is full, without that empty round: the hexagon's 6 rounds end
    with the one that finds girth 12.
    """
    adjacency = graph.adjacency
    n = len(adjacency)
    degrees = list(map(len, adjacency))
    rests = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    spheres = [[1 << v for v in range(n)]]
    sizes = [[1] * n]
    best = None
    back = 0
    while True:
        inner = spheres[-1]
        left, shell = [], []
        for rest, nbrs in zip(rests, adjacency):
            once = 0
            for u in nbrs:
                once |= inner[u]
            new = once & rest
            left.append(rest ^ new)
            shell.append(new)
        counts = list(map(int.bit_count, shell))
        total = sum(counts)
        if best is None:
            k = len(spheres)
            reach = sum(map(mul, degrees, sizes[-1]))
            if reach - back > total:
                odd = any(inner[u] & s for s, nbrs in zip(inner, adjacency)
                          for u in nbrs)
                best = 2 * k - 1 if odd else 2 * k
            # what round k+1's reach holds of S_{k-1}: deg(w) - 1 copies of
            # each vertex of S_{k-1}(w), or deg(w) of w itself when k = 1
            back = reach - sum(sizes[-1]) if k > 1 else reach
        if not total:
            return spheres, sizes, best
        rests = left
        spheres.append(shell)
        sizes.append(counts)
        if best is not None and not any(rests):
            return spheres, sizes, best


def diameter(graph: Graph) -> int:
    sizes, _ = graph.sweep
    n = graph.vertex_count
    if n and sum(layer[0] for layer in sizes) < n:
        raise ValueError("infinite diameter: graph is disconnected")
    return len(sizes) - 1


def girth(graph: Graph) -> int:
    """Length of a shortest cycle (see :func:`sphere_sweep`)."""
    _, best = graph.sweep
    if best is None:
        raise ValueError("acyclic graph has no girth")
    return best


def distance_distribution(graph: Graph, base: int) -> tuple:
    """Counts of vertices at each distance from base (unreachables dropped):
    the sphere sizes the graph keeps (``sweep``) at base."""
    _check_vertex(graph.vertex_count, base)
    sizes, _ = graph.sweep
    return tuple(filter(None, [layer[base] for layer in sizes]))


def incidence_graph(structure: IncidenceStructure) -> Graph:
    """Bipartite graph on points then lines, incident pairs adjacent: ``graph``."""
    return structure.graph


def concurrency_graph(structure: IncidenceStructure) -> Graph:
    """Graph on lines, adjacent when they share a point: ``concurrency``."""
    return structure.concurrency


def point_graph(structure: IncidenceStructure) -> Graph:
    """Collinearity graph on points."""
    edges = (pair for line in structure.incidences for pair in combinations(line, 2))
    return Graph.from_edges(len(structure.points), edges)


# ---------------------------------------------------------------------------
# verifiers


def verify_partial_linear_space(structure: IncidenceStructure) -> Report:
    """Check the order-(2,2) partial linear space axioms, with witnesses.

    Two points on two lines are found on integer keys: each line's
    ascending index pairs (i, j) from ``incidences`` as i * npts + j.  Only
    when a key repeats are the lines walked again as point pairs, to name
    the pair and the first two lines, in order, that hold it.

    The report is kept on the structure (``partial_linear_space``), so the
    checks run once per instance however often this is called, for
    instance once more inside :func:`verify_generalized_hexagon`; the
    same object is returned each time."""
    return structure.partial_linear_space


def _partial_linear_space(structure: IncidenceStructure) -> Report:
    checks = []
    npts, nlines = len(structure.points), len(structure.lines)
    checks.append(Check("point-count", npts == 63, detail=npts))
    checks.append(Check("line-count", nlines == 63, detail=nlines))

    if structure.tags is not None:
        kinds = [tag.kind for tag in structure.tags]
        counts = tuple(kinds.count(kind) for kind in (SCALAR, OVAL, TWIN))
        stray = next((i for i, kind in enumerate(kinds)
                      if kind not in (SCALAR, OVAL, TWIN)), None)
        ok = stray is None and counts == (9, 27, 27)
        checks.append(Check("line-kind-counts", ok, witness=stray, detail=counts))

    bad_line = next((i for i, L in enumerate(structure.lines) if len(L) != 3), None)
    checks.append(Check("points-per-line", bad_line is None, witness=bad_line, detail=3))

    bad_point = next((p for p, pencil in zip(structure.points, structure.pencils)
                      if len(pencil) != 3), None)
    checks.append(
        Check("lines-per-point", bad_point is None, witness=bad_point, detail=3)
    )

    keys = [i * npts + j for line in structure.incidences
            for i, j in combinations(line, 2)]
    pair_witness = _repeated_pair(structure.lines) if len(set(keys)) < len(keys) else None
    checks.append(Check("two-points-one-line", pair_witness is None, witness=pair_witness))

    uniform = bad_line is None and bad_point is None
    checks.append(Check("order", uniform, detail=(2, 2) if uniform else None))
    return Report(checks=tuple(checks))


def _repeated_pair(lines) -> tuple | None:
    """(pair, i, j): the first line j, in order, that shares a pair of
    points with an earlier line i."""
    seen = {}
    for j, line in enumerate(lines):
        for pair in combinations(line, 2):
            key = frozenset(pair)
            if key in seen:
                return tuple(pair), seen[key], j
            seen[key] = j
    return None


def verify_plane_property(structure: IncidenceStructure) -> Report:
    """For every point, the union of its 3 lines must be a 7-vector
    totally isotropic plane: closed under addition with 0 adjoined and
    pairwise symplectic-orthogonal.  Cross-checked against the enumerated
    planes of the symplectic space.

    Each union is an int mask over the vector codes (see
    :func:`geometry.vector_codes`), under which addition is XOR.  A union
    that is one of the 135 enumerated plane masks passes all four checks;
    any other is tested for witnesses: size first, then closure (the XOR of
    every two members is a member) and orthogonality (each member's
    symplectic perp covers the union).  Raises ValueError if a point is not
    a nonzero GF(4) triple.

    The report is kept on the structure (``plane_property``), like that of
    :func:`verify_partial_linear_space`, so
    :func:`verify_classification_hypotheses` reads the same object."""
    return structure.plane_property


def _plane_property(structure: IncidenceStructure) -> Report:
    code, perps, known_planes = vector_codes(), perp_masks(), ti_plane_masks()
    bits = []
    for p in structure.points:
        if p not in code:
            raise ValueError(f"point {p!r} is not a nonzero GF(4) triple")
        bits.append(1 << code[p])
    line_masks = [sum(map(bits.__getitem__, line)) for line in structure.incidences]
    bad_size, bad_closure, bad_orthogonal, bad_membership = [], [], [], []
    for x, pencil in zip(structure.points, structure.pencils):
        union = 0
        for i in pencil:
            union |= line_masks[i]
        if union in known_planes:
            continue
        if union.bit_count() != 7:
            bad_size.append(x)
            continue
        members = list(mask_codes(union))
        if not all(union >> (u ^ v) & 1 for u, v in combinations(members, 2)):
            bad_closure.append(x)
        if not all(perps[u] & union == union for u in members):
            bad_orthogonal.append(x)
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


@cache
def verify_concurrency_witnesses(
    strata: Strata, partition: HyperovalPartition
) -> Report:
    """For every ordered pair of isotropic vectors a, b with hermitian value 1
    whose spanned projective line meets the hyperoval in two points, exhibit
    a norm-one vector u over the hyperoval, orthogonal to both, with [u+a]
    and [u+b] again over the hyperoval.  Such a u puts the oval lines of a
    and b on a common point.

    The report depends on the pairing alone, so it is kept per
    ``(strata, partition)``, as :func:`geometry.strata_for` keeps its
    strata: a repeat call returns the same report.  The pairs are taken in
    the order of :func:`geometry.hermitian_unit_pairs`, and each pair's
    witness is its first in code order.

    The scan reads only masks over the vector codes, with the hermitian
    perps of :func:`geometry.hermitian_perp_masks`: since hermitian(a, b)
    = 1, a and b are independent, the vectors orthogonal to both are the
    three of one projective point n, and the line a and b span is the perp
    of n.  That line meets the hyperoval twice when it holds six vectors
    over the oval points.  The candidates u are the vectors of n among
    ``oval_vectors``, and u+a (code code(u) ^ code(a)) and u+b are tested
    against the vectors over the oval points.  Each witness is then tested
    against a and b with :func:`algebra.hermitian`, a route independent of
    the perp masks."""
    if strata.oval_vectors is None:
        raise ValueError("strata carry no hyperoval selection")
    code, vec, hperp = vector_codes(), code_vectors(), hermitian_perp_masks()
    half = vector_mask(strata.oval_vectors)
    over = vector_mask(frozenset(v for p in partition.oval for v in point_vectors(p)))
    qualifying, failures, nonorthogonal = 0, [], []
    for a, b in hermitian_unit_pairs(strata.isotropic):
        ca, cb = code[a], code[b]
        point = hperp[ca] & hperp[cb]
        if (hperp[(point & -point).bit_length() - 1] & over).bit_count() != 6:
            continue
        qualifying += 1
        witness = next((vec[u] for u in mask_codes(point & half)
                        if over >> (u ^ ca) & 1 and over >> (u ^ cb) & 1), None)
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
    All three are read off the sphere sizes the incidence graph keeps
    (``sweep``), which :func:`dual` hands over: when every point's even
    spheres have the sizes (1, 6, 24, 32), whole layers show it and no
    point is scanned.  The axioms are the structure's kept
    :func:`verify_partial_linear_space` report."""
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
    checks.append(Check("incidence-connected", graph.connected))
    if graph.connected:
        sizes, g = graph.sweep
        d = len(sizes) - 1
        checks.append(Check("incidence-diameter", d == 6, detail=d))
        checks.append(Check("incidence-girth", g == 12, detail=g))
        # Points come first in the bipartite incidence graph: two points at
        # distance 2k are at collinearity distance k, and a point's sizes are
        # 0 only past its farthest vertex.  Whole layers show a pass.
        npts = len(structure.points)
        evens = [layer[:npts] for layer in sizes[::2]]
        bad = None
        if evens != [[c] * npts for c in DISTANCE_DISTRIBUTION]:
            dists = (tuple(filter(None, column)) for column in zip(*evens))
            bad = next(((base, dist) for base, dist in enumerate(dists)
                        if dist != DISTANCE_DISTRIBUTION), None)
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
    independently by the generalized-hexagon check.  The planes are the
    structure's kept :func:`verify_plane_property` report."""
    planes = verify_plane_property(structure)
    checks = (
        Check("three-lines-span-a-plane", planes.passed,
              witness=[c.name for c in planes.failures()] or None,
              detail="supplied by the point-plane-property check"),
        Check("concurrency-graph-connected", concurrency_graph(structure).connected,
              detail="supplied by the concurrency-graph check"),
    )
    return Report(checks=checks)


def dual(structure: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines: dual points are line indices, dual lines are
    the pencils of lines through each point.

    The result's incidence graph is the structure's with the parts
    swapped, so it is handed the views it would derive again: its
    ``incidences`` are the structure's ``pencils``, its ``pencils`` the
    structure's ``incidences``, and its graph the structure graph's
    ``connected`` and ``sweep``, relabelled; both are found now if not yet.
    Dual vertex v is vertex (v + npts) mod n of the structure, so each
    layer of sphere sizes is relabelled by one slice, the line part first.
    A structure built by hand from the result's fields derives its own."""
    result = IncidenceStructure(
        points=tuple(range(len(structure.lines))),
        lines=tuple(map(frozenset, structure.pencils)),
    )
    (sizes, girth), npts = structure.graph.sweep, len(structure.points)
    relabelled = [layer[npts:] + layer[:npts] for layer in sizes]
    result.__dict__.update(incidences=structure.pencils, pencils=structure.incidences)
    result.graph.__dict__.update(sweep=(relabelled, girth),
                                 connected=structure.graph.connected)
    return result
