import re
from collections import Counter, deque
from itertools import combinations
from math import inf

import networkx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splithex.hexagon as hexagon_module
from splithex.algebra import ZERO_VECTOR, hermitian, symplectic, to_gf2, v_add
from splithex.geometry import (
    HyperovalPartition,
    Strata,
    exterior_points,
    hermitian_unit_pairs,
    hyperoval_partitions,
    nonzero_vectors,
    point_vectors,
    proj_rep,
    projective_points,
    self_polar_triangles,
    strata_for,
    ti_lines,
    ti_planes,
)
from splithex.hexagon import (
    OVAL,
    SCALAR,
    TWIN,
    Check,
    Graph,
    HexLine,
    IncidenceStructure,
    OvalSelectionError,
    Report,
    bfs_distances,
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
    sphere_sweep,
    twin_line,
    verify_classification_hypotheses,
    verify_concurrency_witnesses,
    verify_generalized_hexagon,
    verify_partial_linear_space,
    verify_plane_property,
)

GOLDEN_QUALIFYING_PAIRS = 108
GOLDEN_FIRST_SEED = (0, 2, 2)
GOLDEN_FIRST_OVAL_LINE = frozenset({(0, 2, 2), (1, 0, 0), (1, 2, 2)})


# ---------------------------------------------------------------------------
# line constructors


def test_scalar_line_example():
    line = scalar_line((1, 1, 0))
    assert line.points == frozenset({(1, 1, 0), (2, 2, 0), (3, 3, 0)})
    assert line.kind == SCALAR


def test_scalar_line_scale_invariant_and_count(strata):
    lines = {scalar_line(a).points for a in strata.isotropic}
    assert len(lines) == 9
    a = (1, 1, 0)
    assert scalar_line(a).points == scalar_line((2, 2, 0)).points


def test_scalar_line_rejects_bad_seeds():
    with pytest.raises(ValueError, match="seed not isotropic"):
        scalar_line((1, 0, 0))
    with pytest.raises(ValueError, match="seed not isotropic"):
        scalar_line((0, 0, 0))


def test_oval_line_shape(strata):
    for a in sorted(strata.isotropic, key=to_gf2):
        line = oval_line(a, strata)
        assert len(line.points) == 3
        assert a in line.points
        u, v = sorted(line.points - {a}, key=to_gf2)
        assert v_add(u, v) == a
        assert u in strata.oval_vectors and v in strata.oval_vectors


def test_oval_line_golden_first_seed(strata):
    assert GOLDEN_FIRST_SEED == min(strata.isotropic, key=to_gf2)
    assert oval_line(GOLDEN_FIRST_SEED, strata).points == GOLDEN_FIRST_OVAL_LINE


def test_oval_and_twin_lines_are_injective_in_the_seed(strata):
    oval_lines = {a: oval_line(a, strata).points for a in strata.isotropic}
    twin_lines = {a: twin_line(a, strata).points for a in strata.isotropic}
    assert len(set(oval_lines.values())) == 27
    assert len(set(twin_lines.values())) == 27


def test_oval_meets_twin_line_only_at_the_seed(strata):
    for a in strata.isotropic:
        shared = oval_line(a, strata).points & twin_line(a, strata).points
        assert shared == {a}


def test_point_line_union_is_seven_vectors(strata):
    for a in strata.isotropic:
        union = (
            scalar_line(a).points
            | oval_line(a, strata).points
            | twin_line(a, strata).points
        )
        assert len(union) == 7


def test_bad_hyperoval_selection_raises(partition, strata):
    # swap one projective point between the halves: no longer hyperovals
    from splithex.geometry import proj_rep

    moved = min(partition.oval, key=to_gf2)
    other = min(partition.twin, key=to_gf2)
    bad_half = (partition.oval - {moved}) | {other}
    oval_vecs = frozenset(
        v for v in strata.norm_one if proj_rep(v) in bad_half
    )
    bad = Strata(
        isotropic=strata.isotropic,
        norm_one=strata.norm_one,
        oval_vectors=oval_vecs,
        twin_vectors=strata.norm_one - oval_vecs,
    )
    with pytest.raises(OvalSelectionError):
        for a in sorted(strata.isotropic, key=to_gf2):
            oval_line(a, bad)


def _reference_half_line(a, half, kind):
    """The oval/twin line rule tested vector by vector."""
    partners = [x for x in half if hermitian(a, x) == 0 and v_add(a, x) in half]
    if len(partners) != 2:
        return (f"hyperoval selection gives {len(partners)} partners for seed {a}, "
                "expected 2")
    return (kind, frozenset({a, *partners}), a)


def _half_line_or_message(a, strata, make):
    try:
        line = make(a, strata)
    except OvalSelectionError as exc:
        return str(exc)
    return (line.kind, line.points, line.seed)


@pytest.mark.parametrize("drop", [0, 1, 5, 17])
def test_half_lines_match_the_vector_by_vector_rule(strata, drop):
    # genuine halves, then halves with one vector dropped and a third of the
    # other half added, so that seeds get 0 to 3 or more partners
    oval = sorted(strata.oval_vectors, key=to_gf2)
    twin = sorted(strata.twin_vectors, key=to_gf2)
    cases = [strata]
    if drop:
        cases.append(Strata(strata.isotropic, strata.norm_one,
                            frozenset(oval[:drop - 1] + oval[drop:] + twin[::drop]),
                            frozenset(twin[drop:] + oval[::3])))
    counts = Counter()
    for case in cases:
        for a in sorted(strata.isotropic, key=to_gf2):
            for make, half, kind in ((oval_line, case.oval_vectors, OVAL),
                                     (twin_line, case.twin_vectors, TWIN)):
                got = _half_line_or_message(a, case, make)
                assert got == _reference_half_line(a, half, kind)
                counts[isinstance(got, str)] += 1
    assert counts[False] and (counts[True] or not drop)


def test_lines_require_hyperoval_selection():
    from splithex.geometry import enumerate_strata

    bare = enumerate_strata()
    with pytest.raises(ValueError, match="no hyperoval selection"):
        oval_line((1, 1, 0), bare)
    with pytest.raises(ValueError, match="no hyperoval selection"):
        twin_line((1, 1, 0), bare)


# ---------------------------------------------------------------------------
# the built structure


def test_build_counts_and_kinds(structure):
    assert len(structure.points) == 63
    assert len(structure.lines) == 63
    kinds = [t.kind for t in structure.tags]
    assert kinds.count(SCALAR) == 9
    assert kinds.count(OVAL) == 27
    assert kinds.count(TWIN) == 27


def test_build_is_deterministic(partition, structure):
    again = build(partition)
    assert again == structure
    keys = [tuple(sorted(map(to_gf2, line))) for line in structure.lines]
    assert keys == sorted(keys)


def test_every_line_is_a_ti_line_of_the_symplectic_space(structure):
    known = ti_lines()
    for line in structure.lines:
        assert line in known


def test_line_kind_incidence_per_point_class(structure, strata):
    by_point = {p: [] for p in structure.points}
    for tag in structure.tags:
        for p in tag.points:
            by_point[p].append(tag.kind)
    for p, kinds in by_point.items():
        if p in strata.isotropic:
            assert sorted(kinds) == [OVAL, SCALAR, TWIN]
        elif p in strata.oval_vectors:
            assert kinds == [OVAL] * 3
        else:
            assert kinds == [TWIN] * 3


def test_partial_linear_space_passes(structure):
    report = verify_partial_linear_space(structure)
    assert report.passed
    order = next(c for c in report.checks if c.name == "order")
    assert order.detail == (2, 2)


def test_partial_linear_space_catches_duplicated_line(structure):
    doctored = IncidenceStructure(
        points=structure.points,
        lines=structure.lines + (structure.lines[0],),
        tags=None,
    )
    report = verify_partial_linear_space(doctored)
    assert not report.passed
    pair_check = next(c for c in report.checks if c.name == "two-points-one-line")
    assert not pair_check.passed
    assert pair_check.witness is not None


def test_partial_linear_space_fails_an_unknown_line_kind(structure):
    tag = structure.tags[0]
    tags = (HexLine("mystery", tag.points, tag.seed),) + structure.tags[1:]
    report = verify_partial_linear_space(
        IncidenceStructure(structure.points, structure.lines, tags))
    assert [c.name for c in report.failures()] == ["line-kind-counts"]
    kinds = report.failures()[0]
    assert kinds.witness == 0
    assert sum(kinds.detail) == 62  # the other 62 lines are still counted


def test_plane_property_passes_for_all_63_points(structure):
    report = verify_plane_property(structure)
    assert report.passed
    size = next(c for c in report.checks if c.name == "plane-size-7")
    assert size.detail == 63


def test_plane_of_isotropic_point_is_union_of_its_three_lines(structure, strata):
    for a in sorted(strata.isotropic, key=to_gf2)[:5]:
        expected = (
            scalar_line(a).points
            | oval_line(a, strata).points
            | twin_line(a, strata).points
        )
        union = set()
        for i in structure.pencils[structure.points.index(a)]:
            union |= structure.lines[i]
        assert union == expected


def test_oval_point_seeds_form_a_ti_line(structure, strata):
    # the three lines through a norm-one vector over the hyperoval are oval
    # lines whose seeds x, y, z satisfy z = x + y
    by_point = {p: [] for p in structure.points}
    for tag in structure.tags:
        for p in tag.points:
            by_point[p].append(tag)
    for u in strata.oval_vectors:
        tags = by_point[u]
        assert all(t.kind == OVAL for t in tags)
        seeds = [t.seed for t in tags]
        assert v_add(v_add(seeds[0], seeds[1]), seeds[2]) == (0, 0, 0)


def test_concurrency_witnesses(strata, partition):
    report = verify_concurrency_witnesses(strata, partition)
    assert report.passed
    qualifying = next(
        c for c in report.checks if c.name == "qualifying-pairs-have-witness"
    )
    assert qualifying.detail == GOLDEN_QUALIFYING_PAIRS


# ---------------------------------------------------------------------------
# graphs


@pytest.mark.parametrize("case", ["genuine", "dual", "corrupted", "corrupted-dual"])
def test_concurrency_graph_matches_pair_definition(structure, corrupted, case):
    base = corrupted if case.startswith("corrupted") else structure
    s = dual(base) if case.endswith("dual") else base
    pairs = [
        (i, j)
        for i, j in combinations(range(len(s.lines)), 2)
        if s.lines[i] & s.lines[j]
    ]
    assert concurrency_graph(s) == Graph.from_edges(len(s.lines), pairs)


@pytest.mark.parametrize("case", ["genuine", "dual", "corrupted", "corrupted-dual"])
def test_incidences_and_pencils_match_membership(structure, corrupted, case):
    base = corrupted if case.startswith("corrupted") else structure
    s = dual(base) if case.endswith("dual") else base
    assert s.incidences == tuple(
        tuple(i for i, p in enumerate(s.points) if p in line) for line in s.lines
    )
    assert s.pencils == tuple(
        tuple(j for j, line in enumerate(s.lines) if p in line) for p in s.points
    )
    assert s.incidences is s.incidences and s.pencils is s.pencils
    npts = len(s.points)
    edges = [(i, npts + j) for j, line in enumerate(s.lines)
             for i, p in enumerate(s.points) if p in line]
    assert incidence_graph(s) == Graph.from_edges(npts + len(s.lines), edges)


@pytest.mark.parametrize("reader", [
    incidence_graph, concurrency_graph, point_graph, dual,
    verify_partial_linear_space, verify_plane_property,
])
def test_a_line_point_off_the_point_set_is_refused(structure, reader):
    stray = IncidenceStructure(points=structure.points[1:], lines=structure.lines)
    with pytest.raises(ValueError, match="not one of the points"):
        reader(stray)


@pytest.mark.parametrize("reader", [
    incidence_graph, concurrency_graph, point_graph, dual,
    verify_partial_linear_space, verify_plane_property,
])
def test_a_repeated_point_is_refused(structure, reader):
    # point 5 listed again at the end: indexed by its last copy, its first
    # would be an isolated vertex, named as on no line though on three
    p = structure.points[5]
    repeated = IncidenceStructure(points=(*structure.points, p), lines=structure.lines)
    with pytest.raises(ValueError, match=re.escape(f"point {p!r} is listed twice, at 5 and 63")):
        reader(repeated)


@pytest.mark.parametrize("reader", [
    incidence_graph, concurrency_graph, point_graph, dual,
    verify_partial_linear_space, verify_plane_property,
])
def test_a_point_listed_twice_in_a_line_is_refused(structure, reader):
    # as tuples the lines give the hexagon's incidences; line 0 as (p, p, q)
    # would pass as a 3-point line, met by itself in a second point
    lines = tuple(tuple(sorted(line, key=structure.points.index))
                  for line in structure.lines)
    assert IncidenceStructure(structure.points, lines).incidences == \
        structure.incidences
    p, q, _ = lines[0]
    repeated = IncidenceStructure(structure.points, ((p, p, q),) + lines[1:])
    with pytest.raises(ValueError, match=re.escape(f"line 0 lists point {p!r} twice")):
        reader(repeated)


def test_a_point_listed_three_times_is_named_at_its_first_two_positions():
    s = IncidenceStructure(points=("a", "b", "c", "b", "d", "b"), lines=())
    with pytest.raises(ValueError, match="point 'b' is listed twice, at 1 and 3"):
        s.incidences


def test_concurrency_graph_is_6_regular_and_connected(structure):
    graph = concurrency_graph(structure)
    assert graph.vertex_count == 63
    assert set(graph.degrees()) == {6}
    assert graph.connected


def test_two_disjoint_edges_are_disconnected():
    graph = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not graph.connected


def test_incidence_graph_shape(structure):
    graph = incidence_graph(structure)
    assert graph.vertex_count == 126
    assert graph.edge_count == 189
    for v in range(63):
        assert all(w >= 63 for w in graph.adjacency[v])
    for v in range(63, 126):
        assert all(w < 63 for w in graph.adjacency[v])


def test_girth_and_diameter_on_small_graphs():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert girth(triangle) == 3
    assert diameter(triangle) == 1
    hexagon = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert girth(hexagon) == 6
    assert diameter(hexagon) == 3
    pentagon = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert girth(pentagon) == 5
    assert diameter(pentagon) == 2
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert girth(two_triangles) == 3
    k4 = Graph.from_edges(4, combinations(range(4), 2))
    assert girth(k4) == 3
    assert diameter(k4) == 1
    petersen = Graph.from_edges(10, networkx.petersen_graph().edges)
    assert girth(petersen) == 5
    assert diameter(petersen) == 2
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert girth(k33) == 4
    assert diameter(k33) == 2
    assert diameter(Graph.from_edges(1, [])) == 0


def test_girth_and_diameter_errors():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="acyclic"):
        girth(path)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="infinite"):
        diameter(disconnected)


def seed_bfs_sweep(graph: Graph) -> tuple:
    """Breadth-first search from every vertex, fused with the girth scan.

    Returns each source's distance row (-1 marks unreachable vertices) and
    the length of a shortest cycle, or None if the graph is acyclic.  Each
    search records d(u)+d(w)+1 for every non-tree edge it meets; the minimum
    over all sources is exact.
    """
    rows = []
    best = None
    for s in range(graph.vertex_count):
        dist = [-1] * graph.vertex_count
        parent = [-1] * graph.vertex_count
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in graph.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
        rows.append(dist)
    return rows, best


def sphere_sizes(sweep) -> tuple:
    """A :func:`sphere_sweep` result with each sphere mask replaced by its
    number of vertices: what ``Graph.sweep`` keeps."""
    spheres, _, best = sweep
    return [[mask.bit_count() for mask in layer] for layer in spheres], best


@st.composite
def sweep_graphs(draw, max_vertices=30):
    """Relabeled graphs on up to 30 vertices: random edge sets (often
    disconnected, and including the empty and one-vertex graphs), random
    trees, and odd or even cycles with a few extra edges."""
    kind = draw(st.sampled_from(["random", "tree", "cycle"]))
    if kind == "random":
        n = draw(st.integers(0, max_vertices))
        pairs = list(combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    elif kind == "tree":
        n = draw(st.integers(1, max_vertices))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        n = draw(st.integers(3, max_vertices))
        edges = [(i, (i + 1) % n) for i in range(n)]
        pairs = list(combinations(range(n), 2))
        edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    relabel = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in edges])


def _cycle(vertices):
    return [(u, vertices[(i + 1) % len(vertices)]) for i, u in enumerate(vertices)]


# Graphs that pin the order of the sweep's girth rules.  A C7 beside a C8
# fires the odd rule of level 3 and the even rule of level 4 in one round, so
# only the odd rule first gives 7.  The Petersen graph (girth 5, with
# 6-cycles) and K4 have diameter 2 and 1: their girth is found in the last
# round, in which nothing grows.  A C4 and a C5 that share an edge fire the
# even rule in round 2 and the odd rule in round 3, and the first one wins.
PETERSEN = Graph.from_edges(10, _cycle([0, 1, 2, 3, 4]) + _cycle([5, 7, 9, 6, 8])
                            + [(i, i + 5) for i in range(5)])
C7_AND_C8 = Graph.from_edges(15, _cycle(list(range(7))) + _cycle(list(range(7, 15))))
C4_AND_C5_ON_AN_EDGE = Graph.from_edges(
    7, _cycle([0, 1, 2, 3]) + [(1, 4), (4, 5), (5, 6), (6, 0)])
K4 = Graph.from_edges(4, list(combinations(range(4), 2)))
# Graphs that pin where the sweep stops.  Once the girth is known it stops as
# soon as every ball is the whole graph.  A C6's balls fill in the round its
# girth is found, so it stops there.  A C5's balls fill before the odd rule of
# its last level is applied, so a sweep that stopped on full balls before the
# girth is known would miss it.  A triangle with a two-edge tail fills the
# ball of the tail's root two rounds before the tail's end, and a cycle
# beside an isolated vertex never fills a ball; a path is acyclic.
C6 = Graph.from_edges(6, _cycle(list(range(6))))
C5 = Graph.from_edges(5, _cycle(list(range(5))))
TRIANGLE_WITH_A_TAIL = Graph.from_edges(5, _cycle([0, 1, 2]) + [(2, 3), (3, 4)])
C4_AND_A_POINT = Graph.from_edges(5, _cycle([0, 1, 2, 3]))
PATH = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
# Graphs that pin the girth read off sphere sizes.  The rounds compare
# counts summed over all vertices, so a C8 at the end of a 20-vertex path,
# and a C9 beside a 20-vertex tree, put the deficit that shows the cycle
# at a few vertices of a large acyclic part.  The hexagons' girth 12 is
# found in their last round, and a line with one point substituted gives
# a shorter cycle.
C8_AT_THE_END_OF_A_PATH = Graph.from_edges(
    28, [(i, i + 1) for i in range(19)] + _cycle(list(range(19, 27))) + [(26, 27)])
C9_BESIDE_A_TREE = Graph.from_edges(
    29, _cycle(list(range(9))) + [((v - 9) // 2 + 9, v) for v in range(10, 29)])


def _substituted(structure: IncidenceStructure) -> IncidenceStructure:
    """The structure with the first point of its first line replaced by the
    first point not on that line."""
    line = structure.lines[0]
    removed = min(line, key=structure.points.index)
    added = next(p for p in structure.points if p not in line)
    return IncidenceStructure(
        structure.points, ((line - {removed}) | {added}, *structure.lines[1:]))


HEXAGONS = [build(partition) for partition in hyperoval_partitions()]
HEXAGON_GRAPHS = [s.graph for s in HEXAGONS]
SUBSTITUTED_GRAPHS = [_substituted(s).graph for s in HEXAGONS]


@settings(max_examples=400, deadline=None)
@given(sweep_graphs())
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
@example(PETERSEN)
@example(C7_AND_C8)
@example(C4_AND_C5_ON_AN_EDGE)
@example(K4)
@example(C6)
@example(C5)
@example(TRIANGLE_WITH_A_TAIL)
@example(C4_AND_A_POINT)
@example(PATH)
@example(C8_AT_THE_END_OF_A_PATH)
@example(C9_BESIDE_A_TREE)
@example(HEXAGON_GRAPHS[0])
@example(HEXAGON_GRAPHS[1])
@example(HEXAGON_GRAPHS[2])
@example(SUBSTITUTED_GRAPHS[0])
@example(SUBSTITUTED_GRAPHS[1])
@example(SUBSTITUTED_GRAPHS[2])
def test_sphere_sweep_matches_seed_sweep(graph):
    rows, seed_girth = seed_bfs_sweep(graph)
    spheres, sizes, best = sphere_sweep(graph)
    assert sizes == [[mask.bit_count() for mask in layer] for layer in spheres]
    n = graph.vertex_count
    recovered = [[-1] * n for _ in range(n)]
    for k, layer in enumerate(spheres):
        assert len(layer) == n
        for v, sphere in enumerate(layer):
            for w in range(n):
                if sphere >> w & 1:
                    assert recovered[v][w] == -1
                    recovered[v][w] = k
    assert recovered == rows
    for v, row in enumerate(rows):
        reached = Counter(d for d in row if d >= 0)
        assert distance_distribution(graph, v) == tuple(
            reached[d] for d in range(len(reached)))
    assert best == seed_girth
    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from((u, w) for u in range(n) for w in graph.adjacency[u])
    nx_girth = networkx.girth(nx_graph)
    assert best == (None if nx_girth == inf else nx_girth)
    if any(-1 in row for row in rows):
        with pytest.raises(ValueError, match="infinite"):
            diameter(graph)
    else:
        assert diameter(graph) == max(map(max, rows), default=0)
    if seed_girth is None:
        with pytest.raises(ValueError, match="acyclic"):
            girth(graph)
    else:
        assert girth(graph) == seed_girth


def test_loops_rejected():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("adjacency, best", [(((0, 1), (0,)), 1),
                                             (((1, 1), (0, 0)), 2)])
def test_a_loop_and_a_repeated_neighbour_give_girth_1_and_2(adjacency, best):
    # Graph(adjacency=...) takes rows as given: a loop is an odd closed walk
    # of length 1, and a neighbour listed twice two geodesics to it
    graph = Graph(adjacency=adjacency)
    assert sphere_sweep(graph) == ([[1, 2], [2, 1]], [[1, 1], [1, 1]], best)
    assert graph.sweep == ([[1, 1], [1, 1]], best)
    assert (girth(graph), diameter(graph)) == (best, 1)
    assert [distance_distribution(graph, v) for v in (0, 1)] == [(1, 1), (1, 1)]


@pytest.mark.parametrize("substituted", [False, True])
@pytest.mark.parametrize("pairing", range(3))
def test_every_graph_the_package_builds_has_symmetric_rows(pairing, substituted):
    # the sweep's count rule needs each edge in both rows; rows passed to
    # Graph(adjacency=...) by hand are not checked, so the package's own
    # graphs are: incidence, concurrency and point graphs, and the dual's
    structure = HEXAGONS[pairing]
    if substituted:
        structure = _substituted(structure)
    for s in (structure, dual(structure)):
        for graph in (incidence_graph(s), concurrency_graph(s), point_graph(s)):
            arcs = Counter((u, v) for u, row in enumerate(graph.adjacency) for v in row)
            assert arcs == Counter((v, u) for u, v in arcs.elements())


def test_incidence_graph_girth_and_diameter(structure):
    graph = incidence_graph(structure)
    assert girth(graph) == 12
    assert diameter(graph) == 6


def test_point_graph_distance_distribution(structure):
    graph = point_graph(structure)
    assert set(graph.degrees()) == {6}
    for base in range(graph.vertex_count):
        assert distance_distribution(graph, base) == (1, 6, 24, 32)


def test_distance_distribution_reads_only_the_sweep(monkeypatch, swept):
    def no_bfs(*args):
        raise AssertionError("a queue BFS ran")

    monkeypatch.setattr(hexagon_module, "bfs_distances", no_bfs)
    # two components, a path 0-1-2 and an edge 3-4
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert [distance_distribution(graph, v) for v in range(5)] == [
        (1, 1, 1), (1, 2), (1, 1, 1), (1, 1), (1, 1)]
    # the graph keeps its sweep: one for every base, and for the girth
    with pytest.raises(ValueError, match="acyclic"):
        girth(graph)
    assert swept == [graph]


def test_the_concurrency_adjacency_is_built_once(structure, searched):
    s = IncidenceStructure(structure.points, structure.lines, structure.tags)
    first = concurrency_graph(s)
    assert first is concurrency_graph(s) is s.concurrency
    assert verify_classification_hypotheses(s).passed
    assert verify_classification_hypotheses(s).passed
    # the hypotheses check reads the graph the structure already keeps, and
    # the graph searches once however often it is asked
    assert len(searched) == 1 and searched[0] is first
    assert first.__dict__["connected"]
    # the dual and a structure built with fewer lines have other lines: each
    # derives its own
    for derived in (dual(s), IncidenceStructure(s.points, s.lines[1:], s.tags)):
        assert "concurrency" not in derived.__dict__
        by_hand = IncidenceStructure(derived.points, derived.lines)
        assert concurrency_graph(derived) == by_hand.concurrency
        assert derived.concurrency is not s.concurrency


def test_girth_and_diameter_independent_of_line_ordering(structure):
    shuffled = IncidenceStructure(
        points=structure.points,
        lines=tuple(reversed(structure.lines)),
        tags=None,
    )
    graph = incidence_graph(shuffled)
    assert girth(graph) == 12
    assert diameter(graph) == 6


def test_generalized_hexagon_verdict(structure):
    report = verify_generalized_hexagon(structure)
    assert report.passed
    dist = next(
        c for c in report.checks if c.name == "point-distance-distribution"
    )
    assert dist.detail == (1, 6, 24, 32)


@pytest.mark.parametrize("case", ["genuine", "dual", "corrupted", "corrupted-dual"])
def test_generalized_hexagon_sweep_matches_separate_passes(structure, corrupted, case):
    base = corrupted if case.startswith("corrupted") else structure
    s = dual(base) if case.endswith("dual") else base
    checks = {c.name: c for c in verify_generalized_hexagon(s).checks}
    graph = incidence_graph(s)
    assert checks["incidence-diameter"].detail == diameter(graph)
    assert checks["incidence-girth"].detail == girth(graph)
    # the old route: one BFS per base point of the collinearity graph
    pg = point_graph(s)
    expected = next(
        (
            (b, distance_distribution(pg, b))
            for b in range(pg.vertex_count)
            if distance_distribution(pg, b) != (1, 6, 24, 32)
        ),
        None,
    )
    assert checks["point-distance-distribution"].witness == expected
    assert (expected is None) == (case in ("genuine", "dual"))


def test_empty_structure_fails_instead_of_raising():
    # an empty incidence graph is connected, so the sweep runs on no rows
    report = verify_generalized_hexagon(IncidenceStructure(points=(), lines=()))
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["incidence-vertex-count"].passed
    assert checks["incidence-vertex-count"].detail == 0


def test_classification_hypotheses(structure):
    report = verify_classification_hypotheses(structure)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"three-lines-span-a-plane", "concurrency-graph-connected"}


def test_classification_hypotheses_is_a_conjunction(structure):
    broken = IncidenceStructure(
        points=structure.points,
        lines=structure.lines[:10],
        tags=None,
    )
    report = verify_classification_hypotheses(broken)
    assert not report.passed


# ---------------------------------------------------------------------------
# dual and pairings


def test_dual_counts_and_verdict(structure):
    co = dual(structure)
    assert len(co.points) == 63
    assert len(co.lines) == 63
    assert verify_generalized_hexagon(co).passed


def test_double_dual_is_the_original_up_to_indexing(structure):
    co2 = dual(dual(structure))
    index = {p: i for i, p in enumerate(structure.points)}
    relabeled = tuple(
        frozenset(index[p] for p in line) for line in structure.lines
    )
    assert co2.points == tuple(range(63))
    assert set(co2.lines) == set(relabeled)


def test_all_three_pairings_yield_hexagons():
    verdicts = []
    for partition in hyperoval_partitions():
        report = verify_generalized_hexagon(build(partition))
        verdicts.append(report.passed)
    # golden outcome from the first computation: every pairing passes
    assert verdicts == [True, True, True]


# ---------------------------------------------------------------------------
# table-driven kernels against verbatim copies of the vector-level checks


def seed_verify_plane_property(structure: IncidenceStructure) -> Report:
    known_planes = ti_planes()
    bad_size, bad_closure, bad_orthogonal, bad_membership = [], [], [], []
    for x, pencil in zip(structure.points, structure.pencils):
        union = set()
        for i in pencil:
            union |= structure.lines[i]
        if len(union) != 7:
            bad_size.append(x)
            continue
        if any(
            v_add(u, v) not in union and v_add(u, v) != ZERO_VECTOR
            for u, v in combinations(union, 2)
        ):
            bad_closure.append(x)
        if any(symplectic(u, v) != 0 for u, v in combinations(union, 2)):
            bad_orthogonal.append(x)
        if frozenset(union) not in known_planes:
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


def seed_verify_concurrency_witnesses(
    strata: Strata, partition: HyperovalPartition
) -> Report:
    oval_vecs = strata.oval_vectors
    if oval_vecs is None:
        raise ValueError("strata carry no hyperoval selection")
    isotropic = sorted(strata.isotropic, key=to_gf2)
    qualifying = 0
    failures = []
    nonorthogonal = []
    for a in isotropic:
        for b in isotropic:
            if hermitian(a, b) != 1:
                continue
            # the one point orthogonal to both, and its polar: the line a, b span
            perp = next(p for p in projective_points()
                        if hermitian(p, a) == 0 and hermitian(p, b) == 0)
            polar = {q for q in projective_points() if hermitian(perp, q) == 0}
            if len(polar & partition.oval) != 2:
                continue
            qualifying += 1
            witness = None
            for u in point_vectors(perp):
                if (
                    u in oval_vecs
                    and proj_rep(v_add(u, a)) in partition.oval
                    and proj_rep(v_add(u, b)) in partition.oval
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


HEXAGONS = tuple(build(p) for p in hyperoval_partitions())
VECTORS = nonzero_vectors()
# every GF(2) line {u, v, u+v}, totally isotropic or not: unions of such
# lines through a point are 7-sets that pass or fail each plane check
GF2_LINES = sorted({frozenset({u, v, v_add(u, v)}) for u, v in combinations(VECTORS, 2)},
                   key=lambda line: sorted(map(to_gf2, line)))
TI_LINES = [line for line in GF2_LINES if line in ti_lines()]


@st.composite
def line_sets(draw):
    """Structures on a shuffle of the 63 vectors: a genuine hexagon (lines
    shuffled), one with a single point of one line substituted, or random
    lines -- arbitrary small sets, or GF(2) lines, t.i. or not."""
    points = tuple(draw(st.permutations(VECTORS)))
    kind = draw(st.sampled_from(["genuine", "substituted", "random", "gf2", "ti"]))
    if kind in ("genuine", "substituted"):
        lines = list(draw(st.permutations(draw(st.sampled_from(HEXAGONS)).lines)))
        if kind == "substituted":
            i = draw(st.integers(0, len(lines) - 1))
            old = draw(st.sampled_from(sorted(lines[i], key=to_gf2)))
            new = draw(st.sampled_from([p for p in VECTORS if p not in lines[i]]))
            lines[i] = (lines[i] - {old}) | {new}
    elif kind == "random":
        lines = draw(st.lists(st.frozensets(st.sampled_from(VECTORS), min_size=1,
                                            max_size=4), max_size=80))
    else:
        pool = GF2_LINES if kind == "gf2" else TI_LINES
        lines = draw(st.lists(st.sampled_from(pool), min_size=40, max_size=120))
    return IncidenceStructure(points, tuple(lines))


@settings(max_examples=300, deadline=None)
@given(line_sets())
def test_plane_kernel_matches_seed(structure):
    assert verify_plane_property(structure) == seed_verify_plane_property(structure)


def test_plane_kernel_fails_each_check_like_the_seed():
    x = (1, 0, 0)
    # three lines through x whose union is the subspace {(a, b, 0): a in
    # GF(4), b in GF(2)} minus 0, closed but not t.i.: symplectic(x, 2x) = 1
    closed = ((x, (0, 1, 0), (1, 1, 0)), (x, (2, 0, 0), (3, 0, 0)),
              (x, (2, 1, 0), (3, 1, 0)))
    # three lines through x whose union is not closed: (0, 1, 0) + (0, 0, 1)
    # is missing
    open_ = ((x, (0, 1, 0), (0, 2, 0)), (x, (0, 0, 1), (0, 0, 2)),
             (x, (0, 1, 1), (0, 3, 3)))
    failing = {}
    for case, lines in (("closed", closed), ("open", open_)):
        s = IncidenceStructure(VECTORS, tuple(map(frozenset, lines)))
        report = verify_plane_property(s)
        assert report == seed_verify_plane_property(s)
        failing[case] = {c.name: c.witness for c in report.failures()}
    # every other point lies on at most one of the three lines
    assert len(failing["closed"].pop("plane-size-7")) == 62
    assert len(failing["open"].pop("plane-size-7")) == 62
    assert failing == {
        "closed": {"plane-symplectic-orthogonal": [x], "plane-among-enumerated": [x]},
        "open": {"plane-closed-under-addition": [x],
                 "plane-symplectic-orthogonal": [x], "plane-among-enumerated": [x]},
    }


def test_plane_kernel_names_the_first_point_that_is_not_a_vector(structure):
    with pytest.raises(ValueError, match=r"point 0 is not a nonzero GF\(4\) triple"):
        verify_plane_property(dual(structure))
    for bad in ((0, 0, 0), (4, 0, 0), "x"):
        points = structure.points[:5] + (bad,) + structure.points[6:]
        with pytest.raises(ValueError, match=re.escape(f"point {bad!r} is not a")):
            verify_plane_property(IncidenceStructure(points, ()))


def seed_verify_partial_linear_space(structure: IncidenceStructure) -> Report:
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


@settings(max_examples=300, deadline=None)
@given(line_sets())
def test_partial_linear_space_kernel_matches_seed(structure):
    assert verify_partial_linear_space(structure) == \
        seed_verify_partial_linear_space(structure)


def _pair_check(report):
    return next(c for c in report.checks if c.name == "two-points-one-line")


@pytest.mark.parametrize("case", ["repeated-pair", "duplicated-line", "four-point-line"])
def test_partial_linear_space_names_the_pair_like_the_seed(structure, case):
    lines = list(structure.lines)
    first = sorted(lines[1], key=structure.points.index)
    if case == "repeated-pair":
        # line 5 keeps two points of line 1 and one of its own
        own = min(lines[5] - lines[1], key=structure.points.index)
        lines[5] = frozenset(first[:2]) | {own}
    elif case == "duplicated-line":
        lines.append(lines[1])
    else:
        # line 1 gains a point collinear with one of its own, on another line
        other = lines[structure.pencils[structure.points.index(first[0])][-1]]
        lines[1] = lines[1] | {min(other - lines[1], key=structure.points.index)}
    s = IncidenceStructure(structure.points, tuple(lines), structure.tags)
    report = verify_partial_linear_space(s)
    assert report == seed_verify_partial_linear_space(s)
    pair, i, j = _pair_check(report).witness
    assert i < j and set(pair) <= lines[i] & lines[j]
    if case == "four-point-line":
        assert 1 in (i, j)
        assert next(c for c in report.checks if c.name == "points-per-line").witness == 1


@st.composite
def sparse_line_sets(draw):
    """:func:`line_sets` with some lines dropped and perhaps an empty line
    added, so the point and line counts differ and some points are on no
    line."""
    s = draw(line_sets())
    drop = draw(st.sets(st.integers(0, max(len(s.lines) - 1, 0))))
    lines = [line for i, line in enumerate(s.lines) if i not in drop]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), frozenset())
    return IncidenceStructure(s.points, tuple(lines))


@settings(max_examples=200, deadline=None)
@given(st.one_of(line_sets(), sparse_line_sets()))
def test_the_dual_sweep_is_the_hand_built_duals(structure):
    # dual vertex v is vertex (v + npts) mod n of the structure, so dual()
    # relabels each layer of sphere sizes with one slice
    d = dual(structure)
    by_hand = IncidenceStructure(d.points, d.lines)
    assert d.graph.sweep == sphere_sizes(sphere_sweep(incidence_graph(by_hand)))
    assert dual(d).graph.sweep == structure.graph.sweep
    # the dual's graph is the structure's relabelled, so it is handed the
    # structure's connectivity too
    assert d.graph.__dict__["connected"] == by_hand.graph.connected


def seed_point_distance_witness(structure: IncidenceStructure) -> tuple | None:
    """The first point whose distance distribution is not (1, 6, 24, 32),
    as ``(base, distribution)``, or None: the loop the generalized-hexagon
    check ran on the sweep's masks before the graph kept sphere sizes, each
    even sphere of a point cut to the points and trailing zeros dropped."""
    spheres, _, _ = sphere_sweep(incidence_graph(structure))
    npts = len(structure.points)
    points = (1 << npts) - 1
    for base in range(npts):
        counts = [(layer[base] & points).bit_count() for layer in spheres[::2]]
        while counts and not counts[-1]:
            counts.pop()
        if tuple(counts) != (1, 6, 24, 32):
            return base, tuple(counts)
    return None


@st.composite
def small_structures(draw, max_points=12):
    """Small incidence structures on shuffled labels: lines of 0 to 4
    points, repeated lines and lines sharing two points, isolated points
    and several components; or, on request, every point joined to an
    earlier one, so that most are connected."""
    n = draw(st.integers(0, max_points))
    points = tuple(draw(st.permutations([f"p{i}" for i in range(n)])))
    line = st.frozensets(st.sampled_from(points), max_size=4) if n else st.just(frozenset())
    lines = draw(st.lists(line, max_size=12))
    if n and draw(st.booleans()):
        chain = [frozenset({points[i], points[draw(st.integers(0, i - 1))]})
                 | draw(line) for i in range(1, n)]
        lines = draw(st.permutations(chain + lines[:2]))
    return IncidenceStructure(points, tuple(lines))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_structures(), line_sets(), sparse_line_sets()))
def test_dual_and_distance_check_on_random_structures(structure):
    # the dual built by hand from the structure's own fields, not its views
    d = dual(structure)
    by_hand = IncidenceStructure(
        tuple(range(len(structure.lines))),
        tuple(frozenset(j for j, line in enumerate(structure.lines) if p in line)
              for p in structure.points))
    assert verify_generalized_hexagon(d) == verify_generalized_hexagon(by_hand)
    assert d.graph.sweep == sphere_sizes(sphere_sweep(incidence_graph(by_hand)))
    # the check on sphere sizes names the witness the mask loop named
    for s in (structure, d):
        checks = {c.name: c for c in verify_generalized_hexagon(s).checks}
        if s.graph.connected:
            witness = checks["point-distance-distribution"].witness
            assert witness == seed_point_distance_witness(s)
        else:
            assert "point-distance-distribution" not in checks


@pytest.mark.parametrize("pairing", range(3))
def test_a_kept_sweep_holds_sphere_sizes(pairing):
    s = build(hyperoval_partitions()[pairing])
    assert verify_generalized_hexagon(s).passed
    for graph in (s.graph, dual(s).graph):
        sizes, best = graph.sweep
        n = graph.vertex_count
        assert (n, best, len(sizes)) == (126, 12, 7)
        for layer in sizes:
            assert len(layer) == n
            assert all(type(c) is int and 0 <= c <= n for c in layer)
        # each vertex's spheres partition the vertex set
        assert all(sum(column) == n for column in zip(*sizes))


EXTERIOR = sorted(exterior_points(), key=to_gf2)


@st.composite
def partitions(draw):
    """The three genuine partitions, each with oval and twin swapped, and
    bogus ones: any set of exterior points against its complement."""
    kind = draw(st.sampled_from(["genuine", "swapped", "mixed"]))
    if kind == "mixed":
        oval = frozenset(draw(st.sets(st.sampled_from(EXTERIOR))))
        return HyperovalPartition(oval=oval, twin=frozenset(EXTERIOR) - oval, index=-1)
    p = draw(st.sampled_from(hyperoval_partitions()))
    if kind == "swapped":
        return HyperovalPartition(oval=p.twin, twin=p.oval, index=p.index)
    return p


@settings(max_examples=150, deadline=None)
@given(partitions())
def test_concurrency_kernel_matches_seed(partition):
    strata = strata_for(partition)
    assert verify_concurrency_witnesses(strata, partition) == \
        seed_verify_concurrency_witnesses(strata, partition)


@pytest.mark.parametrize("halves", range(3))
@pytest.mark.parametrize("chosen", range(3))
def test_concurrency_kernel_reads_each_side_as_the_seed(halves, chosen):
    # the strata's vectors may come from another pairing than the partition:
    # u is drawn from the strata, the hyperoval tests use the partition
    strata = strata_for(hyperoval_partitions()[halves])
    partition = hyperoval_partitions()[chosen]
    report = verify_concurrency_witnesses(strata, partition)
    assert report == seed_verify_concurrency_witnesses(strata, partition)
    assert report.passed == (halves == chosen)


def test_mixed_halves_fail_with_witnesses():
    # one self-polar triangle and one point of each other triangle: six
    # exterior points that are not a union of two triangles
    first, *others = self_polar_triangles()
    oval = first | {min(t, key=to_gf2) for t in others}
    partition = HyperovalPartition(oval=oval, twin=frozenset(EXTERIOR) - oval, index=-1)
    strata = strata_for(partition)
    report = verify_concurrency_witnesses(strata, partition)
    assert report == seed_verify_concurrency_witnesses(strata, partition)
    assert not report.passed
    assert report.failures()[0].witness


def test_the_witness_report_is_kept_per_pairing(monkeypatch):
    partition = hyperoval_partitions()[1]
    strata = strata_for(partition)
    first = verify_concurrency_witnesses(strata, partition)
    called = []

    def skewed(u, v):
        called.append((u, v))
        return 1

    monkeypatch.setattr(hexagon_module, "hermitian", skewed)
    # the kept report is returned again, with no hermitian call
    assert verify_concurrency_witnesses(strata, partition) is first
    assert called == []
    # a form that makes no witness orthogonal: the rebuilt report fails the
    # cross-check with every qualifying triple
    verify_concurrency_witnesses.cache_clear()
    try:
        report = verify_concurrency_witnesses(strata, partition)
    finally:
        verify_concurrency_witnesses.cache_clear()
    assert [c.name for c in report.failures()] == ["witnesses-orthogonal-to-both"]
    triples = report.failures()[0].witness
    assert report.checks[0].detail == len(triples) == GOLDEN_QUALIFYING_PAIRS
    assert called == [(a, u) for a, _, u in triples]
    # the triples are the qualifying pairs in the order of
    # hermitian_unit_pairs, each with a witness under the true form
    polar = {n: {q for q in projective_points() if hermitian(n, q) == 0}
             for n in projective_points()}
    qualifying = [(a, b) for a, b in hermitian_unit_pairs(strata.isotropic)
                  if any(hermitian(n, a) == hermitian(n, b) == 0
                         and len(polar[n] & partition.oval) == 2 for n in polar)]
    assert [(a, b) for a, b, _ in triples] == qualifying
    for a, b, u in triples:
        assert u in strata.oval_vectors
        assert hermitian(a, u) == hermitian(b, u) == 0
        assert proj_rep(v_add(u, a)) in partition.oval
        assert proj_rep(v_add(u, b)) in partition.oval
    monkeypatch.undo()
    assert verify_concurrency_witnesses(strata, partition) == first


def test_a_structure_runs_each_screening_kernel_once(structure, monkeypatch):
    runs = []
    for name in ("_partial_linear_space", "_plane_property"):
        kernel = getattr(hexagon_module, name)

        def counted(s, name=name, kernel=kernel):
            runs.append((name, s))
            return kernel(s)

        monkeypatch.setattr(hexagon_module, name, counted)
    s = IncidenceStructure(structure.points, structure.lines, structure.tags)
    shown = (repr(s), hash(s))
    # the screen: axioms, planes, the verdict, the hypotheses, the dual's verdict
    axioms = verify_partial_linear_space(s)
    planes = verify_plane_property(s)
    assert verify_generalized_hexagon(s).passed
    assert verify_classification_hypotheses(s).passed
    d = dual(s)
    assert "partial_linear_space" not in d.__dict__
    assert verify_generalized_hexagon(d).passed
    assert [name for name, _ in runs] == [
        "_partial_linear_space", "_plane_property", "_partial_linear_space"]
    assert runs[0][1] is s and runs[1][1] is s and runs[2][1] is d
    assert verify_partial_linear_space(s) is axioms is s.__dict__["partial_linear_space"]
    assert verify_plane_property(s) is planes is s.__dict__["plane_property"]
    # an equal structure built apart keeps reports of its own
    other = IncidenceStructure(s.points, s.lines, s.tags)
    assert verify_partial_linear_space(other) == axioms
    assert verify_partial_linear_space(other) is not axioms
    assert verify_plane_property(other) == planes
    assert [name for name, _ in runs[3:]] == ["_partial_linear_space", "_plane_property"]
    assert all(x is other for _, x in runs[3:])
    # the reports are not fields: equality, hash and repr ignore them
    assert (repr(s), hash(s)) == shown
    assert other == s and hash(other) == hash(s) and repr(other) == repr(s)


# ---------------------------------------------------------------------------
# one sweep for a structure and its dual


@pytest.fixture
def swept(monkeypatch):
    """The graphs that hexagon's ``sphere_sweep`` is called on from now on."""
    graphs = []

    def counted(graph):
        graphs.append(graph)
        return sphere_sweep(graph)

    monkeypatch.setattr(hexagon_module, "sphere_sweep", counted)
    return graphs


def _fresh(case, structure, corrupted):
    """A copy of the genuine, corrupted or empty structure with no view cached."""
    base = {"genuine": structure, "corrupted": corrupted,
            "empty": IncidenceStructure(points=(), lines=())}[case]
    return IncidenceStructure(base.points, base.lines, base.tags)


@pytest.mark.parametrize("case", ["genuine", "corrupted", "empty"])
def test_dual_report_equals_the_hand_built_dual(structure, corrupted, case):
    d = dual(_fresh(case, structure, corrupted))
    by_hand = IncidenceStructure(d.points, d.lines)
    assert verify_generalized_hexagon(d) == verify_generalized_hexagon(by_hand)
    assert d.graph.sweep == sphere_sizes(sphere_sweep(incidence_graph(by_hand)))
    assert verify_generalized_hexagon(d).passed == (case == "genuine")


@pytest.mark.parametrize("case", ["genuine", "corrupted", "empty"])
def test_the_dual_of_a_verified_structure_sweeps_nothing(structure, corrupted, case,
                                                         swept):
    s = _fresh(case, structure, corrupted)
    verify_generalized_hexagon(s)
    assert len(swept) == 1
    d = dual(s)
    report = verify_generalized_hexagon(d)
    assert len(swept) == 1
    assert report == verify_generalized_hexagon(IncidenceStructure(d.points, d.lines))


@pytest.mark.parametrize("case", ["genuine", "corrupted", "empty"])
def test_the_dual_is_handed_its_structures_views(structure, corrupted, case, swept):
    s = _fresh(case, structure, corrupted)
    d = dual(s)
    assert d.incidences is s.pencils
    assert d.pencils is s.incidences
    # the structure is swept once, by dual(), and the dual never
    assert d.graph.sweep and swept == [incidence_graph(s)]
    assert d.graph.__dict__["connected"] == s.graph.connected


def test_a_replaced_dual_sweeps_its_own_graph(structure, swept):
    d = dual(_fresh("genuine", structure, None))
    assert d.graph.sweep == sphere_sizes(sphere_sweep(incidence_graph(d)))
    # drop one dual line: the graph, and so its sweep, changes
    other = IncidenceStructure(d.points, d.lines[1:], d.tags)
    del swept[:]
    assert other.graph.sweep == sphere_sizes(sphere_sweep(incidence_graph(other)))
    assert swept == [incidence_graph(other)]
    assert other.graph.sweep != d.graph.sweep
    assert verify_generalized_hexagon(other) == verify_generalized_hexagon(
        IncidenceStructure(other.points, other.lines))


@pytest.fixture
def searched(monkeypatch):
    """The graphs that hexagon's ``bfs_distances`` is called on from now on."""
    graphs = []

    def counted(graph, start):
        graphs.append(graph)
        return bfs_distances(graph, start)

    monkeypatch.setattr(hexagon_module, "bfs_distances", counted)
    return graphs


def test_each_structure_keeps_one_graph_per_kind(partition, swept, searched):
    s = build(partition)
    assert incidence_graph(s) is incidence_graph(s) is s.graph
    assert concurrency_graph(s) is concurrency_graph(s) is s.concurrency
    assert verify_generalized_hexagon(s).passed
    assert swept == [s.graph] and len(searched) == 1 and searched[0] is s.graph
    # the graph facts read the sweep the verdict already made
    graph = incidence_graph(s)
    assert (diameter(graph), girth(graph)) == (6, 12)
    assert distance_distribution(graph, 0) == (1, 3, 6, 12, 24, 48, 32)
    assert len(swept) == 1
    # the dual's graph is handed its sweep and its connectivity
    d = dual(s)
    del swept[:], searched[:]
    assert verify_generalized_hexagon(d).passed
    assert swept == [] and searched == []


@pytest.mark.parametrize("vertex", [-1, 4])
def test_from_edges_refuses_a_vertex_out_of_range(vertex):
    for edge in ((0, vertex), (vertex, 0)):
        with pytest.raises(ValueError, match=f"vertex {vertex} is not one of"):
            Graph.from_edges(4, [edge])


@pytest.mark.parametrize("vertex", [-1, 4])
def test_distance_distribution_refuses_a_base_out_of_range(vertex):
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=f"vertex {vertex} is not one of"):
        distance_distribution(path, vertex)


@pytest.mark.parametrize("vertex", [True, False, 1.5, 2.0, "1"])
def test_a_vertex_that_is_not_an_int_is_refused(vertex):
    # a bool was stored as a neighbour, and a float reached list indexing
    message = re.escape(f"vertex {vertex!r} is not one of")
    for edge in ((0, vertex), (vertex, 3)):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(4, [edge])
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=message):
        distance_distribution(path, vertex)
