import dataclasses
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
    hyperoval_partitions,
    nonzero_vectors,
    perp_line,
    point_vectors,
    proj_rep,
    self_polar_triangles,
    span_perp,
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
    IncidenceStructure,
    OvalSelectionError,
    Report,
    build,
    concurrency_graph,
    diameter,
    distance_distribution,
    dual,
    girth,
    incidence_graph,
    is_connected,
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


def test_concurrency_graph_is_6_regular_and_connected(structure):
    graph = concurrency_graph(structure)
    assert graph.vertex_count == 63
    assert set(graph.degrees()) == {6}
    assert is_connected(graph)


def test_two_disjoint_edges_are_disconnected():
    graph = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(graph)


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


@settings(max_examples=400, deadline=None)
@given(sweep_graphs())
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
def test_sphere_sweep_matches_seed_sweep(graph):
    rows, seed_girth = seed_bfs_sweep(graph)
    spheres, best = sphere_sweep(graph)
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
            perp = span_perp(a, b)
            if len(perp_line(perp) & partition.oval) != 2:
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
    assert d.sweep == sphere_sweep(incidence_graph(by_hand))
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
    assert d.sweep and swept == [incidence_graph(s)]


def test_a_replaced_dual_sweeps_its_own_graph(structure, swept):
    d = dual(_fresh("genuine", structure, None))
    assert d.sweep == sphere_sweep(incidence_graph(d))
    # drop one dual line: the graph, and so its sweep, changes
    other = dataclasses.replace(d, lines=d.lines[1:])
    del swept[:]
    assert other.sweep == sphere_sweep(incidence_graph(other))
    assert swept == [incidence_graph(other)]
    assert other.sweep != d.sweep
    assert verify_generalized_hexagon(other) == verify_generalized_hexagon(
        IncidenceStructure(other.points, other.lines))
