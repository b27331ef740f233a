import copy
import gc
import hashlib
import math
import random
import re
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

import splithex.groups as groups_module
from splithex.cli import run_verify
from splithex.geometry import hyperoval_partitions
from splithex.groups import (
    Automorphisms,
    Partition,
    Permutation,
    PermutationGroup,
    _leaf_plan,
    _propagated_leaf,
    _refine,
    automorphism_generators,
    character_witness,
    compose,
    identity,
    induced_actions,
    inverse,
    is_automorphism,
    nonequivalence_certificate,
    orbits,
    preserves_incidence,
    refine,
)
from splithex.hexagon import Graph, IncidenceStructure, build, incidence_graph

GOLDEN_WITNESS_FIXED = (7, 9)  # (fixed points, fixed lines) of the first witness


def closure_set(generators):
    """Oracle: the full group by brute-force closure under composition."""
    n = len(generators[0])
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        g = frontier.pop()
        for s in generators:
            h = compose(g, s)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def closure_order(generators):
    if not generators:
        return 1
    return len(closure_set(generators))


def cycle(n, points):
    p = list(range(n))
    for i, j in zip(points, points[1:]):
        p[i] = j
    p[points[-1]] = points[0]
    return tuple(p)


# ---------------------------------------------------------------------------
# permutation basics


def test_compose_and_inverse():
    p = (1, 2, 0, 3)
    q = (0, 1, 3, 2)
    assert compose(p, q) == (1, 3, 0, 2)
    assert compose(p, inverse(p)) == identity(4)
    assert compose(inverse(p), p) == identity(4)


def test_orbits_and_transitivity():
    g = cycle(5, [0, 1, 2])
    assert orbits([g], 5) == ((0, 1, 2), (3,), (4,))
    assert len(orbits([g], 5)) != 1
    assert len(orbits([cycle(5, [0, 1, 2, 3, 4])], 5)) == 1


@pytest.mark.parametrize("generator, degree", [((1, 0, 2), 2), ((1, 0), 3)])
def test_orbits_refuses_a_generator_of_another_length(generator, degree):
    # a longer generator dropped its last points, a shorter one raised IndexError
    message = f"a generator has length {len(generator)}, but the degree is {degree}"
    with pytest.raises(ValueError, match=message):
        orbits([identity(degree), generator], degree)


# ---------------------------------------------------------------------------
# refinement


def test_refine_fixes_regular_uniform_coloring():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert refine(c6, [0] * 6) == (0,) * 6


def test_refine_splits_path_endpoints():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    colors = refine(path, [0, 0, 0])
    assert colors[0] == colors[2] != colors[1]


def test_refine_keeps_biregular_bipartition(structure):
    graph = incidence_graph(structure)
    colors = refine(graph, [0] * 63 + [1] * 63)
    assert len(set(colors)) == 2
    assert len({colors[v] for v in range(63)}) == 1
    assert len({colors[v] for v in range(63, 126)}) == 1


def is_equitable(graph: Graph, coloring) -> bool:
    """Oracle: every vertex of class i sees the same multiset of classes."""
    per_class = {}
    for v in range(graph.vertex_count):
        profile = tuple(sorted(coloring[w] for w in graph.adjacency[v]))
        prev = per_class.setdefault(coloring[v], profile)
        if prev != profile:
            return False
    return True


def test_refine_is_equitable_and_idempotent():
    graph = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]
    )
    colors = refine(graph, [0] * 7)
    assert is_equitable(graph, colors)
    assert refine(graph, colors) == colors


def individualize(colors, v) -> list:
    """Oracle: the coloring with v alone in a new class just before its old
    one, as the search made it before it carried its partition."""
    doubled = [2 * c for c in colors]
    doubled[v] -= 1
    return doubled


def seed_refine(graph: Graph, coloring) -> tuple:
    """Reference: the refinement loop that runs until a round changes nothing."""
    adjacency = graph.adjacency
    n = len(adjacency)
    colors = list(coloring)
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in adjacency[v])))
            for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            return tuple(new)
        colors = new


PALETTES = [(0,), (0, 2, 5, 7), (-1, 0, 2, 4, 6), (1, 3, 8)]


@st.composite
def random_colored_graphs(draw, max_vertices=14):
    """Graphs (often disconnected) with colorings that skip values, like the
    doubled-minus-one colorings of ``individualize``."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    palette = draw(st.sampled_from(PALETTES))
    coloring = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), coloring


@st.composite
def regular_colored_graphs(draw):
    """Relabeled cycles and cubic bipartite graphs on up to 24 vertices,
    uniformly colored apart from a few vertices, so that refinement splits
    few classes per round."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 24))
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        # three disjoint perfect matchings between 0..m-1 and m..2m-1, then
        # edge switches (a-b, c-d -> a-d, c-b) that keep the graph simple
        m = draw(st.integers(3, 12))
        n = 2 * m
        edges = [(i, m + (i + k) % m) for i in range(m) for k in range(3)]
        for x, y in draw(st.lists(st.tuples(st.integers(0, 3 * m - 1),
                                            st.integers(0, 3 * m - 1)))):
            (a, b), (c, d) = edges[x], edges[y]
            if a != c and b != d and (a, d) not in edges and (c, b) not in edges:
                edges[x], edges[y] = (a, d), (c, b)
    relabel = draw(st.permutations(range(n)))
    palette = draw(st.sampled_from(PALETTES))
    coloring = [palette[0]] * n
    for v, c in draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(palette),
                                     max_size=3)).items():
        coloring[v] = c
    return Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in edges]), coloring


def colored_graphs():
    return st.one_of(random_colored_graphs(), regular_colored_graphs())


@settings(max_examples=500, deadline=None)
@given(colored_graphs())
def test_refine_matches_seed_loop(case):
    graph, coloring = case
    colors = refine(graph, coloring)
    assert colors == seed_refine(graph, coloring)
    # the search refines an individualized equitable coloring with the first
    # round seeded by the individualized vertex: same colors, same rounds
    for v in range(graph.vertex_count):
        seeded = Partition(individualize(colors, v))
        everything = Partition(individualize(colors, v))
        assert _refine(graph, seeded, v) == _refine(graph, everything, None)
        assert seeded.ranks() == everything.ranks()


def assert_well_formed(partition: Partition, n: int):
    """The classes tile 0..n-1 in start order, members ascend, and cls and
    color agree with them."""
    members, start = partition.members, partition.start
    assert len(start) == len(members)
    position = 0
    for c in sorted(range(len(members)), key=start.__getitem__):
        assert start[c] == position and members[c] == sorted(members[c])
        assert all(partition.cls[v] == c and partition.color[v] == position
                   for v in members[c])
        position += len(members[c])
    assert position == n == len(partition.cls) == len(partition.color)


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_a_carried_partition_refines_like_an_individualized_coloring(case):
    graph, coloring = case
    n = graph.vertex_count
    carried = refine(graph, Partition(coloring))
    colors = carried.ranks()
    assert colors == refine(graph, coloring)
    layout = (list(carried.members), list(carried.start), list(carried.cls),
              list(carried.color))
    # the search splits off only vertices that share their class
    for v in (v for v in range(n) if len(carried.members[carried.cls[v]]) > 1):
        child = refine(graph, carried.individualized(v), v)
        assert_well_formed(child, n)
        assert child.ranks() == refine(graph, individualize(colors, v), v)
        w = next((w for w in reversed(range(n))
                  if len(child.members[child.cls[w]]) > 1), None)
        if w is not None:
            grandchild = refine(graph, child.individualized(w), w)
            assert_well_formed(grandchild, n)
            assert grandchild.ranks() == refine(
                graph, individualize(child.ranks(), w), w)
    # refining the children left the parent as it was
    assert (carried.members, carried.start, carried.cls, carried.color) == layout


def full_signature_refine(graph: Graph, partition: Partition, individualized) -> int:
    """Reference: the refinement loop that splits a class by signing every
    member, not by its counts into the parts split off; it lays the parts
    out and numbers the new classes as :func:`refine` does."""
    adjacency = graph.adjacency
    members, start, cls, color = (partition.members, partition.start,
                                  partition.cls, partition.color)
    if individualized is None:
        stale = range(len(members))
    else:
        stale = {cls[w] for w in adjacency[individualized]}
    rounds = 0
    while True:
        rounds += 1
        split = {}
        for c in stale:
            if len(members[c]) == 1:
                continue
            parts = {}
            for v in members[c]:
                key = tuple(sorted(color[w] for w in adjacency[v]))
                parts.setdefault(key, []).append(v)
            if len(parts) > 1:
                split[c] = [parts[key] for key in sorted(parts)]
        if not split:
            return rounds
        touched = set()
        for c, parts in split.items():
            largest = max(parts, key=len)
            position = start[c]
            for part in parts:
                if part is largest:
                    members[c] = part
                    new = c
                else:
                    new = len(members)
                    members.append(part)
                    start.append(0)
                    for v in part:
                        touched.update(adjacency[v])
                start[new] = position
                for v in part:
                    cls[v] = new
                    color[v] = position
                position += len(part)
        stale = {cls[v] for v in touched}


def layout(partition: Partition) -> tuple:
    return (partition.members, partition.start, partition.cls, partition.color)


def assert_refines_like_the_full_signature_loop(graph, partition, individualized):
    """Refine copies of the partition both ways: the same layout and rounds.
    The refined copy is returned."""
    reference = copy.deepcopy(partition)
    refined = copy.deepcopy(partition)
    rounds = full_signature_refine(graph, reference, individualized)
    assert _refine(graph, refined, individualized) == rounds
    assert layout(refined) == layout(reference)
    return refined


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_refine_resigns_only_the_touched_vertices(case):
    graph, coloring = case
    root = assert_refines_like_the_full_signature_loop(graph, Partition(coloring), None)
    for v in (v for v in range(graph.vertex_count) if len(root.members[root.cls[v]]) > 1):
        child = assert_refines_like_the_full_signature_loop(
            graph, root.individualized(v), v)
        for w in (w for w in range(graph.vertex_count)
                  if len(child.members[child.cls[w]]) > 1):
            assert_refines_like_the_full_signature_loop(
                graph, child.individualized(w), w)


def test_an_untouched_member_is_resigned_after_its_neighbours_move():
    # The first round splits {0, 1, 2} into {0} before {1, 2}: 1 and 2 see
    # the singleton 6.  The largest part moves from start 0 to start 1, so
    # the neighbours of 4 and 5 change color although they were not split
    # off; only 3, next to {0}, is touched in the second round, so 3 has key
    # 1 and 4 and 5 key 0, and the class {3, 4, 5} splits into {3} and
    # {4, 5}, laid out by the signatures of 3 and of 4.
    graph = Graph.from_edges(7, [(0, 3), (1, 4), (2, 5), (1, 6), (2, 6)])
    coloring = [0, 0, 0, 1, 1, 1, 2]
    partition = Partition(coloring)
    assert _refine(graph, partition, None) == 3
    assert layout(partition) == ([[1, 2], [4, 5], [6], [0], [3]], [1, 4, 6, 0, 3],
                                 [3, 0, 0, 4, 1, 1, 2], [0, 1, 1, 3, 4, 4, 6])
    assert_refines_like_the_full_signature_loop(graph, Partition(coloring), None)


@pytest.mark.parametrize("degree", [3, 4, 7, 8])
def test_a_full_count_stays_in_its_field(degree):
    # Vertex 0 has all its neighbours in one class, P; the first round
    # counts P and the class after it, Q, as split off.  Vertex 1, in 0's
    # class, has as many neighbours in P and in Q as the digits of degree in
    # base 2 ** (shift - 1), so with one bit fewer per field the two keys
    # would be equal and the class would not split in the first round.
    width = degree.bit_length() - 1  # one less than refine's shift
    low, high = degree % (1 << width), degree >> width
    p = list(range(2, 2 + degree))
    q = list(range(2 + degree, 2 + degree + high))
    edges = [(0, u) for u in p] + [(1, u) for u in p[:low] + q]
    graph = Graph.from_edges(2 + degree + high, edges)
    assert max(map(len, graph.adjacency)) == degree
    coloring = [0, 0] + [1] * degree + [2] * high
    root = assert_refines_like_the_full_signature_loop(graph, Partition(coloring), None)
    assert root.cls[0] != root.cls[1]
    for v in (v for v in range(graph.vertex_count) if len(root.members[root.cls[v]]) > 1):
        assert_refines_like_the_full_signature_loop(graph, root.individualized(v), v)


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_a_partition_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="partition has length 5, "
                                         "but the graph has 4 vertices"):
        refine(PATH4, Partition([0] * 5))


@pytest.mark.parametrize("v, message", [
    (-1, r"vertex -1 is not in range\(4\)"),
    (4, r"vertex 4 is not in range\(4\)"),
    (True, r"vertex True is not in range\(4\)"),
    (0, "vertex 0 is not alone in its class"),
])
@pytest.mark.parametrize("as_partition", [False, True])
def test_an_individualized_vertex_must_be_alone_in_its_class(v, message, as_partition):
    # on a uniform path, -1 refined as if vertex 3 had been split off, 4 raised
    # IndexError and 0 gave the coloring (2, 3, 1, 0), which is not equitable
    coloring = Partition([0] * 4) if as_partition else [0] * 4
    with pytest.raises(ValueError, match=message):
        refine(PATH4, coloring, v)


@pytest.mark.parametrize("v, message", [
    (3, "vertex 3 is alone in its class"),
    (4, r"vertex 4 is not in range\(4\)"),
    (-1, r"vertex -1 is not in range\(4\)"),
    (True, r"vertex True is not in range\(4\)"),
])
def test_only_a_vertex_that_shares_its_class_is_split_off(v, message):
    # splitting off 3 made an empty class [] starting at 4, past the vertices
    partition = Partition([0, 0, 0, 1])
    with pytest.raises(ValueError, match=message):
        partition.individualized(v)
    child = partition.individualized(0)
    assert layout(child) == ([[1, 2], [3], [0]], [1, 3, 0], [2, 0, 0, 1], [0, 1, 1, 3])


def test_refine_commutes_with_relabeling():
    rng = random.Random(7)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)]
    graph = Graph.from_edges(7, edges)
    colors = refine(graph, [0] * 7)
    for _ in range(5):
        relabel = list(range(7))
        rng.shuffle(relabel)
        mapped = Graph.from_edges(7, [(relabel[u], relabel[v]) for u, v in edges])
        mapped_colors = refine(mapped, [0] * 7)
        assert all(mapped_colors[relabel[v]] == colors[v] for v in range(7))


# ---------------------------------------------------------------------------
# automorphism search


def test_k4_automorphisms():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    gens = automorphism_generators(k4, [0] * 4)
    assert all(is_automorphism(k4, [0] * 4, g) for g in gens)
    assert PermutationGroup(4, gens).order == 24


def test_c6_automorphisms_dihedral():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    gens = automorphism_generators(c6, [0] * 6)
    assert PermutationGroup(6, gens).order == 12


def test_petersen_automorphisms():
    gens = automorphism_generators(petersen_graph(), [0] * 10)
    assert PermutationGroup(10, gens).order == 120


def test_coloring_constrains_the_search():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    gens = automorphism_generators(k4, [0, 1, 1, 1])
    assert PermutationGroup(4, gens).order == 6  # only vertex 0 is pinned


@pytest.mark.parametrize("reader", [automorphism_generators, refine])
@pytest.mark.parametrize("length", [125, 127])
def test_a_coloring_of_the_wrong_length_is_refused(structure, length, reader,
                                                    monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    # a subclass, so that refine's isinstance test still sees a flat coloring
    class NoPartition(groups_module.Partition):
        def __init__(self, *args):
            no_search()

    # the search first builds its root partition, then refines it; refine
    # builds a partition from a flat coloring
    monkeypatch.setattr(groups_module, "Partition", NoPartition)
    monkeypatch.setattr(groups_module, "refine", no_search)
    graph = incidence_graph(structure)
    with pytest.raises(ValueError, match=f"coloring has length {length}, "
                                         "but the graph has 126 vertices"):
        reader(graph, [0] * length)


@pytest.mark.parametrize(
    "coloring_length, permutation_length, message",
    [
        (126, 125, "permutation has length 125"),
        (126, 127, "permutation has length 127"),
        (125, 126, "coloring has length 125"),
    ],
)
def test_a_permutation_of_the_wrong_length_is_refused(
        structure, coloring_length, permutation_length, message):
    graph = incidence_graph(structure)
    with pytest.raises(ValueError, match=f"{message}, but the graph has 126 vertices"):
        is_automorphism(graph, [0] * coloring_length, identity(permutation_length))


def test_a_map_that_is_not_a_bijection_is_no_automorphism():
    graph = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_automorphism(graph, [0] * 4, (0, 1, 0, 1))
    assert not is_automorphism(graph, [0] * 4, (0, 1, 2, 4))
    assert is_automorphism(graph, [0] * 4, (2, 3, 0, 1))


def neighbor_set_comparison(graph: Graph, coloring, p) -> bool:
    """Reference: a permutation preserves the coloring, and maps each
    vertex's neighbour set onto its image's."""
    adjacency = graph.adjacency
    if any(coloring[p[v]] != coloring[v] for v in range(len(p))):
        return False
    neighbor_sets = [set(nbrs) for nbrs in adjacency]
    return all(
        {p[w] for w in adjacency[v]} == neighbor_sets[p[v]] for v in range(len(p))
    )


@settings(max_examples=300, deadline=None)
@given(colored_graphs(), st.data())
def test_is_automorphism_matches_the_neighbor_set_comparison(case, data):
    graph, coloring = case
    n = graph.vertex_count
    # random permutations are rarely automorphisms; the search's are
    candidates = [tuple(data.draw(st.permutations(range(n)))) for _ in range(3)]
    candidates += automorphism_generators(graph, coloring)[:2]
    for p in candidates:
        assert is_automorphism(graph, coloring, p) == \
            neighbor_set_comparison(graph, coloring, p)


def test_hexagon_automorphism_group(aut_generators, structure):
    graph = incidence_graph(structure)
    coloring = [0] * 63 + [1] * 63
    assert all(is_automorphism(graph, coloring, g) for g in aut_generators)
    assert PermutationGroup(126, aut_generators).order == 12096


def self_isomorphism_count(graph: Graph, coloring) -> int:
    """Oracle: color-preserving self-isomorphisms counted by networkx."""
    g = nx.Graph()
    g.add_nodes_from((v, {"color": c}) for v, c in enumerate(coloring))
    g.add_edges_from((v, w) for v, nbrs in enumerate(graph.adjacency) for w in nbrs)
    matcher = GraphMatcher(g, g, node_match=categorical_node_match("color", None))
    return sum(1 for _ in matcher.isomorphisms_iter())


@settings(max_examples=200, deadline=None)
@given(random_colored_graphs(max_vertices=7))
def test_search_order_matches_networkx(case):
    # the search's own order, the chain on its base, the general chain
    graph, coloring = case
    n = graph.vertex_count
    gens = automorphism_generators(graph, coloring)
    assert gens.order == PermutationGroup(n, gens).order == \
        PermutationGroup(n, list(gens)).order == self_isomorphism_count(graph, coloring)


def seed_automorphism_generators(graph: Graph, coloring) -> Automorphisms:
    """Reference: the search that recomputed the orbit of every vertex of a
    target cell after the first, by a fresh breadth-first search (``orbit_of``),
    and pruned no node by its partition's shape.  Only its target-cell rule
    follows the library's.  Its base is the path to its first leaf and its
    order the product, over that path's nodes, of the number of target-cell
    vertices in the first one's orbit, found by the same breadth-first search.

    Generators of the color-preserving automorphism group.

    Deterministic: the target cell is the first largest non-singleton
    class and vertices branch in ascending order, so the generator list is
    reproducible.  Branches reaching a vertex in the same orbit as an
    already-explored sibling (under the automorphisms found so far that fix
    the current individualized prefix) are skipped; off-spine subtrees are
    abandoned as soon as they deliver one automorphism.
    """
    n = graph.vertex_count
    initial = list(coloring)
    found: list[Permutation] = []
    first_leaf: list = [None]
    spine: list = []
    orbit_lengths: list = []

    def individualize(colors, v):
        doubled = [2 * c for c in colors]
        doubled[v] -= 1
        return doubled

    def orbit_of(v, gens):
        orbit = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return orbit

    def search(colors, prefix, on_spine) -> bool:
        colors = refine(graph, colors)
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        non_singleton = [c for c in sorted(cells) if len(cells[c]) > 1]

        if not non_singleton:
            ordering = [0] * n
            for v in range(n):
                ordering[colors[v]] = v
            if first_leaf[0] is None:
                first_leaf[0] = ordering
                spine.extend(prefix)
                return False
            candidate = [0] * n
            for i in range(n):
                candidate[first_leaf[0][i]] = ordering[i]
            candidate = tuple(candidate)
            if candidate != identity(n) and is_automorphism(graph, initial, candidate):
                found.append(candidate)
                return True
            return False

        target = max(non_singleton, key=lambda c: (len(cells[c]), -c))
        cell = sorted(cells[target])
        explored = []
        delivered = False
        for v in cell:
            if explored:
                stabilizing = [g for g in found if all(g[u] == u for u in prefix)]
                if stabilizing and orbit_of(v, stabilizing) & set(explored):
                    continue
            child_on_spine = on_spine and not explored
            got = search(individualize(colors, v), prefix + [v], child_on_spine)
            explored.append(v)
            delivered = delivered or got
            if got and not on_spine:
                return True
        if on_spine:
            stabilizing = [g for g in found if all(g[u] == u for u in prefix)]
            orbit_lengths.append(len(orbit_of(cell[0], stabilizing) & set(cell)))
        return delivered

    search(initial, [], True)
    return Automorphisms(found, spine, math.prod(orbit_lengths))


def latin_square_graph(shifts) -> Graph:
    """The Latin-square graph of L[i][j] = (shifts[i] + j) mod n: vertex
    n*i + j is adjacent to the cells in its row, its column, or with its
    symbol."""
    n = len(shifts)
    cells = [(i, j, (shifts[i] + j) % n) for i in range(n) for j in range(n)]
    return Graph.from_edges(n * n, [
        (u, w) for u, w in combinations(range(n * n), 2)
        if any(a == b for a, b in zip(cells[u], cells[w]))
    ])


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
# On this Latin-square graph, sibling pruning must use only the automorphisms
# that fix the prefix: merging every found one gives other generators.
@example((latin_square_graph((0, 4, 2, 3, 1, 5)), [0] * 36))
def test_search_matches_seed_orbit_pruning(case):
    graph, coloring = case
    assert automorphism_generators(graph, coloring) == seed_automorphism_generators(
        graph, coloring
    )


def relabeled(structure: IncidenceStructure, seed: int) -> IncidenceStructure:
    """The structure with its points and lines shuffled by a seeded rng."""
    rng = random.Random(seed)
    points, lines = list(structure.points), list(structure.lines)
    rng.shuffle(points)
    rng.shuffle(lines)
    return IncidenceStructure(tuple(points), tuple(lines))


def hexagon_case(pairing, seed, colors):
    """The incidence graph of a pairing's hexagon, relabeled by ``seed`` if it
    is not None, with its bipartition (``colors`` 2) or one colour (1)."""
    structure = build(hyperoval_partitions()[pairing])
    if seed is not None:
        structure = relabeled(structure, seed)
    coloring = [0] * 63 + [1] * 63 if colors == 2 else [0] * 126
    return incidence_graph(structure), coloring


HEXAGON_CASES = [(0, None), (1, None), (2, None), (0, 2026), (2, 11)]


@pytest.mark.parametrize("pairing, seed", HEXAGON_CASES)
def test_search_matches_seed_orbit_pruning_on_the_hexagon(pairing, seed):
    # the spine (2 -> 7 -> 45 -> 126 cells) with off-spine nodes pruned by
    # their shape, which the small random graphs rarely reach
    graph, coloring = hexagon_case(pairing, seed, 2)
    assert automorphism_generators(graph, coloring) == \
        seed_automorphism_generators(graph, coloring)


def test_one_colour_search_matches_seed_orbit_pruning_on_the_hexagon():
    # the root's child on line vertex 63 has the spine's shape, but none of
    # its children has: no automorphism exchanges points and lines
    graph, coloring = hexagon_case(0, None, 1)
    assert automorphism_generators(graph, coloring) == \
        seed_automorphism_generators(graph, coloring)


class SearchRecord:
    """What a search did: its refine calls (one per refined node), each
    refined node as (prefix, refined partition), whether each leaf plan, one
    per spine node tried, could reach every vertex, and whether each leaf
    read by propagation came out a complete map."""

    def __init__(self, graph, coloring, monkeypatch):
        self.refined = 0
        self.refined_nodes: list[tuple] = []
        self.plans: list[bool] = []
        self.reads: list[bool] = []
        originals = {name: getattr(groups_module, name)
                     for name in ("refine", "_leaf_plan", "_propagated_leaf")}
        split_off = Partition.individualized
        children = []  # every child made, kept alive so that ids stay unique
        prefixes = {}  # id(child) -> the vertices split off on the way to it

        def individualized(partition, v):
            child = split_off(partition, v)
            children.append(child)
            prefixes[id(child)] = prefixes.get(id(partition), ()) + (v,)
            return child

        def refine_node(graph, partition, *args, **kwargs):
            self.refined += 1
            result = originals["refine"](graph, partition, *args, **kwargs)
            # a node's partition is not changed after it is refined
            self.refined_nodes.append((prefixes.get(id(partition), ()), partition))
            return result

        def plan(*args):
            result = originals["_leaf_plan"](*args)
            self.plans.append(result is not None)
            return result

        def read(*args):
            result = originals["_propagated_leaf"](*args)
            self.reads.append(result is not None)
            return result

        monkeypatch.setattr(Partition, "individualized", individualized)
        monkeypatch.setattr(groups_module, "refine", refine_node)
        monkeypatch.setattr(groups_module, "_leaf_plan", plan)
        monkeypatch.setattr(groups_module, "_propagated_leaf", read)
        self.generators = automorphism_generators(graph, coloring)

    @property
    def nodes(self) -> int:
        """Refined nodes and leaves read by propagation."""
        return self.refined + sum(self.reads)


def hexagon_search(pairing, seed, colors, monkeypatch) -> SearchRecord:
    graph, coloring = hexagon_case(pairing, seed, colors)
    record = SearchRecord(graph, coloring, monkeypatch)
    assert record.generators.order == 12096
    assert PermutationGroup(graph.vertex_count, record.generators).order == 12096
    return record


@pytest.mark.parametrize("pairing, seed", HEXAGON_CASES)
def test_search_tree_size(pairing, seed, monkeypatch):
    # the first smallest target cell made 45 nodes; the 5 leaves below the
    # spine's last node, the first leaf among them, are read by propagation,
    # so 6 of the 11 are refined (refining the first leaf made 7)
    record = hexagon_search(pairing, seed, 2, monkeypatch)
    assert record.nodes == 11
    assert record.refined == 6
    assert record.reads == [True] * 5
    assert record.plans == [False, False, True]


def test_signatures_per_search(monkeypatch):
    # Refinement splits a class by its members' counts into the parts split
    # off in the round before, and signs one member of each part of a split
    # class, only to order the parts: the search on pairing 0 computes 190
    # neighbour-colour signatures.  Re-signing every member of a re-examined
    # class computed 2 220, refining the first leaf as well 1 268, and
    # signing the members next to a part split off and one of the rest 1 127.
    signatures = Counter()

    def counting_sorted(iterable, *args, **kwargs):
        signatures[isinstance(iterable, map)] += 1
        return sorted(iterable, *args, **kwargs)

    graph, coloring = hexagon_case(0, None, 2)
    monkeypatch.setattr(groups_module, "sorted", counting_sorted, raising=False)
    assert automorphism_generators(graph, coloring).order == 12096
    assert signatures[True] == 190


def test_one_colour_search_tree_size(monkeypatch):
    # 38 nodes, 33 of them refined (34 when the first leaf was refined);
    # without the shape test, the first largest target cell made 134 and the
    # first smallest 66
    record = hexagon_search(0, None, 1, monkeypatch)
    assert record.nodes <= 40
    assert record.refined == 33


def target_class(partition: Partition) -> int:
    """The search's target cell: the first largest non-singleton class."""
    members, start = partition.members, partition.start
    return max((c for c, cell in enumerate(members) if len(cell) > 1),
               key=lambda c: (len(members[c]), -start[c]))


def leaf_candidate(first: Partition, leaf: Partition) -> Permutation:
    """The map the search reads off two discrete partitions: the vertex at
    each position of ``first`` goes to the one at that position of ``leaf``."""
    candidate = [0] * len(first.color)
    ordering = [0] * len(first.color)
    for v, x in enumerate(first.color):
        ordering[x] = v
    for v, x in enumerate(leaf.color):
        candidate[ordering[x]] = v
    return tuple(candidate)


def nodes_and_siblings(graph: Graph, coloring, depth: int):
    """Each node the search could make within ``depth`` splits of the root,
    branching on its target cells, with the node's siblings of its shape."""
    root = refine(graph, Partition(coloring))
    level = [(root, [root])]
    for splits in range(depth + 1):
        after = []
        for node, siblings in level:
            yield node, siblings
            if splits < depth and len(node.members) < graph.vertex_count:
                children = [refine(graph, node.individualized(u), u)
                            for u in node.members[target_class(node)]]
                after += [(child, [other for other in children
                                   if sorted(other.start) == sorted(child.start)])
                          for child in children]
        level = after


def read_leaves_against_refined(graph: Graph, coloring) -> Counter:
    """Read leaves by propagation below every node within two splits of
    the root and check each complete map against the refined leaf's
    candidate.  Each non-singleton class with a vertex b whose child is
    discrete is a branching class, with b as the first leaf's vertex, and
    each sibling is read at each vertex w of its class at the same start.
    Counts the outcomes."""
    n = graph.vertex_count
    adjacency = graph.adjacency
    outcomes = Counter()
    for node, siblings in nodes_and_siblings(graph, coloring, 2):
        for start, cell in zip(node.start, node.members):
            if len(cell) == 1:
                continue
            leaves = ((b, refine(graph, node.individualized(b), b)) for b in cell)
            b, first = next(((b, leaf) for b, leaf in leaves if len(leaf.members) == n),
                            (None, None))
            plan = b is not None and _leaf_plan(adjacency, node, b)
            if not plan:
                outcomes["no plan"] += b is not None
                continue
            for sibling in siblings:
                for w in sibling.members[sibling.start.index(start)]:
                    mapped = _propagated_leaf(adjacency, plan, sibling, w)
                    if mapped is None:
                        outcomes["stalled"] += 1
                        continue
                    leaf = refine(graph, sibling.individualized(w), w)
                    candidate = leaf_candidate(first, leaf) \
                        if len(leaf.members) == n else None
                    if candidate is not None and is_automorphism(graph, coloring,
                                                                  candidate):
                        assert mapped == candidate
                    if is_automorphism(graph, coloring, mapped):
                        assert mapped == candidate
                        outcomes["automorphism"] += 1
                    else:
                        outcomes["not an automorphism"] += 1
    return outcomes


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_a_propagated_leaf_is_the_refined_leafs_candidate(case):
    read_leaves_against_refined(*case)


# Two graphs on 8 vertices: on the first a walk on a sibling node
# finds no neighbour in a class, on the second it completes a map that is
# no automorphism; random graphs reach either rarely.
STALLING = Graph.from_edges(8, [(0, 1), (0, 3), (0, 5), (0, 7), (1, 2), (1, 3), (1, 6),
                                (2, 4), (2, 5), (2, 7), (3, 5), (3, 6), (4, 5), (4, 6),
                                (4, 7), (6, 7)])
MISMAPPING = Graph.from_edges(8, [(0, 1), (0, 2), (0, 6), (0, 7), (1, 2), (1, 4), (1, 5),
                                  (2, 3), (3, 4), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7)])


@pytest.mark.parametrize("graph, outcome", [(STALLING, "stalled"),
                                            (MISMAPPING, "not an automorphism")])
def test_propagation_stalls_and_mismaps_only_where_refinement_fails(graph, outcome):
    assert read_leaves_against_refined(graph, [0] * 8)[outcome] > 0


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


SMALL_GRAPHS = {
    "K4": Graph.from_edges(4, list(combinations(range(4), 2))),
    "Petersen": petersen_graph(),
    "C6": Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
    "K3,3": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "3-cube": Graph.from_edges(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                                   if not u & 1 << k]),
}


@pytest.mark.parametrize("name, propagates", [
    ("K4", True), ("Petersen", True), ("C6", False), ("K3,3", False), ("3-cube", False),
])
def test_small_graphs_read_or_refine_their_last_leaves(name, propagates, monkeypatch):
    # A walk is planned at each spine node until one reaches every vertex.
    # K4 and Petersen plan one at the spine's last node, their third, and
    # read every leaf below it; on C6, K3,3 and the 3-cube no walk reaches
    # every vertex, so no leaf is read and the search refines them all.
    graph = SMALL_GRAPHS[name]
    coloring = [0] * graph.vertex_count
    record = SearchRecord(graph, coloring, monkeypatch)
    spine = len(record.generators.base)
    assert record.plans == [False] * (spine - 1) + [propagates]
    if propagates:
        assert record.reads and all(record.reads)
    else:
        assert record.reads == []
    assert record.generators == seed_automorphism_generators(graph, coloring)
    assert record.generators.order == self_isomorphism_count(graph, coloring)


def first_leaf_refines(record: SearchRecord) -> int:
    """How often the search refined its first leaf, the node below its base."""
    base = tuple(record.generators.base)
    return sum(prefix == base for prefix, _ in record.refined_nodes)


@pytest.mark.parametrize("pairing, seed", HEXAGON_CASES)
def test_the_hexagons_first_leaf_is_read_not_refined(pairing, seed, monkeypatch):
    # the walk planned at the spine's last node reaches every vertex, so the
    # first leaf is known to be discrete and is read like its siblings
    record = hexagon_search(pairing, seed, 2, monkeypatch)
    assert first_leaf_refines(record) == 0
    last = tuple(record.generators.base[:-1])  # the spine's last node is refined once
    assert sum(prefix == last for prefix, _ in record.refined_nodes) == 1


@pytest.mark.parametrize("graph", [
    pytest.param(STALLING, id="STALLING"), pytest.param(MISMAPPING, id="MISMAPPING"),
    *(pytest.param(SMALL_GRAPHS[name], id=name) for name in ("C6", "K3,3", "3-cube")),
])
def test_a_first_leaf_is_refined_at_most_once(graph, monkeypatch):
    # with no plan the first leaf is refined on the spine; on MISMAPPING a
    # walk is planned but a sibling's stalls, and refining that sibling's
    # leaf refines the first leaf too, once
    coloring = [0] * graph.vertex_count
    record = SearchRecord(graph, coloring, monkeypatch)
    assert first_leaf_refines(record) == 1
    assert record.generators == seed_automorphism_generators(graph, coloring)
    if graph is MISMAPPING:
        assert record.plans[-1] and False in record.reads


def assert_equals_the_seed_search(record: SearchRecord, graph, coloring):
    """The search's generators, base and order are the seed search's, and
    each generator that fixes a refined node's prefix maps the node's
    target cell onto itself, so orbits merged over that cell alone are the
    orbits there."""
    seed = seed_automorphism_generators(graph, coloring)
    found = record.generators
    assert (found, found.base, found.order) == (seed, seed.base, seed.order)
    for prefix, partition in record.refined_nodes:
        if len(partition.members) == graph.vertex_count:
            continue
        cell = partition.members[target_class(partition)]
        for g in found:
            if all(g[u] == u for u in prefix):
                assert sorted(g[x] for x in cell) == cell


@pytest.mark.parametrize("pairing", [0, 1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_orbits_merged_over_the_target_cell_on_relabelled_hexagons(pairing, seed,
                                                                   monkeypatch):
    graph, coloring = hexagon_case(pairing, seed, 2)
    record = SearchRecord(graph, coloring, monkeypatch)
    assert record.generators.order == 12096
    assert_equals_the_seed_search(record, graph, coloring)


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_orbits_merged_over_the_target_cell_on_small_graphs(name, monkeypatch):
    graph = SMALL_GRAPHS[name]
    coloring = [0] * graph.vertex_count
    assert_equals_the_seed_search(SearchRecord(graph, coloring, monkeypatch),
                                  graph, coloring)


@pytest.mark.parametrize("n, edges, generators, base, order", [
    (0, [], [], (), 1),
    (1, [], [], (), 1),
    (2, [], [(1, 0)], (0,), 2),
    (3, [(0, 1)], [(1, 0, 2)], (0,), 2),
    (3, [], [(0, 2, 1), (1, 0, 2)], (0, 1), 6),
])
def test_degenerate_searches(n, edges, generators, base, order):
    graph = Graph.from_edges(n, edges)
    found = automorphism_generators(graph, [0] * n)
    assert found == generators
    assert found.base == base
    assert found.order == order
    assert PermutationGroup(n, found).order == order


def test_a_search_leaves_no_cyclic_garbage(structure):
    # the search's state is freed by reference counting when it returns
    graph = incidence_graph(structure)
    gc.collect()
    gc.disable()
    try:
        automorphism_generators(graph, [0] * 63 + [1] * 63)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Schreier-Sims


def test_group_order_trivial_cases():
    assert PermutationGroup(63, []).order == 1
    assert PermutationGroup(63, [cycle(63, list(range(63)))]).order == 63


def test_order_against_closure_oracle():
    cases = [
        [cycle(4, [0, 1]), cycle(4, [0, 1, 2, 3])],        # S4, order 24
        [cycle(6, [0, 1, 2, 3, 4, 5]), (5, 4, 3, 2, 1, 0)],  # D6, order 12
        [cycle(7, [0, 1, 2, 3, 4, 5, 6]), cycle(7, [0, 1])],  # S7, order 5040
        [cycle(5, [0, 1, 2]), cycle(5, [2, 3, 4])],        # A5, order 60
    ]
    for gens in cases:
        assert PermutationGroup(len(gens[0]), gens).order == closure_order(gens)


def test_elements_enumeration_matches_closure():
    gens = [cycle(4, [0, 1]), cycle(4, [0, 1, 2, 3])]
    group = PermutationGroup(4, gens)
    listed = list(group.elements())
    assert len(listed) == group.order == 24
    assert set(listed) == closure_set(gens)


def test_membership():
    group = PermutationGroup(4, [cycle(4, [0, 1, 2])])
    assert cycle(4, [0, 2, 1]) in group
    assert cycle(4, [0, 1]) not in group
    for bad in [(0, 1, 2), (0, 1, 2, 3, 4), (0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="not a permutation of degree 4"):
            bad in group


def test_rejects_non_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        PermutationGroup(3, [(0, 0, 1)])


def test_order_invariant_under_generator_shuffles(aut_generators):
    rng = random.Random(2024)
    reference = PermutationGroup(126, aut_generators).order
    for _ in range(3):
        shuffled = list(aut_generators)
        rng.shuffle(shuffled)
        assert PermutationGroup(126, shuffled).order == reference


# sha256(repr(...)) of the generator list and of the chain
# (base, sorted transversals per level, strong generators per level) of the
# degree-126 group, built by the Schreier-Sims whose levels keep their coset
# representatives as their orbits grow, on the search's spine as its base,
# from the generators of the search that targets the first largest cell.
CHAIN_DIGESTS = {
    "pairing-0": (
        "0d3eca4a05799cc2f21ed572d7618a8ac4ffe1a910d4b3e995b642dfc4b30257",
        "9f1474bc46234cd66e8b4e7e6aeddf5b53003d32fd70baba3d9660c0db5ae9c2",
    ),
    "shuffled-2026": (
        "4e9cd32d3fd18bbabd631381c17dc944f4fee0c495acaa5a1d55946d0bd3fa32",
        "0b15e542ae3f1f4ef91131e31682b622676038c29952690f05530fa2fde15ebb",
    ),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def chain(group):
    """The chain with the coset representatives u_x, each derived from the
    u_x^-1 the chain keeps."""
    transversals = [sorted((x, inverse(u_inv)) for x, u_inv in t.items())
                    for t in group._transversal_inverses]
    return (group.base, transversals, group._level_gens)


def assert_inverses_stored(group):
    """Each kept u_x^-1 is a permutation that sends x to the level's base
    point, and each strong generator's stored inverse is its inverse."""
    e = identity(group.degree)
    for level, inverses in enumerate(group._transversal_inverses):
        b = group.base[level]
        assert b in inverses
        for x, u_inv in inverses.items():
            assert sorted(u_inv) == list(e)
            assert u_inv[x] == b
        strong = zip(group._level_gens[level], group._level_inverses[level])
        assert all(compose(s, s_inv) == e for s, s_inv in strong)


def test_chains_are_golden(structure):
    rng = random.Random(2026)
    points, lines = list(structure.points), list(structure.lines)
    rng.shuffle(points)
    rng.shuffle(lines)
    shuffled = IncidenceStructure(tuple(points), tuple(lines))
    for name, s in (("pairing-0", structure), ("shuffled-2026", shuffled)):
        gens = automorphism_generators(incidence_graph(s), [0] * 63 + [1] * 63)
        group = PermutationGroup(126, gens)
        assert (digest(gens), digest(chain(group))) == CHAIN_DIGESTS[name]
        assert_base_and_strong_generating_set(group)


@pytest.mark.parametrize(
    "base, message",
    [
        ((-1,), "base point -1 is not in range"),
        ((7,), "base point 7 is not in range"),
        ((0.0,), "base point 0.0 is not in range"),
        ((True,), "base point True is not in range"),
        ((0, 0), "base points repeat"),
    ],
)
def test_known_base_is_validated(base, message):
    with pytest.raises(ValueError, match=message):
        PermutationGroup(4, Automorphisms([(1, 0, 2, 3)], base, 2))


@pytest.mark.parametrize("point", [-1, 7, True])
def test_stabilizer_of_a_point_off_the_domain_is_refused(point):
    group = PermutationGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError, match=f"base point {point} is not in range"):
        group.stabilizer_orbit_sizes(point)


class SeedSchreierSims(PermutationGroup):
    """Reference: the insertion that forms and sifts the Schreier generator
    of every (orbit point, strong generator) pair again, including the
    pairs already sifted at the same level and the tree edges, each as a
    whole permutation."""

    def _add(self, word, start):
        h, level = self._strip(word, start)
        if h == self._identity:
            return
        if level == len(self.base):
            self._append_level(min(i for i in range(self.degree) if h[i] != i))
        h_inv = inverse(h)
        for j in range(start, level + 1):
            self._level_gens[j].append(h)
            self._level_inverses[j].append(h_inv)
        # Re-close the Schreier condition on every touched level, deepest
        # first; residues found on the way are inserted recursively.
        for j in range(level, start - 1, -1):
            self._extend_orbit(j)
            inverses = self._transversal_inverses[j]
            for x in sorted(inverses):
                ux = inverse(inverses[x])
                for s in self._level_gens[j]:
                    # u_x, then s, then the inverse of u_{s(x)}
                    back = inverses[s[x]]
                    self._add((tuple([back[s[i]] for i in ux]),), j + 1)


@st.composite
def generator_sets(draw):
    """Up to four permutations of degree <= 8."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    return n, gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_skipped_pairs_leave_the_chain_unchanged(case):
    n, gens = case
    group = PermutationGroup(n, gens)
    seed = SeedSchreierSims(n, gens)
    assert chain(group) == chain(seed)
    assert group._level_inverses == seed._level_inverses
    assert group.order == closure_order(gens)


class CountingSchreierSims(PermutationGroup):
    """Counts the Schreier generators each level forms and sifts, and the
    residues the sifts leave as whole permutations.  On a known base each
    formed generator is sifted by its base images, and only one that leaves
    a residue goes on to _add; otherwise each is sifted by _add."""

    def __init__(self, *args, **kwargs):
        self.formed = Counter()  # level j -> Schreier generators sifted into j + 1
        self.added = Counter()  # start -> _add calls
        self.residues = Counter()  # start -> residues that are not the identity
        super().__init__(*args, **kwargs)

    def _strips_to_base(self, images, start):
        if start:  # only the input generators are checked at level 0
            self.formed[start - 1] += 1
        return super()._strips_to_base(images, start)

    def _add(self, word, start):
        if start and not self._known_base:
            self.formed[start - 1] += 1
        self.added[start] += 1
        super()._add(word, start)

    def _strip(self, word, start):
        h, level = super()._strip(word, start)
        if h != self._identity:
            self.residues[start] += 1
        return h, level


def pair_counts(group):
    """Formed Schreier generators, and (orbit point, strong generator) pairs
    less the tree edges: one per orbit point but the base point."""
    return [(group.formed[j], len(t) * len(group._level_gens[j]) - (len(t) - 1))
            for j, t in enumerate(group._transversal_inverses)]


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_each_pair_is_formed_once_per_level(case):
    n, gens = case
    group = CountingSchreierSims(n, gens)
    assert all(formed == pairs for formed, pairs in pair_counts(group))


def test_the_certified_hexagon_chain_forms_no_schreier_generator(aut_generators):
    group = CountingSchreierSims(126, aut_generators)
    assert group.base == list(aut_generators.base) == [0, 66, 23]
    assert aut_generators.cells == (63, 48, 4)
    assert [len(t) for t in group._transversal_inverses] == [63, 48, 4]
    assert group.order == 12096
    # each orbit fills its cell: the 4 input generators are inserted, become
    # the strong generators, and no Schreier generator is formed
    assert sum(group.formed.values()) == 0
    assert group.residues == group.added == {0: 4}


def test_each_pair_is_formed_once_on_the_hexagon(aut_generators):
    # with no cells the build sifts every Schreier generator as it goes
    gens = Automorphisms(list(aut_generators), aut_generators.base,
                         aut_generators.order)
    group = CountingSchreierSims(126, gens)
    assert group.base == list(gens.base) == [0, 66, 23]
    assert group.order == 12096
    assert all(formed == pairs for formed, pairs in pair_counts(group))
    assert [len(t) for t in group._transversal_inverses] == [63, 48, 4]
    assert sum(len(t) - 1 for t in group._transversal_inverses) == 112  # tree edges skipped
    # 292 Schreier generators are sifted by their base images, and none
    # leaves a residue; the 4 input generators become the strong generators,
    # and only they are inserted
    assert sum(group.formed.values()) == 292
    assert group.residues == group.added == {0: 4}


@pytest.mark.parametrize("pairing", [0, 1, 2])
@pytest.mark.parametrize("seed", [None, 3, 2026])
def test_a_certified_chain_is_the_full_sifts(pairing, seed):
    graph, coloring = hexagon_case(pairing, seed, 2)
    gens = automorphism_generators(graph, coloring)
    certified = CountingSchreierSims(126, gens)
    full = PermutationGroup(126, Automorphisms(list(gens), gens.base, gens.order))
    assert sum(certified.formed.values()) == 0
    assert repr(chain(certified)) == repr(chain(full))
    assert certified._level_inverses == full._level_inverses
    assert certified.order == math.prod(gens.cells) == 12096


C3_AND_C4 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
@example((C3_AND_C4, [0] * 7))  # regular: the root's cell is 7, the orbit 3
def test_cells_certify_exactly_the_full_sifts_order(case):
    graph, coloring = case
    n = graph.vertex_count
    gens = automorphism_generators(graph, coloring)
    group = CountingSchreierSims(n, gens)
    plain = PermutationGroup(n, list(gens))
    assert group.order == plain.order
    certified = tuple(map(len, group._transversal_inverses)) == gens.cells
    assert certified == (plain.order == math.prod(gens.cells))
    if certified:
        assert sum(group.formed.values()) == 0
    else:  # closed by sifting, each pair once
        assert all(formed == pairs for formed, pairs in pair_counts(group))
    assert_base_and_strong_generating_set(group)


def test_a_cell_its_orbit_does_not_fill_is_closed_by_sifting():
    # one colour: the root's cell holds all 126 vertices, but no automorphism
    # exchanges points and lines
    graph, coloring = hexagon_case(0, None, 1)
    gens = automorphism_generators(graph, coloring)
    group = CountingSchreierSims(126, gens)
    assert gens.cells == (126, 48, 4)
    assert [len(t) for t in group._transversal_inverses] == [63, 48, 4]
    assert all(formed == pairs for formed, pairs in pair_counts(group))
    assert group.order == PermutationGroup(126, list(gens)).order == 12096


def test_a_dropped_generator_fails_the_certificate(aut_generators):
    gens = aut_generators
    dropped = CountingSchreierSims(
        126, Automorphisms(gens[:-1], gens.base, gens.order, gens.cells))
    assert [len(t) for t in dropped._transversal_inverses] != list(gens.cells)
    assert sum(dropped.formed.values()) > 0
    assert dropped.order == PermutationGroup(126, gens[:-1]).order == 192


@pytest.mark.parametrize("cells, message", [
    ((), "0 cells for 1 base points"),
    ((2, 1), "2 cells for 1 base points"),
    ((0,), "cell size 0 is not a positive int"),
    ((-2,), "cell size -2 is not a positive int"),
    ((2.0,), "cell size 2.0 is not a positive int"),
    ((True,), "cell size True is not a positive int"),
])
def test_cells_are_validated(cells, message):
    with pytest.raises(ValueError, match=message):
        PermutationGroup(4, Automorphisms([(1, 0, 2, 3)], (0,), 2, cells))


@pytest.mark.parametrize("degree, generators, order", [
    (3, [(1, 0, 2), (0, 2, 1)], 6),
    (4, [(1, 0, 2, 3), (0, 1, 3, 2)], 4),
])
def test_a_generator_fixing_a_base_that_is_none_is_refused(degree, generators, order):
    # the second generator fixes 0 and is not the identity: (0,) is no base
    assert PermutationGroup(degree, generators).order == order
    for cells in (None, (2,)):
        message = f"(0,) is not a base: the generator {generators[1]} leaves"
        with pytest.raises(ValueError, match=re.escape(message)):
            PermutationGroup(degree, Automorphisms(generators, (0,), order, cells))


class TreeEdgeSchreierSims(PermutationGroup):
    """Also forms the Schreier generator of each tree edge, which the build
    skips, and records whether it is the identity."""

    def __init__(self, *args, **kwargs):
        self.tree_edges = {}  # (level, x, k) -> is the Schreier generator 1?
        super().__init__(*args, **kwargs)

    def _sift_schreier_generators(self, j):
        inverses = self._transversal_inverses[j]
        for x, k in self._tree_edges[j]:
            s = self._level_gens[j][k]
            back = inverses[s[x]]
            schreier = tuple([back[s[i]] for i in inverse(inverses[x])])
            self.tree_edges[j, x, k] = schreier == self._identity
        super()._sift_schreier_generators(j)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_skipped_tree_edges_give_the_identity(case):
    n, gens = case
    group = TreeEdgeSchreierSims(n, gens)
    assert all(group.tree_edges.values())
    # one tree edge reached each orbit point but the base point
    per_level = Counter(j for j, _, _ in group.tree_edges)
    assert all(per_level[j] == len(t) - 1
               for j, t in enumerate(group._transversal_inverses))


def sympy_group(gens):
    return SympyGroup([SympyPermutation(list(g)) for g in gens])


def sympy_order(gens) -> int:
    """Oracle: the order sympy's own Schreier-Sims gives."""
    if not gens:
        return 1
    return sympy_group(gens).order()


def assert_base_and_strong_generating_set(group):
    """Each u_x maps base[j] to x and fixes base[:j] (so its kept inverse
    maps x to base[j] and fixes base[:j]), each level's strong generators fix
    base[:j], and every stored inverse is right."""
    for j, inverses in enumerate(group._transversal_inverses):
        fixed = group.base[:j]
        for x, u_inv in inverses.items():
            u = inverse(u_inv)
            assert u[group.base[j]] == x
            assert all(u[b] == b for b in fixed)
        assert all(s[b] == b for s in group._level_gens[j] for b in fixed)
    assert_inverses_stored(group)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_orders_match_sympy(case):
    n, gens = case
    group = PermutationGroup(n, gens)
    assert group.order == sympy_order(gens)
    assert_base_and_strong_generating_set(group)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_conjugated_stabilizers_match_sympy(case):
    n, gens = case
    group = PermutationGroup(n, gens)
    if not group.base:
        return
    first_orbit = next(o for o in orbits(gens, n) if group.base[0] in o)
    for p in first_orbit:
        # reference: sympy's own stabilizer of p
        reference = [g.array_form for g in sympy_group(gens).stabilizer(p).generators]
        assert group.stabilizer_orbit_sizes(p) == tuple(
            sorted(len(o) for o in orbits(reference, n)))
        conjugated = group.stabilizer_generators(p)
        assert all(g[p] == p and g in group for g in conjugated)
        assert PermutationGroup(n, conjugated).order * len(first_orbit) == group.order


def assert_stabilizers_off_the_first_orbit(group, gens):
    """Each point off the first orbit gets a new chain on (point, *rest of
    the base): its stabilizer fixes it, lies in the group, has the order
    sympy gives and the index of the point's orbit."""
    n = group.degree
    first_orbit = group._transversal_inverses[0] if group.base else {}
    for p in (p for p in range(n) if p not in first_orbit):
        stabilizer = group.stabilizer_generators(p)
        assert all(g[p] == p and g in group for g in stabilizer)
        orbit = next(o for o in orbits(gens, n) if p in o)
        order = PermutationGroup(n, stabilizer).order
        assert order * len(orbit) == group.order
        assert order == (sympy_group(gens).stabilizer(p).order() if gens else 1)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_stabilizers_off_the_first_orbit_of_a_plain_list_match_sympy(case):
    n, gens = case
    assert_stabilizers_off_the_first_orbit(PermutationGroup(n, gens), gens)


def test_hexagon_order_matches_sympy(aut_group):
    assert aut_group.order == sympy_order(aut_group.generators) == 12096
    assert_base_and_strong_generating_set(aut_group)


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_chains_on_the_search_base_match_sympy(case):
    graph, coloring = case
    n = graph.vertex_count
    gens = automorphism_generators(graph, coloring)
    group = PermutationGroup(n, gens)
    assert group.base == list(gens.base)
    assert group.order == sympy_order(gens)
    assert_base_and_strong_generating_set(group)
    assert_stabilizers_off_the_first_orbit(group, gens)


def test_an_appended_generator_takes_the_general_path(aut_generators):
    # the dihedral group of the hexagon C6 and a transposition make S6,
    # whose chain needs more base points than the search's two
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    gens = automorphism_generators(c6, [0] * 6)
    assert len(gens.base) == 2 and gens.order == 12
    gens.append(cycle(6, [0, 1]))
    assert PermutationGroup(6, gens).order == 720 == closure_order(gens)

    extended = copy.copy(aut_generators)
    extended.append(compose(aut_generators[0], aut_generators[1]))
    group = PermutationGroup(126, extended)
    assert group.order == 12096
    assert group.base == PermutationGroup(126, list(extended)).base != \
        list(aut_generators.base)


def test_membership_strips_the_whole_permutation(aut_generators, aut_group, structure):
    # agrees with a generator on the base, but swaps two other points first
    g = aut_generators[0]
    a, b = [x for x in range(63) if x not in aut_group.base][:2]
    swap = list(range(126))
    swap[a], swap[b] = b, a
    fake = compose(tuple(swap), g)
    assert all(fake[x] == g[x] for x in aut_group.base)
    assert not is_automorphism(incidence_graph(structure), [0] * 63 + [1] * 63, fake)
    assert fake not in aut_group
    assert g in aut_group


# ---------------------------------------------------------------------------
# the two degree-63 actions


def test_induced_actions_are_transitive_and_faithful(actions):
    points_action, lines_action = actions
    assert points_action.degree == 63 and lines_action.degree == 63
    assert points_action.order == 12096
    assert lines_action.order == 12096
    assert len(points_action.orbits()) == 1
    assert len(lines_action.orbits()) == 1


def test_point_subdegrees(actions):
    points_action, _ = actions
    assert points_action.stabilizer_orbit_sizes(0) == (1, 6, 24, 32)
    assert sum(points_action.stabilizer_orbit_sizes(0)) == 63


def test_generators_preserve_incidence(aut_generators, structure):
    for g in aut_generators:
        point_part = g[:63]
        line_part = tuple(x - 63 for x in g[63:])
        assert preserves_incidence(structure, point_part, line_part)


def test_preserves_incidence_detects_breakage(structure):
    broken = list(range(63))
    broken[0], broken[1] = broken[1], broken[0]
    assert not preserves_incidence(structure, tuple(broken), identity(63))


def test_duality_detection(structure):
    swap = tuple(list(range(63, 126)) + list(range(63)))
    group = PermutationGroup(126, [swap])
    with pytest.raises(ValueError, match="duality detected"):
        induced_actions(group, structure)


def test_wrong_degree_rejected(structure):
    group = PermutationGroup(4, [cycle(4, [0, 1])])
    with pytest.raises(ValueError, match="does not match"):
        induced_actions(group, structure)


def test_coinciding_lines_are_refused(aut_group, structure):
    lines = (structure.lines[0],) * 2 + structure.lines[2:]
    copied = IncidenceStructure(structure.points, lines)
    with pytest.raises(ValueError, match="lines 0 and 1 have the same points"):
        induced_actions(aut_group, copied)


def test_coinciding_pencils_are_refused():
    # a and b both lie on exactly the two lines, so swapping them fixes
    # every line: the line action of this group is not faithful
    structure = IncidenceStructure(
        ("a", "b", "c", "d"), (frozenset("abc"), frozenset("abd")))
    gens = automorphism_generators(incidence_graph(structure), [0] * 4 + [1] * 2)
    group = PermutationGroup(6, gens)
    assert (1, 0, 2, 3, 4, 5) in group
    with pytest.raises(ValueError, match="points 0 and 1 have the same pencil"):
        induced_actions(group, structure)


@pytest.mark.parametrize("point", [-1, 63, True])
def test_an_action_refuses_a_point_off_its_domain(actions, point):
    for action in actions:
        with pytest.raises(ValueError, match=f"base point {point} is not in range"):
            action.stabilizer_orbit_sizes(point)


def test_line_subdegrees(actions, aut_generators, monkeypatch):
    _, lines_action = actions
    built = []
    monkeypatch.setattr(groups_module, "PermutationGroup",
                        lambda *args, **kwargs: built.append(
                            CountingSchreierSims(*args, **kwargs)) or built[-1])
    assert lines_action.stabilizer_orbit_sizes(0) == (1, 6, 24, 32)
    # no line is in the first orbit, so a second chain is built, with the
    # line ahead of the search's base, and sifted by base images: of its 266
    # Schreier generators, 2 leave a residue
    [chain] = built
    assert chain.base == [63, *aut_generators.base]
    assert chain.order == 12096
    assert sum(chain.formed.values()) == 266
    assert chain.residues == chain.added == {0: 4, 1: 2}


def test_character_witness_exists(aut_group, actions):
    points_action, lines_action = actions
    witness = nonequivalence_certificate(points_action, lines_action)
    assert witness is not None
    assert witness.fixed_points != witness.fixed_lines
    assert (witness.fixed_points, witness.fixed_lines) == GOLDEN_WITNESS_FIXED
    # the witness is a genuine pair of group elements, not the identity
    assert witness.on_points != identity(63) or witness.on_lines != identity(63)
    # one element acting on both sides, not a pair from two separate groups
    assert witness.on_points + tuple(x + 63 for x in witness.on_lines) in aut_group


def test_character_witness_does_not_depend_on_the_base():
    # The generators are scanned before the chain's elements, whose order
    # follows the base.  The search's Automorphisms fix the base up front, a
    # plain list lets the chain choose it; on relabelled pairing 1 the bases
    # differ, and scanning the elements alone gave (3, 7) and (0, 1).  A
    # generator separates, so both give that same witness.
    structure = relabeled(build(hyperoval_partitions()[1]), 2026)
    gens = automorphism_generators(incidence_graph(structure), [0] * 63 + [1] * 63)
    groups = [PermutationGroup(126, generators) for generators in (gens, list(gens))]
    assert groups[0].base != groups[1].base
    witnesses = [character_witness(group, 63) for group in groups]
    assert witnesses[0] == witnesses[1]
    witness = witnesses[0]
    assert witness.fixed_points != witness.fixed_lines
    element = witness.on_points + tuple(x + 63 for x in witness.on_lines)
    assert element in list(gens)
    assert all(element in group for group in groups)


@pytest.mark.parametrize("pairing", [0, 1, 2])
def test_character_witness_is_a_generator(pairing, monkeypatch):
    # on each pairing as built the first generator separates, with the
    # golden counts, and the chain's elements are never enumerated
    structure = build(hyperoval_partitions()[pairing])
    gens = automorphism_generators(incidence_graph(structure), [0] * 63 + [1] * 63)
    group = PermutationGroup(126, gens)

    def unenumerated(self):
        raise AssertionError("an element was enumerated")
        yield

    monkeypatch.setattr(PermutationGroup, "elements", unenumerated)
    witness = character_witness(group, 63)
    assert (witness.fixed_points, witness.fixed_lines) == GOLDEN_WITNESS_FIXED
    assert witness.on_points + tuple(x + 63 for x in witness.on_lines) == gens[0]


def test_identity_fixes_everything(aut_group):
    assert identity(126) in aut_group


@pytest.mark.parametrize("pairing", [0, 1, 2])
@pytest.mark.parametrize("seed", [None, 2026])
def test_certificate_scans_the_group_the_actions_came_from(pairing, seed, monkeypatch):
    structure = build(hyperoval_partitions()[pairing])
    if seed is not None:
        rng = random.Random(seed)
        points, lines = list(structure.points), list(structure.lines)
        rng.shuffle(points)
        rng.shuffle(lines)
        structure = IncidenceStructure(tuple(points), tuple(lines))
    gens = automorphism_generators(incidence_graph(structure), [0] * 63 + [1] * 63)
    point_action, line_action = induced_actions(PermutationGroup(126, gens), structure)

    # the scan of the same chain, built again from the joined generators on
    # the search's base
    joined = [a + tuple(x + 63 for x in b)
              for a, b in zip(point_action.generators, line_action.generators)]
    again = PermutationGroup(126, Automorphisms(joined, gens.base, gens.order))
    assert again.base == list(gens.base)
    expected = character_witness(again, 63)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the joint group was built again")

    monkeypatch.setattr(groups_module, "PermutationGroup", no_rebuild)
    assert nonequivalence_certificate(point_action, line_action) == expected


@pytest.mark.parametrize("pairing", [0, 1, 2])
def test_one_group_per_run(pairing, monkeypatch):
    built = []
    init = PermutationGroup.__init__
    monkeypatch.setattr(PermutationGroup, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or
                        init(self, *args, **kwargs))
    assert run_verify(pairing, with_aut=True).verdict == "PASS"
    assert len(built) == 1

    # the aut-relabeled request sequence on a relabeled hexagon
    built.clear()
    structure = build(hyperoval_partitions()[pairing])
    rng = random.Random(pairing)
    points, lines = list(structure.points), list(structure.lines)
    rng.shuffle(points)
    rng.shuffle(lines)
    structure = IncidenceStructure(tuple(points), tuple(lines))
    gens = automorphism_generators(incidence_graph(structure), [0] * 63 + [1] * 63)
    group = PermutationGroup(126, gens)
    point_action, line_action = induced_actions(group, structure)
    assert point_action.stabilizer_orbit_sizes(0) == (1, 6, 24, 32)
    assert nonequivalence_certificate(point_action, line_action) is not None
    assert len(built) == 1


def test_equivalent_actions_have_no_certificate():
    # the triangle: S3 acts alike on its 3 points and its 3 two-point lines
    structure = IncidenceStructure(
        ("a", "b", "c"), (frozenset("ab"), frozenset("bc"), frozenset("ac")))
    gens = automorphism_generators(incidence_graph(structure), [0] * 3 + [1] * 3)
    group = PermutationGroup(6, gens)
    assert group.order == 6
    assert nonequivalence_certificate(*induced_actions(group, structure)) is None


@pytest.mark.parametrize("case", ["swapped", "two groups", "bare group"])
def test_certificate_takes_only_the_views_in_order(case, aut_group, actions, structure):
    point_action, line_action = actions
    if case == "swapped":
        pair = (line_action, point_action)
    elif case == "two groups":
        other = PermutationGroup(126, aut_group.generators)
        pair = (point_action, induced_actions(other, structure)[1])
    else:
        pair = (aut_group, aut_group)
    with pytest.raises(ValueError, match="views of one group, in order"):
        nonequivalence_certificate(*pair)
