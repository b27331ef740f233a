import hashlib
import random
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
    Partition,
    Permutation,
    PermutationGroup,
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
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Graph.from_edges(10, edges)
    assert PermutationGroup(10, automorphism_generators(petersen, [0] * 10)).order == 120


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
    graph, coloring = case
    gens = automorphism_generators(graph, coloring)
    assert PermutationGroup(graph.vertex_count, gens).order == \
        self_isomorphism_count(graph, coloring)


def seed_automorphism_generators(graph: Graph, coloring) -> list:
    """Reference: the search that recomputed the orbit of every vertex of a
    target cell after the first, by a fresh breadth-first search (``orbit_of``),
    and pruned no node by its partition's shape.  Only its target-cell rule
    follows the library's.

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
        return delivered

    search(initial, [], True)
    return found


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


def refine_calls(graph, coloring, monkeypatch) -> int:
    """How many search nodes (one refine call each) a search makes."""
    counted = []
    refine_node = groups_module.refine

    def counting(*args, **kwargs):
        counted.append(1)
        return refine_node(*args, **kwargs)

    monkeypatch.setattr(groups_module, "refine", counting)
    generators = automorphism_generators(graph, coloring)
    assert PermutationGroup(graph.vertex_count, generators).order == 12096
    return len(counted)


@pytest.mark.parametrize("pairing, seed", HEXAGON_CASES)
def test_search_tree_size(pairing, seed, monkeypatch):
    # the first smallest target cell made 45 nodes
    graph, coloring = hexagon_case(pairing, seed, 2)
    assert refine_calls(graph, coloring, monkeypatch) == 11


def test_one_colour_search_tree_size(monkeypatch):
    # 38 nodes; without the shape test, the first largest target cell made
    # 134 and the first smallest 66
    graph, coloring = hexagon_case(0, None, 1)
    assert refine_calls(graph, coloring, monkeypatch) <= 40


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
# representatives as their orbits grow, from the generators of the search
# that targets the first largest cell.
CHAIN_DIGESTS = {
    "pairing-0": (
        "0d3eca4a05799cc2f21ed572d7618a8ac4ffe1a910d4b3e995b642dfc4b30257",
        "aa0e897c5595d5ae72987718c3b17194bd3211aeefa18903f6589240d8201376",
    ),
    "shuffled-2026": (
        "4e9cd32d3fd18bbabd631381c17dc944f4fee0c495acaa5a1d55946d0bd3fa32",
        "f4a726e5fefd212d910f341641452ac0d60c8e084987b1ad58fe928e87ede79f",
    ),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def chain(group):
    transversals = [sorted(t.items()) for t in group._transversals]
    return (group.base, transversals, group._level_gens)


def assert_inverses_stored(group):
    e = identity(group.degree)
    for level, transversal in enumerate(group._transversals):
        inverses = group._transversal_inverses[level]
        assert inverses.keys() == transversal.keys()
        assert all(compose(u, inverses[x]) == e for x, u in transversal.items())
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


def test_base_hint_gives_point_stabilizer(aut_generators):
    group = PermutationGroup(126, aut_generators, base_hint=(0,))
    assert group.base[0] == 0
    assert group.order == 12096
    sizes = group.stabilizer_orbit_sizes(0)
    assert sum(sizes) == 126


@pytest.mark.parametrize(
    "hint, message",
    [
        ((-1,), "base point -1 is not in range"),
        ((7,), "base point 7 is not in range"),
        ((0.0,), "base point 0.0 is not in range"),
        ((0, 0), "base points repeat"),
    ],
)
def test_base_hint_is_validated(hint, message):
    with pytest.raises(ValueError, match=message):
        PermutationGroup(4, [(1, 0, 2, 3)], base_hint=hint)


@pytest.mark.parametrize("point", [-1, 7])
def test_stabilizer_of_a_point_off_the_domain_is_refused(point):
    group = PermutationGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError, match=f"base point {point} is not in range"):
        group.stabilizer_orbit_sizes(point)


class SeedSchreierSims(PermutationGroup):
    """Reference: the insertion that forms and sifts the Schreier generator
    of every (orbit point, strong generator) pair again, including the
    pairs and the permutations already sifted at the same level."""

    def _add(self, g, start):
        h, level = self._strip(g, start)
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
            transversal = self._transversals[j]
            inverses = self._transversal_inverses[j]
            for x in sorted(transversal):
                ux = transversal[x]
                for s in self._level_gens[j]:
                    # u_x, then s, then the inverse of u_{s(x)}
                    back = inverses[s[x]]
                    self._add(tuple([back[s[i]] for i in ux]), j + 1)


@st.composite
def generator_sets(draw):
    """Up to four permutations of degree <= 8 and, sometimes, a base hint."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    hint = draw(st.one_of(st.just(()), st.lists(st.integers(0, n - 1), unique=True)))
    return n, gens, tuple(hint)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_memo_leaves_the_chain_unchanged(case):
    n, gens, hint = case
    group = PermutationGroup(n, gens, base_hint=hint)
    seed = SeedSchreierSims(n, gens, base_hint=hint)
    assert chain(group) == chain(seed)
    assert group._level_inverses == seed._level_inverses
    assert group.order == closure_order(gens)


class CountingSchreierSims(PermutationGroup):
    """Counts the Schreier generators each level forms and sifts."""

    def __init__(self, *args, **kwargs):
        self.formed = Counter()  # level j -> _add(g, j + 1) calls
        super().__init__(*args, **kwargs)

    def _add(self, g, start):
        if start:  # only the input generators are added at level 0
            self.formed[start - 1] += 1
        super()._add(g, start)


def pair_counts(group):
    """Formed Schreier generators, and (orbit point, strong generator) pairs
    less the tree edges: one per orbit point but the base point."""
    return [(group.formed[j], len(t) * len(group._level_gens[j]) - (len(t) - 1))
            for j, t in enumerate(group._transversals)]


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_each_pair_is_formed_once_per_level(case):
    n, gens, hint = case
    group = CountingSchreierSims(n, gens, base_hint=hint)
    assert all(formed == pairs for formed, pairs in pair_counts(group))


def test_each_pair_is_formed_once_on_the_hexagon(aut_generators):
    group = CountingSchreierSims(126, aut_generators)
    assert group.order == 12096
    assert all(formed == pairs for formed, pairs in pair_counts(group))
    assert sum(len(t) - 1 for t in group._transversals) == 92  # tree edges skipped


class TreeEdgeSchreierSims(PermutationGroup):
    """Also forms the Schreier generator of each tree edge, which the build
    skips, and records whether it is the identity."""

    def __init__(self, *args, **kwargs):
        self.tree_edges = {}  # (level, x, k) -> is the Schreier generator 1?
        super().__init__(*args, **kwargs)

    def _sift_schreier_generators(self, j):
        transversal = self._transversals[j]
        inverses = self._transversal_inverses[j]
        for x, k in self._tree_edges[j]:
            s = self._level_gens[j][k]
            back = inverses[s[x]]
            schreier = tuple([back[s[i]] for i in transversal[x]])
            self.tree_edges[j, x, k] = schreier == self._identity
        super()._sift_schreier_generators(j)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_skipped_tree_edges_give_the_identity(case):
    n, gens, hint = case
    group = TreeEdgeSchreierSims(n, gens, base_hint=hint)
    assert all(group.tree_edges.values())
    # one tree edge reached each orbit point but the base point
    per_level = Counter(j for j, _, _ in group.tree_edges)
    assert all(per_level[j] == len(t) - 1 for j, t in enumerate(group._transversals))


def sympy_order(gens) -> int:
    """Oracle: the order sympy's own Schreier-Sims gives."""
    if not gens:
        return 1
    return SympyGroup([SympyPermutation(list(g)) for g in gens]).order()


def assert_base_and_strong_generating_set(group):
    """Each u_x maps base[j] to x and fixes base[:j], each level's strong
    generators fix base[:j], and every stored inverse is right."""
    for j, transversal in enumerate(group._transversals):
        fixed = group.base[:j]
        for x, u in transversal.items():
            assert u[group.base[j]] == x
            assert all(u[b] == b for b in fixed)
        assert all(s[b] == b for s in group._level_gens[j] for b in fixed)
    assert_inverses_stored(group)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_orders_match_sympy(case):
    n, gens, hint = case
    group = PermutationGroup(n, gens, base_hint=hint)
    assert group.order == sympy_order(gens)
    assert_base_and_strong_generating_set(group)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_conjugated_stabilizers_match_a_rebuilt_chain(case):
    n, gens, hint = case
    group = PermutationGroup(n, gens, base_hint=hint)
    if not group.base:
        return
    first_orbit = next(o for o in orbits(gens, n) if group.base[0] in o)
    for p in first_orbit:
        # reference: a chain with p as its first base point, whose second
        # level is the stabilizer of p as built, not conjugated
        reference = PermutationGroup(n, gens, base_hint=(p,))
        level = reference._level_gens[1] if len(reference.base) > 1 else []
        assert group.stabilizer_orbit_sizes(p) == tuple(
            sorted(len(o) for o in orbits(level, n)))
        conjugated = group.stabilizer_generators(p)
        assert all(g[p] == p and g in group for g in conjugated)
        assert PermutationGroup(n, conjugated).order * len(first_orbit) == group.order


def test_hexagon_order_matches_sympy(aut_group):
    assert aut_group.order == sympy_order(aut_group.generators) == 12096
    assert_base_and_strong_generating_set(aut_group)


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


@pytest.mark.parametrize("point", [-1, 63])
def test_an_action_refuses_a_point_off_its_domain(actions, point):
    for action in actions:
        with pytest.raises(ValueError, match=f"base point {point} is not in range"):
            action.stabilizer_orbit_sizes(point)


def test_line_subdegrees(actions):
    _, lines_action = actions
    assert lines_action.stabilizer_orbit_sizes(0) == (1, 6, 24, 32)


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

    # the scan of a group built again from the joined generators
    joined = [a + tuple(x + 63 for x in b)
              for a, b in zip(point_action.generators, line_action.generators)]
    expected = character_witness(PermutationGroup(126, joined), 63)

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
