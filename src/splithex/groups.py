"""Graph automorphisms and permutation groups.

The automorphism search is a deterministic individualization-refinement
backtracker: colorings are refined to the coarsest equitable refinement,
the first largest non-singleton color class is chosen as target cell, and
its vertices are individualized in ascending order.  Each node keeps its
refined :class:`Partition`, and each child refines a copy with its vertex
split off, so no node rebuilds its classes from a flat coloring.  The
partition is equitable before a vertex is split off, so the first
refinement round after it re-examines only the classes of that vertex's
neighbours.  Candidate automorphisms are read off discrete partitions by
comparison with the first leaf; discovered automorphisms prune later
branches by orbits, kept in a union-find per node that merges only what
each new automorphism adds.  An off-spine node whose partition shape (its
sorted class starts) differs from the first path's at the same depth holds
no automorphism below it and is abandoned (McKay-Piperno 2014 compare a
node's invariant with the first path's in the same way).

Group orders come from a deterministic Schreier-Sims construction of a base
and strong generating set; the order is the product of the fundamental
orbit lengths.  Each transversal carries the inverse of every coset
representative, built alongside it from the inverses of the strong
generators, so sifting never inverts a permutation.  Levels are extended,
never rebuilt (Seress, *Permutation Group Algorithms*, ch. 4): a level
that gains a strong generator keeps its coset representatives, composes
only for the orbit points it adds, and sifts only the Schreier generators
of (orbit point, strong generator) pairs it has not sifted before, so
over a complete build each pair is formed at most once per level.  A pair
(x, s) whose walk first reached s(x) is a tree edge, u_{s(x)} = u_x s, and
its Schreier generator is the identity, so it is not formed at all.  Each
level also remembers every permutation already sifted into it: the levels
below are then a base and strong generating set of a group that only
grows, so such a permutation would sift to the identity again and is
skipped.  A point's stabilizer is the first base point's, conjugated by
the point's coset representative.  The point and line actions are
faithful views of the incidence-graph group (see :func:`induced_actions`),
so one chain serves a whole run.  Permutations are tuples ``p`` with
``p[i]`` the image of ``i``; ``compose(p, q)`` applies p first, then q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hexagon import Graph, IncidenceStructure

Permutation = tuple


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q."""
    return tuple([q[i] for i in p])


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def orbits(generators, degree: int) -> tuple:
    """Orbits of <generators> on 0..degree-1, sorted by smallest member."""
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    frontier.append(y)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


# ---------------------------------------------------------------------------
# equitable refinement


class Partition:
    """An ordered partition of a graph's vertices, refined in place.

    ``members[c]`` lists class c's vertices in ascending order, ``start[c]``
    is where class c starts when the classes are laid out in order, and
    ``cls[v]`` is v's class and ``color[v]`` where it starts.  Class ids
    carry no order; only the starts do.  Built from a flat coloring, the
    classes are laid out in sorted color order.  The automorphism search
    keeps one per node and hands each child a copy with a vertex split off
    (:meth:`individualized`), so no node rebuilds its classes.
    """

    __slots__ = ("members", "start", "cls", "color")

    def __init__(self, coloring):
        first = {c: i for i, c in enumerate(sorted(set(coloring)))}
        self.cls = [first[c] for c in coloring]
        self.members = [[] for _ in first]
        for v, c in enumerate(self.cls):
            self.members[c].append(v)
        self.start = [0] * len(self.members)
        for c in range(1, len(self.members)):
            self.start[c] = self.start[c - 1] + len(self.members[c - 1])
        self.color = [self.start[c] for c in self.cls]

    def individualized(self, v) -> Partition:
        """A copy with v alone in a new class just before the rest of its
        class, which must have another member."""
        child = object.__new__(Partition)
        c = self.cls[v]
        rest = [w for w in self.members[c] if w != v]
        child.members = self.members + [[v]]
        child.members[c] = rest
        child.start = self.start + [self.start[c]]
        child.start[c] += 1
        child.cls = self.cls.copy()
        child.cls[v] = len(self.members)
        child.color = self.color.copy()
        for w in rest:
            child.color[w] += 1
        return child

    def ranks(self) -> tuple:
        """Each vertex's class, numbered 0, 1, ... in layout order."""
        rank = {x: i for i, x in enumerate(sorted(self.start))}
        return tuple([rank[x] for x in self.color])


def refine(graph: Graph, coloring, individualized=None):
    """Coarsest equitable coloring finer than the given one.

    Each round recolors every vertex by the pair (current color, sorted
    multiset of neighbor colors) and renumbers the palette in sorted order,
    so the result commutes with graph relabelings; the result is the
    coloring of the first round that splits no class.

    ``coloring`` is a flat coloring, which is converted to a
    :class:`Partition` here and whose result is returned as class ranks
    0, 1, ..., or a :class:`Partition`, which is refined in place and
    returned: the automorphism search carries one from node to node.

    A round re-examines only the classes with a neighbor in a part split
    off in the round before; the largest part of a split class keeps its
    id and is not counted as split off.  Members of one class see equally
    many neighbors in each class of the round before, so when none of them
    has a neighbor in a part split off from that class, they all still see
    equally many in the part that kept its id, and the class cannot split.

    Inside the loop a vertex's color is where its class starts (``start``),
    which is a strictly increasing function of the rank and so sorts
    signatures alike; the parts of a split class are laid out in signature
    order from where the class started, so no other class moves and a
    round only recolors the parts it split off.

    The first round re-examines every class, unless ``individualized`` is
    a vertex v that was split off an equitable partition just before the
    rest of its class (:meth:`Partition.individualized`).  Then {v} is the
    one part split off, so the first round re-examines only the classes of
    v's neighbours; it splits the same classes, and the result and the
    number of rounds are those of a first round over every class.
    """
    if isinstance(coloring, Partition):
        _refine(graph, coloring, individualized)
        return coloring
    _check_length(graph, "coloring", coloring)
    partition = Partition(coloring)
    _refine(graph, partition, individualized)
    return partition.ranks()


def _refine(graph: Graph, partition: Partition, individualized) -> int:
    """Refine a partition in place (see :func:`refine`); the number of rounds."""
    adjacency = graph.adjacency
    members, start, cls, color = (partition.members, partition.start,
                                  partition.cls, partition.color)
    color_of = color.__getitem__
    if individualized is None:
        stale = range(len(members))
    else:
        stale = {cls[w] for w in adjacency[individualized]}
    rounds = 0
    while True:
        rounds += 1
        split = {}  # class id -> its parts in signature order
        for c in stale:
            if len(members[c]) == 1:
                continue
            parts = {}
            for v in members[c]:
                key = tuple(sorted(map(color_of, adjacency[v])))
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


# ---------------------------------------------------------------------------
# automorphism search


def _check_length(graph: Graph, what: str, sequence) -> None:
    if len(sequence) != graph.vertex_count:
        raise ValueError(f"{what} has length {len(sequence)}, "
                         f"but the graph has {graph.vertex_count} vertices")


def is_automorphism(graph: Graph, coloring, p: Permutation) -> bool:
    """Does p preserve both the coloring and the adjacency?"""
    _check_length(graph, "coloring", coloring)
    _check_length(graph, "permutation", p)
    adjacency = graph.adjacency
    if any(coloring[p[v]] != coloring[v] for v in range(len(p))):
        return False
    neighbor_sets = [set(nbrs) for nbrs in adjacency]
    return all(
        {p[w] for w in adjacency[v]} == neighbor_sets[p[v]] for v in range(len(p))
    )


def automorphism_generators(graph: Graph, coloring) -> list:
    """Generators of the color-preserving automorphism group.

    Deterministic: the target cell is the first largest non-singleton
    class (the largest, ties going to the lower start) and vertices branch
    in ascending order, so the generator list is reproducible.  Branches
    reaching a vertex in the same orbit as an already-explored sibling
    (under the automorphisms found so far that fix the current
    individualized prefix) are skipped; off-spine subtrees are abandoned as
    soon as they deliver one automorphism.

    The spine is the path to the first leaf, and each spine node records
    its refined partition's shape, the sorted class starts.  An off-spine
    node whose shape differs from the spine node's at the same depth is
    abandoned at once: an automorphism mapping the first leaf to a leaf
    below it would map each spine node to the node at the same depth on
    that leaf's path, shape and all.

    The coloring becomes the root's :class:`Partition`.  Each node refines
    its partition in place by a call to :func:`refine` and hands each child
    a copy with the branching vertex split off
    (:meth:`Partition.individualized`).  The orbits that prune a node's
    branches live in a union-find that merges x with g[x] for each newly
    found automorphism g fixing the prefix.
    """
    _check_length(graph, "coloring", coloring)
    n = graph.vertex_count
    initial = list(coloring)
    found: list[Permutation] = []
    first_leaf: list = [None]
    spine_shapes: list = []  # the sorted class starts along the spine

    def root(parent, x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def search(partition, prefix, on_spine) -> bool:
        # below the root, prefix[-1] was split off an equitable partition
        refine(graph, partition, individualized=prefix[-1] if prefix else None)
        members, start, color = partition.members, partition.start, partition.color
        shape = sorted(start)
        if on_spine:
            spine_shapes.append(shape)
        elif shape != spine_shapes[len(prefix)]:
            return False

        if len(members) == n:  # discrete: color[v] is v's position
            if first_leaf[0] is None:
                ordering = [0] * n
                for v, x in enumerate(color):
                    ordering[x] = v
                first_leaf[0] = ordering
                return False
            candidate = [0] * n
            for v, x in enumerate(color):
                candidate[first_leaf[0][x]] = v
            candidate = tuple(candidate)
            if candidate != identity(n) and is_automorphism(graph, initial, candidate):
                found.append(candidate)
                return True
            return False

        target = max((c for c, cell in enumerate(members) if len(cell) > 1),
                     key=lambda c: (len(members[c]), -start[c]))
        explored = []
        delivered = False
        parent = list(range(n))  # orbits of found[:known] that fix the prefix
        known = 0
        for v in members[target]:  # ascending
            if explored:
                for g in found[known:]:
                    if all(g[u] == u for u in prefix):
                        for x in range(n):
                            parent[root(parent, x)] = root(parent, g[x])
                known = len(found)
                orbit = root(parent, v)
                if any(root(parent, u) == orbit for u in explored):
                    continue
            child_on_spine = on_spine and not explored
            got = search(partition.individualized(v), prefix + [v], child_on_spine)
            explored.append(v)
            delivered = delivered or got
            if got and not on_spine:
                return True
        return delivered

    search(Partition(initial), [], True)
    return found


# ---------------------------------------------------------------------------
# Schreier-Sims


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Built deterministically from the generator list; the order is the
    product of the fundamental orbit lengths along the base.  ``base_hint``
    pre-seeds base points (distinct ints in ``range(degree)``), which makes
    the stabilizer of a chosen point directly available as the second level
    of the chain.
    """

    def __init__(self, degree: int, generators, base_hint=()):
        self.degree = degree
        self.generators = [self._checked(g) for g in generators]
        self.base: list[int] = []
        self._level_gens: list[list] = []
        self._level_inverses: list[list] = []
        self._transversals: list[dict] = []
        self._transversal_inverses: list[dict] = []
        self._members: list[set] = []
        self._sifted: list[tuple] = []  # (orbit points, strong generators) sifted
        self._tree_edges: list[set] = []  # (x, k): u_{s_k(x)} was made as u_x s_k
        self._identity = identity(degree)
        for b in _checked_points(base_hint, degree):
            self._append_level(b)
        for g in self.generators:
            self._add(g, 0)
        del self._members, self._sifted, self._tree_edges

    def _checked(self, g) -> Permutation:
        g = tuple(g)
        if sorted(g) != list(range(self.degree)):
            raise ValueError(f"not a permutation of degree {self.degree}: {g}")
        return g

    def _append_level(self, point: int) -> None:
        self.base.append(point)
        self._level_gens.append([])
        self._level_inverses.append([])
        self._transversals.append({point: self._identity})
        self._transversal_inverses.append({point: self._identity})
        self._members.append(set())
        self._sifted.append((set(), 0))
        self._tree_edges.append(set())

    def _extend_orbit(self, level: int) -> None:
        # The representatives found so far stay; the walk visits the orbit
        # in insertion order and composes only for the points it adds,
        # recording the (x, k) that first reached each one.
        transversal = self._transversals[level]
        inverses = self._transversal_inverses[level]
        tree_edges = self._tree_edges[level]
        strong = list(enumerate(zip(self._level_gens[level],
                                    self._level_inverses[level])))
        walk = list(transversal)
        for x in walk:
            ux = transversal[x]
            ux_inv = inverses[x]
            for k, (s, s_inv) in strong:
                y = s[x]
                if y not in transversal:
                    transversal[y] = compose(ux, s)
                    inverses[y] = compose(s_inv, ux_inv)
                    tree_edges.add((x, k))
                    walk.append(y)

    def _strip(self, g: Permutation, start: int):
        for i in range(start, len(self.base)):
            u_inv = self._transversal_inverses[i].get(g[self.base[i]])
            if u_inv is None:
                return g, i
            g = compose(g, u_inv)
        return g, len(self.base)

    def _add(self, g: Permutation, start: int) -> None:
        # Levels >= start are closed whenever this runs, so a permutation
        # sifted here before lies in <level_gens[start]> and strips to the
        # identity.  With start == len(base) there is no level to strip
        # through: g is the identity or opens a new level.
        if start < len(self.base):
            members = self._members[start]
            if g in members:
                return
            members.add(g)
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
            self._sift_schreier_generators(j)

    def _sift_schreier_generators(self, j: int) -> None:
        # A pair (x, s) sifted by an earlier complete sift of this level gave
        # the same Schreier generator it would give now, and that generator
        # lies in <level_gens[j + 1]>, which only grows: only pairs with a
        # new orbit point or a new strong generator are formed.  Nor are
        # tree edges (Seress, ch. 4.1): u_{s(x)} was made as u_x s, so their
        # Schreier generator is the identity.
        transversal = self._transversals[j]
        inverses = self._transversal_inverses[j]
        tree_edges = self._tree_edges[j]
        gens = self._level_gens[j]
        sifted_points, sifted_gens = self._sifted[j]
        for x in sorted(transversal):
            ux = transversal[x]
            for k in range(sifted_gens if x in sifted_points else 0, len(gens)):
                if (x, k) in tree_edges:
                    continue
                s = gens[k]
                # u_x, then s, then the inverse of u_{s(x)}
                back = inverses[s[x]]
                self._add(tuple([back[s[i]] for i in ux]), j + 1)
        self._sifted[j] = (set(transversal), len(gens))

    @property
    def order(self) -> int:
        n = 1
        for transversal in self._transversals:
            n *= len(transversal)
        return n

    def __contains__(self, g) -> bool:
        h, _ = self._strip(self._checked(g), 0)
        return h == self._identity

    def stabilizer_generators(self, point: int) -> list:
        """Strong generators of the stabilizer of a point: the second
        level's, conjugated by the point's first-level coset representative
        u, or those of a new chain for a point off the first orbit."""
        _checked_points((point,), self.degree)
        u = self._transversals[0].get(point) if self.base else None
        if u is None:
            chain = PermutationGroup(self.degree, self.generators, base_hint=(point,))
            return chain.stabilizer_generators(point)
        if len(self.base) == 1:
            return []
        u_inv = self._transversal_inverses[0][point]
        # u^-1, then s, then u
        return [tuple([u[s[x]] for x in u_inv]) for s in self._level_gens[1]]

    def stabilizer_orbit_sizes(self, point: int) -> tuple:
        """Sorted orbit sizes of the point stabilizer (the subdegrees)."""
        gens = self.stabilizer_generators(point)
        return tuple(sorted(len(o) for o in orbits(gens, self.degree)))

    def elements(self):
        """Iterate all group elements, deterministically."""

        def rec(level):
            if level == len(self.base):
                yield self._identity
                return
            transversal = self._transversals[level]
            keys = sorted(transversal)
            for rest in rec(level + 1):
                for x in keys:
                    yield compose(rest, transversal[x])

        return rec(0)


def _checked_points(points, degree: int) -> tuple:
    points = tuple(points)
    for b in points:
        if not isinstance(b, int) or not 0 <= b < degree:
            raise ValueError(f"base point {b!r} is not in range({degree})")
    if len(set(points)) != len(points):
        raise ValueError(f"base points repeat: {points}")
    return points


# ---------------------------------------------------------------------------
# the two degree-63 actions


@dataclass(frozen=True)
class CharacterWitness:
    """A group element whose fixed-point counts on points and lines differ.

    Its existence separates the two permutation characters, so the two
    degree-63 actions are not equivalent.
    """

    on_points: Permutation
    on_lines: Permutation
    fixed_points: int
    fixed_lines: int


def preserves_incidence(
    structure: IncidenceStructure, point_perm: Permutation, line_perm: Permutation
) -> bool:
    """Post-hoc check that a (point, line) permutation pair maps every line
    onto the line its index is sent to, preserving all incidences."""
    incidences = structure.incidences
    return all(
        tuple(sorted(point_perm[i] for i in line)) == incidences[line_perm[j]]
        for j, line in enumerate(incidences)
    )


@dataclass(frozen=True)
class InducedAction:
    """A faithful action of ``group`` on the ``degree`` vertices from
    ``offset`` on: its points or its lines, made by :func:`induced_actions`."""

    group: PermutationGroup
    offset: int
    degree: int

    def _restrict(self, g: Permutation) -> Permutation:
        return tuple([x - self.offset for x in g[self.offset:self.offset + self.degree]])

    @property
    def generators(self) -> list:
        return [self._restrict(g) for g in self.group.generators]

    @property
    def order(self) -> int:
        return self.group.order

    def orbits(self) -> tuple:
        return orbits(self.generators, self.degree)

    def stabilizer_orbit_sizes(self, point: int) -> tuple:
        """Sorted orbit sizes of the point stabilizer (the subdegrees)."""
        _checked_points((point,), self.degree)
        stabilizer = self.group.stabilizer_generators(self.offset + point)
        gens = [self._restrict(g) for g in stabilizer]
        return tuple(sorted(len(o) for o in orbits(gens, self.degree)))


def induced_actions(group: PermutationGroup, structure: IncidenceStructure):
    """The point and line actions of a group of incidence-graph automorphisms.

    Generators must preserve the bipartition (points first, then lines);
    a part-swapping generator raises ``duality detected``.  If no two lines
    have the same points and no two points the same pencil, an automorphism
    fixing every point or every line fixes both, so the two actions are
    faithful: :class:`InducedAction` views of ``group``, with its order.
    Two coinciding lines or pencils raise ``ValueError``.
    """
    npts = len(structure.points)
    nlines = len(structure.lines)
    if group.degree != npts + nlines:
        raise ValueError(
            f"degree {group.degree} does not match {npts} points + {nlines} lines"
        )
    if any(g[i] >= npts for g in group.generators for i in range(npts)):
        raise ValueError("duality detected: a generator exchanges points and lines")
    for kind, items, shared in (("lines", structure.incidences, "points"),
                                ("points", structure.pencils, "pencil")):
        first = {}
        for j, item in enumerate(items):
            if first.setdefault(item, j) != j:
                raise ValueError(f"{kind} {first[item]} and {j} have the same "
                                 f"{shared}: the actions need not be faithful")
    return InducedAction(group, 0, npts), InducedAction(group, npts, nlines)


def character_witness(group: PermutationGroup, npts: int):
    """Scan a group for an element with differing fixed-point counts.

    The group acts on points then lines: 0..npts-1 are the points, the rest
    are the lines.  Elements are enumerated in a fixed order and the first
    separating element is returned; if the scan exhausts the group without
    finding one, returns None (no certificate -- not a proof of
    equivalence).
    """
    for g in group.elements():
        fixed_points = sum(1 for i in range(npts) if g[i] == i)
        fixed_lines = sum(1 for i in range(npts, group.degree) if g[i] == i)
        if fixed_points != fixed_lines:
            return CharacterWitness(
                on_points=g[:npts],
                on_lines=tuple(x - npts for x in g[npts:]),
                fixed_points=fixed_points,
                fixed_lines=fixed_lines,
            )
    return None


def nonequivalence_certificate(point_action, line_action):
    """The :func:`character_witness` of the group two actions are views of.

    The actions must be the views :func:`induced_actions` returns, in that
    order: views of one group, on its points from vertex 0 and on its lines
    from vertex ``point_action.degree``.  That group is scanned; no group is
    built.  Any other pair raises ``ValueError``.
    """
    if not (isinstance(point_action, InducedAction)
            and isinstance(line_action, InducedAction)
            and point_action.group is line_action.group
            and point_action.offset == 0
            and line_action.offset == point_action.degree):
        raise ValueError("expected the point and line views of one group, in order")
    return character_witness(point_action.group, point_action.degree)
