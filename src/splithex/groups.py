"""Graph automorphisms and permutation groups.

The automorphism search is a deterministic individualization-refinement
backtracker: colorings are refined to the coarsest equitable refinement,
the first largest non-singleton color class is chosen as target cell, and
its vertices are individualized in ascending order.  Each node keeps its
refined :class:`Partition`, and each child refines a copy with its vertex
split off, so no node rebuilds its classes from a flat coloring.  The
partition is equitable before a vertex is split off, so the first
refinement round after it re-examines only the classes of that vertex's
neighbours.  A round splits a class by each member's counts of neighbours in
the parts split off in the round before, packed into one int (McKay-Piperno
2014 count into the cells just split in the same way), and signs (sorts the
neighbour colors of) one member of each part of a split class, only to lay
the parts out in order.  Candidate automorphisms
are read off discrete partitions by comparison with the first leaf;
discovered automorphisms prune later branches by orbits, kept in a
union-find per node that merges only what each new automorphism adds, and
only on the node's target cell, which an automorphism fixing the node's
prefix maps onto itself.  An
off-spine node whose partition shape (its sorted class starts) differs from
the first path's at the same depth holds no automorphism below it and is
abandoned (McKay-Piperno 2014 compare a node's invariant with the first
path's in the same way).

The leaves one level below the spine's last node, and below each node at
its depth with its shape, are read by propagation instead of refined: an
automorphism that maps the spine's last partition onto such a node's class
by class, and the spine's last vertex to the child's, is unique, because
the spine is a base, and is forced along each edge from a mapped vertex to
a neighbour alone in its class.  A walk over those edges reads it off; it
goes through the same automorphism check as a refined leaf's candidate and
gives the same answer.  The walk is planned at each spine node before its
first child is searched, and one that reaches every vertex shows that the
child is discrete, so the node is the spine's last: the first leaf, whose
candidate is the identity, is read like its siblings, and refined only if
a leaf the walk cannot reach has to be compared with it.  A leaf the walk
cannot reach is refined, as is every other node.

The search also reports its spine, the vertices individualized on the path
to the first leaf, and the group order read off its tree (McKay-Piperno):
the product, over the spine nodes, of the spine child's orbit length under
the automorphisms found that fix the node's prefix.  The spine is a base of
every group of color-preserving automorphisms.  :func:`refine` and the
target-cell rule commute with relabelling, so an automorphism that fixes
the spine pointwise maps each spine node's partition onto itself, class by
class; the last one is discrete, so the automorphism is the identity.
The search also reports the size of each spine node's target cell, which
the stabilizer of the node's prefix maps onto itself, so the product of
the cells from a spine node down bounds the order of that stabilizer.

Group orders also come from a deterministic construction of a base and
strong generating set; the order is the product of the fundamental orbit
lengths.  On generators from the search, the spine is the base, fixed up
front (Seress, *Permutation Group Algorithms*, ch. 4-5, on a known base),
and the chain is certified by the cells: the generators are inserted and
each level's orbit extended, and when every orbit fills its level's cell,
the group each level's strong generators make is at least as large as the
bound, so it is the whole stabilizer and no Schreier generator is formed
(see :class:`PermutationGroup`).  When an orbit is smaller than its cell,
as on a graph whose refinement is coarser than its orbits, the chain is
closed by Schreier-Sims.  On a known base a Schreier generator
u_x s u_{s(x)}^-1 lies in the group, so it is sifted by its images of the
later base points only.  u_x's images are read
off u_x^-1 once per orbit point, so a pair costs two lookups per base point
and one transversal inverse per level, and a Schreier generator whose
images strip to the base fixes the whole base, is the identity and is
dropped without being built.  Only one that moves a base point becomes a permutation and is
inserted, like an input generator.  A plain generator
list takes the general path from an empty base, which appends a base point
for each residue that fixes the base so far and strips whole permutations,
as membership tests always do.  Each transversal keeps only the inverse
u_x^-1 of every coset representative, built from the inverses of the strong
generators, which is all that sifting reads; the rare Schreier generator
built whole, a stabilizer's conjugation and :meth:`PermutationGroup.elements`
invert a representative when they need it.  Levels are extended,
never rebuilt (Seress, ch. 4): a level that gains a strong generator keeps
its coset representatives, composes only for the orbit points it adds, and
sifts only the Schreier generators of (orbit point, strong generator) pairs
it has not sifted before, so over a complete build each pair is formed at
most once per level.  A pair (x, s) whose walk first reached s(x) is a tree
edge, u_{s(x)} = u_x s, and its Schreier generator is the identity, so it
is not formed at all.  A point's stabilizer is the first base point's,
conjugated by the point's coset representative, or, for a point off the
first orbit, the second level of a chain on the known base made of that
point and the rest of the base, which has no cells and is closed by
Schreier-Sims: a finished chain's base is complete,
whichever path built it, and a superset of a base is a base.  The point
and line actions are faithful views of the incidence-graph group (see
:func:`induced_actions`), so one chain serves a whole run.
Permutations are tuples ``p`` with ``p[i]`` the image of ``i``;
``compose(p, q)`` applies p first, then q.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from ._frozen import Frozen
from .hexagon import Graph, IncidenceStructure

Permutation = tuple


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p, then q."""
    if len(p) < 2:  # itemgetter needs an item, and returns one item bare
        return tuple([q[i] for i in p])
    return itemgetter(*p)(q)


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def orbits(generators, degree: int) -> tuple:
    """Orbits of <generators> on 0..degree-1, sorted by smallest member.
    A generator that is not of length ``degree`` raises ValueError."""
    for g in generators:
        if len(g) != degree:
            raise ValueError(f"a generator has length {len(g)}, "
                             f"but the degree is {degree}")
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
        c = self._class_of(v)
        if len(self.members[c]) == 1:
            raise ValueError(f"vertex {v} is alone in its class")
        child = object.__new__(Partition)
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

    def _class_of(self, v) -> int:
        if not (type(v) is int and 0 <= v < len(self.cls)):
            raise ValueError(f"vertex {v!r} is not in range({len(self.cls)})")
        return self.cls[v]

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
    number of rounds are those of a first round over every class.  A v out
    of range, or not alone in its class, raises ``ValueError``, as does a
    coloring or partition whose length is not the graph's vertex count.

    A round splits a class by one int per member, its key, which packs the
    member's counts of neighbours in the parts split off in the round
    before, one ``shift``-bit field per part; ``shift`` is the bit length
    of the largest degree, so no count spills into the next field.  In a
    first round with no v every class counts as split off, and after v,
    v's neighbours have key 1; a member with no neighbour in such a part
    has key 0.  Members of a class see equally many neighbours in each
    class of the round before, and the part of a split class that kept its
    id holds what the parts split off do not, so the counts in the parts
    split off decide a member's counts in every class now: two members of
    a class have equal keys exactly when they have equal signatures.  Only
    the parts of a split class are signed, one member each, and laid out
    in signature order, so the parts, each still ascending, and their order
    are those of signing every member.
    """
    if isinstance(coloring, Partition):
        partition = coloring
        _check_length(graph, "partition", partition.cls)
    else:
        _check_length(graph, "coloring", coloring)
        partition = Partition(coloring)
    if individualized is not None and len(
            partition.members[partition._class_of(individualized)]) > 1:
        raise ValueError(f"vertex {individualized} is not alone in its class")
    _refine(graph, partition, individualized)
    return coloring if partition is coloring else partition.ranks()


def _refine(graph: Graph, partition: Partition, individualized) -> int:
    """Refine a partition in place (see :func:`refine`); the number of rounds."""
    adjacency = graph.adjacency
    members, start, cls, color = (partition.members, partition.start,
                                  partition.cls, partition.color)
    color_of = color.__getitem__

    def signature(part):
        return sorted(map(color_of, adjacency[part[0]]))

    # a count of neighbours never reaches 1 << shift, so fields never overlap
    shift = max(map(len, adjacency), default=0).bit_length()
    if individualized is None:
        stale = range(len(members))
        keys = {v: sum([1 << shift * cls[u] for u in nbrs])
                for v, nbrs in enumerate(adjacency)}
    else:
        touched = set(adjacency[individualized])
        stale = {cls[w] for w in adjacency[individualized]}
        keys = dict.fromkeys(touched, 1)
    key_of = keys.get
    rounds = 0
    while True:
        rounds += 1
        split = {}  # class id -> its parts in signature order
        for c in stale:
            cell = members[c]
            if len(cell) == 1:
                continue
            parts = {}
            for v in cell:
                parts.setdefault(key_of(v, 0), []).append(v)
            if len(parts) > 1:
                split[c] = sorted(parts.values(), key=signature)
        if not split:
            return rounds
        touched = set()
        keys = {}  # vertex -> its counts into the parts split off, packed
        key_of = keys.get
        fields = len(members)  # the first new class id, whose field is 0
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
                    bit = 1 << shift * (new - fields)
                    for v in part:
                        nbrs = adjacency[v]
                        touched.update(nbrs)
                        for u in nbrs:
                            keys[u] = key_of(u, 0) + bit
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
    """Is p a permutation of the vertices that preserves both the coloring
    and the adjacency?"""
    _check_length(graph, "coloring", coloring)
    _check_length(graph, "permutation", p)
    adjacency = graph.adjacency
    return _is_automorphism(adjacency, [set(nbrs) for nbrs in adjacency], coloring, p)


def _is_automorphism(adjacency, neighbor_sets, coloring, p) -> bool:
    # A bijection that maps every arc to an arc maps the arcs onto the arcs,
    # so it preserves non-adjacency too.
    n = len(p)
    if sorted(p) != list(range(n)):
        return False
    if any(coloring[p[v]] != coloring[v] for v in range(n)):
        return False
    for v, nbrs in enumerate(adjacency):
        image = neighbor_sets[p[v]]
        for w in nbrs:
            if p[w] not in image:
                return False
    return True


class Automorphisms(list):
    """Generators with a known base: a list (its repr, ``==`` and ``len``
    are the list's) that also carries ``base``, a base of the group the
    generators make, the group ``order`` and ``cells``, the size of each
    base point's target cell, in base order, or None.
    :func:`automorphism_generators` makes one with the spine as base and its
    nodes' target cells as ``cells`` (see the module docstring), and
    :meth:`PermutationGroup.stabilizer_generators` one for a point off the
    first orbit, with no cells.  :class:`PermutationGroup` sifts on ``base``,
    and certifies its chain by ``cells`` instead of forming Schreier
    generators, only while the list still holds the generators it was made
    with.
    """

    def __init__(self, generators, base, order: int, cells=None):
        super().__init__(generators)
        self.base = tuple(base)
        self.order = order
        self.cells = None if cells is None else tuple(cells)
        self._made_with = tuple(self)

    def base_is_known(self) -> bool:
        """Does the list still hold the generators ``base`` and ``cells``
        were made for?"""
        return tuple(self) == self._made_with


def _leaf_plan(adjacency, partition: Partition, b):
    """The walk :func:`_propagated_leaf` takes below a node one level above
    the first leaf, with ``partition`` its refined partition and ``b`` its
    first branching vertex, or None if the walk cannot reach every vertex.
    A walk that reaches every vertex shows that b's child refines to a
    discrete partition, so the node is one level above the first leaf (see
    :func:`automorphism_generators`).

    The walk starts at b and at each singleton class, and goes from a
    reached x to each unreached neighbour y that no other neighbour of x
    shares a class with.  It is (b, singletons, steps): the singletons as
    (class start, vertex), the steps in walk order as (x, y, start of y's
    class).
    """
    color = partition.color
    singles = [(partition.start[c], cell[0])
               for c, cell in enumerate(partition.members) if len(cell) == 1]
    reached = [False] * len(adjacency)
    queue = [b] + [x for _, x in singles]
    for x in queue:
        reached[x] = True
    steps = []
    for x in queue:
        nbrs = adjacency[x]
        starts = [color[y] for y in nbrs]
        for y, s in zip(nbrs, starts):
            if not reached[y] and starts.count(s) == 1:
                reached[y] = True
                queue.append(y)
                steps.append((x, y, s))
    if len(queue) < len(adjacency):
        return None
    return b, singles, steps


def _propagated_leaf(adjacency, plan, partition: Partition, w):
    """The candidate automorphism of the leaf below w, read off by the
    plan's walk instead of by refining, or None if the walk stalls.

    ``partition`` is a node with the plan's shape and w is in the class
    where the plan's b is.  The map sends b to w, each singleton class to
    the singleton at the same start, and each step's y to a neighbour of
    x's image in the class at the step's start; when the candidate is an
    automorphism that neighbour is the only one (see
    :func:`automorphism_generators`).
    """
    b, singles, steps = plan
    color = partition.color
    image = [0] * len(adjacency)
    image[b] = w
    if singles:
        at = [0] * len(image)  # the first member of the class at each start
        for cell, s in zip(partition.members, partition.start):
            at[s] = cell[0]
        for s, x in singles:
            image[x] = at[s]
    for x, y, s in steps:
        for z in adjacency[image[x]]:
            if color[z] == s:
                image[y] = z
                break
        else:
            return None
    return tuple(image)


def automorphism_generators(graph: Graph, coloring) -> Automorphisms:
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
    branches live in a union-find that merges x with g[x] for each vertex x
    of the node's target cell that a newly found automorphism g fixing the
    prefix moves.  :func:`refine` and the target-cell rule commute with
    relabelling, so such a g maps the node's partition onto itself class by
    class and its target cell onto itself: the orbits on the cell are those
    of merging every vertex.  A sibling is pruned by one union-find lookup
    against the set of the explored siblings' roots, which is rebuilt only
    after a merge.

    Each child w of a node π one level above the first leaf (the spine's
    last node, or an off-spine node with its shape) is read off, not
    refined.  Let π* be the spine's last partition and b* its
    first branching vertex.  :func:`refine` commutes with relabelling, so
    the candidate c of the leaf below w, when it is an automorphism, maps
    π* onto π class by class (classes match by start) and b* to w; and at
    most one automorphism does that, since two of them would differ by one
    fixing the spine pointwise, the vertices individualized in π* and b*.
    That automorphism is forced: each singleton of π* goes to the singleton
    at the same start, and if y is x's only neighbour in its π*-class, y's
    image is the only neighbour of x's image in the π-class at that start.
    :func:`_leaf_plan` plans a walk over these steps from b* and the
    singletons, and :func:`_propagated_leaf` follows it to a map h for each
    w.  By construction h maps π* onto π class by class
    and b* to w, so if h is an automorphism, refining π with w split off
    gives h's image of the first leaf and h is c; if c is one, each step
    finds c's image and h is c.  So h takes c's place in the automorphism
    check, with the same outcome.  When the walk cannot reach every vertex
    of π* (no plan), or finds no neighbour in a class (no map), the child
    is refined.

    The walk is planned at each spine node π, with its first branching
    vertex v as b*, before v's child is searched.  If it reaches every
    vertex, that child refines to a discrete partition: b* is split off,
    singletons stay singletons, and each step's y is the only neighbour of
    a singleton x in y's class, so refinement splits y off.  Then π is the
    spine's last node, v's child is the first leaf, and it is read like
    its siblings (its map is the identity) instead of refined; its
    ordering is refined only when a leaf at its depth has to be, after a
    walk that finds no neighbour in a class.  A walk that cannot reach
    every vertex says nothing, and v's child is searched as before; below
    the spine's last node the first leaf is then refined as the spine's end.

    The result is an :class:`Automorphisms`: its ``base`` is the spine's
    individualized vertices, and its ``order`` the product, over the spine
    nodes, of the spine child's orbit length in the union-find after the
    node's last child (McKay-Piperno 2014).  Every sibling outside the
    orbits found so far was searched, so these are the orbits of the
    stabilizer of the node's prefix.  Its ``cells`` are the sizes of the
    spine nodes' target cells, in base order, each recorded as its node
    picks the cell; the stabilizer of a node's prefix maps the cell onto
    itself, so an orbit length never exceeds its cell.
    """
    _check_length(graph, "coloring", coloring)
    n = graph.vertex_count
    adjacency = graph.adjacency
    neighbor_sets = [set(nbrs) for nbrs in adjacency]
    initial = list(coloring)
    found: list[Permutation] = []
    first_leaf: list = [None]  # the vertex at each position of the first leaf
    planned: list = [None]  # the spine's last partition and vertex, if planned
    spine: list = []  # the vertices individualized on the way to the first leaf
    spine_shapes: list = []  # the sorted class starts along the spine
    orbit_lengths: list = []  # of each spine child in its node's target cell
    cells: list = []  # the size of each spine node's target cell, in base order
    leaf_plan: list = [None]  # of the spine's last node, for _propagated_leaf

    def root(parent, x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def positions(color):
        # the vertex at each position of a discrete partition
        ordering = [0] * n
        for v, x in enumerate(color):
            ordering[x] = v
        return ordering

    def first_ordering():
        # a planned first leaf is refined only when another leaf is
        if first_leaf[0] is None:
            partition, v = planned[0]
            first_leaf[0] = positions(
                refine(graph, partition.individualized(v), individualized=v).color)
        return first_leaf[0]

    def deliver(candidate) -> bool:
        if candidate != identity(n) and _is_automorphism(
                adjacency, neighbor_sets, initial, candidate):
            found.append(candidate)
            return True
        return False

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
            if on_spine:  # the first leaf: no walk planned above it reached every vertex
                first_leaf[0] = positions(color)
                spine.extend(prefix)
                return False
            ordering = first_ordering()
            candidate = [0] * n
            for v, x in enumerate(color):
                candidate[ordering[x]] = v
            return deliver(tuple(candidate))

        target = max((c for c, cell in enumerate(members) if len(cell) > 1),
                     key=lambda c: (len(members[c]), -start[c]))
        cell = members[target]
        if on_spine:
            cells.append(len(cell))
        explored = []
        explored_roots = set()  # of the explored vertices in the union-find
        delivered = False
        parent = list(range(n))  # orbits on the cell of found[:known] fixing the prefix
        known = 0

        def merge_new() -> bool:
            # merge the new automorphisms that fix the prefix; were there any?
            nonlocal known
            merged = False
            for g in found[known:]:
                if all(g[u] == u for u in prefix):
                    merged = True
                    for x in cell:
                        y = g[x]
                        if x != y:
                            parent[root(parent, x)] = root(parent, y)
            known = len(found)
            return merged

        for v in cell:  # ascending
            orbit = v
            if explored:
                if merge_new():
                    explored_roots = {root(parent, u) for u in explored}
                orbit = root(parent, v)
                if orbit in explored_roots:
                    continue
            child_on_spine = on_spine and not explored
            if child_on_spine:
                plan = _leaf_plan(adjacency, partition, v)
                if plan is not None:  # v's child is discrete: the first leaf
                    spine.extend(prefix + [v])
                    spine_shapes.append(list(range(n)))
                    leaf_plan[0] = plan
                    planned[0] = (partition, v)
            leaf = None
            if leaf_plan[0] is not None and len(prefix) + 1 == len(spine):
                leaf = _propagated_leaf(adjacency, leaf_plan[0], partition, v)
            if leaf is not None:
                got = deliver(leaf)
            else:
                got = search(partition.individualized(v), prefix + [v], child_on_spine)
            explored.append(v)
            explored_roots.add(orbit)
            delivered = delivered or got
            if got and not on_spine:
                return True
        if on_spine:
            merge_new()
            orbit = root(parent, explored[0])
            orbit_lengths.append(sum(1 for u in cell if root(parent, u) == orbit))
        return delivered

    search(Partition(initial), [], True)
    del search  # it refers to itself: free its state now, not at a gc pass
    order = 1
    for length in orbit_lengths:
        order *= length
    return Automorphisms(found, spine, order, cells)


# ---------------------------------------------------------------------------
# Schreier-Sims


class PermutationGroup:
    """A permutation group with a base and strong generating set.

    Built deterministically from the generator list; the order is the
    product of the fundamental orbit lengths along the base.  When the
    generators are an :class:`Automorphisms` that still holds the
    generators it was made with, its ``base`` (distinct ints in
    ``range(degree)``) is the base, fixed up front, and Schreier generators
    are sifted by their images of the base points.  An input generator
    whose base images strip to the base is stripped whole, and one that
    leaves a residue, which fixes every base point, raises ``ValueError``:
    the base is not a base.  Otherwise base points are chosen as residues
    need them.  Each level keeps the inverses of its coset representatives
    only (``_transversal_inverses``, orbit point x to u_x^-1); a
    representative itself is inverted when it is needed.

    With ``cells`` as well (positive ints, one per base point), the
    generators are inserted, each level's orbit extended, and no Schreier
    generator is formed; the chain is certified if each level's orbit Δ_i
    has the size of its cell T_i.  For the search's cells that is a proof.
    The strong generators of level i are products of the search's
    automorphisms and fix b_1 ... b_{i-1}; Δ_i is b_i's orbit under the
    group S_i they make, whose stabilizer of b_i holds S_{i+1}, so
    |S_i| >= |Δ_i| |S_{i+1}| >= ∏_{j>=i} |Δ_j|.  :func:`refine` and the
    target-cell rule commute with relabelling, so the pointwise stabilizer
    G_(i-1) of b_1 ... b_{i-1} in the whole automorphism group maps T_i
    onto itself, and |G_(i-1)| <= |T_i| |G_(i)| <= ∏_{j>=i} |T_j|, the
    stabilizer of the whole base being trivial.  With |Δ_i| = |T_i| at every
    level, S_i is G_(i-1): the chain is a base and strong generating set,
    every Schreier generator would strip to the identity, and the order is
    ∏ cells.  When a size differs (a generator dropped, or a graph whose
    refinement is coarser than its orbits), the levels are closed by
    sifting their Schreier generators, deepest first, as a build with no
    cells does as it goes; the order is then that of the group the
    generators make.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self._known_base = (isinstance(generators, Automorphisms)
                            and generators.base_is_known())
        self.generators = [self._checked(g) for g in generators]
        self.base: list[int] = []
        self._level_gens: list[list] = []
        self._level_inverses: list[list] = []
        self._transversal_inverses: list[dict] = []  # orbit point x -> u_x^-1
        self._sifted: list[tuple] = []  # (orbit points, strong generators) sifted
        self._tree_edges: list[set] = []  # (x, k): u_{s_k(x)} was made as u_x s_k
        self._identity = identity(degree)
        cells = None
        if self._known_base:
            for b in _checked_points(generators.base, degree):
                self._append_level(b)
            if generators.cells is not None:
                cells = _checked_cells(generators.cells, len(self.base))
        self._sifting = cells is None  # does _add sift the levels it touches?
        for g in self.generators:
            if not (self._known_base and self._strips_to_base(
                    [g[b] for b in self.base], 0)):
                self._add((g,), 0)
            elif (h := self._strip((g,), 0)[0]) != self._identity:
                raise ValueError(f"{tuple(self.base)} is not a base: the generator "
                                 f"{g} leaves {h}, which fixes every base point")
        if cells is not None and cells != tuple(map(len, self._transversal_inverses)):
            self._sifting = True
            for j in reversed(range(len(self.base))):
                self._sift_schreier_generators(j)
        del self._sifted, self._tree_edges, self._sifting

    def _checked(self, g) -> Permutation:
        g = tuple(g)
        if sorted(g) != list(range(self.degree)):
            raise ValueError(f"not a permutation of degree {self.degree}: {g}")
        return g

    def _append_level(self, point: int) -> None:
        self.base.append(point)
        self._level_gens.append([])
        self._level_inverses.append([])
        self._transversal_inverses.append({point: self._identity})
        self._sifted.append((set(), 0))
        self._tree_edges.append(set())

    def _extend_orbit(self, level: int) -> None:
        # The representatives found so far stay; the walk visits the orbit
        # in insertion order and composes only for the points it adds,
        # recording the (x, k) that first reached each one.  u_{s(x)} is
        # u_x s, kept as its inverse s^-1 u_x^-1.
        inverses = self._transversal_inverses[level]
        tree_edges = self._tree_edges[level]
        strong = list(enumerate(zip(self._level_gens[level],
                                    self._level_inverses[level])))
        walk = list(inverses)
        for x in walk:
            ux_inv = inverses[x]
            for k, (s, s_inv) in strong:
                y = s[x]
                if y not in inverses:
                    inverses[y] = compose(s_inv, ux_inv)
                    tree_edges.add((x, k))
                    walk.append(y)

    def _strips_to_base(self, images, start: int) -> bool:
        """Do ``images``, a group element's images of ``base[start:]``, strip
        through the levels from ``start`` to those base points themselves?

        Each level's transversal inverse takes the first image back to its
        base point, and only the later images are carried on.  The base must
        be a base of the group: then an element whose images strip to the
        base fixes it and is the identity.
        """
        for inverses in self._transversal_inverses[start:]:
            u_inv = inverses.get(images[0])
            if u_inv is None:
                return False
            images = [u_inv[y] for y in images[1:]]
        return True

    def _strip(self, word, start: int):
        """Strip the product of ``word`` (permutations applied in turn)
        through the levels from ``start``: the residue, and the level whose
        orbit misses its image of the base point (``len(base)`` if none)."""
        base = self.base
        g = word[0]
        for p in word[1:]:
            g = compose(g, p)
        for i in range(start, len(base)):
            u_inv = self._transversal_inverses[i].get(g[base[i]])
            if u_inv is None:
                return g, i
            g = compose(g, u_inv)
        return g, len(base)

    def _add(self, word, start: int) -> None:
        # Sift the product of word into the levels from start.  With
        # start == len(base) there is no level to strip through: the
        # product is the identity or opens a new level.  On a known base
        # only products whose base images do not strip to the base come
        # here, so the residue is never the identity and opens no level.
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
        # first; residues found on the way are inserted recursively.  A
        # build with cells only extends the orbits, and closes the levels
        # at the end if they are not certified.
        for j in range(level, start - 1, -1):
            self._extend_orbit(j)
            if self._sifting:
                self._sift_schreier_generators(j)

    def _sift_schreier_generators(self, j: int) -> None:
        """Sift the Schreier generators of level j into the levels below.

        A pair (x, s) sifted by an earlier complete sift of this level gave
        the same Schreier generator it would give now, and that generator
        lies in <level_gens[j + 1]>, which only grows: only pairs with a
        new orbit point or a new strong generator are formed.  Nor are
        tree edges (Seress, ch. 4.1): u_{s(x)} was made as u_x s, so their
        Schreier generator is the identity.

        On a known base the Schreier generator u_x s v, with v the inverse
        of u_{s(x)}, lies in the group, so it is sifted by its images
        v[s[u_x[b]]] of the later base points b, with u_x's images read
        once per orbit point, as the positions of the b in u_x^-1, and is
        dropped when they strip to the base (:meth:`_strips_to_base`).  Only
        one that moves a base point goes to :meth:`_add` as the word
        (u_x, s, v), with u_x inverted from u_x^-1, which builds and strips
        the whole permutation.  Otherwise every pair goes to :meth:`_add`.
        """
        inverses = self._transversal_inverses[j]
        tree_edges = self._tree_edges[j]
        gens = self._level_gens[j]
        later = self.base[j + 1:] if self._known_base else None
        sifted_points, sifted_gens = self._sifted[j]
        for x in sorted(inverses):
            ux_inv = inverses[x]
            if later is not None:
                ux_later = [ux_inv.index(b) for b in later]
            for k in range(sifted_gens if x in sifted_points else 0, len(gens)):
                if (x, k) in tree_edges:
                    continue
                s = gens[k]
                v = inverses[s[x]]
                if later is not None and self._strips_to_base(
                        [v[s[y]] for y in ux_later], j + 1):
                    continue
                # u_x, then s, then the inverse of u_{s(x)}
                self._add((inverse(ux_inv), s, v), j + 1)
        self._sifted[j] = (set(inverses), len(gens))

    @property
    def order(self) -> int:
        n = 1
        for inverses in self._transversal_inverses:
            n *= len(inverses)
        return n

    def __contains__(self, g) -> bool:
        # g is not known to lie in the group: strip the whole permutation
        h, _ = self._strip((self._checked(g),), 0)
        return h == self._identity

    def stabilizer_generators(self, point: int) -> list:
        """Strong generators of the stabilizer of a point: the second
        level's, conjugated by the point's first-level coset representative
        u, or, for a point off the first orbit, those of a new chain on the
        known base of the point followed by the rest of this chain's base:
        a finished chain's base is complete, so a superset of it is a base."""
        _checked_points((point,), self.degree)
        u_inv = self._transversal_inverses[0].get(point) if self.base else None
        if u_inv is None:
            base = (point, *(b for b in self.base if b != point))
            chain = PermutationGroup(self.degree, Automorphisms(
                self.generators, base, self.order))
            return chain.stabilizer_generators(point)
        if len(self.base) == 1:
            return []
        u = inverse(u_inv)
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
            inverses = self._transversal_inverses[level]
            representatives = [inverse(inverses[x]) for x in sorted(inverses)]
            for rest in rec(level + 1):
                for u in representatives:
                    yield compose(rest, u)

        return rec(0)


def _checked_cells(cells, levels: int) -> tuple:
    if len(cells) != levels:
        raise ValueError(f"{len(cells)} cells for {levels} base points")
    for c in cells:
        if type(c) is not int or c < 1:
            raise ValueError(f"cell size {c!r} is not a positive int")
    return tuple(cells)


def _checked_points(points, degree: int) -> tuple:
    points = tuple(points)
    for b in points:
        if type(b) is not int or not 0 <= b < degree:
            raise ValueError(f"base point {b!r} is not in range({degree})")
    if len(set(points)) != len(points):
        raise ValueError(f"base points repeat: {points}")
    return points


# ---------------------------------------------------------------------------
# the two degree-63 actions


class CharacterWitness(Frozen):
    """A group element whose fixed-point counts on points and lines differ.

    Its existence separates the two permutation characters, so the two
    degree-63 actions are not equivalent.
    """

    _fields = ("on_points", "on_lines", "fixed_points", "fixed_lines")

    def __init__(self, on_points: Permutation, on_lines: Permutation,
                 fixed_points: int, fixed_lines: int):
        self.__dict__.update(on_points=on_points, on_lines=on_lines,
                             fixed_points=fixed_points, fixed_lines=fixed_lines)


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


class InducedAction(Frozen):
    """A faithful action of ``group`` on the ``degree`` vertices from
    ``offset`` on: its points or its lines, made by :func:`induced_actions`."""

    _fields = ("group", "offset", "degree")

    def __init__(self, group: PermutationGroup, offset: int, degree: int):
        self.__dict__.update(group=group, offset=offset, degree=degree)

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
    are the lines.  The generators are scanned first, in order, and only
    then the chain's elements, lazily; the first separating element is
    returned.  If the scan exhausts the group without finding one, returns
    None (no certificate -- not a proof of equivalence).

    A separating generator is found before any element is enumerated, so
    the witness does not depend on the base: the same generators passed as
    the search's ``Automorphisms`` (base fixed up front) or as a plain list
    (base chosen as residues need it) give the same witness whenever one of
    them separates, as the search's generators do.
    """
    for g in itertools.chain(group.generators, group.elements()):
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
