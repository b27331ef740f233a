"""Strata of the unitary plane over GF(4) and the rank-3 symplectic space.

The 63 nonzero vectors of GF(4)^3 split under the hermitian norm into 27
isotropic vectors and 36 norm-one vectors; projectively that is 9 unital
points and 12 exterior points.  The exterior points fall into 4 self-polar
triangles, and pairing those triangles yields the 3 candidate hyperoval
partitions.  The trace of the hermitian form turns the same 63 triples into
a rank-3 symplectic space over GF(2) (addition of triples is already
addition over GF(2)).  Both forms are read off one table on 6-bit int
codes, one per nonzero triple (:func:`vector_codes`), under which addition
is XOR and a set of triples is an int mask: for each code, the masks of the
codes where the hermitian value has its low bit set and its high bit set.
The hermitian perps, the symplectic perps (the trace is the high bit) and
the pairs of hermitian value 1 are views of it.  From the symplectic perps
the totally isotropic lines and planes are made, each once from its lowest
members.  The masks are the source; :func:`ti_lines` and :func:`ti_planes`
are views of them decoded into frozensets of triples.

All enumerations are deterministic: vectors and points are ordered by their
GF(2) bit layout, triangles and subspaces by their sorted members.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from ._frozen import Frozen
from .algebra import (
    ZERO_VECTOR,
    Vector3,
    f4_inv,
    hermitian,
    to_gf2,
    v_scale,
)


class Strata(Frozen):
    """The norm strata of the 63 nonzero vectors.

    ``oval_vectors``/``twin_vectors`` are the two 18-vector halves of the
    norm-one stratum lying over a hyperoval partition; they are None until a
    partition has been chosen (see :func:`strata_for`).
    """

    _fields = ("isotropic", "norm_one", "oval_vectors", "twin_vectors")

    def __init__(self, isotropic: frozenset, norm_one: frozenset,
                 oval_vectors: frozenset | None = None,
                 twin_vectors: frozenset | None = None):
        self.__dict__.update(isotropic=isotropic, norm_one=norm_one,
                             oval_vectors=oval_vectors, twin_vectors=twin_vectors)


class HyperovalPartition(Frozen):
    """A split of the 12 exterior points into two disjoint hyperovals.

    Each half is a union of two self-polar triangles; ``index`` selects
    which of the three triangles is paired with the triangle containing
    the first standard basis point.
    """

    _fields = ("oval", "twin", "index")

    def __init__(self, oval: frozenset, twin: frozenset, index: int):
        self.__dict__.update(oval=oval, twin=twin, index=index)


@cache
def nonzero_vectors() -> tuple[Vector3, ...]:
    """The 63 nonzero vectors, ordered by their GF(2) bit layout."""
    vecs = [v for v in product(range(4), repeat=3) if v != ZERO_VECTOR]
    vecs.sort(key=to_gf2)
    return tuple(vecs)


def proj_rep(v: Vector3) -> Vector3:
    """Canonical representative of [v]: first nonzero coordinate scaled to 1."""
    first = next((c for c in v if c != 0), 0)
    if not first:
        raise ValueError(f"the zero vector spans no projective point: {v}")
    return v_scale(f4_inv(first), v)


def point_vectors(p: Vector3) -> tuple[Vector3, Vector3, Vector3]:
    """The three nonzero vectors of the projective point [p]."""
    return (p, v_scale(2, p), v_scale(3, p))


@cache
def projective_points() -> tuple[Vector3, ...]:
    """The 21 points of PG(2,4) as canonical representatives."""
    pts = sorted({proj_rep(v) for v in nonzero_vectors()}, key=to_gf2)
    return tuple(pts)


@cache
def unital_points() -> tuple[Vector3, ...]:
    """The 9 isotropic points (the hermitian unital)."""
    return tuple(p for p in projective_points() if hermitian(p, p) == 0)


@cache
def exterior_points() -> tuple[Vector3, ...]:
    """The 12 non-isotropic points."""
    return tuple(p for p in projective_points() if hermitian(p, p) == 1)


@cache
def enumerate_strata() -> Strata:
    """Split the nonzero vectors by hermitian norm (27 isotropic, 36 norm one)."""
    iso = frozenset(v for v in nonzero_vectors() if hermitian(v, v) == 0)
    one = frozenset(v for v in nonzero_vectors() if hermitian(v, v) == 1)
    return Strata(isotropic=iso, norm_one=one)


@cache
def hermitian_unit_pairs(isotropic: frozenset) -> tuple:
    """The ordered pairs (a, b) of the given isotropic vectors with
    hermitian(a, b) = 1 (216 of the 27 x 27 for the isotropic stratum),
    sorted by a, then b, in GF(2) bit layout; value 1 is the low bit
    without the high bit in the form's table."""
    code, ordered = vector_codes(), sorted(isotropic, key=to_gf2)
    ones = [low & ~high for low, high in _form_masks()]
    # the zero vector takes code 0, whose row and bit are empty
    return tuple((a, b) for a in ordered for b in ordered
                 if ones[code.get(a, 0)] >> code.get(b, 0) & 1)


@cache
def self_polar_triangles() -> tuple[frozenset, ...]:
    """The 4 triangles of mutually orthogonal exterior points.

    The orthogonality graph on the 12 exterior points is a disjoint union of
    triangles; they are returned sorted by their smallest member.
    """
    pts = exterior_points()
    remaining = set(pts)
    triangles = []
    while remaining:
        p = min(remaining, key=to_gf2)
        tri = {p} | {q for q in remaining if q != p and hermitian(p, q) == 0}
        if len(tri) != 3 or any(
            hermitian(q, r) != 0 for q, r in combinations(tri, 2)
        ):
            raise AssertionError("orthogonality classes are not triangles")
        triangles.append(frozenset(tri))
        remaining -= tri
    triangles.sort(key=lambda t: min(map(to_gf2, t)))
    return tuple(triangles)


@cache
def hyperoval_partitions() -> tuple[HyperovalPartition, ...]:
    """The 3 ways to pair the 4 self-polar triangles into two hyperovals.

    Partition ``i`` joins the triangle containing the first standard basis
    point with the (i+1)-th triangle in the deterministic order; the other
    two triangles form the twin hyperoval.
    """
    tris = self_polar_triangles()
    first = next(t for t in tris if (1, 0, 0) in t)
    others = [t for t in tris if t is not first]
    partitions = []
    for i, partner in enumerate(others):
        oval = first | partner
        twin = frozenset().union(*(t for t in others if t is not partner))
        partitions.append(HyperovalPartition(oval=oval, twin=twin, index=i))
    return tuple(partitions)


@cache
def strata_for(partition: HyperovalPartition) -> Strata:
    """Populate the two 18-vector halves of the norm-one stratum."""
    base = enumerate_strata()
    oval_vecs = frozenset(v for v in base.norm_one if proj_rep(v) in partition.oval)
    twin_vecs = frozenset(v for v in base.norm_one if proj_rep(v) in partition.twin)
    return Strata(
        isotropic=base.isotropic,
        norm_one=base.norm_one,
        oval_vectors=oval_vecs,
        twin_vectors=twin_vecs,
    )


@cache
def vector_codes() -> dict:
    """Each nonzero vector mapped to its 6-bit code v[0] | v[1]<<2 | v[2]<<4.

    The code of a sum of vectors is the XOR of their codes, so a set of
    vectors is an int mask with bit ``code`` set for each member."""
    return {v: v[0] | v[1] << 2 | v[2] << 4 for v in nonzero_vectors()}


@cache
def code_vectors() -> tuple:
    """Indexed by code: the vector with that code (None for code 0)."""
    vecs = [None] * 64
    for v, c in vector_codes().items():
        vecs[c] = v
    return tuple(vecs)


def mask_codes(mask: int):
    """The codes of the members of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the mask of all 63 nonzero codes
_FULL = (1 << 64) - 2


@cache
def _form_masks() -> tuple:
    """Indexed by code c: the pair (low, high) of masks of the codes y whose
    GF(4) value hermitian(c, y) has its low bit set, and its high bit set
    (code 0, the zero vector, gives (0, 0)).

    The form is biadditive and codes add by XOR, so c's pair is the XOR,
    over the set bits i of c, of the pairs of e_i, the vector with code
    1 << i.  Six rows of 63 ``hermitian`` calls give every pair."""
    vec = code_vectors()
    rows = []
    for i in range(6):
        low = high = 0
        for y in range(1, 64):
            h = hermitian(vec[1 << i], vec[y])
            low |= (h & 1) << y
            high |= (h >> 1) << y
        rows.append((low, high))
    table = [(0, 0)]
    for c in range(1, 64):
        low, high = table[c & (c - 1)]
        row_low, row_high = rows[(c & -c).bit_length() - 1]
        table.append((low ^ row_low, high ^ row_high))
    return tuple(table)


@cache
def perp_masks() -> tuple:
    """Indexed by code: the mask of the vectors symplectic-orthogonal to that
    vector (itself included); code 0, the zero vector, is orthogonal to all.
    The symplectic form is the trace of the hermitian one, its high bit."""
    return tuple(_FULL & ~high for _, high in _form_masks())


@cache
def hermitian_perp_masks() -> tuple:
    """Indexed by code: the mask of the vectors y with hermitian(c, y) = 0
    (code 0, the zero vector, is orthogonal to all)."""
    return tuple(_FULL & ~(low | high) for low, high in _form_masks())


@cache
def vector_mask(vectors: frozenset) -> int:
    """The mask of a set of nonzero vectors: bit ``code`` set for each."""
    code = vector_codes()
    return sum(1 << code[v] for v in vectors)


@cache
def ti_line_masks() -> tuple:
    """The 315 totally isotropic lines as masks: {u, v, u^v} for each
    u < v < u^v with v orthogonal to u, so each line comes once, from its
    two lowest members, ordered by them."""
    perps = perp_masks()
    return tuple(
        1 << u | 1 << v | 1 << (u ^ v)
        for u in range(1, 64)
        for v in mask_codes(perps[u] & (-2 << u))
        if u ^ v > v
    )


@cache
def ti_plane_masks() -> frozenset:
    """The 135 totally isotropic planes as masks, each once.

    A plane's two lowest members u < v lie on the line {u, v, w = u^v},
    with w > v.  Its lowest member x off that line is orthogonal to u and v,
    lies above v and below x^u, x^v and x^w; then those four and the line
    are the plane.  So each line extends by exactly the x that make it the
    lowest line of a plane, and every plane arises from one line and one x.
    """
    perps = perp_masks()
    planes = []
    for line in ti_line_masks():
        u, v, w = mask_codes(line)
        for x in mask_codes(perps[u] & perps[v] & ~line & (-2 << v)):
            if x < x ^ u and x < x ^ v and x < x ^ w:
                planes.append(line | 1 << x | 1 << (x ^ u) | 1 << (x ^ v)
                              | 1 << (x ^ w))
    return frozenset(planes)


@cache
def ti_lines() -> frozenset:
    """The 315 totally isotropic lines of the symplectic space over GF(2),
    each the frozenset of its 3 nonzero vectors; decoded from
    :func:`ti_line_masks`."""
    vec = code_vectors()
    return frozenset(frozenset(vec[c] for c in mask_codes(m)) for m in ti_line_masks())


@cache
def ti_planes() -> frozenset:
    """The 135 totally isotropic planes, each the frozenset of its 7 nonzero
    vectors; decoded from :func:`ti_plane_masks`."""
    vec = code_vectors()
    return frozenset(frozenset(vec[c] for c in mask_codes(m)) for m in ti_plane_masks())
