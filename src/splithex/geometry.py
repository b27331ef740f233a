"""Strata of the unitary plane over GF(4) and the rank-3 symplectic space.

The 63 nonzero vectors of GF(4)^3 split under the hermitian norm into 27
isotropic vectors and 36 norm-one vectors; projectively that is 9 unital
points and 12 exterior points.  The exterior points fall into 4 self-polar
triangles, and pairing those triangles yields the 3 candidate hyperoval
partitions.  The trace of the hermitian form turns the same 63 triples into
a rank-3 symplectic space over GF(2) (addition of triples is already
addition over GF(2)); its totally isotropic lines and planes are enumerated
here as sets of triples, by closure under addition.  For table-driven
checks each nonzero triple also has a 6-bit int code, under which addition
is XOR and a set of triples is an int mask (:func:`vector_codes`).

All enumerations are deterministic: vectors and points are ordered by their
GF(2) bit layout, triangles and subspaces by their sorted members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .algebra import (
    ZERO_VECTOR,
    Vector3,
    f4_conj,
    f4_inv,
    f4_mul,
    hermitian,
    symplectic,
    to_gf2,
    v_add,
    v_scale,
)


@dataclass(frozen=True)
class Strata:
    """The norm strata of the 63 nonzero vectors.

    ``oval_vectors``/``twin_vectors`` are the two 18-vector halves of the
    norm-one stratum lying over a hyperoval partition; they are None until a
    partition has been chosen (see :func:`strata_for`).
    """

    isotropic: frozenset
    norm_one: frozenset
    oval_vectors: frozenset | None = None
    twin_vectors: frozenset | None = None


@dataclass(frozen=True)
class HyperovalPartition:
    """A split of the 12 exterior points into two disjoint hyperovals.

    Each half is a union of two self-polar triangles; ``index`` selects
    which of the three triangles is paired with the triangle containing
    the first standard basis point.
    """

    oval: frozenset
    twin: frozenset
    index: int


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
    sorted by a, then b, in GF(2) bit layout."""
    ordered = sorted(isotropic, key=to_gf2)
    return tuple((a, b) for a in ordered for b in ordered if hermitian(a, b) == 1)


@cache
def perp_line(p: Vector3) -> frozenset:
    """The PG(2,4) line of points hermitian-orthogonal to p.

    For an isotropic p this is the tangent at [p] (and contains [p]); for a
    non-isotropic p it is a secant missing [p].  The perp is a point-line
    bijection, so the 21 lines of PG(2,4) are the perps of the 21 points.
    """
    return frozenset(q for q in projective_points() if hermitian(p, q) == 0)


@cache
def span_perp(a: Vector3, b: Vector3) -> Vector3:
    """The unique projective point hermitian-orthogonal to both a and b.

    Computed as the cross product of the conjugated vectors, which realises
    the perp of the span for the identity Gram matrix.  Its polar
    ``perp_line`` is the PG(2,4) line spanned by a and b.
    """
    ca = (f4_conj(a[0]), f4_conj(a[1]), f4_conj(a[2]))
    cb = (f4_conj(b[0]), f4_conj(b[1]), f4_conj(b[2]))
    u = (
        f4_mul(ca[1], cb[2]) ^ f4_mul(ca[2], cb[1]),
        f4_mul(ca[2], cb[0]) ^ f4_mul(ca[0], cb[2]),
        f4_mul(ca[0], cb[1]) ^ f4_mul(ca[1], cb[0]),
    )
    if u == ZERO_VECTOR:
        raise ValueError(f"degenerate span: {a} and {b} are dependent")
    return proj_rep(u)


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
def _perps() -> dict:
    """Each nonzero vector mapped to the nonzero vectors symplectic-orthogonal
    to it (itself included)."""
    vecs = nonzero_vectors()
    return {u: frozenset(v for v in vecs if symplectic(u, v) == 0) for u in vecs}


@cache
def vector_codes() -> dict:
    """Each nonzero vector mapped to its 6-bit code v[0] | v[1]<<2 | v[2]<<4.

    The code of a sum of vectors is the XOR of their codes, so a set of
    vectors is an int mask with bit ``code`` set for each member."""
    return {v: v[0] | v[1] << 2 | v[2] << 4 for v in nonzero_vectors()}


def vector_mask(vectors) -> int:
    """The set of nonzero vectors as a mask over their codes."""
    code = vector_codes()
    return sum(1 << code[v] for v in vectors)


@cache
def perp_masks() -> tuple:
    """Indexed by code: the mask of the vectors symplectic-orthogonal to that
    vector (itself included); code 0, the zero vector, is orthogonal to all."""
    code = vector_codes()
    masks = [vector_mask(nonzero_vectors())] * 64
    for u, perp in _perps().items():
        masks[code[u]] = vector_mask(perp)
    return tuple(masks)


@cache
def ti_plane_masks() -> frozenset:
    """The 135 totally isotropic planes as masks (see :func:`vector_mask`)."""
    return frozenset(map(vector_mask, ti_planes()))


@cache
def proj_reps() -> tuple:
    """Indexed by code: ``proj_rep`` of that vector (None for code 0)."""
    reps = [None] * 64
    for v, c in vector_codes().items():
        reps[c] = proj_rep(v)
    return tuple(reps)


@cache
def ti_lines() -> frozenset:
    """The 315 totally isotropic lines of the symplectic space over GF(2),
    each the frozenset of its 3 nonzero vectors."""
    perps = _perps()
    lines = set()
    for u, v in combinations(nonzero_vectors(), 2):
        if v in perps[u]:
            lines.add(frozenset({u, v, v_add(u, v)}))
    return frozenset(lines)


@cache
def ti_planes() -> frozenset:
    """The 135 totally isotropic planes, each holding 7 nonzero vectors.

    Every plane arises by extending a totally isotropic line with a vector
    orthogonal to it and closing under addition.
    """
    perps = _perps()
    planes = set()
    for line in ti_lines():
        u, v, _ = line
        for w in (perps[u] & perps[v]) - line:
            shifted = (v_add(w, x) for x in line)
            planes.add(frozenset({w, *line, *shifted}))
    return frozenset(planes)
