import hashlib
from itertools import combinations

import pytest

from splithex.algebra import (
    ZERO_VECTOR,
    hermitian,
    symplectic,
    to_gf2,
    v_add,
    v_scale,
)
from splithex.geometry import (
    HyperovalPartition,
    _form_masks,
    code_vectors,
    enumerate_strata,
    exterior_points,
    hermitian_perp_masks,
    hermitian_unit_pairs,
    hyperoval_partitions,
    nonzero_vectors,
    perp_masks,
    point_vectors,
    proj_rep,
    projective_points,
    self_polar_triangles,
    strata_for,
    ti_line_masks,
    ti_lines,
    ti_plane_masks,
    ti_planes,
    unital_points,
    vector_codes,
)


def test_nonzero_vectors_count_and_order():
    vecs = nonzero_vectors()
    assert len(vecs) == 63
    assert len(set(vecs)) == 63
    assert list(vecs) == sorted(vecs, key=to_gf2)


def test_strata_counts_against_support_oracle():
    strata = enumerate_strata()
    assert len(strata.isotropic) == 27
    assert len(strata.norm_one) == 36
    # oracle: the norm is the parity of the support
    even_support = {
        v for v in nonzero_vectors() if sum(1 for c in v if c != 0) % 2 == 0
    }
    assert strata.isotropic == even_support
    assert strata.norm_one == set(nonzero_vectors()) - even_support


def test_strata_membership_examples():
    strata = enumerate_strata()
    assert (1, 1, 0) in strata.isotropic
    assert (1, 1, 1) in strata.norm_one
    assert strata.oval_vectors is None and strata.twin_vectors is None


def test_projective_points():
    pts = projective_points()
    assert len(pts) == 21
    for p in pts:
        first = next(c for c in p if c != 0)
        assert first == 1
        assert len(set(point_vectors(p))) == 3
    covered = {v for p in pts for v in point_vectors(p)}
    assert covered == set(nonzero_vectors())


def test_unital_and_exterior_points():
    assert len(unital_points()) == 9
    assert len(exterior_points()) == 12
    assert 9 * 3 == len(enumerate_strata().isotropic)


def test_proj_rep_idempotent_and_scale_invariant():
    for v in nonzero_vectors():
        p = proj_rep(v)
        assert proj_rep(p) == p
        for c in (1, 2, 3):
            assert proj_rep(v_scale(c, v)) == p


def test_proj_rep_of_zero_raises_value_error():
    with pytest.raises(ValueError, match="zero vector"):
        proj_rep(ZERO_VECTOR)


def test_hermitian_unit_pairs_are_the_scan_in_order():
    isotropic = enumerate_strata().isotropic
    ordered = sorted(isotropic, key=to_gf2)
    scan = [(a, b) for a in ordered for b in ordered if hermitian(a, b) == 1]
    table = hermitian_unit_pairs(isotropic)
    assert list(table) == scan and len(table) == 216
    assert hermitian_unit_pairs(isotropic) is table  # derived once


def seed_pg_line_through(p, q):
    """The PG(2,4) line spanned by p and q, from all 16 combinations."""
    pts = set()
    for c1 in range(4):
        for c2 in range(4):
            v = v_add(v_scale(c1, p), v_scale(c2, q))
            if v != ZERO_VECTOR:
                pts.add(proj_rep(v))
    if len(pts) != 5:
        raise ValueError(f"degenerate span: {p} and {q} are dependent")
    return frozenset(pts)


def polar(p) -> frozenset:
    """The PG(2,4) line of the points hermitian-orthogonal to p."""
    return frozenset(q for q in projective_points() if hermitian(p, q) == 0)


def pg_lines() -> set:
    """The 21 lines of PG(2,4): the spans of its pairs of points."""
    return {seed_pg_line_through(p, q) for p, q in combinations(projective_points(), 2)}


def test_pg_lines_are_the_polars_of_the_points():
    lines = pg_lines()
    assert len(lines) == 21
    assert all(len(L) == 5 for L in lines)
    assert {polar(p) for p in projective_points()} == lines
    # a tangent holds its unital point, a secant misses its exterior point
    assert all((hermitian(p, p) == 0) == (p in polar(p)) for p in projective_points())
    assert polar((1, 0, 0)) == frozenset(q for q in projective_points() if q[0] == 0)


def test_hermitian_perp_masks_give_the_pole_of_each_spanned_line():
    # the AND of two independent vectors' hermitian perps is the three
    # vectors of one point, whose polar is the line the two span
    code, vec = vector_codes(), code_vectors()
    perps = hermitian_perp_masks()
    spans = 0
    for p, q in combinations(nonzero_vectors(), 2):
        try:
            line = seed_pg_line_through(p, q)
        except ValueError:
            continue
        spans += 1
        both = perps[code[p]] & perps[code[q]]
        pole = [vec[c] for c in range(1, 64) if both >> c & 1]
        assert len(pole) == 3 and len({proj_rep(u) for u in pole}) == 1
        assert polar(pole[0]) == line
    assert spans == 63 * 60 // 2


def test_self_polar_triangles_partition_the_exterior_points():
    triangles = self_polar_triangles()
    assert len(triangles) == 4
    assert frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)}) in triangles
    assert frozenset({(1, 1, 1), (1, 2, 3), (1, 3, 2)}) in triangles
    union = set().union(*triangles)
    assert union == set(exterior_points())
    for tri in triangles:
        for p, q in combinations(tri, 2):
            assert hermitian(p, q) == 0
            assert hermitian(p, p) == 1


def test_orthogonality_graph_is_exactly_the_triangles():
    triangles = self_polar_triangles()
    member = {p: tri for tri in triangles for p in tri}
    for p in exterior_points():
        partners = {
            q for q in exterior_points() if q != p and hermitian(p, q) == 0
        }
        assert partners == member[p] - {p}


def test_hyperoval_partitions_structure():
    partitions = hyperoval_partitions()
    assert len(partitions) == 3
    assert [p.index for p in partitions] == [0, 1, 2]
    triangles = set(self_polar_triangles())
    for partition in partitions:
        assert partition.oval & partition.twin == frozenset()
        assert partition.oval | partition.twin == set(exterior_points())
        assert len(partition.oval) == 6 and len(partition.twin) == 6
        for half in (partition.oval, partition.twin):
            split = [tri for tri in triangles if tri <= half]
            assert len(split) == 2
    # the three ovals pair the first triangle with each of the other three
    first = next(t for t in self_polar_triangles() if (1, 0, 0) in t)
    partners = {frozenset(p.oval - first) for p in partitions}
    assert partners == {t for t in triangles if t != first}


def test_every_tangent_meets_each_triangle_once():
    for a in unital_points():
        tangent = polar(a)
        assert a in tangent
        for tri in self_polar_triangles():
            assert len(tangent & tri) == 1


def test_every_secant_pair_lies_in_one_triangle():
    tangents = {polar(a) for a in unital_points()}
    member = {p: tri for tri in self_polar_triangles() for p in tri}
    for line in pg_lines():
        if line in tangents:
            continue
        exterior = [q for q in line if hermitian(q, q) == 1]
        assert len(exterior) == 2
        assert member[exterior[0]] is member[exterior[1]]


def test_hyperovals_meet_every_line_in_0_or_2_points():
    for partition in hyperoval_partitions():
        for line in pg_lines():
            assert len(line & partition.oval) in (0, 2)
            assert len(line & partition.twin) in (0, 2)


def test_hyperovals_meet_every_tangent_twice():
    for partition in hyperoval_partitions():
        for a in unital_points():
            tangent = polar(a)
            assert len(tangent & partition.oval) == 2
            assert len(tangent & partition.twin) == 2


def test_strata_for_fills_the_halves(partition, strata):
    assert len(strata.oval_vectors) == 18
    assert len(strata.twin_vectors) == 18
    assert strata.oval_vectors & strata.twin_vectors == frozenset()
    assert strata.oval_vectors | strata.twin_vectors == strata.norm_one
    for x in strata.oval_vectors:
        assert v_scale(2, x) in strata.oval_vectors
        assert proj_rep(x) in partition.oval


def test_strata_for_is_kept_per_partition(partition, strata):
    # an equal partition built anew is the same key: its strata are not rebuilt
    again = HyperovalPartition(oval=partition.oval, twin=partition.twin,
                               index=partition.index)
    assert strata_for(again) is strata_for(partition) is strata
    assert strata_for(hyperoval_partitions()[1]) is not strata


def test_ti_lines_and_planes_counts():
    lines = ti_lines()
    planes = ti_planes()
    assert len(lines) == 315
    assert len(planes) == 135
    assert all(len(line) == 3 for line in lines)
    assert all(len(plane) == 7 for plane in planes)


def test_ti_subspaces_are_closed_and_orthogonal():
    vectors = set(nonzero_vectors())
    for sub in list(ti_lines()) + list(ti_planes()):
        assert sub <= vectors
        for u, v in combinations(sub, 2):
            s = v_add(u, v)
            assert s in sub or s == ZERO_VECTOR
            assert symplectic(u, v) == 0


def test_each_ti_line_in_exactly_3_planes():
    planes = ti_planes()
    for line in ti_lines():
        count = sum(1 for plane in planes if line <= plane)
        assert count == 3


def test_line_plane_intersections():
    sizes = {
        len(line & plane)
        for line in ti_lines()
        for plane in ti_planes()
    }
    assert sizes == {0, 1, 3}


# Independent routes to the symplectic tables: brute force over the codes of
# vector_codes, with symplectic evaluated on the triples themselves.
VECTOR_OF = {c: v for v, c in vector_codes().items()}
FULL_MASK = sum(1 << c for c in VECTOR_OF)
# sha256 of the sorted to_gf2 members of every line and plane, pinned from
# the enumeration by closure under addition that the masks replaced
TI_LINES_DIGEST = "65cd5ddf629bb00325d91f5634272eccc99a1bdf96cf968e9a694a4978a008f5"
TI_PLANES_DIGEST = "6684e073ffe42ce67a74efcbc722ad38d06dfaafc3c1b4c2f461c03361d7b0c8"


def orthogonal(*codes):
    return all(symplectic(VECTOR_OF[a], VECTOR_OF[b]) == 0
               for a, b in combinations(codes, 2))


def span_mask(*codes):
    members = {0}
    for c in codes:
        members |= {m ^ c for m in members}
    return sum(1 << m for m in members - {0})


def decoded(masks):
    return {frozenset(VECTOR_OF[c] for c in VECTOR_OF if m >> c & 1) for m in masks}


def subspace_digest(subspaces):
    members = sorted(sorted(to_gf2(v) for v in sub) for sub in subspaces)
    return hashlib.sha256(repr(members).encode()).hexdigest()


def test_form_masks_hold_the_bits_of_every_hermitian_value():
    # the two views read off hermitian = 0 and trace = 0, which leave value
    # 2 against value 3 open; the table's bits separate them
    table = _form_masks()
    assert table[0] == (0, 0)
    for x in range(1, 64):
        low, high = table[x]
        assert not (low | high) & 1  # no bit for code 0
        for y in range(1, 64):
            h = hermitian(VECTOR_OF[x], VECTOR_OF[y])
            assert (low >> y & 1, high >> y & 1) == (h & 1, h >> 1), (x, y)


def test_perp_masks_are_the_symplectic_table():
    # code 0, the zero vector, is orthogonal to every vector
    table = [FULL_MASK] + [
        sum(1 << y for y in VECTOR_OF if orthogonal(x, y)) for x in range(1, 64)
    ]
    assert list(perp_masks()) == table


def test_hermitian_perp_masks_are_the_hermitian_table():
    # code 0, the zero vector, is hermitian-orthogonal to every vector
    table = [FULL_MASK] + [
        sum(1 << y for y in VECTOR_OF if hermitian(VECTOR_OF[x], VECTOR_OF[y]) == 0)
        for x in range(1, 64)
    ]
    assert list(hermitian_perp_masks()) == table


def test_ti_line_masks_are_the_isotropic_2_spans_each_once():
    spans = {span_mask(a, b) for a, b in combinations(VECTOR_OF, 2) if orthogonal(a, b)}
    lines = ti_line_masks()
    assert len(lines) == len(set(lines)) == len(spans) == 315
    assert set(lines) == spans


def test_ti_plane_masks_are_the_isotropic_3_spans():
    spans = {
        span_mask(a, b, c)
        for a, b, c in combinations(VECTOR_OF, 3)
        if c != a ^ b and orthogonal(a, b, c)
    }
    assert len(spans) == 135
    assert ti_plane_masks() == spans


def test_ti_lines_and_planes_are_the_decoded_masks():
    assert ti_lines() == decoded(ti_line_masks())
    assert ti_planes() == decoded(ti_plane_masks())
    assert subspace_digest(ti_lines()) == TI_LINES_DIGEST
    assert subspace_digest(ti_planes()) == TI_PLANES_DIGEST
