from itertools import product

from splithex.algebra import (
    f4_add,
    f4_conj,
    f4_inv,
    f4_mul,
    f4_trace,
    hermitian,
    symplectic,
    to_gf2,
    v_add,
    v_scale,
)

ELEMENTS = range(4)
VECTORS = list(product(range(4), repeat=3))


def poly_mul(a, b):
    """Oracle: multiply b0 + b1*w as polynomials and reduce by w^2 = w + 1."""
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a1 * b1
    c0 += c2
    c1 += c2
    return (c0 & 1) | ((c1 & 1) << 1)


def test_mul_table_matches_polynomial_oracle():
    for a in ELEMENTS:
        for b in ELEMENTS:
            assert f4_mul(a, b) == poly_mul(a, b)


def test_mul_examples():
    assert f4_mul(0, 2) == 0
    assert f4_mul(2, 2) == 3  # w*w = w + 1
    assert f4_mul(2, 3) == 1


def test_mul_field_axioms():
    for a in ELEMENTS:
        assert f4_mul(a, 1) == a
        for b in ELEMENTS:
            assert f4_mul(a, b) == f4_mul(b, a)
            for c in ELEMENTS:
                assert f4_mul(f4_mul(a, b), c) == f4_mul(a, f4_mul(b, c))
                assert f4_mul(a, b ^ c) == f4_mul(a, b) ^ f4_mul(a, c)


def test_add_is_xor_and_nonzero_group_is_cyclic():
    for a in ELEMENTS:
        for b in ELEMENTS:
            assert f4_add(a, b) == (a ^ b)
    powers = {2, f4_mul(2, 2), f4_mul(2, f4_mul(2, 2))}
    assert powers == {1, 2, 3}


def test_conj_is_frobenius():
    for a in ELEMENTS:
        assert f4_conj(a) == f4_mul(a, a)


def test_conj_examples_and_involution():
    assert f4_conj(1) == 1
    assert f4_conj(2) == 3
    assert f4_conj(3) == 2
    for a in ELEMENTS:
        assert f4_conj(f4_conj(a)) == a
    assert {a for a in ELEMENTS if f4_conj(a) == a} == {0, 1}
    for a in ELEMENTS:
        for b in ELEMENTS:
            assert f4_conj(f4_mul(a, b)) == f4_mul(f4_conj(a), f4_conj(b))


def test_inverse():
    for a in (1, 2, 3):
        assert f4_mul(a, f4_inv(a)) == 1
    try:
        f4_inv(0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected ZeroDivisionError")


def test_hermitian_examples():
    assert hermitian((1, 0, 0), (1, 0, 0)) == 1
    assert hermitian((1, 1, 0), (1, 1, 0)) == 0
    assert hermitian((1, 2, 0), (0, 1, 0)) == 2  # x2 * conj(1) = w


def test_hermitian_additivity():
    # additivity in the first argument, all 64x64 pairs against several y
    for y in ((0, 0, 0), (1, 0, 0), (1, 2, 3), (2, 2, 1)):
        for x in VECTORS:
            hx = hermitian(x, y)
            for z in VECTORS:
                assert hermitian(v_add(x, z), y) == hx ^ hermitian(z, y)


def test_hermitian_conjugate_symmetry_and_norm_values():
    for x in VECTORS:
        assert hermitian(x, x) in (0, 1)
        nonzero = sum(1 for c in x if c != 0)
        assert hermitian(x, x) == nonzero % 2
        for y in VECTORS:
            assert hermitian(y, x) == f4_conj(hermitian(x, y))


def test_hermitian_semilinearity():
    for c in ELEMENTS:
        for x in VECTORS[:16]:
            for y in VECTORS[:16]:
                assert hermitian(v_scale(c, x), y) == f4_mul(c, hermitian(x, y))
                assert hermitian(x, v_scale(c, y)) == f4_mul(
                    f4_conj(c), hermitian(x, y)
                )


def test_symplectic_is_trace_of_hermitian():
    for x in VECTORS:
        for y in VECTORS:
            s = symplectic(x, y)
            assert s in (0, 1)
            assert s == f4_trace(hermitian(x, y))
            h = hermitian(x, y)
            assert s == h ^ f4_conj(h)  # h(x,y) + h(y,x)


def test_symplectic_alternating_and_examples():
    for x in VECTORS:
        assert symplectic(x, x) == 0
    assert symplectic((1, 2, 0), (0, 1, 0)) == 1
    assert symplectic((1, 0, 0), (0, 0, 1)) == 0


def test_symplectic_bilinear_over_gf2():
    y = (2, 1, 3)
    for x in VECTORS:
        sx = symplectic(x, y)
        for z in VECTORS:
            assert symplectic(v_add(x, z), y) == sx ^ symplectic(z, y)


def test_forms_nondegenerate_on_nonzero_vectors():
    nonzero = [v for v in VECTORS if v != (0, 0, 0)]
    for x in nonzero:
        assert any(symplectic(x, y) == 1 for y in nonzero)
        assert any(hermitian(x, y) != 0 for y in nonzero)


def test_gf2_layout_is_injective():
    assert to_gf2((0, 0, 0)) == (0, 0, 0, 0, 0, 0)
    assert to_gf2((1, 0, 0)) == (1, 0, 0, 0, 0, 0)
    assert to_gf2((2, 0, 1)) == (0, 1, 0, 0, 1, 0)
    images = {to_gf2(x) for x in VECTORS}
    assert len(images) == len(VECTORS) == 64
    assert images == set(product((0, 1), repeat=6))


def test_gf2_conversion_is_additive():
    for x in VECTORS:
        for y in VECTORS[:16]:
            left = to_gf2(v_add(x, y))
            right = tuple(a ^ b for a, b in zip(to_gf2(x), to_gf2(y)))
            assert left == right
