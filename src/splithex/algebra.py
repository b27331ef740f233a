"""Exact arithmetic for the unitary geometry on GF(4)^3.

Scalars are integers 0..3 encoding b0 + b1*w, where w generates the
multiplicative group of GF(4) and satisfies w^2 = w + 1.  Addition is XOR;
multiplication and conjugation are table lookups.  Vectors are triples of
scalars, and every layer uses them: addition of triples is already addition
over GF(2), so the rank-3 symplectic space (the trace of the hermitian form)
lives on the triples themselves.  ``to_gf2`` writes a vector as 6 bits,
(low bit of x1, high bit of x1, low bit of x2, ..., high bit of x3); that
layout only fixes the order of enumerations and the exported bit strings.
"""

from __future__ import annotations

Scalar = int
Vector3 = tuple[int, int, int]
Vector6 = tuple[int, int, int, int, int, int]

ZERO_VECTOR: Vector3 = (0, 0, 0)

# Multiplication table for b0 + b1*w with w^2 = w + 1.
_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# Frobenius x -> x^2, the conjugation of the hermitian form.  For nonzero x
# this is also the multiplicative inverse, since x^3 = 1.
_CONJ = (0, 1, 3, 2)

# Trace x + x^2 into the subfield {0, 1}.
_TRACE = (0, 0, 1, 1)


def f4_add(a: Scalar, b: Scalar) -> Scalar:
    return a ^ b


def f4_mul(a: Scalar, b: Scalar) -> Scalar:
    return _MUL[a][b]


def f4_conj(a: Scalar) -> Scalar:
    return _CONJ[a]


def f4_inv(a: Scalar) -> Scalar:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(4)")
    return _CONJ[a]


def f4_trace(a: Scalar) -> Scalar:
    return _TRACE[a]


def v_add(x: Vector3, y: Vector3) -> Vector3:
    return (x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2])


def v_scale(c: Scalar, x: Vector3) -> Vector3:
    row = _MUL[c]
    return (row[x[0]], row[x[1]], row[x[2]])


def hermitian(x: Vector3, y: Vector3) -> Scalar:
    """Hermitian form with identity Gram matrix: sum of x_i * conj(y_i).

    Linear in x, conjugate-linear in y; hermitian(x, x) is 0 or 1 and equals
    the parity of the number of nonzero coordinates of x.
    """
    return (
        _MUL[x[0]][_CONJ[y[0]]]
        ^ _MUL[x[1]][_CONJ[y[1]]]
        ^ _MUL[x[2]][_CONJ[y[2]]]
    )


def symplectic(x: Vector3, y: Vector3) -> Scalar:
    """Alternating GF(2)-bilinear form: trace of the hermitian form.

    Equals hermitian(x, y) + hermitian(y, x); always lands in {0, 1} and
    vanishes on every diagonal pair (x, x).
    """
    return _TRACE[hermitian(x, y)]


def norm(x: Vector3) -> Scalar:
    return hermitian(x, x)


def to_gf2(x: Vector3) -> Vector6:
    return (
        x[0] & 1, x[0] >> 1,
        x[1] & 1, x[1] >> 1,
        x[2] & 1, x[2] >> 1,
    )
