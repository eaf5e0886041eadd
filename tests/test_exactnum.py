from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reflact.exactnum import (
    Cyc,
    CycMatrix,
    cyc_arith,
    cyc_from_json,
    cyc_normalize,
    cyc_to_json,
    cyclotomic_polynomial,
    euler_phi,
    kernel,
    rat_from_str,
    rat_to_str,
    rref,
)


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


def test_cyclotomic_polynomials():
    # known small cyclotomic polynomials, low-to-high coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_normalize_examples():
    # zeta_4^2 = -1
    assert cyc_normalize(4, [0, 0, 1]) == Cyc.rational(-1)
    # zeta_3^2 = -1 - zeta_3
    assert cyc_normalize(3, [0, 0, 1]) == Cyc(3, (Fraction(-1), Fraction(-1)))
    # zeta_6^2 = zeta_6 - 1
    assert cyc_normalize(6, [0, 0, 1]) == Cyc(6, (Fraction(-1), Fraction(1)))
    # empty input is zero
    assert cyc_normalize(5, []).is_zero()


def test_normalize_idempotent():
    x = cyc_normalize(12, [1, 2, 3, 4, 5, 6, 7])
    assert cyc_normalize(12, list(x.c)) == x


def test_arith_examples():
    z3 = Cyc.root_of_unity(3)
    assert cyc_arith(z3, z3, "div") == Cyc.one()
    assert cyc_arith(1 + z3, 1 + z3 * z3, "mul") == Cyc.one()
    for m in (2, 3, 4, 5, 6, 12):
        z = Cyc.root_of_unity(m)
        assert cyc_arith(Cyc.one(), z, "div") == z ** (m - 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        cyc_arith(Cyc.one(), Cyc.zero(), "div")


def test_mixed_conductor_ops():
    z3 = Cyc.root_of_unity(3)
    z4 = Cyc.root_of_unity(4)
    prod = z3 * z4
    assert prod == Cyc.root_of_unity(12, 7)
    assert z3 + z4 - z4 == z3
    # zeta_6 equals 1 + zeta_3
    assert Cyc.root_of_unity(6) == 1 + z3


def test_cross_conductor_hash_consistency():
    z6_native = Cyc.root_of_unity(6)
    z6_in_3 = 1 + Cyc.root_of_unity(3)
    z6_in_12 = Cyc.root_of_unity(12, 2)
    assert z6_native == z6_in_3 == z6_in_12
    assert hash(z6_native) == hash(z6_in_3) == hash(z6_in_12)
    one_in_4 = Cyc.root_of_unity(4) ** 4
    assert hash(one_in_4) == hash(Cyc.one())


rats = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
)


@st.composite
def cycs(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    coeffs = draw(st.lists(rats, min_size=euler_phi(m), max_size=euler_phi(m)))
    return Cyc(m, tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == Cyc.one()


@settings(max_examples=40, deadline=None)
@given(cycs(), st.sampled_from([1, 2, 3, 5]))
def test_canonical_form_ignores_conductor(a, k):
    # _canonical descends to the least subfield holding the value
    d, coeffs = a._canonical()
    assert a.m % d == 0 and Cyc(d, coeffs).lift(a.m) == a
    assert a.lift(a.m * k)._canonical() == (d, coeffs)


@settings(max_examples=40, deadline=None)
@given(rats, rats)
def test_rational_agreement(p, q):
    a, b = Cyc.rational(p), Cyc.rational(q)
    assert (a + b).rational_value() == p + q
    assert (a * b).rational_value() == p * q


def _det2(M):
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def test_rref_examples():
    _, _, rank = rref(CycMatrix.identity(3))
    assert rank == 3
    _, _, rank = rref(CycMatrix(2, 2, [0, 0, 0, 0]))
    assert rank == 0
    z4 = Cyc.root_of_unity(4)
    M = CycMatrix(2, 2, [Cyc.one(), z4, z4, Cyc.rational(-1)])
    # oracle: symbolic 2x2 determinant vanishes, rows nonzero -> rank 1
    assert _det2(M).is_zero()
    red, pivots, rank = rref(M)
    assert rank == 1 and pivots == [0]
    assert red[0, 0] == Cyc.one() and red[0, 1] == z4


def test_rref_row_space_preserved():
    z3 = Cyc.root_of_unity(3)
    M = CycMatrix.from_rows([[1, z3, 0], [z3, z3 * z3, 1], [1 + z3, z3 + z3 * z3, 1]])
    red, _, rank = rref(M)
    stacked = CycMatrix.from_rows(M.row_list() + red.row_list())
    _, _, rank2 = rref(stacked)
    assert rank2 == rank


def test_kernel():
    z4 = Cyc.root_of_unity(4)
    M = CycMatrix(2, 2, [Cyc.one(), z4, z4, Cyc.rational(-1)])
    ker = kernel(M)
    assert len(ker) == 1
    for i in range(2):
        s = M[i, 0] * ker[0][0] + M[i, 1] * ker[0][1]
        assert s.is_zero()


def test_matrix_inverse_and_identity():
    z3 = Cyc.root_of_unity(3)
    M = CycMatrix.from_rows([[1, z3], [0, 1 + z3]])
    assert (M * M.inverse()).is_identity()


@pytest.mark.parametrize("rows", [[[1, 0], [0, 0]], [[1, 2], [2, 4]]])
def test_singular_matrix_inverse_raises(rows):
    with pytest.raises(ZeroDivisionError):
        CycMatrix.from_rows(rows).inverse()


def test_shape_and_conductor_errors_raise():
    with pytest.raises(ValueError):
        Cyc.root_of_unity(3).lift(4)
    with pytest.raises(ValueError):
        Cyc(3, (1,))
    with pytest.raises(ValueError):
        CycMatrix(2, 2, [1, 0, 0])
    M = CycMatrix.identity(2)
    with pytest.raises(ValueError):
        M * CycMatrix.identity(3)
    with pytest.raises(ValueError):
        M.apply([1, 2, 3])
    with pytest.raises(ValueError):
        M.apply_row([1])
    with pytest.raises(ValueError):
        CycMatrix(1, 2, [1, 0]).inverse()
    with pytest.raises(ValueError):
        euler_phi(0)


def test_serialization_roundtrip():
    assert rat_to_str(Fraction(3, 2)) == "3/2"
    assert rat_to_str(Fraction(-4)) == "-4"
    assert rat_from_str("3/2") == Fraction(3, 2)
    x = cyc_normalize(12, [1, Fraction(2, 3), 0, -1])
    assert cyc_from_json(cyc_to_json(x)) == x
    assert cyc_from_json("5/3") == Cyc.rational(Fraction(5, 3))
