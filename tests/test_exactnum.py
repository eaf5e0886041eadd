import copy
import pickle
import random
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from reflact.exactnum import (
    Cyc,
    CycMatrix,
    Span,
    _is_prime,
    _mod_p,
    _prime_root,
    _reduce_coeffs,
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
from reflact.groups import LinearCharacter


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


def test_euler_phi_matches_gcd_count():
    # the factorisation against the defining count
    for m in range(1, 3000):
        assert euler_phi(m) == [gcd(k, m) for k in range(1, m + 1)].count(1), m


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


@settings(max_examples=60, deadline=None)
@given(st.fractions(), st.sampled_from([1, 3, 4, 5, 8, 12]))
def test_a_rational_hashes_as_its_fraction(q, m):
    # Cyc == int and Cyc == Fraction hold for rationals, so they must hash
    # alike at every conductor, as int and Fraction do
    assert hash(Cyc.rational(q).lift(m)) == hash(q)
    assert hash(Cyc.rational(q.numerator).lift(m)) == hash(q.numerator)
    assert len({Cyc.one(), 1, Fraction(1)}) == 1
    assert {1: "x"}[Cyc.one()] == "x"
    assert LinearCharacter([1, 1]) in {LinearCharacter([Cyc.one()] * 2)}


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


@settings(max_examples=60, deadline=None)
@given(cycs(), rats)
def test_equality_with_a_rational_is_equality_with_its_cyc(a, q):
    # Cyc == int/Fraction reads the constant coefficient; it must agree
    # with the comparison of the lifted Cyc
    same = Cyc.rational(q).lift(a.m)
    assert same == q
    for x in (a, same, a + same, a - a):
        for r in (q, q.numerator, 0, 1):
            assert (x == r) == (x == Cyc.rational(r))


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


# Cycs with small denominators at the conductors 1, 3, 4, 5, 8 and 12
reduced_cycs = st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda m: st.lists(rats, min_size=euler_phi(m), max_size=euler_phi(m))
    .map(lambda c: Cyc(m, c)))


@settings(max_examples=60, deadline=None)
@given(reduced_cycs, rats, st.integers(-30, 30))
def test_rational_operand_matches_the_lifted_product_and_sum(x, q, n):
    # a rational, as an int, a Fraction or a conductor-1 Cyc, scales, shifts
    # or is subtracted from x at x's conductor exactly as its lift
    # (q, 0, ..., 0) would
    m = x.m
    for r, forms in ((q, (q, Cyc.rational(q))),
                     (Fraction(n), (n, Cyc.rational(n)))):
        y = Cyc.rational(r).lift(m)
        conv = [Fraction(0)] * (2 * len(x.c) - 1)
        for i, a in enumerate(y.c):
            for j, b in enumerate(x.c):
                conv[i + j] += a * b
        product = _reduce_coeffs(m, conv)
        total = tuple(a + b for a, b in zip(y.c, x.c))
        less = tuple(b - a for a, b in zip(y.c, x.c))
        for f in forms:
            for got, want in ((f * x, product), (x * f, product),
                              (f + x, total), (x + f, total),
                              (x - f, less), (f - x, tuple(-c for c in less))):
                assert got.m == m and got.c == want


def ref_reduce(m, raw):
    """Fraction coefficients of a polynomial in zeta_m, reduced by long
    division by the monic Phi_m over Q."""
    raw, phi = [Fraction(c) for c in raw], cyclotomic_polynomial(m)
    n = len(phi) - 1
    for e in range(len(raw) - 1, n - 1, -1):
        c = raw[e]
        for j, a in enumerate(phi):
            raw[e - n + j] -= c * a
    return tuple(raw[:n] + [Fraction(0)] * (n - len(raw)))


def ref_lift(x, m):
    raw = [0] * (len(x.c) * (m // x.m))
    raw[::m // x.m] = x.c
    return ref_reduce(m, raw)


def ref_product(x, y):
    m = lcm(x.m, y.m)
    a, b = ref_lift(x, m), ref_lift(y, m)
    conv = [Fraction(0)] * (2 * len(a) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            conv[i + j] += s * t
    return ref_reduce(m, conv)


def form(x):
    """x's representation, checked to be reduced: ints over a positive int
    denominator without a common factor."""
    assert len(x.num) == euler_phi(x.m), x
    assert all(type(n) is int for n in x.num) and type(x.den) is int, x
    assert x.den > 0 and gcd(x.den, *x.num) == 1, x
    return x.m, x.num, x.den


@settings(max_examples=80, deadline=None)
@given(reduced_cycs, reduced_cycs, st.sampled_from([1, 2, 3]))
def test_every_result_is_reduced_and_matches_the_fraction_reference(x, y, k):
    # x and y may have different conductors; each result is in lowest
    # terms, its Fraction view is the reference's, and equal values have
    # equal forms at one conductor
    m = lcm(x.m, y.m)
    a, b = ref_lift(x, m), ref_lift(y, m)
    conj = [0] * x.m
    for j, c in enumerate(x.c):
        conj[-j % x.m] += c
    for got, want in ((x + y, tuple(s + t for s, t in zip(a, b))),
                      (x - y, tuple(s - t for s, t in zip(a, b))),
                      (x * y, ref_product(x, y)),
                      (x.lift(x.m * k), ref_lift(x, x.m * k)),
                      (x.conjugate(), ref_reduce(x.m, conj)),
                      (Cyc(x.m, list(x.c)), x.c)):
        form(got)
        assert exact(got)[1] == want
    assert form(x * y) == form(y * x) == form(y.lift(m) * x.lift(m))
    assert form((x + y) - y) == form(x.lift(m))
    assert form(x.conjugate().conjugate()) == form(x)
    if y:
        assert form(y.inverse() * y) == form(Cyc.one().lift(y.m))
        assert form(x / y) == form(x * y.inverse())
        assert form((x / y) * y) == form(x.lift(m))


def test_construction_reduces_to_one_denominator():
    x = Cyc(4, [Fraction(2, 4), Fraction(-6, 4)])
    assert form(x) == (4, (1, -3), 2)
    assert form(Cyc(5, [0, 6, 0, -4])) == (5, (0, 6, 0, -4), 1)
    assert form(Cyc(3, [Fraction(1, 6), Fraction(1, 4)])) == (3, (2, 3), 12)
    assert form(Cyc.rational(Fraction(-3, 6)).lift(12)) == \
        (12, (-1, 0, 0, 0), 2)
    assert hash(Cyc.rational(Fraction(1, 2)).lift(12)) == hash(Fraction(1, 2))
    # the printed forms are the Fraction coefficients'
    y = Cyc(4, [Fraction(1, 2), Fraction(-3, 2)])
    assert str(y) == "1/2 - 3/2*z4"
    assert cyc_to_json(y) == {"m": 4, "c": ["1/2", "-3/2"]}
    assert repr(y) == "Cyc(4, (Fraction(1, 2), Fraction(-3, 2)))"


@settings(max_examples=60, deadline=None)
@given(reduced_cycs, reduced_cycs)
def test_mod_p_is_a_ring_map_on_values_with_denominators(x, y):
    p, image = _mod_p([x, y, x * y, x + y])
    assert p > 1 << 30 and (p - 1) % lcm(x.m, y.m) == 0
    assert image(x * y) == image(x) * image(y) % p
    assert image(x + y) == (image(x) + image(y)) % p
    q = x.c[0]
    assert image(Cyc.rational(q)) == q.numerator * pow(q.denominator, -1, p) % p


def test_mod_p_skips_a_prime_that_divides_a_denominator():
    # 1073741827 is the least prime above 2^30, and 1073741831 the next
    assert _mod_p([Cyc.one()])[0] == 1073741827
    x = Cyc.rational(Fraction(1, 1073741827))
    p, image = _mod_p([x])
    assert p == 1073741831
    assert image(x) * 1073741827 % p == 1


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


def _copies(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


@pytest.mark.parametrize("m", [1, 3, 4, 12])
def test_cyc_and_cyc_matrix_survive_pickle_and_copy(m):
    x = Cyc(m, [Fraction(2 * k - 3, 6) for k in range(euler_phi(m))])
    for y in _copies(x):
        assert (y.m, y.num, y.den) == (x.m, x.num, x.den)
        assert y == x and hash(y) == hash(x)
        with pytest.raises(AttributeError):
            y.den = 1
    M = CycMatrix.from_rows([[x, Cyc.root_of_unity(m)], [Cyc.one(), x * x]])
    for N in _copies(M):
        assert (N.rows, N.cols, N.m) == (M.rows, M.cols, M.m) and N == M
        assert [(e.m, e.num, e.den) for e in N.entries] == \
            [(e.m, e.num, e.den) for e in M.entries]
        with pytest.raises(AttributeError):
            N.rows = 3


def test_cyc_from_json_refuses_a_conductor_above_its_coefficients():
    # phi(m) >= sqrt(m / 2): m > 2 len(c)^2 is refused before phi(m), which
    # for the prime 2^61 - 1 trial division could not finish
    for m in (3, 10 ** 8, 2 ** 61 - 1):
        with pytest.raises(ValueError, match="needs more than 1 coefficients"):
            cyc_from_json({"m": m, "c": ["1"]})
    assert cyc_from_json({"m": 2, "c": ["3"]}) == 3
    with pytest.raises(ValueError, match="conductor 5 needs 4 coefficients"):
        cyc_from_json({"m": 5, "c": ["1", "0"]})


# -- references: the dense eliminations that Span replaced --------------------

def ref_rref_rows(work):
    """Dense reduced row echelon form of a list of Cyc row lists, in place;
    pivot = first nonzero entry in column order.  (rows, pivots, rank)."""
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not work[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][col].inverse()
        work[r] = [inv * e for e in work[r]]
        for i in range(nrows):
            if i != r and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work, pivots, r


def ref_solve_square(rows, rhs):
    """Gauss-Jordan on a square Fraction system; None if singular."""
    n = len(rows)
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = rows[col][col]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col] / inv
                for j in range(col, n):
                    rows[i][j] -= f * rows[col][j]
                rhs[i] -= f * rhs[col]
    return [rhs[i] / rows[i][i] for i in range(n)]


def ref_inverse(x):
    """Inverse by solving (multiplication by x) y = 1."""
    if x.is_rational():
        return Cyc(x.m, (1 / x.c[0],) + x.c[1:])
    phi = euler_phi(x.m)
    cols = [(x * Cyc(x.m, [Fraction(i == j) for i in range(phi)])).c
            for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] for i in range(phi)]
    return Cyc(x.m, ref_solve_square(rows, [Fraction(1)] + [Fraction(0)] * (phi - 1)))


def ref_rref(M):
    if M.rows == 0:
        return M, [], 0
    red, pivots, rank = ref_rref_rows([list(M.row(i)) for i in range(M.rows)])
    return CycMatrix.from_rows(red), pivots, rank


def ref_kernel(M):
    red, pivots, _ = ref_rref(M)
    basis = []
    for f in (j for j in range(M.cols) if j not in pivots):
        vec = [Cyc.zero()] * M.cols
        vec[f] = Cyc.one()
        for r, p in enumerate(pivots):
            vec[p] = -red[r, f]
        basis.append(vec)
    return basis


def ref_matrix_inverse(M):
    n = M.rows
    work = [list(M.row(i)) + [Cyc.one() if j == i else Cyc.zero() for j in range(n)]
            for i in range(n)]
    red, piv, _ = ref_rref_rows(work)
    if any(p >= n for p in piv):
        raise ZeroDivisionError("singular matrix")
    return CycMatrix.from_rows([r[n:] for r in red])


def exact(x):
    """A Cyc's conductor and coefficients, checked to be Fractions."""
    assert all(type(c) is Fraction for c in x.c), x
    return x.m, x.c


def exact_matrix(M):
    return M.rows, M.cols, M.m, [exact(e) for e in M.entries]


def random_cyc(rng, m, zero_rate=0.3):
    if rng.random() < zero_rate:
        return Cyc.zero().lift(m)
    return Cyc(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(euler_phi(m))])


def random_matrix(rng, m, rows, cols):
    """Random rows, some of them combinations of earlier ones, so that pivots
    skip columns and the rank drops."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.3:
            a, b = rng.choice(out), rng.choice(out)
            f = random_cyc(rng, m, 0)
            out.append([x + f * y for x, y in zip(a, b)])
        else:
            out.append([random_cyc(rng, m) for _ in range(cols)])
    return CycMatrix(rows, cols, [e for r in out for e in r])


@pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
def test_rref_kernel_inverse_match_dense_reference(m):
    rng = random.Random(m)
    for _ in range(24):
        M = random_matrix(rng, m, rng.randint(1, 4), rng.randint(1, 5))
        red, pivots, rank = rref(M)
        ref_red, ref_pivots, ref_rank = ref_rref(M)
        assert (pivots, rank) == (ref_pivots, ref_rank)
        assert exact_matrix(red) == exact_matrix(ref_red)
        assert [[exact(e) for e in v] for v in kernel(M)] == \
            [[exact(e) for e in v] for v in ref_kernel(M)]
        n = rng.randint(1, 4)
        S = random_matrix(rng, m, n, n)
        try:
            want = exact_matrix(ref_matrix_inverse(S))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                S.inverse()
        else:
            assert exact_matrix(S.inverse()) == want


def test_cyc_inverse_matches_linear_solve():
    # dense elements up to phi(m) = 16; above that, three nonzero
    # coefficients keep the reference solve quick
    rng = random.Random(5)
    for m in range(1, 61):
        phi = euler_phi(m)
        for _ in range(3):
            x = random_cyc(rng, m, 0)
            if phi > 16:
                keep = set(rng.sample(range(phi), 3))
                x = Cyc(m, [c if j in keep else Fraction(0)
                            for j, c in enumerate(x.c)])
            if x:
                assert exact(x.inverse()) == exact(ref_inverse(x))
        z = Cyc.root_of_unity(m, 1)
        assert exact(z.inverse()) == exact(ref_inverse(z))


@pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
def test_cyc_pow_matches_repeated_products(m):
    x = Cyc(m, [Fraction((-1) ** k * (k + 2), k + 1) for k in range(euler_phi(m))])
    for e in range(-3, 21):
        base, want = x if e >= 0 else x.inverse(), Cyc.one()
        for _ in range(abs(e)):
            want = want * base
        assert x ** e == want, (m, e)


def test_cyc_first_power_takes_no_product(monkeypatch):
    x = Cyc.root_of_unity(12, 5) + 2
    mul, calls = Cyc.__mul__, []
    monkeypatch.setattr(Cyc, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert x ** 1 == x
    assert calls == []
    assert x ** 2 == mul(x, x) and len(calls) == 1


def naive_product(A, B):
    """Rows of A times columns of B, every term included, zeros too."""
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Cyc.zero())
             for j in range(len(B[0]))] for i in range(len(A))]


@pytest.mark.parametrize("m", [1, 3, 4, 5])
def test_products_match_dense_reference(m):
    # mostly zero matrices, and vectors that mix ints with Cycs
    rng = random.Random(40 + m)

    def entry():
        return rng.choice([0, 0, 1, -2, random_cyc(rng, m, 0.5)])

    for _ in range(30):
        p, q, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = CycMatrix(p, q, [random_cyc(rng, m, 0.6) for _ in range(p * q)])
        B = CycMatrix(q, r, [random_cyc(rng, m, 0.6) for _ in range(q * r)])
        assert (A * B).row_list() == naive_product(A.row_list(), B.row_list())
        col, row = [entry() for _ in range(q)], [entry() for _ in range(p)]
        assert A.apply(col) == [x for x, in naive_product(A.row_list(),
                                                          [[v] for v in col])]
        assert A.apply_row(row) == naive_product([row], A.row_list())[0]


def test_monomial_matrix_times_vector_takes_n_products(monkeypatch):
    # the generators of G(3,1,3) have one nonzero entry per row and column,
    # so each product with a vector without zeros takes 3 Cyc products
    from reflact.catalog import make_grpn
    G = make_grpn(3, 1, 3)
    z = Cyc.root_of_unity(3)
    vec = [z, Cyc.rational(2), z * z - 1]
    gens = [G.matrix(gi) for gi in G.generators]
    want = [(g.apply(vec), g.apply_row(vec)) for g in gens]
    mul, calls = Cyc.__mul__, []
    monkeypatch.setattr(Cyc, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    for g, (col, row) in zip(gens, want):
        for product, expected in ((g.apply, col), (g.apply_row, row)):
            calls.clear()
            assert product(vec) == expected
            assert len(calls) == 3


def test_is_prime_matches_a_sieve_and_refuses_strong_pseudoprimes():
    sieve = [False, False] + [True] * 99_998
    for i in range(2, isqrt(len(sieve)) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(len(sieve)) if _is_prime(n)] == \
        [n for n, prime in enumerate(sieve) if prime]
    # strong pseudoprimes to the first 4, 7 and 9 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 89 - 1)


def test_prime_root_matches_trial_division():
    above = 1 << 30
    for m in range(1, 61):
        p = above - above % m + 1
        while p <= above or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            p += m
        got, w = _prime_root(m, above)
        assert got == p, m
        assert next(k for k in count(1) if pow(w, k, p) == 1) == m


def test_cyc_bool_is_nonzero():
    assert not Cyc.zero() and not Cyc.zero().lift(12)
    assert not Cyc.root_of_unity(4) ** 2 + 1
    assert Cyc.one() and Cyc.root_of_unity(5, 2) and Cyc.rational(-1)
    rng = random.Random(7)
    for m in (1, 3, 4, 5, 12):
        for _ in range(20):
            x = random_cyc(rng, m)
            assert bool(x) is not x.is_zero()


def _check_span(rows, ncols, zero):
    """Add sparse Cyc rows one by one and compare with the dense reference
    echelon of the rows so far: leads, pivots, rows and coordinates.
    Returns the span and the leads."""
    span, dense, leads = Span(), [], []
    for row in rows:
        residual = [row.get(j, zero) for j in range(ncols)]
        for r in ref_rref_rows([list(d) for d in dense])[0] if dense else []:
            p = next((j for j, c in enumerate(r) if c), None)
            if p is not None:
                residual = [a - residual[p] * b for a, b in zip(residual, r)]
        lead = next((c for c in residual if c), None)
        got = span.add(row)
        assert (got is None) == (lead is None)
        if lead is not None:
            assert exact(got) == exact(lead)
        leads.append(got)
        dense.append([row.get(j, zero) for j in range(ncols)])
        red, pivots, _ = ref_rref_rows([list(d) for d in dense])
        assert [pk for pk, _ in span.pivots] == pivots
        for (_, prow), rrow in zip(span.pivots, red):
            assert sorted(prow) == [j for j, c in enumerate(rrow) if c]
            assert all(exact(prow[j]) == exact(rrow[j]) for j in prow)
        # every row is inside, with its pivot entries as coordinates
        assert span.solve(row) == [row.get(pk, 0) for pk, _ in span.pivots]
    return span, leads


def test_span_over_fractions_matches_dense_reference():
    rng = random.Random(11)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 5)):
            if rows and rng.random() < 0.3:
                a, b = rng.choice(rows), rng.choice(rows)
                row = {j: a.get(j, 0) - 2 * b.get(j, 0) for j in range(ncols)}
            else:
                row = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for j in range(ncols) if rng.random() < 0.6}
            rows.append({j: c for j, c in row.items() if c})
        span = Span()
        leads = [span.add(row) for row in rows]
        # the Fraction span is the Cyc span of the same rows, in Fractions
        cyc, cyc_leads = _check_span(
            [{j: Cyc.rational(c) for j, c in r.items()} for r in rows],
            ncols, Cyc.zero())
        assert [None if x is None else Cyc.rational(x) for x in leads] == cyc_leads
        assert [pk for pk, _ in span.pivots] == [pk for pk, _ in cyc.pivots]
        for (_, a), (_, b) in zip(span.pivots, cyc.pivots):
            assert all(type(c) is Fraction for c in a.values())
            assert {j: Cyc.rational(c) for j, c in a.items()} == b
        assert span.solve({ncols: Fraction(1)}) is None


@pytest.mark.parametrize("m", [3, 4, 5, 12])
def test_span_over_cyc_matches_dense_reference(m):
    rng = random.Random(100 + m)
    for _ in range(12):
        M = random_matrix(rng, m, rng.randint(1, 4), rng.randint(1, 5))
        rows = [{j: c for j, c in enumerate(M.row(i)) if c} for i in range(M.rows)]
        span, _ = _check_span(rows, M.cols, Cyc.zero().lift(m))
        pivots = {pk for pk, _ in span.pivots}
        for free in (j for j in range(M.cols) if j not in pivots):
            assert span.solve({free: Cyc.one()}) is None


def test_span_inverts_an_int_lead_exactly():
    # int rows are normalized by Fraction(1, lead), never by a float
    span = Span()
    assert span.add({0: 2, 1: 3}) == 2
    assert span.pivots == [(0, {0: 1, 1: Fraction(3, 2)})]
    assert span.add({1: 4, 2: 6}) == 4
    assert span.add({0: 2, 2: 5}) is not None
    values = [c for _, row in span.pivots for c in row.values()]
    assert len(values) == 3
    assert all(type(c) is Fraction for c in values)
