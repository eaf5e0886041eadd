"""
Exact arithmetic over Q and the cyclotomic fields Q(zeta_m), together with
the one exact echelon, `Span`, and the linear algebra built on it (row
reduction, rank, kernel, inverse).

Rationals are `fractions.Fraction` (aliased `Rat`).  A cyclotomic number is a
`Cyc`: a conductor m, a tuple `num` of phi(m) ints and one int `den` > 0 with
gcd(den, *num) = 1, the unique form of sum_j num_j zeta_m^j / den in the
power basis of Q[x]/Phi_m(x).  Phi_m is monic over Z, so sums, products,
lifts and conjugates run on ints, with one gcd per result; `.c` is the
Fraction view num_j / den, built when read.  Binary operations on mixed
conductors lift both operands to the lcm; conductors stay small (m <= 60),
so the dense form is the simplest canonical one.  A rational q is
(q, 0, ..., 0) at every conductor and hashes as q; equal values hash alike
at any conductors.  A Cyc is true when it is nonzero, and its inverse is the
product of its other Galois conjugates over its norm.  Every row-times-column
product of Cycs runs through `_dot`, which skips zero factors on both sides.

`Span` keeps sparse vectors {key: value}, with values all `Fraction` or all
`Cyc`, in reduced row echelon form, pivoting at each row's least key.  Every
exact elimination in the package runs through it or its step `_eliminate`:
`rref`, `kernel` and `CycMatrix.inverse` here, determinants and stabilizers
in `groups`, essentialization and the certification of the intersection
lattice in `arrangement`, and spans of Orlik-Solomon elements.  `_mod_p`
maps Q(zeta_m) to F_p for a prime p = 1 (mod m); the order test in `groups`
and the lattice's row reduction run on those images.

>>> z = Cyc.root_of_unity(3, 1)
>>> (1 + z) * (1 + z * z) == 1
True
>>> Cyc.root_of_unity(4, 1) ** 2 == -1
True
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm

__all__ = [
    "Rat",
    "Cyc",
    "CycMatrix",
    "Span",
    "euler_phi",
    "cyclotomic_polynomial",
    "cyc_normalize",
    "cyc_arith",
    "rref",
    "kernel",
    "rat_to_str",
    "rat_from_str",
    "cyc_to_json",
    "cyc_from_json",
]

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=64)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be >= 1, got %r" % (m,))
    for p in _prime_factors(m):
        m -= m // p
    return m


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def _power(x, e, times, one):
    """x^e for e >= 0 by log2 e squarings, starting from x at the leading
    bit, so x^1 takes no product; x^0 is `one`."""
    if not e:
        return one
    out = x
    for bit in bin(e)[3:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, x)
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases, which is exact for
    n < 3.18 * 10^23 (Sorenson and Webster)."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)     # n passes if x = 1 or some x^(2^i) = -1
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


@lru_cache(maxsize=64)
def _prime_root(m: int, above: int):
    """The least prime p > above with p = 1 (mod m), and a primitive m-th
    root of unity w modulo p (F_p^* is cyclic of order p - 1)."""
    p = above - above % m + 1
    while p <= above or not _is_prime(p):
        p += m
    w = next(w for w in (pow(a, (p - 1) // m, p) for a in count(2))
             if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)))
    return p, w


def _mod_p(values, above: int = 1 << 30):
    """(p, image) for Cycs `values` of lcm conductor m: the least prime
    p > above with p = 1 (mod m) that divides no denominator of a value, and
    the ring map zeta_m -> w, w the primitive m-th root of `_prime_root`,
    as a function from a Cyc over Q(zeta_m) whose denominators are among
    theirs to its residue in 0..p-1."""
    m = lcm(1, *(x.m for x in values))
    dens = {x.den for x in values}      # a den is its coefficients' lcm
    p, w = _prime_root(m, above)
    while any(d % p == 0 for d in dens):
        p, w = _prime_root(m, p)
    powers = [pow(w, j, p) for j in range(euler_phi(m))]

    def image(x):
        x = x.lift(m)
        s = sum(c * wj for c, wj in zip(x.num, powers))
        return s * pow(x.den, -1, p) % p
    return p, image


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    # plain long division, den monic-ish (nonzero lead), coeffs low -> high
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    quot = [_ZERO] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=64)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_m, low to high, computed by exact division of
    x^m - 1 by the lower cyclotomic polynomials."""
    num = [_ZERO] * (m + 1)
    num[0] = Fraction(-1)
    num[m] = _ONE
    for d in _divisors(m):
        if d == m:
            continue
        quot, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
        if rem:
            raise ArithmeticError("Phi_%d does not divide x^%d - 1" % (d, m))
        num = quot
    if len(num) != euler_phi(m) + 1:
        raise ArithmeticError("Phi_%d has degree %d, not phi(%d)"
                              % (m, len(num) - 1, m))
    return tuple(num)


@lru_cache(maxsize=64)
def _reduction_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_m, monic over Z, for phi(m) <= e < m, as int tuples."""
    phi, poly = euler_phi(m), list(cyclotomic_polynomial(m))
    rems = (_poly_divmod([_ZERO] * e + [_ONE], poly)[1] for e in range(phi, m))
    return tuple(tuple(map(int, r + [0] * (phi - len(r)))) for r in rems)


def _reduce_coeffs(m: int, raw) -> tuple:
    """Fold exponents mod m, then reduce mod Phi_m; returns length phi(m)."""
    acc = [0] * m
    for e, c in enumerate(raw):
        if c:
            acc[e % m] += c
    phi = euler_phi(m)
    out = acc[:phi]
    for c, row in zip(acc[phi:], _reduction_table(m)):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


@lru_cache(maxsize=64)
def _subfield_solver(m: int, d: int):
    """For d | m: a left inverse of the matrix whose columns are the images
    in Q(zeta_m) of the power basis of Q(zeta_d).  The images are
    independent, so the reduced echelon form of [images | identity] has its
    pivots among the image coordinates, and the identity part of the row
    with pivot i is column i of a left inverse (zero off the pivots)."""
    k, phi, n = m // d, euler_phi(m), euler_phi(d)
    span = Span()
    for j in range(n):
        col = _reduce_coeffs(m, [_ZERO] * (k * j) + [_ONE])
        span.add({**dict(enumerate(col)), phi + j: _ONE})
    left = [[_ZERO] * n for _ in range(phi)]
    for i, row in span.pivots:
        left[i] = [row.get(phi + j, _ZERO) for j in range(n)]
    return left


def _descend(x: "Cyc", d: int):
    """x's coefficients over Q(zeta_d) if x lies in that subfield, else
    None: the left inverse's solution, kept if it lifts back to x."""
    out = [_ZERO] * euler_phi(d)
    for c, y in zip(x.num, _subfield_solver(x.m, d)):
        if c:
            out = [a + c * b for a, b in zip(out, y)]
    down = Cyc(d, [a / x.den for a in out])
    return down.c if down.lift(x.m) == x else None


class Cyc:
    """An element of Q(zeta_m): int power-basis numerators `num` over one
    `den` > 0, gcd(den, *num) = 1; `c` is their Fraction view.  Immutable."""

    __slots__ = ("m", "num", "den", "_hash")

    def __new__(cls, m: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(m):
            raise ValueError("conductor %d needs %d coefficients, got %d"
                             % (m, euler_phi(m), len(coeffs)))
        den = lcm(*(c.denominator for c in coeffs))
        return _new(m, tuple(c.numerator * (den // c.denominator)
                             for c in coeffs), den)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    def __reduce__(self):
        return _new, (self.m, self.num, self.den)

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyc":
        q = Fraction(q)
        return _new(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "Cyc":
        return _CYC_ZERO

    @staticmethod
    def one() -> "Cyc":
        return _CYC_ONE

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "Cyc":
        raw = [0] * (k % m if m > 1 else 0) + [1]
        return _new(m, _reduce_coeffs(m, raw), 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value: %r" % (self,))
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    def lift(self, mm: int) -> "Cyc":
        """Re-embed into Q(zeta_mm) for m | mm."""
        if mm == self.m:
            return self
        if mm % self.m:
            raise ValueError("cannot lift conductor %d to %d" % (self.m, mm))
        if self.m == 1:
            return _new(mm, self.num + (0,) * (euler_phi(mm) - 1), self.den)
        k = mm // self.m
        raw = [0] * (len(self.num) * k)
        raw[::k] = self.num
        return _new(mm, _reduce_coeffs(mm, raw), self.den)

    def conjugate(self, k: int = -1) -> "Cyc":
        """The Galois automorphism zeta_m -> zeta_m^k, k prime to m; the
        default k = -1 is complex conjugation."""
        m = self.m
        raw = [0] * m
        for j, c in enumerate(self.num):
            raw[j * k % m] += c
        return _new(m, _reduce_coeffs(m, raw), self.den)

    def _canonical(self):
        """(d, Fractions) over the least cyclotomic subfield, alike at any
        conductors: a non-rational's hash, and an order key.  A non-rational
        skips Q(zeta_1) = Q and each Q(zeta_d) = Q(zeta_{d/2}), d = 2 mod 4."""
        if self.is_rational():
            return (1, (Fraction(self.num[0], self.den),))
        for d in _divisors(self.m):
            if d == self.m:
                return (d, self.c)
            if d > 1 and d % 4 != 2:
                down = _descend(self, d)
                if down is not None:
                    return (d, down)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return _new(1, (x.numerator,), x.denominator)
        return NotImplemented

    def _common(self, other):
        a, b = self, other
        if a.m == b.m:
            return a, b
        mm = lcm(a.m, b.m)
        return a.lift(mm), b.lift(mm)

    def __add__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        da, db = a.den, b.den
        return _new(a.m, tuple(x * db + y * da for x, y in zip(a.num, b.num)),
                    da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.m, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == 1 or other.m == 1:
            # a rational q is (q, 0, ..., 0) at every conductor
            q, x = (self, other) if self.m == 1 else (other, self)
            n = q.num[0]
            return _new(x.m, tuple(n * c for c in x.num), q.den * x.den)
        a, b = self._common(other)
        conv = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num, i):
                    conv[j] += x * y
        return _new(a.m, _reduce_coeffs(a.m, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("division by zero Cyc")
        if self.is_rational():
            return Cyc.rational(Fraction(self.den, self.num[0])).lift(self.m)
        # x times its other Galois conjugates is its norm, a nonzero rational
        rest = _CYC_ONE
        for k in range(2, self.m):
            if gcd(k, self.m) == 1:
                rest = rest * self.conjugate(k)
        return rest / (rest * self).rational_value()

    def __truediv__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyc._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, Cyc.__mul__, _CYC_ONE)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational is its constant coefficient, at any conductor
            return not any(self.num[1:]) and \
                (self.num[0], self.den) == (other.numerator, other.denominator)
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._canonical() if any(self.num[1:])
                     else Fraction(self.num[0], self.den))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return "Cyc(%d, %r)" % (self.m, self.c)

    def __str__(self):
        if self.is_rational():
            return rat_to_str(self.rational_value())
        parts = []
        for j, c in enumerate(self.c):
            if not c:
                continue
            if j == 0:
                parts.append(rat_to_str(c))
            else:
                z = "z%d" % self.m + ("^%d" % j if j > 1 else "")
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append("-" + z)
                else:
                    parts.append("%s*%s" % (rat_to_str(c), z))
        return " + ".join(parts).replace("+ -", "- ")


_set_m, _set_num, _set_den, _set_hash = (
    getattr(Cyc, a).__set__ for a in Cyc.__slots__)


def _new(m: int, num: tuple, den: int) -> Cyc:
    """num / den at conductor m, den > 0, reduced to gcd(den, *num) = 1,
    built without the checks of `Cyc(m, coeffs)`."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(n // g for n in num), den // g
    x = object.__new__(Cyc)
    _set_m(x, m)
    _set_num(x, num)
    _set_den(x, den)
    _set_hash(x, None)
    return x


_CYC_ZERO = _new(1, (0,), 1)
_CYC_ONE = _new(1, (1,), 1)


def _dot(xs, ys) -> Cyc:
    """The sum of x * y over the pairs where both factors are nonzero, or
    zero when there are none: the one row-times-column product, for Cycs and
    ints alike."""
    terms = [x * y for x, y in zip(xs, ys) if x and y]
    return sum(terms[1:], terms[0]) if terms else _CYC_ZERO


def cyc_normalize(m: int, raw) -> Cyc:
    """Reduce arbitrary polynomial coefficients in zeta_m to canonical form."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    return Cyc(m, _reduce_coeffs(m, [Fraction(c) for c in raw]))


def cyc_arith(a: Cyc, b: Cyc, op: str) -> Cyc:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError("unknown op %r" % op)


class CycMatrix:
    """Dense matrix of Cyc entries sharing one conductor.  Immutable."""

    __slots__ = ("rows", "cols", "m", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [Cyc._coerce(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("%d entries for a %d x %d matrix"
                             % (len(entries), rows, cols))
        m = lcm(*(e.m for e in entries))
        entries = tuple(e.lift(m) for e in entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("CycMatrix is immutable")

    def __reduce__(self):
        return CycMatrix, (self.rows, self.cols, self.entries)

    @staticmethod
    def from_rows(rows_of_entries) -> "CycMatrix":
        rows = list(rows_of_entries)
        return CycMatrix(len(rows), len(rows[0]) if rows else 0,
                         [e for row in rows for e in row])

    @staticmethod
    def identity(n: int) -> "CycMatrix":
        return CycMatrix(n, n, [_CYC_ONE if i == j else _CYC_ZERO
                                for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise ValueError("cannot multiply %d x %d by %d x %d" % (
                self.rows, self.cols, other.rows, other.cols))
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return CycMatrix(self.rows, other.cols, [
            _dot(self.row(i), col) for i in range(self.rows) for col in cols])

    def apply(self, vec):
        """Matrix times column vector (sequence of Cyc)."""
        if self.cols != len(vec):
            raise ValueError("vector of length %d for %d columns"
                             % (len(vec), self.cols))
        return [_dot(self.row(i), vec) for i in range(self.rows)]

    def apply_row(self, vec):
        """Row vector times matrix."""
        if self.rows != len(vec):
            raise ValueError("vector of length %d for %d rows"
                             % (len(vec), self.rows))
        return [_dot(vec, self.entries[j::self.cols]) for j in range(self.cols)]

    def transpose(self) -> "CycMatrix":
        return CycMatrix(self.cols, self.rows,
                         [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def inverse(self) -> "CycMatrix":
        if self.rows != self.cols:
            raise ValueError("cannot invert a %d x %d matrix"
                             % (self.rows, self.cols))
        n = self.rows
        work = [list(self.row(i)) + [_CYC_ONE if j == i else _CYC_ZERO for j in range(n)]
                for i in range(n)]
        # [M | I] always has rank n; M is singular when a pivot lies in I
        red, piv, _ = rref(CycMatrix.from_rows(work))
        if any(p >= n for p in piv):
            raise ZeroDivisionError("singular matrix")
        return CycMatrix.from_rows([red.row(i)[n:] for i in range(n)])

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == CycMatrix.identity(self.rows)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __repr__(self):
        return "CycMatrix(%d, %d, m=%d)" % (self.rows, self.cols, self.m)


class Span:
    """Incremental span of sparse vectors {key: value}, values all `Fraction`
    or all `Cyc`, in reduced row echelon form.  `pivots` lists (pivot key,
    row) ascending by key; each row holds 1 at its pivot, the least key it
    has, and nothing at any other row's pivot."""

    def __init__(self):
        self.pivots = []

    def _reduce(self, vec):
        """(residual, coordinates) with vec = residual + sum of coordinate
        times row; the residual has no pivot keys."""
        vec = {k: c for k, c in vec.items() if c}
        coords = [_ZERO] * len(self.pivots)
        for i, (pk, row) in enumerate(self.pivots):
            f = _eliminate(vec, pk, row)
            if f is not None:
                coords[i] = f
        return vec, coords

    def add(self, vec):
        """Insert vec if it is outside the span.  Returns the residual's
        entry at its least key before normalization, or None when vec is
        dependent."""
        red, _ = self._reduce(vec)
        if not red:
            return None
        pk = min(red)
        lead = red[pk]
        if lead != 1:
            inv = _ONE / lead     # exact for an int lead too
            red = {k: c * inv for k, c in red.items()}
        for _, row in self.pivots:
            _eliminate(row, pk, red)
        insort(self.pivots, (pk, red), key=lambda t: t[0])
        return lead

    def solve(self, vec):
        """Coordinates of vec over the pivot vectors; None if outside."""
        red, coords = self._reduce(vec)
        return None if red else coords


def _eliminate(vec, key, row):
    """Clear a sparse vec at key with a row that is 1 there, in place, and
    return the multiple of row taken (None when vec has no entry at key)."""
    f = vec.pop(key, None)
    if f is not None:
        for k, c in row.items():
            if k != key:
                old = vec.get(k)
                new = -(f * c) if old is None else old - f * c
                if new:
                    vec[k] = new
                else:
                    del vec[k]
    return f


def rref(M: CycMatrix):
    """Reduced row echelon form: (reduced CycMatrix, pivot column list, rank)."""
    span = Span()
    for i in range(M.rows):
        span.add(dict(enumerate(M.row(i))))
    zero = _CYC_ZERO.lift(M.m)
    rows = [[row.get(j, zero) for j in range(M.cols)] for _, row in span.pivots]
    rows += [[zero] * M.cols for _ in range(M.rows - len(rows))]
    return (CycMatrix(M.rows, M.cols, [e for r in rows for e in r]),
            [pk for pk, _ in span.pivots], len(span.pivots))


def kernel(M: CycMatrix) -> list:
    """Basis of the right null space, as lists of Cyc of length M.cols."""
    red, pivots, _ = rref(M)
    free = [j for j in range(M.cols) if j not in pivots]
    basis = []
    for f in free:
        vec = [_CYC_ZERO] * M.cols
        vec[f] = _CYC_ONE
        for r, p in enumerate(pivots):
            vec[p] = -red[r, f]
        basis.append(vec)
    return basis


# -- serialization -----------------------------------------------------------

def rat_to_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def rat_from_str(s) -> Fraction:
    return Fraction(s)


def cyc_to_json(x: Cyc):
    return {"m": x.m, "c": [rat_to_str(c) for c in x.c]}


def cyc_from_json(obj) -> Cyc:
    if type(obj) in (int, str):     # a bool is no entry
        return Cyc.rational(Fraction(obj))
    m = obj.get("m") if isinstance(obj, dict) else None
    if type(m) is not int or m < 1:
        raise ValueError("entry %r is no number or {m, c} with an integer "
                         "conductor m >= 1" % (obj,))
    coeffs = tuple(Fraction(c) for c in obj["c"])
    if m > 2 * len(coeffs) ** 2:    # phi(m) >= sqrt(m / 2), so no phi(m) needed
        raise ValueError("conductor %d needs more than %d coefficients"
                         % (m, len(coeffs)))
    return Cyc(m, coeffs)
