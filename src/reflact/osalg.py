"""
The Orlik-Solomon algebra of an arrangement over Q.

Generators h_H, one per hyperplane, modulo the relations

    sum_{i=1}^m (-1)^i h_1 ... h_i^ ... h_m = 0

for every dependent set {h_1 < ... < h_m}.  Each graded piece H^k carries
the deterministic no-broken-circuit (NBC) monomial basis.  By Bjorner's
criterion an increasing independent tuple (s_1 < ... < s_k) is NBC iff each
s_i is the least index of the flat spanned by s_i..s_k.  Straightening
rewrites the first suffix that breaks the criterion with the relation of
that suffix plus the least index of its flat; every rewrite replaces an
index by a strictly smaller one, so it terminates by lexicographic descent.

The relations have coefficients +-1, so straightening only adds and
subtracts: the straightening memo and the traces hold ints, and the public
results (`straighten`, `apply_perm`, `euler_derivation`, `perm_trace`,
`action_trace`) are `Fraction`s.  Independence, closures, circuits and NBC
sets are int lookups in the arrangement's lattice of flats
(`arrangement.build_lattice`), so no cyclotomic arithmetic happens here.
Each fact (circuits, the NBC bases of all degrees, the straightening memo,
each trace) is one `arrangement._memo` entry on its arrangement.
Spans and ranks of elements come from the package's one exact echelon,
`exactnum.Span`, which this module re-exports.  Signs are the ints +-1, so
a coefficient times a sign stays a `Fraction` without building -1.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from .arrangement import Arrangement, _memo, build_lattice
from .exactnum import Span, rat_to_str
from .groups import MatrixGroup, hyperplane_action

__all__ = [
    "NBCBasis",
    "OSElement",
    "BrieskornComponent",
    "Span",
    "circuits",
    "nbc_basis",
    "straighten",
    "action_matrix",
    "action_trace",
    "perm_trace",
    "closure_key",
    "apply_perm",
    "rank_of_elements",
    "euler_derivation",
    "brieskorn_components",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NBCBasis:
    __slots__ = ("degree", "monomials", "position")

    def __init__(self, degree, monomials):
        self.degree = degree
        self.monomials = tuple(monomials)
        self.position = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)


class OSElement:
    """Degree-homogeneous element in NBC coordinates (sparse)."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k, coeffs):
        self.k = k
        self.coeffs = {m: c for m, c in coeffs.items() if c}

    def is_zero(self):
        return not self.coeffs

    def _check_degree(self, other):
        if self.k != other.k:
            raise ValueError("degrees %d and %d differ" % (self.k, other.k))

    def __add__(self, other):
        self._check_degree(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, _ZERO) + c
        return OSElement(self.k, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, f):
        f = Fraction(f)
        return OSElement(self.k, {m: f * c for m, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, OSElement) and (self.k, self.coeffs) == (other.k, other.coeffs)

    def __hash__(self):
        return hash((self.k, tuple(sorted(self.coeffs.items()))))

    def to_json(self):
        return {"k": self.k,
                "terms": [{"mono": list(m), "coef": rat_to_str(c)}
                          for m, c in sorted(self.coeffs.items())]}

    def __repr__(self):
        if not self.coeffs:
            return "OSElement(%d, 0)" % self.k
        return "OSElement(%d, %s)" % (
            self.k, " + ".join("%s*h%s" % (c, list(m))
                               for m, c in sorted(self.coeffs.items())))


class BrieskornComponent:
    __slots__ = ("flat", "degree", "spanning")

    def __init__(self, flat, degree, spanning):
        self.flat = flat
        self.degree = degree
        self.spanning = spanning  # dict: monomial tuple -> OSElement

    def dimension(self):
        return rank_of_elements(self.spanning.values())


@_memo
def _circuits(A: Arrangement):
    """Circuits, minimal dependent subsets, sorted.  BFS over independent
    sets; a dependent extension whose proper subsets are all independent is
    a circuit."""
    lattice = build_lattice(A)
    circuits = []
    level = [((), 0)]
    while level:
        nxt = []
        for mono, F in level:
            start = mono[-1] + 1 if mono else 0
            row = lattice.join[F]
            for j in range(start, len(A)):
                cand = mono + (j,)
                if row[j] != F:
                    nxt.append((cand, row[j]))
                elif all(lattice.closure(cand[:i] + cand[i + 1:]) is not None
                         for i in range(len(mono))):
                    circuits.append(cand)
        level = nxt
    return sorted(circuits)


@_memo
def _nbc_levels(A: Arrangement):
    """The NBC bases of degrees 0..rk, each in lex order.  By Bjorner's
    criterion an independent tuple (s_1 < ... < s_k) has no broken circuit
    iff s_i is the least index in the flat spanned by s_i..s_k for every i,
    so NBC tuples grow leftwards from NBC suffixes."""
    join = build_lattice(A).join
    levels = [[((), 0)]]   # per degree: (NBC tuple, flat mask)
    for _ in range(A.rank()):
        nxt = []
        for T, F in levels[-1]:
            row = join[F]
            for a in range(T[0] if T else len(A)):
                G = row[a]
                if G != F and not G & ((1 << a) - 1):
                    nxt.append(((a,) + T, G))
        levels.append(nxt)
    return [NBCBasis(k, sorted(T for T, _ in level))
            for k, level in enumerate(levels)]


@_memo
def _straightening(A: Arrangement):
    """The memo, sorted tuple -> image, and join table of A's straightening."""
    return {}, build_lattice(A).join


def _straighten_sorted(mono, memo, join):
    """Image of a strictly increasing tuple, as {nbc tuple: coeff}.

    The suffixes T = mono[i:] are scanned from the right with F = cl(T).
    If a suffix does not grow F, mono is dependent and maps to 0.  At the
    first T whose flat holds an index below mono[i], with a the least,
    d(e_a e_T) = 0 gives e_T = sum_j (-1)^j e_a e_{T - t_j}; a is not in
    mono (mono is independent), so each term sorts by moving a past the
    head mono[:i].  With no such suffix mono is NBC."""
    got = memo.get(mono)
    if got is not None:
        return got
    F, cut = 0, None
    for i in range(len(mono) - 1, -1, -1):
        G = join[F][mono[i]]
        if G == F:
            memo[mono] = {}
            return {}
        F = G
        if cut is None and F & ((1 << mono[i]) - 1):
            cut = i, (F & -F).bit_length() - 1
    if cut is None:
        out = {mono: 1}
    else:
        i, a = cut
        p = bisect_left(mono, a)
        stem = mono[:p] + (a,) + mono[p:i]
        sign = 1 if (i - p) % 2 == 0 else -1
        out = {}
        for j in range(i, len(mono)):
            for mm, cc in _straighten_sorted(
                    stem + mono[i:j] + mono[j + 1:], memo, join).items():
                out[mm] = out.get(mm, 0) + sign * cc
            sign = -sign
        out = {mm: cc for mm, cc in out.items() if cc}
    memo[mono] = out
    return out


@_memo
def _trace(A: Arrangement, k, perm) -> int:
    """Trace on NBCBasis(k) of a hyperplane permutation, 0 outside 0..rk."""
    levels = _nbc_levels(A)
    if not 0 <= k < len(levels):
        return 0
    memo, join = _straightening(A)
    total = 0
    for mono in levels[k].monomials:
        img = tuple(perm[i] for i in mono)
        srt, sign = _sort_with_sign(img)
        if srt is None:
            continue
        coeff = _straighten_sorted(srt, memo, join).get(mono)
        if coeff:
            total += sign * coeff
    return total


def _sort_with_sign(mono):
    """(sorted tuple, sign +-1) or (None, 0) on repeated index."""
    lst = list(mono)
    sign = 1
    # insertion sort, counting swaps; an index stops next to an equal one
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return None, 0
    return tuple(lst), sign


def circuits(A: Arrangement):
    return list(_circuits(A))


def nbc_basis(A: Arrangement, k: int) -> NBCBasis:
    levels = _nbc_levels(A)
    if not 0 <= k < len(levels):
        raise ValueError("degree %d out of range 0..%d" % (k, len(levels) - 1))
    return levels[k]


def straighten(A: Arrangement, mono) -> OSElement:
    """Image of an arbitrary monomial h_{i1}...h_{ik} in the NBC basis."""
    mono = tuple(mono)
    return _straighten_sum(A, len(mono), [(mono, _ONE)])


def _straighten_sum(A: Arrangement, k: int, terms) -> OSElement:
    """sum of c * straighten(A, mono) over (mono, c) pairs, accumulated in
    one dict; the memo's coefficients are ints, so int weights c give an
    int sum and `Fraction` weights a `Fraction` one."""
    memo, join = _straightening(A)
    out = {}
    for mono, c in terms:
        srt, sign = _sort_with_sign(mono)
        if srt is not None:
            c = sign * c
            for m, v in _straighten_sorted(srt, memo, join).items():
                out[m] = out.get(m, 0) + c * v
    return OSElement(k, out)


def action_matrix(A: Arrangement, G: MatrixGroup, g: int, k: int):
    """Matrix of g on NBCBasis(k): column j is straighten(g . monomial_j).
    Returned as a dense list of rows of Fractions."""
    perm = hyperplane_action(G, A).perms[g]
    basis = nbc_basis(A, k)
    rows = [[_ZERO] * len(basis) for _ in basis.monomials]
    for j, mono in enumerate(basis.monomials):
        for m, c in straighten(A, tuple(perm[i] for i in mono)).coeffs.items():
            rows[basis.position[m]][j] = c
    return rows


def action_trace(A: Arrangement, G: MatrixGroup, g: int, k: int) -> Fraction:
    return perm_trace(A, hyperplane_action(G, A).perms[g], k)


def perm_trace(A: Arrangement, perm, k: int) -> Fraction:
    """Trace on NBCBasis(k) of the map induced by a hyperplane permutation."""
    return Fraction(_trace(A, k, tuple(perm)))


def closure_key(A: Arrangement, mono):
    """Flat key (all hyperplanes containing the intersection) of an
    independent monomial."""
    lattice = build_lattice(A)
    F = lattice.closure(tuple(sorted(mono)))
    if F is None:
        raise ValueError("monomial %s is dependent" % (mono,))
    return lattice.key_of[F]


def apply_perm(A: Arrangement, perm, x: OSElement) -> OSElement:
    """Image of an OSElement under a hyperplane permutation."""
    return _straighten_sum(A, x.k, ((tuple(perm[i] for i in m), c)
                                    for m, c in x.coeffs.items()))


def euler_derivation(A: Arrangement, x: OSElement) -> OSElement:
    """The degree -1 derivation d(h_1...h_k) = sum_i (-1)^{i-1}
    h_1...h_i^...h_k, extended linearly and straightened."""
    if x.k < 1:
        raise ValueError("euler_derivation needs degree >= 1")
    return _straighten_sum(A, x.k - 1, ((m[:i] + m[i + 1:], -c if i % 2 else c)
                                        for m, c in x.coeffs.items()
                                        for i in range(len(m))))


def brieskorn_components(A: Arrangement, k: int):
    """One component per codim-k flat X: the span of all increasing
    independent k-tuples with intersection exactly X."""
    lattice = build_lattice(A)
    if not (0 <= k <= lattice.rank):
        raise ValueError("degree out of range")
    comps = {f.key: {} for f in lattice.levels[k]}
    for mono in combinations(range(len(A)), k):
        F = lattice.closure(mono)
        if F is not None:
            comps[lattice.key_of[F]][mono] = straighten(A, mono)
    return [BrieskornComponent(f, k, comps[f.key]) for f in lattice.levels[k]]


def rank_of_elements(elements):
    """Rank of OSElements of equal degree: the pivots of their Span."""
    span = Span()
    for el in elements:
        span.add(el.coeffs)
    return len(span.pivots)
