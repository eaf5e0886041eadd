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

All coefficients are rational.  Independence, closures, circuits and NBC
sets are int lookups in the arrangement's lattice of flats
(`arrangement.build_lattice`), so no cyclotomic arithmetic happens here.
Spans and ranks of elements come from one sparse rational echelon, `Span`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from .arrangement import Arrangement, build_lattice
from .exactnum import Rat, rat_to_str
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


class _OSContext:
    """Per-arrangement cache: NBC bases, straightening results, trace tables
    and the circuits `circuits()` asks for.  L(A) answers the rest."""

    def __init__(self, A: Arrangement):
        self.A = A
        self.lattice = build_lattice(A)
        self.rank = self.lattice.rank
        self.circuits = None
        self.nbc = {}
        self._nbc_levels = [[((), 0)]]   # per degree: (NBC tuple, flat mask)
        self.memo = {}              # sorted tuple -> {nbc tuple: Fraction}
        self.traces = {}            # (k, perm) -> Fraction

    # -- matroid layer -----------------------------------------------------

    def build_circuits(self):
        """Enumerate circuits: minimal dependent subsets.  BFS over
        independent sets; a dependent extension whose proper subsets are all
        independent is a circuit."""
        if self.circuits is not None:
            return
        nh = len(self.A)
        join = self.lattice.join
        circuits = []
        indep = {()}
        level = [((), 0)]
        for size in range(self.rank + 1):
            nxt = []
            for mono, F in level:
                start = mono[-1] + 1 if mono else 0
                row = join[F]
                for j in range(start, nh):
                    cand = mono + (j,)
                    if row[j] != F:
                        indep.add(cand)
                        nxt.append((cand, row[j]))
                    else:
                        subs = [cand[:i] + cand[i + 1:] for i in range(len(cand))]
                        if all(s in indep for s in subs):
                            circuits.append(cand)
            level = nxt
        circuits.sort()
        self.circuits = circuits

    # -- NBC basis ----------------------------------------------------------

    def nbc_monomials(self, k):
        """NBC k-tuples in lex order.  By Bjorner's criterion an independent
        tuple (s_1 < ... < s_k) has no broken circuit iff s_i is the least
        index in the flat spanned by s_i..s_k for every i, so NBC tuples
        grow leftwards from NBC suffixes."""
        got = self.nbc.get(k)
        if got is not None:
            return got
        levels = self._nbc_levels
        join = self.lattice.join
        while len(levels) <= min(k, self.rank):
            nxt = []
            for T, F in levels[-1]:
                row = join[F]
                for a in range(T[0] if T else len(self.A)):
                    G = row[a]
                    if G != F and not G & ((1 << a) - 1):
                        nxt.append(((a,) + T, G))
            levels.append(nxt)
        mono = sorted(T for T, _ in levels[k]) if 0 <= k <= self.rank else []
        basis = NBCBasis(k, mono)
        self.nbc[k] = basis
        return basis

    # -- straightening -------------------------------------------------------

    def straighten_sorted(self, mono):
        """Image of a strictly increasing tuple, as {nbc tuple: coeff}.

        The suffixes T = mono[i:] are scanned from the right with F = cl(T).
        If a suffix does not grow F, mono is dependent and maps to 0.  At the
        first T whose flat holds an index below mono[i], with a the least,
        d(e_a e_T) = 0 gives e_T = sum_j (-1)^j e_a e_{T - t_j}; a is not in
        mono (mono is independent), so each term sorts by moving a past the
        head mono[:i].  With no such suffix mono is NBC."""
        got = self.memo.get(mono)
        if got is not None:
            return got
        join = self.lattice.join
        F, cut = 0, None
        for i in range(len(mono) - 1, -1, -1):
            G = join[F][mono[i]]
            if G == F:
                self.memo[mono] = {}
                return {}
            F = G
            if cut is None and F & ((1 << mono[i]) - 1):
                cut = i, (F & -F).bit_length() - 1
        if cut is None:
            out = {mono: _ONE}
        else:
            i, a = cut
            p = bisect_left(mono, a)
            stem = mono[:p] + (a,) + mono[p:i]
            sign = _ONE if (i - p) % 2 == 0 else -_ONE
            out = {}
            for j in range(i, len(mono)):
                for mm, cc in self.straighten_sorted(
                        stem + mono[i:j] + mono[j + 1:]).items():
                    out[mm] = out.get(mm, _ZERO) + sign * cc
                sign = -sign
            out = {mm: cc for mm, cc in out.items() if cc}
        self.memo[mono] = out
        return out

    # -- traces ---------------------------------------------------------------

    def trace(self, k, perm):
        got = self.traces.get((k, perm))
        if got is not None:
            return got
        basis = self.nbc_monomials(k)
        total = _ZERO
        for mono in basis.monomials:
            img = tuple(perm[i] for i in mono)
            srt, sign = _sort_with_sign(img)
            if srt is None:
                continue
            coeff = self.straighten_sorted(srt).get(mono)
            if coeff:
                total += sign * coeff
        self.traces[(k, perm)] = total
        return total


def _sort_with_sign(mono):
    """(sorted tuple, sign) or (None, 0) on repeated index."""
    lst = list(mono)
    n = len(lst)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, n):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, n):
        if lst[i - 1] == lst[i]:
            return None, 0
    return tuple(lst), (_ONE if sign == 1 else -_ONE)


def _ctx(A: Arrangement) -> _OSContext:
    if A._os is None:
        A._os = _OSContext(A)
    return A._os


def circuits(A: Arrangement):
    ctx = _ctx(A)
    ctx.build_circuits()
    return list(ctx.circuits)


def nbc_basis(A: Arrangement, k: int) -> NBCBasis:
    if not (0 <= k <= _ctx(A).rank):
        raise ValueError("degree %d out of range 0..%d" % (k, _ctx(A).rank))
    return _ctx(A).nbc_monomials(k)


def straighten(A: Arrangement, mono) -> OSElement:
    """Image of an arbitrary monomial h_{i1}...h_{ik} in the NBC basis."""
    mono = tuple(mono)
    srt, sign = _sort_with_sign(mono)
    if srt is None:
        return OSElement(len(mono), {})
    ctx = _ctx(A)
    red = ctx.straighten_sorted(srt)
    return OSElement(len(mono), {m: sign * c for m, c in red.items()})


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
    perm = hyperplane_action(G, A).perms[g]
    return _ctx(A).trace(k, perm)


def perm_trace(A: Arrangement, perm, k: int) -> Fraction:
    """Trace on NBCBasis(k) of the map induced by a hyperplane permutation."""
    return _ctx(A).trace(k, tuple(perm))


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
    out = OSElement(x.k, {})
    for m, c in x.coeffs.items():
        out = out + straighten(A, tuple(perm[i] for i in m)).scale(c)
    return out


def euler_derivation(A: Arrangement, x: OSElement) -> OSElement:
    """The degree -1 derivation d(h_1...h_k) = sum_i (-1)^{i-1}
    h_1...h_i^...h_k, extended linearly and straightened."""
    if x.k < 1:
        raise ValueError("euler_derivation needs degree >= 1")
    out = OSElement(x.k - 1, {})
    for m, c in x.coeffs.items():
        for i in range(len(m)):
            sign = _ONE if i % 2 == 0 else -_ONE
            term = straighten(A, m[:i] + m[i + 1:])
            out = out + term.scale(sign * c)
    return out


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


class Span:
    """Incremental span of sparse rational vectors {key: Fraction}, in
    echelon form: a new vector is reduced against the pivots in insertion
    order and, if it is not in the span, kept normalized at its least key."""

    def __init__(self):
        self.pivots = []   # (pivot key, normalized reduced vector)

    def _reduce(self, vec):
        vec = dict(vec)
        coords = [_ZERO] * len(self.pivots)
        for i, (pk, pv) in enumerate(self.pivots):
            f = vec.get(pk)
            if f:
                coords[i] = f
                for m, c in pv.items():
                    vec[m] = vec.get(m, _ZERO) - f * c
        return {m: c for m, c in vec.items() if c}, coords

    def add(self, vec):
        """Insert if independent; returns True when the vector was new."""
        red, _ = self._reduce(vec)
        if not red:
            return False
        pk = min(red)
        self.pivots.append((pk, {m: c / red[pk] for m, c in red.items()}))
        return True

    def solve(self, vec):
        """Coordinates of vec over the pivot vectors; None if outside."""
        red, coords = self._reduce(vec)
        return None if red else coords


def rank_of_elements(elements):
    """Rank of OSElements of equal degree: the pivots of their Span."""
    span = Span()
    for el in elements:
        span.add(el.coeffs)
    return len(span.pivots)
