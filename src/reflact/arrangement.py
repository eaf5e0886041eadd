"""
Central hyperplane arrangements as ordered lists of canonical covectors,
with the intersection lattice L(A), flats keyed by A_X = {H : X <= H},
subarrangements, and essentialization.

A hyperplane is stored as its defining covector, scaled so the leftmost
nonzero coordinate is 1.  The arrangement orders hyperplanes by the fixed
lexicographic order on covector coefficient vectors; the NBC machinery in
`osalg` depends on this order, so it is part of the data model.

L(A) is built once per arrangement, on first use, and doubles as its
matroid: every flat is also an int bitmask over the hyperplane indices, and
a join table gives the flat spanned by any flat and any hyperplane.  Rank,
independence, closures, circuits and NBC sets are all read from it with int
lookups.  The lattice is built on the covectors' images modulo a prime,
one elimination on ints per flat and hyperplane, and then certified by
exact rank: a codim-k flat's members must have covectors of rank k, which
one `exactnum.Span` per flat checks.  Exact row reduction happens there,
in `essentialize`, which reads the center from the `Span` of the
covectors, and in a flat's basis, the kernel of its members' covectors,
computed on first use.  A subarrangement A_X is an arrangement of its
own, with its own lattice.
"""

from __future__ import annotations

from functools import partial, wraps
from math import lcm

from .exactnum import (Cyc, CycMatrix, Span, _mod_p, cyc_from_json,
                       cyc_to_json, kernel)

__all__ = [
    "Hyperplane",
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "canonicalize_hyperplane",
    "build_lattice",
    "subarrangement",
    "essentialize",
    "FlatNotInLatticeError",
]


class FlatNotInLatticeError(ValueError):
    pass


def _memo(fn):
    """fn(obj, *args), computed once and kept in obj._memo, keyed by the
    decorated function and args, so a result lives exactly as long as obj
    and pickles with it.  An exception is not kept."""
    @wraps(fn)
    def cached(obj, *args):
        memo, key = obj.__dict__.setdefault("_memo", {}), (cached, *args)
        got = memo.get(key, memo)       # one lookup; memo itself is no result
        if got is memo:
            got = memo[key] = fn(obj, *args)
        return got
    return cached


class Hyperplane:
    """A linear hyperplane ker(alpha) given by its canonical covector.

    Equality and hashing are the Cyc entries': equal values agree at any
    conductors, so `Arrangement.index_of` finds a hyperplane by value."""

    __slots__ = ("covector",)

    def __init__(self, covector):
        self.covector = tuple(covector)

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.covector == other.covector

    def __hash__(self):
        return hash(self.covector)

    def __repr__(self):
        return "Hyperplane(%s)" % (", ".join(str(c) for c in self.covector),)


def canonicalize_hyperplane(raw) -> Hyperplane:
    """Scale a nonzero covector so its leftmost nonzero coordinate is 1."""
    vec = [Cyc._coerce(c) for c in raw]
    lead = next((c for c in vec if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero covector does not define a hyperplane")
    inv = lead.inverse()
    return Hyperplane(tuple(inv * c for c in vec))


class Arrangement:
    """An ordered, duplicate-free list of canonical hyperplanes in C^n."""

    def __init__(self, n: int, hyperplanes):
        hps = list(hyperplanes)
        m = lcm(1, *(c.m for h in hps for c in h.covector))
        lifted = [Hyperplane(tuple(c.lift(m) for c in h.covector)) for h in hps]
        # sort key uses the minimal-conductor canonical form of each entry so
        # the order does not depend on the ambient lcm conductor (otherwise a
        # subarrangement could reorder relative to its parent)
        keyed = sorted(set(lifted),
                       key=lambda h: tuple(c._canonical() for c in h.covector))
        if len(keyed) != len(lifted):
            raise ValueError("duplicate hyperplanes")
        self.n = n
        self.conductor = m
        self.hyperplanes = tuple(keyed)
        self._index = {h: i for i, h in enumerate(keyed)}

    @staticmethod
    def from_covectors(n: int, raws) -> "Arrangement":
        return Arrangement(n, [canonicalize_hyperplane(r) for r in raws])

    def __len__(self):
        return len(self.hyperplanes)

    def covector(self, i: int):
        return self.hyperplanes[i].covector

    def index_of(self, hyperplane: Hyperplane):
        """Index of a canonical hyperplane (at any conductor), or None."""
        return self._index.get(hyperplane)

    def rank(self) -> int:
        return build_lattice(self).rank

    def to_json(self):
        return {
            "dim": self.n,
            "hyperplanes": [[cyc_to_json(c) for c in h.covector]
                            for h in self.hyperplanes],
        }

    @staticmethod
    def from_json(obj) -> "Arrangement":
        return Arrangement.from_covectors(
            int(obj["dim"]),
            [[cyc_from_json(c) for c in row] for row in obj["hyperplanes"]])

    def __repr__(self):
        return "Arrangement(n=%d, %d hyperplanes)" % (self.n, len(self.hyperplanes))


class Flat:
    """A lattice element X, identified by key = {i : X <= H_i}."""

    __slots__ = ("key", "codim", "_basis")

    def __init__(self, key, basis, codim: int):
        self.key = tuple(sorted(key))
        self._basis = basis  # CycMatrix, or a callable computing it on first use
        self.codim = codim

    @property
    def basis(self) -> CycMatrix:
        """Rows spanning X."""
        if callable(self._basis):
            self._basis = self._basis()
        return self._basis

    def __eq__(self, other):
        return isinstance(other, Flat) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def to_json(self):
        return {"key": list(self.key), "codim": self.codim}

    def __repr__(self):
        return "Flat(codim=%d, key=%s)" % (self.codim, self.key)


def _bits(mask):
    """Indices of the set bits of a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class IntersectionLattice:
    """Flats of A grouped by codimension, L(A)_0 ... L(A)_rk, and the matroid
    they define.

    Flat masks are ints with bit i set when H_i contains the flat;
    `masks[k]` lists the codim-k masks in key order, and `join[F][j]` is the
    mask of the flat spanned by F and H_j (F itself when j is in F).  A
    flat's basis is the kernel of its members' covectors.  `prime` is the
    prime whose residuals built L(A).
    """

    def __init__(self, A, masks, join, prime):
        self.masks = masks
        self.join = join
        self.prime = prime
        self.rank = len(masks) - 1
        self.levels = [[Flat(key, partial(_basis_from_rows,
                                          A.n, [A.covector(i) for i in key]), k)
                        for key in map(_bits, level)]
                       for k, level in enumerate(masks)]
        self.by_key = {f.key: f for lv in self.levels for f in lv}
        self.key_of = {F: f.key for level, lv in zip(masks, self.levels)
                       for F, f in zip(level, lv)}

    def closure(self, mono):
        """Mask of the flat spanned by the hyperplanes of an index tuple, or
        None if they are dependent."""
        join = self.join
        F = 0
        for i in mono:
            G = join[F][i]
            if G == F:
                return None
            F = G
        return F

    def all_flats(self):
        return [f for lv in self.levels for f in lv]

    def __len__(self):
        return len(self.by_key)


def _basis_from_rows(n, rows):
    """The rows spanning the common kernel of `rows` in C^n."""
    if not rows:
        return CycMatrix.identity(n)
    space = kernel(CycMatrix.from_rows(rows))
    return CycMatrix.from_rows(space) if space else CycMatrix(0, n, [])


def _cleared_mod_p(res, r, c, p):
    """res with column c cleared by r, whose least key c holds 1, and
    rescaled to leading entry 1, all mod p.  A copy when it changes, because
    a flat shares its residuals with its covers."""
    f = res.get(c)
    if f is None:
        return res
    res = dict(res)
    for k, v in r.items():
        x = (res.get(k, 0) - f * v) % p
        if x:
            res[k] = x
        else:
            del res[k]
    lead = res[min(res)]
    if lead != 1:
        inv = pow(lead, -1, p)
        res = {k: v * inv % p for k, v in res.items()}
    return res


def _covers_mod_p(A, p, image):
    """(masks, join) of L(A) mod p, breadth-first by covers.  Each
    flat F keeps, for every hyperplane H_j outside it, the residual of its
    covector's image as a sparse row {column: int}: zero in the pivot
    columns of the residuals that reached F and scaled to leading entry 1,
    so it depends only on the covector modulo F's span.  Hyperplanes with
    equal residuals span the same cover F v H_j, and its residuals follow
    from F's by one elimination each."""
    nh = len(A)
    # canonical covectors have leading entry 1, and so do their images
    residuals = {0: {j: {k: v for k, v in enumerate(map(image, A.covector(j)))
                         if v}
                     for j in range(nh)}}
    join = {}
    masks = [[0]]
    while True:
        nxt = []
        for F in masks[-1]:
            res_F = residuals.pop(F)
            covers = {}   # residual tag -> [cover mask, residual]
            for j, res in res_F.items():
                tag = frozenset(res.items())
                got = covers.get(tag)
                if got is None:
                    covers[tag] = [F | 1 << j, res]
                else:
                    got[0] |= 1 << j
            row = [F] * nh
            for G, r in covers.values():
                for i in _bits(G & ~F):
                    row[i] = G
                if G not in residuals:
                    c = min(r)
                    residuals[G] = {i: _cleared_mod_p(res, r, c, p)
                                    for i, res in res_F.items()
                                    if not G >> i & 1}
                    nxt.append(G)
            join[F] = tuple(row)
        if not nxt:
            break
        masks.append(sorted(nxt, key=_bits))
    return masks, join


def _exact_rank_is(A, F, k):
    """Whether the members of F, a flat of codim k mod p, have covectors of
    exact rank k; k members do, being independent mod p."""
    members = _bits(F)
    if len(members) == k:
        return True
    span = Span()
    for i in members:
        span.add(dict(enumerate(A.covector(i))))
    return len(span.pivots) == k


@_memo
def build_lattice(A: Arrangement) -> IntersectionLattice:
    """L(A), built on first use and cached on the arrangement: the flats
    from `_covers_mod_p` at a prime p = 1 (mod A.conductor) that divides no
    denominator of a covector, with zeta_m sent to a primitive m-th root of
    unity mod p, certified by exact rank.

    Reduction mod p can only lower rank.  So a mod-p flat of codim k whose
    members have exact rank k is an exact flat: a hyperplane outside it
    raises the mod-p rank, so it raises the exact rank too.  Then every
    join is the exact join, and masks, joins and bases are the exact
    lattice's.  A codim-n flat spans the whole dual space and needs no
    check.  A failed check restarts the build at the next prime."""
    values = [c for h in A.hyperplanes for c in h.covector]
    p = 1 << 30
    while True:
        p, image = _mod_p(values, p)
        masks, join = _covers_mod_p(A, p, image)
        if all(_exact_rank_is(A, F, k)
               for k, level in enumerate(masks[:A.n]) for F in level):
            return IntersectionLattice(A, masks, join, p)


@_memo
def subarrangement(A: Arrangement, X: Flat) -> Arrangement:
    """A_X: the hyperplanes containing X, same ambient space and order,
    cached per flat."""
    if X.key not in build_lattice(A).by_key:
        raise FlatNotInLatticeError("flat %s not in L(A)" % (X.key,))
    return Arrangement(A.n, [A.hyperplanes[i] for i in X.key])


def essentialize(A: Arrangement):
    """Quotient by the center.  Returns (essential arrangement in C^rk,
    projection matrix rk x n with new_covector(P v) = old_covector(v)).
    P's rows are the reduced echelon basis of the covectors' span, and a
    new covector holds the old one's coordinates in that basis."""
    if not A.hyperplanes:
        return Arrangement(0, []), CycMatrix(0, A.n, [])
    span = Span()
    for h in A.hyperplanes:
        span.add(dict(enumerate(h.covector)))
    proj = CycMatrix.from_rows([[row.get(j, Cyc.zero()) for j in range(A.n)]
                                for _, row in span.pivots])
    new_cov = [span.solve(dict(enumerate(h.covector))) for h in A.hyperplanes]
    if any(c is None for c in new_cov):
        raise ArithmeticError("covector outside its own row space")
    return Arrangement.from_covectors(len(span.pivots), new_cov), proj
