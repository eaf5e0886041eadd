"""
Finite matrix groups over cyclotomic fields: breadth-first closure
enumeration, reflection detection, reflection arrangements, the permutation
action on hyperplanes and flats, orbits and stabilizers Z_T / N_T, centers,
conjugacy and rational classes, and linear characters from the integer
relations of the Cayley graph.

A finite G acts faithfully on the orbit of e_1..e_n, which spans C^n.  An
element is a permutation of that orbit, identified by its images of
e_1..e_n; orbit vectors are found by value, with entries at the
generators' conductor.  Permutations of at most 256 points are bytes,
composed by one `bytes.translate`; longer ones are int tuples.
The element order is fixed by the BFS (identity first, generators in the
given order), which makes indices, orbits and stabilizer index sets
deterministic.  The BFS keeps its Cayley table: classes close over one
conjugation table per generator, and characters solve its relations packed
one int per edge.  Reflections are screened by rank modulo a prime.
Before the BFS, each generator must pass the tests that decide finite
order: its determinant is a root of unity, g^L = I modulo a prime
p = 1 (mod m), with L a multiple of every finite order in dimension n over
Q(zeta_m), and g^k = I exactly for k its order modulo p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul

from .arrangement import (Arrangement, Flat, _memo, build_lattice,
                          canonicalize_hyperplane)
from .exactnum import (Cyc, CycMatrix, Span, _mod_p, _power, _prime_factors,
                       cyc_from_json, euler_phi, rref)

__all__ = [
    "MatrixGroup",
    "LinearCharacter",
    "OrbitDatum",
    "OrderCapExceededError",
    "NotStableError",
    "generate",
    "reflections",
    "reflection_arrangement",
    "orbits_on_lattice",
    "pointwise_stabilizer",
    "setwise_stabilizer",
    "center",
    "conjugacy_classes",
    "hyperplane_action",
    "linear_characters",
    "determinant_like_characters",
    "det_character",
    "group_from_json",
]

DEFAULT_ORDER_CAP = 100_000


class OrderCapExceededError(RuntimeError):
    pass


class NotStableError(ValueError):
    pass


class MatrixGroup:
    """A finite subgroup of GL_n(Q(zeta_m)), fully enumerated.

    `vectors` is the G-orbit of e_1..e_n, those first, with entries at
    conductor m.  Element k sends vectors[x] to vectors[perms[k][x]]; its
    images of e_1..e_n, perms[k][:n], are its matrix columns and identify it.
    perms[k] is bytes when there are at most 256 vectors, else an int tuple.
    cayley[k][t] is the index of element k times generator t.  `matrix(k)`
    builds element k's matrix on demand; `elements` lists them all, built
    on first read."""

    def __init__(self, n, m, vectors, perms, cayley, parents):
        self.n = n
        self.m = m
        self.vectors = vectors
        self.perms = perms
        self.cayley = cayley
        self.generators = cayley[0]       # list of element indices
        self.parents = parents            # index -> (parent index, generator index)
        self.order = len(perms)
        self._seq, self._compose = _perm_ops(len(vectors))
        self._index = {p[:n]: k for k, p in enumerate(perms)}
        self.inverse = [self._index[self._seq(map(p.index, range(n)))]
                        for p in perms]

    def matrix(self, i: int) -> CycMatrix:
        """Element i's matrix, whose columns are its orbit vectors."""
        n = self.n
        cols = [self.vectors[x] for x in self.perms[i][:n]]
        return CycMatrix(n, n, [c[r] for r in range(n) for c in cols])

    @cached_property
    def elements(self):
        return [self.matrix(i) for i in range(self.order)]

    def mul(self, i: int, j: int) -> int:
        return self._index[self._compose(self.perms[i], self.perms[j][:self.n])]

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            k += 1
        return k

    def contains_matrix(self, M: CycMatrix):
        """Index of the element whose matrix is M, at any conductor, or None."""
        if (M.rows, M.cols) != (self.n, self.n):
            return None
        pos = {v: x for x, v in enumerate(self.vectors)}
        cols = [pos.get(c) for c in zip(*M.row_list())]
        return None if None in cols else self._index.get(self._seq(cols))

    def __repr__(self):
        return "MatrixGroup(n=%d, order=%d)" % (self.n, self.order)


def _translate(p, g):
    return g.translate(p.ljust(256, b"\0"))


def _lookup(p, g):
    return tuple(map(p.__getitem__, g))


def _perm_ops(size):
    """The sequence type of a permutation of `size` points and its product
    (p, g) -> p * g, (p * g)[x] = p[g[x]]: up to 256 points, bytes and one
    `bytes.translate` by p padded to a full table; above, int tuples."""
    return (bytes, _translate) if size <= 256 else (tuple, _lookup)


def _closure(seeds, gens, act, cap, key=None):
    """Breadth-first closure of `seeds` under x -> act(x, g), g in `gens` in
    order, with items compared by key(x) (default: the item).  Returns the
    items in discovery order, edges[x][s] = index of act(items[x], gens[s]),
    and for each non-seed item the (item, generator) pair that found it.
    Each seed has at most |G| images, so more than len(seeds) * cap items
    means |G| > cap."""
    key = key or (lambda x: x)
    items = list(seeds)
    index = {key(x): i for i, x in enumerate(items)}
    edges, parents = [], []
    for i, x in enumerate(items):   # also visits the items appended below
        row = []
        for s, g in enumerate(gens):
            y = act(x, g)
            j = index.setdefault(key(y), len(items))
            if j == len(items):
                if j >= len(seeds) * cap:
                    raise OrderCapExceededError("group order exceeds cap %d" % cap)
                items.append(y)
                parents.append((i, s))
            row.append(j)
        edges.append(row)
    return items, edges, parents


def _order_bound(n: int, m: int) -> int:
    """L = lcm{k : phi(lcm(m, k)) <= n phi(m)}, a multiple of the order of
    every matrix of finite order in GL_n(Q(zeta_m)): its eigenvalues are
    roots of unity of degree at most n over Q(zeta_m).  L is the product,
    over primes p, of the largest qualifying power of p; a prime above
    n + 1 that does not divide m multiplies phi(m) by p - 1 > n."""
    bound, L = n * euler_phi(m), 1
    for p in set(_prime_factors(m)).union(*map(_prime_factors, range(2, n + 2))):
        q = p
        while euler_phi(m * q // gcd(m, q)) <= bound:
            q *= p
        L *= q // p
    return L


def _dimension_needed(k: int, m: int) -> int:
    """A lower bound on the dimension of a matrix of order k over Q(zeta_m).
    Each prime power q^e exactly dividing k divides the order of some
    eigenvalue, whose Galois orbit over Q(zeta_m) has a size that is a
    multiple of c = phi(lcm(m, q^e)) / phi(m); the c of one eigenvalue
    multiply, and a product of numbers >= 2 is at least their sum."""
    need = 0
    for q in _prime_factors(k):
        qe = q
        while k % (qe * q) == 0:
            qe *= q
        c = euler_phi(lcm(m, qe)) // euler_phi(m)
        need += c if c > 1 else 0
    return need


def _order_mod_p(g: CycMatrix, L: int):
    """(p, k) for a prime p = 1 (mod m) that divides no denominator of g,
    with k the order of g modulo p if it divides L, else None.  zeta_m -> w,
    a primitive m-th root of unity mod p, is a ring map, so None proves
    g^L != I.  As p is odd and prime to m, no element of finite order other
    than I is I modulo p, so a g of finite order has order k."""
    n = g.rows
    p, image = _mod_p(g.entries)
    g_p = [[image(e) for e in g.row(i)] for i in range(n)]

    def times(a, b):
        return [[sum(map(mul, r, c)) % p for c in zip(*b)] for r in a]

    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if _power(g_p, L, times, ident) != ident:
        return p, None
    k = L
    for q in _prime_factors(L):
        while k % q == 0 and _power(g_p, k // q, times, ident) == ident:
            k //= q
    return p, k


def generate(gens, dim=None, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Enumerate the group generated by square invertible matrices by
    breadth-first closure from the identity, generators in the given order.
    The closure runs on permutations of the orbit of e_1..e_n, so exact
    arithmetic is needed only for generator times orbit vector.

    A singular generator raises ValueError.  Before the closure, three
    tests refuse a generator of infinite order with OrderCapExceededError.
    First, its determinant must be a root of unity (of order dividing
    lcm(2, m) in Q(zeta_m)), which costs no matrix product.  Second, g^L
    must be I modulo a prime p = 1 (mod m), where L = `_order_bound(n, m)`
    is a multiple of every finite order, and the order k of g modulo p must
    be one that a matrix of finite order can have in dimension n
    (`_dimension_needed`).  Third, g^k must be I exactly: a g of finite
    order has order k, and its powers are elements of G.  A k above the
    order cap exceeds the cap before any exact power."""
    gens = list(gens)
    if gens:
        dim = gens[0].rows
    if dim is None or dim < 0:
        raise ValueError("the trivial group needs a dimension >= 0")
    for i, g in enumerate(gens):
        if g.rows != g.cols or g.rows != dim:
            raise ValueError("generators must be square of equal dimension")
        det = _det(g)
        if not det:
            raise ValueError("singular generator %d" % i)
        if det ** (2 * g.m // gcd(2, g.m)) != Cyc.one():
            raise OrderCapExceededError(
                "generator %d has infinite order (its determinant is not a "
                "root of unity), so it exceeds any order cap" % i)
        L = _order_bound(dim, g.m)
        p, k = _order_mod_p(g, L)
        if k is None or _dimension_needed(k, g.m) > dim:
            raise OrderCapExceededError(
                "generator %d has infinite order (its order modulo %d is "
                "no order of a matrix of finite order in dimension %d), "
                "so it exceeds any order cap" % (i, p, dim))
        if k > order_cap:
            raise OrderCapExceededError(
                "group order exceeds cap %d (generator %d has order %d "
                "modulo %d)" % (order_cap, i, k, p))
        if not _power(g, k, CycMatrix.__mul__, CycMatrix.identity(dim)).is_identity():
            raise OrderCapExceededError(
                "generator %d has infinite order (g^%d is I modulo %d but "
                "not exactly), so it exceeds any order cap" % (i, k, p))
    m = lcm(1, *(g.m for g in gens))
    one, zero = Cyc.one().lift(m), Cyc.zero().lift(m)
    basis = [tuple(one if i == j else zero for i in range(dim))
             for j in range(dim)]
    vectors, images, _ = _closure(
        basis, gens, lambda v, g: tuple(c.lift(m) for c in g.apply(v)),
        order_cap)
    seq, compose = _perm_ops(len(vectors))
    perms, cayley, parents = _closure(
        [seq(range(len(vectors)))], [seq(g) for g in zip(*images)],
        compose, order_cap, key=lambda p: p[:dim])
    return MatrixGroup(dim, m, vectors, perms, cayley, [(-1, -1)] + parents)


def group_from_json(obj, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Build a group from the ingestion schema
    {"conductor": m, "dim": n, "generators": [[[Cyc...]...]...]}."""
    try:
        n = obj["dim"]
        gens = [CycMatrix.from_rows([[cyc_from_json(e) for e in row] for row in mat])
                for mat in obj["generators"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError("malformed group file: %s" % exc)
    if type(n) is not int or n < 0:     # a bool is no dimension either
        raise ValueError("malformed group file: dim %r is not an integer "
                         ">= 0" % (n,))
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("malformed group file: generator shape")
    return generate(gens, dim=n, order_cap=order_cap)


@_memo
def reflections(G: MatrixGroup):
    """All elements whose fixed space has codimension 1, with Fix(r) as a
    canonical Hyperplane, by element index.  rank(g - I) is a class
    function, and Fix(g^j) = Fix(g) for j prime to the order of g, so one
    test per rational class (`_rational_classes`) decides.  Reduction
    modulo a prime p that divides no denominator of `vectors` cannot raise
    a rank, so g - I, whose column j is vectors[perms[g][j]] - vectors[j],
    must have rank <= 1 mod p before an exact rref decides."""
    def rows(i):
        """Rows of g_i - I."""
        return [[e - 1 if r == j else e for j, e in enumerate(row)]
                for r, row in enumerate(G.matrix(i).row_list())]

    def rank_one(g):
        cols = [[a - b for a, b in zip(vecs[x], vecs[j])]
                for j, x in enumerate(G.perms[g][:G.n])]
        return all((a[i] * b[k] - a[k] * b[i]) % p == 0
                   for a, b in combinations(cols, 2)
                   for i, k in combinations(range(G.n), 2)) \
            and rref(CycMatrix.from_rows(rows(g)))[2] == 1

    p, image = _mod_p([c for v in G.vectors for c in v])
    vecs = [[image(c) for c in v] for v in G.vectors]
    reps = _rational_classes(G)     # 0 only at the identity's class
    keep = {g: rank_one(g) for g in set(reps) if g}
    out = [(i, canonicalize_hyperplane(next(r for r in rows(i) if any(r))))
           for cls, g in zip(conjugacy_classes(G), reps) if g and keep[g]
           for i in cls]
    return sorted(out, key=lambda t: t[0])


@_memo
def reflection_arrangement(G: MatrixGroup) -> Arrangement:
    """The reflecting hyperplanes of G, in the order Arrangement fixes."""
    return Arrangement(G.n, {h for _, h in reflections(G)})


class _Action:
    """Cached permutation action of a group on an arrangement's hyperplanes.
    A generator's image of a covector is canonicalized and found by value
    with `Arrangement.index_of`.  `generators`, `perms` and `compose` are
    the generators' and each element's permutation and their product, as
    `_perm_ops` gives them; `fibers` maps each distinct permutation to the
    elements inducing it, in order of first occurrence."""

    def __init__(self, G: MatrixGroup, A: Arrangement):
        if G.n != A.n:
            raise NotStableError("group acts on C^%d, arrangement lives in C^%d"
                                 % (G.n, A.n))
        seq, self.compose = _perm_ops(len(A))
        self.generators = []
        for gi in G.generators:
            inv = G.matrix(G.inverse[gi])
            perm = [A.index_of(canonicalize_hyperplane(inv.apply_row(list(c))))
                    for c in map(A.covector, range(len(A)))]
            if None in perm:
                raise NotStableError("generator %d maps hyperplane %d outside "
                                     "A" % (gi, perm.index(None)))
            self.generators.append(seq(perm))
        self.perms = _along_parents(G, seq(range(len(A))), lambda p, t:
                                    self.compose(p, self.generators[t]))
        self.fibers = {}
        for g, p in enumerate(self.perms):
            self.fibers.setdefault(p, []).append(g)


@_memo
def hyperplane_action(G: MatrixGroup, A: Arrangement) -> _Action:
    """Permutations of A induced by every group element (g sends H to gH)."""
    return _Action(G, A)


@_memo
def orbits_on_lattice(G: MatrixGroup, A: Arrangement):
    """Disjoint orbits of G on L(A), each with representative (lex least
    key).  An orbit is the `_closure` of the representative's key under the
    generators' hyperplane permutations, |orbit| x #generators images, each
    key paired with its transport: the product of the generators along its
    BFS path, which carries the representative onto it."""
    lattice, action = build_lattice(A), hyperplane_action(G, A)

    def act(kx, g):
        return tuple(sorted(g[i] for i in kx[0])), action.compose(g, kx[1])

    orbits, seen = [], set()
    # flats come by codim, then key, so each orbit's first flat is its least
    for rep in lattice.all_flats():
        if rep.key in seen:
            continue
        transport = dict(_closure([(rep.key, action.perms[0])],
                                  action.generators, act, G.order,
                                  key=lambda kx: kx[0])[0])
        seen.update(transport)
        members = [lattice.by_key[k] for k in sorted(transport)]
        orbits.append(OrbitDatum(rep, members, G, action.fibers, transport))
    return orbits


def _fixes_pointwise(G: MatrixGroup, i: int, X: Flat) -> bool:
    g = G.elements[i]
    return all(g.apply(row) == row for row in X.basis.row_list())


class OrbitDatum:
    """A lattice orbit with stabilizers N (setwise) and Z (pointwise) of its
    representative, made on first read: N is the union of the fibers of
    the permutations fixing the representative's key, Z takes cyclotomic
    products.  `transport` maps each member's key to a hyperplane
    permutation of G carrying the representative onto it (the identity at
    the representative), as `orbits_on_lattice` finds it."""

    def __init__(self, representative, orbit, G, fibers, transport):
        self.representative = representative
        self.orbit = orbit
        self._G = G
        self._fibers = fibers
        self.transport = transport
        self.codim = representative.codim

    @cached_property
    def N(self) -> frozenset:
        key = set(self.representative.key)
        return frozenset(g for p, gs in self._fibers.items()
                         if key.issuperset(map(p.__getitem__, key))
                         for g in gs)

    @cached_property
    def Z(self) -> frozenset:
        return frozenset(i for i in self.N
                         if _fixes_pointwise(self._G, i, self.representative))

    def __repr__(self):
        return "OrbitDatum(codim=%d, rep=%s, |orbit|=%d, |N|=%d)" % (
            self.codim, self.representative.key, len(self.orbit), len(self.N))


def pointwise_stabilizer(G: MatrixGroup, X: Flat) -> frozenset:
    return frozenset(i for i in range(G.order) if _fixes_pointwise(G, i, X))


def setwise_stabilizer(G: MatrixGroup, X: Flat) -> frozenset:
    """Elements mapping the subspace X to itself."""
    rows = X.basis.row_list()
    span = Span()
    for row in rows:
        span.add(dict(enumerate(row)))
    return frozenset(i for i, g in enumerate(G.elements)
                     if all(span.solve(dict(enumerate(g.apply(row)))) is not None
                            for row in rows))


def center(G: MatrixGroup) -> frozenset:
    """The elements whose conjugacy class is a singleton."""
    return frozenset(cls[0] for cls in conjugacy_classes(G) if len(cls) == 1)


@_memo
def conjugacy_classes(G: MatrixGroup):
    """Partition of the element indices into conjugacy classes, each sorted;
    classes ordered by least member.  A class is the closure under
    x -> g_t^-1 x g_t, one table per generator read from the Cayley table
    as inv[cayley[inv[cayley[x][t]]][t]], grown by a set frontier."""
    cay, inv = G.cayley, G.inverse
    tables = [[inv[cay[inv[row[t]]][t]] for row in cay]
              for t in range(len(G.generators))]
    seen, classes = set(), []
    for i in range(G.order):
        if i not in seen:
            cls = new = {i}
            while new:
                new = {c[x] for c in tables for x in new} - cls
                cls = cls | new
            seen |= cls
            classes.append(sorted(cls))
    return classes


@_memo
def _rational_classes(G: MatrixGroup):
    """For each conjugacy class, the least member of the first class in its
    rational class: the union of the classes of g^j, j prime to the order
    of g, whose members generate the conjugates of <g>.  A character
    afforded over Q takes one value there, and g^j fixes what g fixes."""
    return _merge_powers(conjugacy_classes(G), G.perms, G._compose)


@_memo
def _action_classes(G: MatrixGroup, A: Arrangement):
    """`_rational_classes` of G/K, the image of G in Sym(A): a trace on
    H^*(M(A)) is a function of g's hyperplane permutation, whose order can
    be below g's, so the powers are walked on permutations."""
    action = hyperplane_action(G, A)
    return _merge_powers(conjugacy_classes(G), action.perms, action.compose)


def _merge_powers(classes, perms, compose):
    """For each class, the least member of the first class in its rational
    class: one walk of the powers of that class's permutation p merges the
    classes holding p^j, j prime to the order of p.  Classes come in order
    of least member; two hold the same permutations or share none, so one
    label per permutation names them all."""
    label = {perms[x]: c for c, cls in enumerate(classes) for x in cls}
    reps = {}                           # label -> representative
    for cls in classes:
        walk = [perms[cls[0]]]          # p, p^2, ..., p^o = the identity
        if label[walk[0]] not in reps:
            while walk[-1] != perms[0]:
                walk.append(compose(walk[-1], walk[0]))
            for j, q in enumerate(walk, 1):
                if gcd(j, len(walk)) == 1:
                    reps[label[q]] = cls[0]
    return [reps[label[perms[cls[0]]]] for cls in classes]


class LinearCharacter:
    """A homomorphism G -> C^*, stored as one Cyc value per element index."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)

    def __call__(self, i: int) -> Cyc:
        return self.values[i]

    def is_trivial(self) -> bool:
        return all(v == Cyc.one() for v in self.values)

    def __eq__(self, other):
        return isinstance(other, LinearCharacter) and self.values == other.values

    def __hash__(self):
        return hash(self.values)


@_memo
def linear_characters(G: MatrixGroup):
    """All linear characters, read from the integer relations of the Cayley
    graph.  With x_k in Z^s counting the generators on element k's BFS
    path, each edge k -> k g_t gives the relation x_k + e_t - x_{k g_t}; these
    present G/[G,G] as a quotient of Z^s.  x_k is packed in one int of w
    bits per generator; a relation's fields lie in [-depth, depth + 1], and
    depth < |G| < 2^(w-1), so biased by 2^(w-1) no field borrows, and only
    distinct relations are unpacked.  A character is a in (Q/Z)^s with
    a.r in Z for every relation r, solved from the last column up over
    their echelon form.  Values live at conductor e, the lcm of the
    denominators (the exponent of G/[G,G]).  Deterministic order: trivial
    character first, then sorted by value tuple."""
    s, w = len(G.generators), G.order.bit_length() + 1
    unit = [1 << (w * t) for t in range(s)]
    bias = sum(unit) << (w - 1)
    x = _along_parents(G, 0, lambda v, t: v + unit[t])
    packed = {xk + bias + unit[t] - x[j]
              for xk, row in zip(x, G.cayley) for t, j in enumerate(row)}
    rels = sorted(tuple((r >> (w * t) & (1 << w) - 1) - (1 << (w - 1))
                        for t in range(s)) for r in packed)
    H = _echelon(rels, s)
    sols = [()]
    for i in reversed(range(s)):
        h = H[i]
        sols = [(Fraction(j - sum(map(mul, h[i + 1:], a)), h[i]) % 1,) + a
                for a in sols for j in range(h[i])]
    e = lcm(*(a.denominator for a in chain.from_iterable(sols)))
    roots = ([Cyc.root_of_unity(e, k) for k in range(e)] if e > 1 else [Cyc.one()])
    keys = [r._canonical() for r in roots]
    chars = []
    for a in sols:
        exps = [int(c * e) for c in a]
        if any(sum(map(mul, r, exps)) % e for r in rels):
            raise ArithmeticError("character %s fails a relation of G" % (a,))
        vals = _along_parents(G, 0, lambda v, t: (v + exps[t]) % e)
        chars.append((any(exps), [keys[v] for v in vals], vals))
    chars.sort(key=lambda c: c[:2])
    return [LinearCharacter([roots[v] for v in vals]) for _, _, vals in chars]


def _echelon(rows, s):
    """Rows h_0..h_{s-1} spanning the same lattice in Z^s as `rows`, h_i
    zero before column i with h_ii > 0: Euclid on rows, column by column.
    Rank below s (G/[G,G] infinite) is an engine bug."""
    out = []
    for i in range(s):
        lead, rest = (0,) * s, []
        for r in rows:
            while r[i]:     # lead takes the gcd at column i, r the remainder
                q = lead[i] // r[i]
                lead, r = r, tuple(a - q * b for a, b in zip(lead, r))
            if any(r):
                rest.append(r)
        if not lead[i]:
            raise ArithmeticError("relations of rank below %d" % s)
        out.append(lead if lead[i] > 0 else tuple(-a for a in lead))
        rows = rest
    return out


def determinant_like_characters(G: MatrixGroup):
    """Linear characters whose value at every reflection has multiplicative
    order equal to the order of the reflection.  Empty when G has no
    reflections (the notion is only meaningful for reflection groups).
    Both orders are class functions, so one reflection per class decides,
    and ch(r)^o = 1 for r of order o, so ch(r) has order o unless
    ch(r)^(o/q) = 1 for a prime q dividing o."""
    refl = {i for i, _ in reflections(G)}
    orders = [(cls[0], G.element_order(cls[0]))
              for cls in conjugacy_classes(G) if cls[0] in refl]
    if not orders:
        return []
    return [ch for ch in linear_characters(G)
            if all(ch(i) ** (o // q) != Cyc.one()
                   for i, o in orders for q in _prime_factors(o))]


def det_character(G: MatrixGroup, inverse=False) -> LinearCharacter:
    """The restriction of det (or det^{-1}) to G, as a LinearCharacter at
    conductor G.m: one determinant per generator, multiplied along the BFS
    parents."""
    dets = [_det(G.matrix(gi)).lift(G.m) for gi in G.generators]
    values = _along_parents(G, Cyc.one().lift(G.m), lambda v, t: v * dets[t])
    if inverse:
        values = [values[G.inverse[g]] for g in range(G.order)]
    return LinearCharacter(values)


def _along_parents(G: MatrixGroup, start, step):
    """Values on the elements: start at the identity and step(value of the
    parent, t) at each child parent * g_t.  BFS parents precede their
    children."""
    values = [start] * G.order
    for k in range(1, G.order):
        i, t = G.parents[k]
        values[k] = step(values[i], t)
    return values


def _det(M: CycMatrix) -> Cyc:
    """The product of the rows' leads as they enter a Span, times the sign
    of the order in which they take their pivot columns: each lead is its
    row minus earlier rows, and in pivot order those residuals are upper
    triangular."""
    span, det, order = Span(), Cyc.one(), []
    for i in range(M.rows):
        lead = span.add(dict(enumerate(M.row(i))))
        if lead is None:
            return Cyc.zero()
        det = det * lead
        order.append(next(pk for pk, _ in span.pivots if pk not in order))
    flips = sum(a > b for a, b in combinations(order, 2))
    return -det if flips % 2 else det
