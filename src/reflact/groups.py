"""
Finite matrix groups over cyclotomic fields: breadth-first closure
enumeration, reflection detection, reflection arrangements, the permutation
action on hyperplanes and flats, orbits and stabilizers Z_T / N_T, centers,
conjugacy classes, and linear characters via the abelianization.

Element identity is exact matrix equality of normalized entries; the element
order is fixed by the BFS (identity first, generators in the given order),
which makes indices, orbits and stabilizer index sets deterministic.
"""

from __future__ import annotations

from math import gcd

from .arrangement import (Arrangement, Flat, Hyperplane, _echelon, _reduce,
                          build_lattice, canonicalize_hyperplane)
from .exactnum import Cyc, CycMatrix, cyc_from_json, rref

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
    "linear_characters",
    "determinant_like_characters",
    "group_from_json",
]

DEFAULT_ORDER_CAP = 100_000


class OrderCapExceededError(RuntimeError):
    pass


class NotStableError(ValueError):
    pass


class MatrixGroup:
    """A finite subgroup of GL_n(Q(zeta_m)), fully enumerated."""

    def __init__(self, n, generators, elements, index, inverse, parents):
        self.n = n
        self.generators = generators      # list of element indices
        self.elements = elements          # list of CycMatrix, identity first
        self.index = index                # CycMatrix -> index
        self.inverse = inverse            # index -> index of inverse
        self.parents = parents            # index -> (parent index, generator index)
        self.order = len(elements)
        self._mul_cache = {}
        self._actions = {}                # Arrangement -> action data
        self._orbits = {}                 # Arrangement -> lattice orbits
        self._reflections = None
        self._refl_arrangement = None
        self._classes = None
        self._linear_chars = None

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        k = self._mul_cache.get(key)
        if k is None:
            k = self.index[self.elements[i] * self.elements[j]]
            self._mul_cache[key] = k
        return k

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            k += 1
        return k

    def contains_matrix(self, M: CycMatrix):
        return self.index.get(M)

    def __repr__(self):
        return "MatrixGroup(n=%d, order=%d)" % (self.n, self.order)


def generate(gens, dim=None, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Enumerate the group generated by square invertible matrices by
    breadth-first closure from the identity."""
    gens = list(gens)
    if gens:
        dim = gens[0].rows
    if dim is None:
        raise ValueError("dimension required for the trivial group")
    for g in gens:
        if g.rows != g.cols or g.rows != dim:
            raise ValueError("generators must be square of equal dimension")
    m = 1
    for g in gens:
        m = m * g.m // gcd(m, g.m)
    ident = CycMatrix(dim, dim, [Cyc.one() if i == j else Cyc.zero()
                                 for i in range(dim) for j in range(dim)])
    ident = CycMatrix(dim, dim, [e.lift(m) for e in ident.entries])
    gens = [CycMatrix(dim, dim, [e.lift(m) for e in g.entries]) for g in gens]

    elements = [ident]
    index = {ident: 0}
    parents = [(-1, -1)]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            base = elements[i]
            for gi, g in enumerate(gens):
                prod = base * g
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    parents.append((i, gi))
                    nxt.append(index[prod])
                    if len(elements) > order_cap:
                        raise OrderCapExceededError(
                            "group order exceeds cap %d" % order_cap)
        frontier = nxt

    group = MatrixGroup(dim, [], elements, index, [0] * len(elements), parents)
    gen_idx = [index[g] for g in gens]
    group.generators = gen_idx
    # inverses along the BFS: (a g)^-1 = g^-1 a^-1, both already known
    inv_gen = {gi: index[g.inverse()] for gi, g in zip(gen_idx, gens)}
    inverse = [0] * len(elements)
    for k in range(1, len(elements)):
        i, gi = parents[k]
        inverse[k] = group.mul(inv_gen[gen_idx[gi]], inverse[i])
    group.inverse = inverse
    return group


def group_from_json(obj, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Build a group from the ingestion schema
    {"conductor": m, "dim": n, "generators": [[[Cyc...]...]...]}."""
    try:
        n = int(obj["dim"])
        gens = [CycMatrix.from_rows([[cyc_from_json(e) for e in row] for row in mat])
                for mat in obj["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed group file: %s" % exc)
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("malformed group file: generator shape")
    return generate(gens, dim=n, order_cap=order_cap)


def reflections(G: MatrixGroup):
    """All elements whose fixed space has codimension 1, with Fix(r) as a
    canonical Hyperplane."""
    if G._reflections is not None:
        return G._reflections
    out = []
    for i, g in enumerate(G.elements):
        if i == 0:
            continue
        diff = CycMatrix(G.n, G.n, [a - b for a, b in
                                    zip(g.entries, CycMatrix.identity(G.n).entries)])
        red, _, rank = rref(diff)
        if rank == 1:
            out.append((i, canonicalize_hyperplane(red.row(0))))
    G._reflections = out
    return out


def reflection_arrangement(G: MatrixGroup) -> Arrangement:
    if G._refl_arrangement is None:
        seen, hps = set(), []
        for _, h in reflections(G):
            if h not in seen:
                seen.add(h)
                hps.append(h)
        G._refl_arrangement = Arrangement(G.n, hps)
    return G._refl_arrangement


class _Action:
    """Cached permutation action of a group on an arrangement's hyperplanes."""

    def __init__(self, G: MatrixGroup, A: Arrangement):
        if G.n != A.n:
            raise NotStableError("group acts on C^%d, arrangement lives in C^%d"
                                 % (G.n, A.n))
        self.G, self.A = G, A
        nh = len(A)
        gen_perm = {}
        for gi in G.generators:
            inv = G.elements[G.inverse[gi]]
            perm = []
            for i in range(nh):
                img = canonicalize_hyperplane(inv.apply_row(list(A.covector(i))))
                j = A.index_of(img)
                if j is None:
                    raise NotStableError(
                        "generator %d maps hyperplane %d outside A" % (gi, i))
                perm.append(j)
            gen_perm[gi] = tuple(perm)
        identity = tuple(range(nh))
        perms = [identity] * G.order
        # BFS discovery order guarantees parents precede children
        for k in range(1, G.order):
            i, gi = G.parents[k]
            pg = gen_perm[G.generators[gi]]
            pi = perms[i]
            perms[k] = tuple(pi[x] for x in pg)
        self.perms = perms

    def fibers(self):
        """Map perm -> list of element indices inducing it."""
        out = {}
        for i, p in enumerate(self.perms):
            out.setdefault(p, []).append(i)
        return out


def hyperplane_action(G: MatrixGroup, A: Arrangement) -> _Action:
    """Permutations of A induced by every group element (g sends H to gH)."""
    act = G._actions.get(A)
    if act is None:
        act = G._actions[A] = _Action(G, A)
    return act


def orbits_on_lattice(G: MatrixGroup, A: Arrangement):
    """Disjoint orbits of G on L(A), each with representative (lex least key),
    pointwise stabilizer Z and setwise stabilizer N as index sets."""
    cached = G._orbits.get(A)
    if cached is not None:
        return cached
    lattice = build_lattice(A)
    act = hyperplane_action(G, A)
    remaining = dict(lattice.by_key)
    distinct_perms = sorted(set(act.perms))
    orbits = []
    for key in sorted(lattice.by_key):
        if key not in remaining:
            continue
        orbit_keys = {key}
        for p in distinct_perms:
            orbit_keys.add(tuple(sorted(p[i] for i in key)))
        rep_key = min(orbit_keys)
        rep = lattice.by_key[rep_key]
        members = [lattice.by_key[k] for k in sorted(orbit_keys)]
        for k in orbit_keys:
            remaining.pop(k, None)
        N = frozenset(i for i, p in enumerate(act.perms)
                      if tuple(sorted(p[i2] for i2 in rep_key)) == rep_key)
        Z = frozenset(i for i in N if _fixes_pointwise(G, i, rep))
        orbits.append(OrbitDatum(rep, members, Z, N, rep.codim))
    orbits.sort(key=lambda o: (o.codim, o.representative.key))
    G._orbits[A] = orbits
    return orbits


def _fixes_pointwise(G: MatrixGroup, i: int, X: Flat) -> bool:
    g = G.elements[i]
    for r in range(X.basis.rows):
        row = list(X.basis.row(r))
        img = g.apply(row)
        if any(not (a - b).is_zero() for a, b in zip(img, row)):
            return False
    return True


class OrbitDatum:
    def __init__(self, representative, orbit, Z, N, codim):
        self.representative = representative
        self.orbit = orbit
        self.Z = Z
        self.N = N
        self.codim = codim

    def __repr__(self):
        return "OrbitDatum(codim=%d, rep=%s, |orbit|=%d, |N|=%d)" % (
            self.codim, self.representative.key, len(self.orbit), len(self.N))


def pointwise_stabilizer(G: MatrixGroup, X: Flat) -> frozenset:
    return frozenset(i for i in range(G.order) if _fixes_pointwise(G, i, X))


def setwise_stabilizer(G: MatrixGroup, X: Flat) -> frozenset:
    """Elements mapping the subspace X to itself."""
    rows = [list(X.basis.row(r)) for r in range(X.basis.rows)]
    if not rows:
        return frozenset(range(G.order))
    span = _echelon(rows)
    out = []
    for i, g in enumerate(G.elements):
        ok = True
        for row in rows:
            img = g.apply(row)
            red, _ = _reduce(span, img)
            if any(not c.is_zero() for c in red):
                ok = False
                break
        if ok:
            out.append(i)
    return frozenset(out)


def center(G: MatrixGroup) -> frozenset:
    return frozenset(i for i in range(G.order)
                     if all(G.mul(i, g) == G.mul(g, i) for g in G.generators))


def conjugacy_classes(G: MatrixGroup):
    """Partition of the element indices into conjugacy classes, each sorted;
    classes ordered by least member."""
    if G._classes is not None:
        return G._classes
    seen = [False] * G.order
    classes = []
    for i in range(G.order):
        if seen[i]:
            continue
        cls = {i}
        frontier = [i]
        seen[i] = True
        while frontier:
            nxt = []
            for x in frontier:
                for g in G.generators:
                    y = G.mul(G.mul(g, x), G.inverse[g])
                    if not seen[y]:
                        seen[y] = True
                        cls.add(y)
                        nxt.append(y)
            frontier = nxt
        classes.append(sorted(cls))
    G._classes = classes
    return classes


def _subgroup_closure(G: MatrixGroup, seed):
    """Subgroup generated by the given element indices."""
    gens = set(seed) | {G.inverse[s] for s in seed}
    sub = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = G.mul(x, s)
                if y not in sub:
                    sub.add(y)
                    nxt.append(y)
        frontier = nxt
    return sub


def _derived_subgroup(G: MatrixGroup):
    """Normal closure of the commutators of generator pairs."""
    comms = set()
    for a in G.generators:
        for b in G.generators:
            comms.add(G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b])))
    sub = _subgroup_closure(G, comms)
    while True:
        extra = set()
        for g in G.generators:
            ginv = G.inverse[g]
            for h in sub:
                c = G.mul(G.mul(g, h), ginv)
                if c not in sub:
                    extra.add(c)
        if not extra:
            return sub
        sub = _subgroup_closure(G, sub | extra)


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


def linear_characters(G: MatrixGroup):
    """All linear characters, via the abelianization G/[G,G] and its dual.
    Deterministic order: trivial character first, then sorted by value tuple."""
    if G._linear_chars is not None:
        return G._linear_chars
    der = _derived_subgroup(G)
    # enumerate cosets: each element visited exactly once
    der_sorted = sorted(der)
    coset_of = [-1] * G.order
    coset_reps = []
    for i in range(G.order):
        if coset_of[i] != -1:
            continue
        cid = len(coset_reps)
        coset_reps.append(i)
        for h in der_sorted:
            coset_of[G.mul(i, h)] = cid
    q = len(coset_reps)

    def qmul(a, b):
        return coset_of[G.mul(coset_reps[a], coset_reps[b])]

    def qorder(a):
        k, cur = 1, a
        while cur != 0:
            cur = qmul(cur, a)
            k += 1
        return k

    exponent = 1
    for a in range(q):
        o = qorder(a)
        exponent = exponent * o // gcd(exponent, o)

    # characters of the abelian quotient as exponent vectors mod `exponent`:
    # grow the generated subgroup one generator at a time, extending each
    # character in all consistent ways
    chars = [{0: 0}]  # maps coset id -> exponent of zeta_e
    sub = [0]
    for a in range(1, q):
        if a in chars[0]:
            continue
        # relative order of a over the current subgroup
        d, cur = 1, a
        while cur not in chars[0]:
            cur = qmul(cur, a)
            d += 1
        new_chars = []
        for phi in chars:
            k0 = phi[cur]  # value exponent on a^d
            # solve d*k = k0 (mod exponent)
            g = gcd(d, exponent)
            assert k0 % g == 0
            base = (k0 // g) * _modinv(d // g, exponent // g) % (exponent // g)
            for t in range(g):
                k = base + t * (exponent // g)
                ext = dict(phi)
                for s in list(sub):
                    cur2, val = s, phi[s]
                    for j in range(1, d):
                        cur2 = qmul(cur2, a)
                        ext[cur2] = (val + j * k) % exponent
                new_chars.append(ext)
        chars = new_chars
        sub = list(chars[0].keys())
    assert len(chars) == q and all(len(c) == q for c in chars)

    out = []
    for phi in chars:
        values = [Cyc.root_of_unity(exponent, phi[coset_of[i]]) if exponent > 1
                  else Cyc.one() for i in range(G.order)]
        out.append(LinearCharacter(values))
    out.sort(key=lambda ch: tuple(tuple(v._canonical()) for v in ch.values))
    out.sort(key=lambda ch: not ch.is_trivial())
    G._linear_chars = out
    return out


def _modinv(a, m):
    if m == 1:
        return 0
    return pow(a, -1, m)


def _value_order(x: Cyc, bound: int) -> int:
    cur = x
    for k in range(1, bound + 1):
        if cur == Cyc.one():
            return k
        cur = cur * x
    raise ValueError("not a root of unity of order <= %d" % bound)


def determinant_like_characters(G: MatrixGroup):
    """Linear characters whose value at every reflection has multiplicative
    order equal to the order of the reflection.  Empty when G has no
    reflections (the notion is only meaningful for reflection groups)."""
    refl = reflections(G)
    if not refl:
        return []
    orders = [(i, G.element_order(i)) for i, _ in refl]
    out = []
    for ch in linear_characters(G):
        if all(_value_order(ch(i), o) == o for i, o in orders):
            out.append(ch)
    return out


def det_character(G: MatrixGroup, inverse=False) -> LinearCharacter:
    """The restriction of det (or det^{-1}) to G, as a LinearCharacter."""
    values = []
    for g in G.elements:
        d = _det(g)
        values.append(d.inverse() if inverse else d)
    return LinearCharacter(values)


def _det(M: CycMatrix) -> Cyc:
    n = M.rows
    work = [list(M.row(i)) for i in range(n)]
    det = Cyc.one()
    for col in range(n):
        piv = next((i for i in range(col, n) if not work[i][col].is_zero()), None)
        if piv is None:
            return Cyc.zero()
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for i in range(col + 1, n):
            if not work[i][col].is_zero():
                f = work[i][col] * inv
                for j in range(col, n):
                    work[i][j] = work[i][j] - f * work[col][j]
    return det
