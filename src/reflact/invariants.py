"""
Isotypic components of arrangement cohomology under a finite group action.

For a group G permuting the hyperplanes of A and a linear character chi, the
dimension of the chi-isotypic part of H^k(M(A)) is computed three independent
ways:

  * globally, as (1/|G|) sum_g chi(g^{-1}) tr(g | H^k), with the trace
    read from L(A) alone: tr(g | H^k) = (-1)^k sum mu(V, X) over the
    codim-k flats X that g fixes, mu the Mobius function of the poset of
    g-fixed flats (Orlik-Solomon 1980 with the Hopf trace formula of
    Baclawski-Bjorner 1979);
  * orbitwise, as the sum over orbits T of codimension-k flats of the
    chi-multiplicity of K_T, the sum of the H^top(A_X) over the flats X of
    T, which is Ind_{N_T}^G of that at a representative flat (N_T its
    setwise stabilizer), traced by Orlik-Solomon straightening in A;
  * by the rank of the idempotent projection matrix on the NBC basis.

So the always-on cross-check compares lattice combinatorics with OS
algebra.  The global and orbitwise averages are (1/|G|) sum over conjugacy
classes C of |C| chi(C) tr(c), c in C.  H^*(M(A)) is the OS algebra of A's
matroid, so g acts on it, on each K_T and on L(A) through its hyperplane
permutation alone: each trace is a function on G/K, the image of G in
Sym(A) (K the kernel), and a rational one, defined over Q.  So it takes
one value on each rational class of G/K, which holds c^{-1} = c^{o-1}, and
is read once there (`groups._action_classes`), while chi, which need not
be rational or 1 on K, still weights each conjugacy class of G.  The
character of K_T at g sums the traces of g on the flats of T that g fixes,
each moved to the representative's flat.  The projection weights each
distinct hyperplane permutation.  All arithmetic is exact; every dimension
is checked to be a nonnegative rational integer before it is returned.

The module also builds the explicit invariant bases (one projected
monomial per invariant, from a plan or from each orbit's NBC monomials),
decomposes the invariants of a normal reflection subgroup as a module over
the ambient group from the orbitwise averages of both groups, and runs the
determinant-like vanishing checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arrangement import Arrangement, _memo, build_lattice
from .exactnum import Cyc, Span
from .groups import (
    LinearCharacter,
    MatrixGroup,
    _action_classes,
    conjugacy_classes,
    determinant_like_characters,
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
)
from .osalg import (
    OSElement,
    _nbc_by_flat,
    _straighten_sum,
    _trace,
    closure_key,
    euler_derivation,
    nbc_basis,
    rank_of_elements,
)

__all__ = [
    "NonIntegralityError",
    "NotNormalError",
    "BasisVerificationError",
    "ClassMismatchError",
    "CharacterSelectionError",
    "PoincarePoly",
    "InvariantReport",
    "Theorem4Basis",
    "RelativeCharacterReport",
    "trivial_character",
    "isotypic_dim_global",
    "isotypic_dim_projection",
    "isotypic_dims_orbitwise",
    "lehrer_solomon_check",
    "cross_checked_orbitwise",
    "poincare_invariants",
    "high_degree_invariants",
    "euler_identity_check",
    "project_invariant",
    "theorem4_basis",
    "relative_character",
    "order_two_character",
    "multiplicity_classfn",
    "vanishing_check_detlike",
]


class NonIntegralityError(ArithmeticError):
    """An averaged dimension failed to be a nonnegative integer (engine bug)."""


class NotNormalError(ValueError):
    pass


class BasisVerificationError(RuntimeError):
    """A constructed invariant basis failed its nonzero/independence check."""


class ClassMismatchError(ValueError):
    pass


class CharacterSelectionError(LookupError):
    pass


def trivial_character(G: MatrixGroup) -> LinearCharacter:
    return LinearCharacter([Cyc.one()] * G.order)


def _as_dim(x: Cyc) -> int:
    """Assert that a Cyc is a nonnegative rational integer and return it."""
    if not x.is_rational():
        raise NonIntegralityError("non-rational dimension %r" % x)
    q = x.rational_value()
    if q.denominator != 1 or q < 0:
        raise NonIntegralityError("non-integral dimension %r" % q)
    return int(q)


def _class_average(G: MatrixGroup, A: Arrangement, phi, trace) -> Cyc:
    """(1/|G|) sum over conjugacy classes C of |C| phi[C] trace(c), phi one
    value per class.  Every trace averaged is an int character of G/K, the
    image of G in Sym(A), afforded over Q, so it is one value on a rational
    class of G/K, which holds c^{-1}: this is <trace, phi>, and trace is
    read once per such class, at its representative (`_action_classes`),
    where some class in it has a nonzero weight.  The int weights |C|
    trace(c) are summed per distinct value of phi (which need not be
    rational), so there is one Cyc product per value."""
    sums, traces = {}, {}
    for cls, v, r in zip(conjugacy_classes(G), phi, _action_classes(G, A)):
        if v:
            traces[r] = t = traces[r] if r in traces else trace(r)
            sums[v] = sums.get(v, 0) + len(cls) * t
    return sum((v * Fraction(s, G.order) for v, s in sums.items()), Cyc.zero())


def isotypic_dim_global(A: Arrangement, G: MatrixGroup, chi: LinearCharacter,
                        k: int) -> int:
    """dim of the chi-isotypic part of H^k(M(A)), by averaging the Mobius
    traces over the fixed flats of L(A) (see `multiplicity_classfn`)."""
    return _as_dim(multiplicity_classfn(
        A, G, [chi(cls[0]) for cls in conjugacy_classes(G)], k))


def isotypic_dim_projection(A: Arrangement, G: MatrixGroup,
                            chi: LinearCharacter, k: int) -> int:
    """The same dimension as the rank of the projection sum_g chi(g^{-1}) g
    on the NBC basis (rank of an idempotent equals its trace), with the
    weights of the elements inducing each hyperplane permutation summed:
    the pivots of its columns, sum_perm w straighten(perm . mono), in a
    Span."""
    weights = {perm: sum((chi(G.inverse[g]) for g in gs), Cyc.zero())
               for perm, gs in hyperplane_action(G, A).fibers.items()}
    return rank_of_elements(
        _straighten_sum(A, k, ((tuple(perm[i] for i in mono), w)
                               for perm, w in weights.items() if w))
        for mono in nbc_basis(A, k).monomials)


@_memo
def _orbit_class_traces(G, A, orbit) -> dict:
    """The character of K_T, the sum of H^top(A_X) over the flats X of the
    orbit, which is Ind_{N_T}^G H^top(A_T) (Lehrer-Solomon), at each
    representative of a rational class of G/K, where `_class_average`
    reads it.  At g it sums, over the members X with gX = X, the
    trace of x^{-1} g x on H^top(A_R), R the representative and x =
    orbit.transport[X], straightened on A itself.  Kept on G per
    arrangement and orbit."""
    key = orbit.representative.key
    R = sum(1 << h for h in key)
    # x^{-1} on the hyperplanes through X
    back = {X: {x[h]: h for h in key} for X, x in orbit.transport.items()}
    perms = hyperplane_action(G, A).perms

    def trace(g):
        p = perms[g]
        return sum(_trace(A, R, tuple(back[X][p[x[h]]] for h in key))
                   for X, x in orbit.transport.items()
                   if all(p[i] in back[X] for i in X))     # gX = X

    return {g: trace(g) for g in dict.fromkeys(_action_classes(G, A))}


def _orbit_isotypic_dim(A, G, orbit, chi) -> int:
    """dim K_T^chi: the orbit's class traces of K_T averaged against chi."""
    return _as_dim(_class_average(
        G, A, [chi(cls[0]) for cls in conjugacy_classes(G)],
        _orbit_class_traces(G, A, orbit).__getitem__))


class PoincarePoly:
    """Graded isotypic dimensions as polynomial coefficients (index = degree)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = tuple(int(c) for c in coefficients)

    def __eq__(self, other):
        if isinstance(other, PoincarePoly):
            return self.coefficients == other.coefficients
        return self.coefficients == tuple(other)

    def __hash__(self):
        return hash(self.coefficients)

    def __call__(self, t):
        val, power = 0, 1
        for c in self.coefficients:
            val += c * power
            power *= t
        return val

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else "%dt" % c)
            else:
                terms.append("t^%d" % k if c == 1 else "%dt^%d" % (c, k))
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return "PoincarePoly(%s)" % (self.coefficients,)

    def to_json(self):
        return list(self.coefficients)


class InvariantReport:
    """Per-orbit isotypic dimensions with the graded totals they assemble to."""

    __slots__ = ("orbit_dims", "graded", "poincare", "method")

    def __init__(self, orbit_dims, graded, method):
        self.orbit_dims = list(orbit_dims)        # (OrbitDatum, dim)
        self.graded = tuple(graded)
        self.poincare = PoincarePoly(graded)
        self.method = method

    def to_json(self):
        return {
            "poincare": list(self.graded),
            "orbits": [{"codim": o.codim,
                        "rep_key": list(o.representative.key),
                        "dim": d} for o, d in self.orbit_dims],
            "method": self.method,
        }


def isotypic_dims_orbitwise(A: Arrangement, G: MatrixGroup,
                            chi: LinearCharacter) -> InvariantReport:
    orbits = orbits_on_lattice(G, A)
    rk = A.rank()
    graded = [0] * (rk + 1)
    pairs = []
    for o in orbits:
        d = _orbit_isotypic_dim(A, G, o, chi)
        pairs.append((o, d))
        graded[o.codim] += d
    return InvariantReport(pairs, graded, "orbitwise")


def lehrer_solomon_check(A: Arrangement, G: MatrixGroup,
                         chi: LinearCharacter) -> dict:
    """Check dim K_T = [G:N_T] * dim H^{cd T}(M(A_T)) for every orbit, and
    the graded agreement of the global and orbitwise isotypic dimensions."""
    nbc = _nbc_by_flat(A)
    orbit_failures = []
    for o in orbits_on_lattice(G, A):
        # dim H^top(A_X), A's NBC tuples of flat X, the representative first
        dims = [len(nbc[sum(1 << h for h in f.key)]) for f in o.orbit]
        index = len(o.orbit)    # [G:N_T], if the orbit-stabilizer check holds
        if sum(dims) != index * dims[0] or index * len(o.N) != G.order:
            orbit_failures.append(o)
    report = isotypic_dims_orbitwise(A, G, chi)
    degree_failures = []
    for k, d in enumerate(report.graded):
        if isotypic_dim_global(A, G, chi, k) != d:
            degree_failures.append(k)
    return {"passed": not orbit_failures and not degree_failures,
            "orbit_failures": orbit_failures,
            "degree_failures": degree_failures}


def cross_checked_orbitwise(A: Arrangement, G: MatrixGroup,
                            chi: LinearCharacter) -> InvariantReport:
    """The orbitwise report, its graded dimensions asserted against the
    global trace average in every degree."""
    report = isotypic_dims_orbitwise(A, G, chi)
    for k, d in enumerate(report.graded):
        g = isotypic_dim_global(A, G, chi, k)
        if g != d:
            raise NonIntegralityError(
                "method disagreement at degree %d: global %d, orbitwise %d"
                % (k, g, d))
    return report


def poincare_invariants(A: Arrangement, G: MatrixGroup,
                        chi: LinearCharacter) -> PoincarePoly:
    """Graded isotypic dimensions, orbitwise, asserted against the global
    trace average in every degree."""
    return cross_checked_orbitwise(A, G, chi).poincare


def high_degree_invariants(A: Arrangement, G: MatrixGroup) -> bool:
    """Whether the top-degree invariants are nonzero."""
    if len(A) == 0:
        raise ValueError("empty arrangement")
    return isotypic_dim_global(A, G, trivial_character(G), A.rank()) != 0


def euler_identity_check(A: Arrangement, G: MatrixGroup,
                         chi: LinearCharacter) -> bool:
    """The alternating sum of isotypic dimensions vanishes, equivalently
    (1+t) divides the isotypic Poincare polynomial."""
    if len(A) == 0:
        raise ValueError("empty arrangement")
    return isotypic_dims_orbitwise(A, G, chi).poincare(-1) == 0


def project_invariant(A: Arrangement, G: MatrixGroup, x: OSElement) -> OSElement:
    """e_G . x, averaged over distinct hyperplane permutations weighted by
    how many elements induce each; x's keys may be any degree-x.k
    monomials.  With d the lcm of x's denominators, the sum of d c |fiber|
    straighten(perm . m) is taken in ints and scaled once by 1/(d |G|)."""
    d = lcm(*(c.denominator for c in x.coeffs.values()))
    return _straighten_sum(A, x.k, (
        (tuple(perm[i] for i in m), (c * d).numerator * len(gs))
        for perm, gs in hyperplane_action(G, A).fibers.items()
        for m, c in x.coeffs.items())).scale(Fraction(1, d * G.order))


class Theorem4Basis:
    """A certified basis of the invariants: per orbit, its codim, rep_key,
    orbit, constructing monomials and their nonzero projections."""

    __slots__ = ("entries", "cardinality", "poincare")

    def __init__(self, entries, poincare):
        self.entries = list(entries)
        self.cardinality = sum(len(e["projections"]) for e in entries)
        self.poincare = poincare

    def to_json(self):
        return {
            "cardinality": self.cardinality,
            "poincare": self.poincare.to_json(),
            "entries": [{
                "codim": e["codim"],
                "rep_key": list(e["rep_key"]),
                "monomials": [list(m) for m in e["monomials"]],
            } for e in self.entries],
        }


def theorem4_basis(A: Arrangement, G: MatrixGroup,
                   cox_monomials=()) -> Theorem4Basis:
    """Build and certify an invariant basis: for each orbit T carrying d
    invariants, d monomials and their nonzero projections.

    `cox_monomials` may list one group per orbit, a list of monomial tuples
    whose first spans a flat of the orbit; `catalog.cox_monomials` gives
    the plan of a G(r,p,n) pair.  T of codim k without a group takes the
    first d monomials of `nbc_basis(A, k)` whose flat lies in T and whose
    projection raises the rank of those kept.  They span K_T (Brieskorn),
    which e_G maps onto K_T^G, so d are found (in codim <= 1, T's
    representative key).  Each monomial is projected as it stands, once.
    There are P(1) projections: each carrying orbit gets its d monomials.
    """
    report = isotypic_dims_orbitwise(A, G, trivial_character(G))
    rk = A.rank()
    poincare = report.poincare
    rep_of = {f.key: o.representative.key
              for o, _ in report.orbit_dims for f in o.orbit}
    supplied = {}
    for group in cox_monomials:
        group = [tuple(m) for m in group]
        if not group:
            raise ValueError("empty monomial group")
        rep = rep_of[closure_key(A, group[0])]
        if rep in supplied:
            raise ValueError("two monomial groups for orbit %s" % (rep,))
        supplied[rep] = group

    nbc = _nbc_by_flat(A)
    entries = []
    for o, d in report.orbit_dims:
        monos = supplied.get(o.representative.key)
        if monos is not None:
            projections = [project_invariant(A, G, OSElement(len(m), {m: 1}))
                           for m in monos]
        elif d:
            monos, projections, span = [], [], Span()
            for m in sorted(m for f in o.orbit
                            for m in nbc[sum(1 << h for h in f.key)]):
                pr = project_invariant(A, G, OSElement(len(m), {m: 1}))
                if span.add(pr.coeffs) is not None:
                    monos.append(m)
                    projections.append(pr)
                    if len(monos) == d:
                        break
        else:
            continue
        if len(monos) != d:
            raise BasisVerificationError(
                "orbit %s carries %d invariants but %d monomials were given"
                % (o.representative.key, d, len(monos)))
        for m, pr in zip(monos, projections):
            if pr.is_zero():
                raise BasisVerificationError(
                    "projection of %s vanishes" % (m,))
        entries.append({"codim": o.codim, "rep_key": o.representative.key,
                        "orbit": o, "monomials": monos,
                        "projections": projections})

    for k in range(rk + 1):
        degree_projs = [pr for e in entries if e["codim"] == k
                        for pr in e["projections"]]
        if rank_of_elements(degree_projs) != report.graded[k]:
            raise BasisVerificationError(
                "projections in degree %d are dependent" % k)
    # injectivity of the Euler derivation on the top-degree basis vectors
    # (d maps H^0 to 0, so there is nothing to check when rk = 0)
    top = [pr for e in entries if e["codim"] == rk for pr in e["projections"]]
    if rk and rank_of_elements([euler_derivation(A, v) for v in top]) != len(top):
        raise BasisVerificationError("top-degree images under d are dependent")

    return Theorem4Basis(entries, poincare)


class RelativeCharacterReport:
    """Decomposition of each orbit's G-invariants over the linear characters
    of the ambient group."""

    __slots__ = ("characters", "entries")

    def __init__(self, characters, entries):
        self.characters = list(characters)
        self.entries = list(entries)

    def to_json(self):
        return {"entries": [{
            "codim": e["codim"],
            "rep_key": list(e["rep_key"]),
            "dim": e["dim"],
            "multiplicities": e["multiplicities"],
        } for e in self.entries]}


def relative_character(A: Arrangement, G: MatrixGroup,
                       Gt: MatrixGroup) -> RelativeCharacterReport:
    """For G normal in Gt, decompose each K_T^G (T an orbit of Gt on the
    lattice) into linear-character multiplicities of Gt, read from the
    orbitwise averages.  A linear character psi of Gt occurs in K_T^G only
    if it is 1 on G, and then with its multiplicity in K_T (Lehrer-Solomon),
    whose psi-isotypic part lies in K_T^G; the memoized class traces of
    K_T are averaged against each such psi.  dim K_T^G
    sums the invariant dimensions of the G-orbits inside T.  The
    multiplicities sum to at most that dimension, and to exactly it when
    Gt/G is abelian, that is, when |Gt|/|G| linear characters are 1 on G."""
    inside = [Gt.contains_matrix(G.matrix(gi)) for gi in G.generators]
    if None in inside:
        raise NotNormalError("G is not contained in the ambient group")
    for a in Gt.generators:
        for g in inside:
            conj = Gt.mul(Gt.mul(a, g), Gt.inverse[a])
            if G.contains_matrix(Gt.matrix(conj)) is None:
                raise NotNormalError("G is not normal in the ambient group")

    chars = linear_characters(Gt)
    lifted = [all(ch(g) == Cyc.one() for g in inside) for ch in chars]
    abelian = sum(lifted) * G.order == Gt.order
    g_dims = {o.representative.key: d for o, d in
              isotypic_dims_orbitwise(A, G, trivial_character(G)).orbit_dims}
    entries = []
    for o in orbits_on_lattice(Gt, A):
        dim = sum(g_dims.get(f.key, 0) for f in o.orbit)
        mults = [_orbit_isotypic_dim(A, Gt, o, ch) if dim and up else 0
                 for ch, up in zip(chars, lifted)]
        if sum(mults) > dim or (abelian and sum(mults) != dim):
            raise NonIntegralityError(
                "multiplicities %s of orbit %s do not fit dimension %d"
                % (mults, o.representative.key, dim))
        entries.append({"codim": o.codim, "rep_key": o.representative.key,
                        "orbit": o, "dim": dim, "multiplicities": mults})
    return RelativeCharacterReport(chars, entries)


def order_two_character(Gt: MatrixGroup, kernel_elements) -> LinearCharacter:
    """The unique order-two linear character whose kernel contains the
    subgroup generated by the given element indices."""
    found = []
    for ch in linear_characters(Gt):
        if ch.is_trivial():
            continue
        if any(ch(g) * ch(g) != Cyc.one() for g in Gt.generators):
            continue
        if all(ch(e) == Cyc.one() for e in kernel_elements):
            found.append(ch)
    if len(found) != 1:
        raise CharacterSelectionError(
            "%d order-two characters with the required kernel" % len(found))
    return found[0]


def multiplicity_classfn(A: Arrangement, G: MatrixGroup, phi, k: int) -> Cyc:
    """<character of H^k, phi> = (1/|G|) sum over conjugacy classes C of
    |C| phi(C) tr(c | H^k), for a class function given as one Cyc per
    conjugacy class (classes in their deterministic order); H^k is defined
    over Q and g acts on it through its hyperplane permutation, so its
    trace is read once per rational class of G/K, the image of G in Sym(A)
    (see `_class_average`).  There it is the Mobius sum over the fixed
    flats of L(A), with no Orlik-Solomon straightening, kept per
    permutation on A; H^k is 0 outside 0..rk."""
    classes = conjugacy_classes(G)
    phi = list(phi)
    if len(phi) != len(classes):
        raise ClassMismatchError(
            "%d values for %d conjugacy classes" % (len(phi), len(classes)))
    perms = hyperplane_action(G, A).perms

    def trace(g):
        traces = _fixed_flat_traces(A, perms[g])
        return traces[k] if 0 <= k < len(traces) else 0

    return _class_average(G, A, phi, trace)


@_memo
def _fixed_flat_traces(A, perm) -> tuple:
    """tr(perm | H^k) for k = 0..rk, read from L(A) alone: (-1)^k times the
    sum of mu(V, X) over the codim-k flats X that perm fixes, with mu the
    Mobius function of the subposet of fixed flats (Orlik-Solomon and the
    Hopf trace formula of Baclawski-Bjorner).  Kept per permutation on A."""
    lattice = build_lattice(A)
    fixed = []      # (mask, mu) of the fixed flats met so far
    sums = [0] * (lattice.rank + 1)
    for X, key in lattice.key_of.items():      # by codimension
        if sum(1 << perm[i] for i in key) == X:
            mu = -sum(m for Y, m in fixed if Y & X == Y) if X else 1
            fixed.append((X, mu))
            sums[lattice.by_key[key].codim] += mu
    return tuple(-s if k % 2 else s for k, s in enumerate(sums))


def vanishing_check_detlike(A: Arrangement, G: MatrixGroup) -> dict:
    """Multiplicity of every determinant-like linear character in every
    degree; all must vanish."""
    violations = []
    chars = determinant_like_characters(G)
    for ci, ch in enumerate(chars):
        for k in range(A.rank() + 1):
            mult = isotypic_dim_global(A, G, ch, k)
            if mult != 0:
                violations.append({"character": ci, "degree": k, "dim": mult})
    return {"passed": not violations, "characters": len(chars),
            "violations": violations}
