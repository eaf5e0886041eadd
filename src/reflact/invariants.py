"""
Isotypic components of arrangement cohomology under a finite group action.

For a group G permuting the hyperplanes of A and a linear character chi, the
dimension of the chi-isotypic part of H^k(M(A)) is computed three independent
ways:

  * globally, as (1/|G|) sum_g chi(g^{-1}) tr(g | H^k);
  * orbitwise, as the sum over orbits T of codimension-k flats of the
    chi-isotypic dimension of the top cohomology of the subarrangement at a
    representative flat, averaged over the setwise stabilizer N_T;
  * by the rank of the idempotent projection matrix on the NBC basis.

Group elements inducing the same hyperplane permutation act identically on
the Orlik-Solomon algebra, so every average is taken fiberwise over distinct
permutations.  All arithmetic is exact; every dimension is asserted to be a
nonnegative rational integer before it is returned.

The module also builds the explicit invariant bases (one monomial, or an
explicit pair, per orbit with nonzero invariants), decomposes the invariants
of a normal reflection subgroup as a module over the ambient group, and runs
the determinant-like vanishing checks.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement, subarrangement
from .exactnum import Cyc, CycMatrix, rref
from .groups import (
    LinearCharacter,
    MatrixGroup,
    conjugacy_classes,
    determinant_like_characters,
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
)
from .osalg import (
    OSElement,
    Span,
    apply_perm,
    closure_key,
    euler_derivation,
    nbc_basis,
    perm_trace,
    rank_of_elements,
    straighten,
)

__all__ = [
    "NonIntegralityError",
    "NotNormalError",
    "UnlabeledPairError",
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


class UnlabeledPairError(ValueError):
    """No monomial plan is available for an orbit of codimension >= 2."""


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


def _fiber_weights(G: MatrixGroup, act, chi: LinearCharacter):
    """Map perm -> sum of chi(g^{-1}) over the elements inducing it."""
    out = {}
    for perm, members in act.fibers().items():
        w = Cyc.zero()
        for g in members:
            w = w + chi(G.inverse[g])
        out[perm] = w
    return out


def isotypic_dim_global(A: Arrangement, G: MatrixGroup, chi: LinearCharacter,
                        k: int) -> int:
    """dim of the chi-isotypic part of H^k(M(A)), by trace averaging."""
    act = hyperplane_action(G, A)
    total = Cyc.zero()
    for perm, w in _fiber_weights(G, act, chi).items():
        if w.is_zero():
            continue
        total = total + w * Cyc.rational(perm_trace(A, perm, k))
    return _as_dim(total * Cyc.rational(Fraction(1, G.order)))


def isotypic_dim_projection(A: Arrangement, G: MatrixGroup,
                            chi: LinearCharacter, k: int) -> int:
    """The same dimension as the rank of the projection sum_g chi(g^{-1}) g
    on the NBC basis (rank of an idempotent equals its trace)."""
    act = hyperplane_action(G, A)
    basis = nbc_basis(A, k)
    n = len(basis)
    rows = [[Cyc.zero()] * n for _ in range(n)]
    for perm, w in _fiber_weights(G, act, chi).items():
        if w.is_zero():
            continue
        for j, mono in enumerate(basis.monomials):
            img = straighten(A, tuple(perm[i] for i in mono))
            for m, c in img.coeffs.items():
                i = basis.position[m]
                rows[i][j] = rows[i][j] + w * Cyc.rational(c)
    if n == 0:
        return 0
    _, _, rank = rref(CycMatrix.from_rows(rows))
    return rank


def _sub_action_fibers(A, G, orbit, elements):
    """Fibers of the permutation action of the given element indices on the
    subarrangement at the orbit's representative flat."""
    f = orbit.representative
    act = hyperplane_action(G, A)
    pos = {h: j for j, h in enumerate(f.key)}
    fibers = {}
    for g in elements:
        p = act.perms[g]
        sp = tuple(pos[p[i]] for i in f.key)
        fibers.setdefault(sp, []).append(g)
    return fibers


def _orbit_isotypic_dim(A, G, orbit, chi) -> int:
    """dim K_T^chi: the chi|_{N_T}-isotypic dimension of the top cohomology
    of the subarrangement at the representative flat."""
    f = orbit.representative
    sub = subarrangement(A, f)
    k = f.codim
    total = Cyc.zero()
    for sp, members in _sub_action_fibers(A, G, orbit, orbit.N).items():
        w = Cyc.zero()
        for g in members:
            w = w + chi(G.inverse[g])
        if w.is_zero():
            continue
        total = total + w * Cyc.rational(perm_trace(sub, sp, k))
    return _as_dim(total * Cyc.rational(Fraction(1, len(orbit.N))))


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
    orbits = orbits_on_lattice(G, A)
    orbit_failures = []
    for o in orbits:
        k = o.codim
        rep_dim = len(nbc_basis(subarrangement(A, o.representative), k))
        total = sum(len(nbc_basis(subarrangement(A, f), k)) for f in o.orbit)
        index = G.order // len(o.N)
        if total != index * rep_dim or index != len(o.orbit):
            orbit_failures.append(o)
    report = isotypic_dims_orbitwise(A, G, chi)
    degree_failures = []
    for k, d in enumerate(report.graded):
        if isotypic_dim_global(A, G, chi, k) != d:
            degree_failures.append(k)
    return {"passed": not orbit_failures and not degree_failures,
            "orbit_failures": orbit_failures,
            "degree_failures": degree_failures}


def poincare_invariants(A: Arrangement, G: MatrixGroup,
                        chi: LinearCharacter) -> PoincarePoly:
    """Graded isotypic dimensions, orbitwise, asserted against the global
    trace average in every degree."""
    report = isotypic_dims_orbitwise(A, G, chi)
    for k, d in enumerate(report.graded):
        g = isotypic_dim_global(A, G, chi, k)
        if g != d:
            raise NonIntegralityError(
                "method disagreement at degree %d: global %d, orbitwise %d"
                % (k, g, d))
    return report.poincare


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
    poly = isotypic_dims_orbitwise(A, G, chi).poincare
    alternating = sum((-1) ** k * c for k, c in enumerate(poly.coefficients))
    return alternating == 0 and poly(-1) == 0


def project_invariant(A: Arrangement, G: MatrixGroup, x: OSElement) -> OSElement:
    """e_G . x, averaged fiberwise over distinct hyperplane permutations."""
    act = hyperplane_action(G, A)
    out = OSElement(x.k, {})
    for perm, members in act.fibers().items():
        out = out + apply_perm(A, perm, x).scale(Fraction(len(members), G.order))
    return out


class Theorem4Basis:
    """A certified basis of the invariants: per orbit, the constructing
    monomials, their elements, and their nonzero projections."""

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


def theorem4_basis(A: Arrangement, G: MatrixGroup, cox_monomials=None,
                   family=None) -> Theorem4Basis:
    """Build and certify an invariant basis with one projected monomial (or
    an explicit pair) per orbit carrying invariants.

    Monomials in codimension <= 1 are generated automatically, as is the
    rank-2 rule pairing the least hyperplane-orbit representative with the
    others.  Otherwise `cox_monomials` maps a flat key of the orbit to its
    monomial list, or is a plain list of monomial groups (each a monomial or
    a list of monomials for one orbit, located by closure); `family` =
    (kind, r, p, n) pulls the map from the catalog.
    """
    if cox_monomials is None and family is not None:
        from .catalog import cox_monomials as catalog_cox
        kind, r, p, n = family
        cox_monomials = catalog_cox(r, p, n, kind)
    if cox_monomials is None:
        supplied = {}
    elif isinstance(cox_monomials, dict):
        supplied = dict(cox_monomials)
    else:
        supplied = {}
        for group in cox_monomials:
            group = list(group)
            if group and isinstance(group[0], int):
                group = [tuple(group)]
            else:
                group = [tuple(m) for m in group]
            supplied[closure_key(A, group[0])] = group

    orbits = orbits_on_lattice(G, A)
    chi = trivial_character(G)
    rk = A.rank()
    graded = [0] * (rk + 1)
    carriers = []
    for o in orbits:
        d = _orbit_isotypic_dim(A, G, o, chi)
        graded[o.codim] += d
        if d > 0:
            carriers.append((o, d))
    poincare = PoincarePoly(graded)

    hyper_reps = sorted(o.representative.key[0]
                        for o, _ in carriers if o.codim == 1)
    entries = []
    for o, d in carriers:
        k = o.codim
        member_keys = {f.key for f in o.orbit}
        monos = None
        for key in member_keys:
            if key in supplied:
                monos = [tuple(m) for m in supplied[key]]
                break
        if monos is None:
            if k == 0:
                monos = [()]
            elif k == 1:
                monos = [(o.representative.key[0],)]
            elif rk == 2 and k == 2:
                h1 = hyper_reps[0]
                monos = [(h1, h) for h in hyper_reps[1:]]
            else:
                raise UnlabeledPairError(
                    "no monomials for orbit with representative %s"
                    % (o.representative.key,))
        if len(monos) != d:
            raise BasisVerificationError(
                "orbit %s carries %d invariants but %d monomials were given"
                % (o.representative.key, d, len(monos)))
        elements = [straighten(A, m) for m in monos]
        projections = [project_invariant(A, G, el) for el in elements]
        for m, pr in zip(monos, projections):
            if pr.is_zero():
                raise BasisVerificationError(
                    "projection of %s vanishes" % (m,))
        entries.append({"codim": k, "rep_key": o.representative.key,
                        "orbit": o, "monomials": monos,
                        "elements": elements, "projections": projections})

    for k in range(rk + 1):
        degree_projs = [pr for e in entries if e["codim"] == k
                        for pr in e["projections"]]
        if rank_of_elements(degree_projs) != graded[k]:
            raise BasisVerificationError(
                "projections in degree %d are dependent" % k)
    # injectivity of the Euler derivation on the top-degree basis vectors
    top = [pr for e in entries if e["codim"] == rk for pr in e["projections"]]
    if top and rank_of_elements([euler_derivation(A, v) for v in top]) != len(top):
        raise BasisVerificationError("top-degree images under d are dependent")

    basis = Theorem4Basis(entries, poincare)
    if basis.cardinality != poincare(1):
        raise BasisVerificationError(
            "cardinality %d differs from P(1) = %d"
            % (basis.cardinality, poincare(1)))
    return basis


def _perm_trace_on_span(A, perm, span, k):
    """Trace of a hyperplane permutation on the span (traces are basis
    independent, so the pivot vectors serve as the basis)."""
    total = Fraction(0)
    for i, (_, pv) in enumerate(span.pivots):
        coords = span.solve(apply_perm(A, perm, OSElement(k, pv)).coeffs)
        if coords is None:
            raise NonIntegralityError("span is not stable under the action")
        total += coords[i]
    return total


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
    lattice) into linear-character multiplicities of Gt."""
    for gi in G.generators:
        if Gt.contains_matrix(G.elements[gi]) is None:
            raise NotNormalError("G is not contained in the ambient group")
    for a in Gt.generators:
        for gi in G.generators:
            conj = Gt.mul(Gt.mul(a, Gt.contains_matrix(G.elements[gi])),
                          Gt.inverse[a])
            if G.contains_matrix(Gt.elements[conj]) is None:
                raise NotNormalError("G is not normal in the ambient group")

    chars = linear_characters(Gt)
    act = hyperplane_action(Gt, A)
    orbits = orbits_on_lattice(Gt, A)
    # a Gt-orbit can split into several G-orbits; span K_T^G from one
    # representative flat of each
    g_orbits = orbits_on_lattice(G, A)
    g_rep_of = {}
    for go in g_orbits:
        for f in go.orbit:
            g_rep_of[f.key] = go.representative
    entries = []
    for o in orbits:
        k = o.representative.codim
        g_reps = sorted({g_rep_of[f.key] for f in o.orbit},
                        key=lambda f: f.key)
        span = Span()
        for f in g_reps:
            sub = subarrangement(A, f)
            for mono in nbc_basis(sub, k).monomials:
                parent = tuple(f.key[i] for i in mono)
                proj = project_invariant(A, G, straighten(A, parent))
                if not proj.is_zero():
                    span.add(proj.coeffs)
        dim = len(span.pivots)
        mults = []
        if dim:
            traces = {}
            fibers = act.fibers()
            for perm in fibers:
                traces[perm] = _perm_trace_on_span(A, perm, span, k)
            for ch in chars:
                total = Cyc.zero()
                for perm, members in fibers.items():
                    w = Cyc.zero()
                    for g in members:
                        w = w + ch(Gt.inverse[g])
                    if not w.is_zero():
                        total = total + w * Cyc.rational(traces[perm])
                mults.append(_as_dim(total * Cyc.rational(Fraction(1, Gt.order))))
        else:
            mults = [0] * len(chars)
        entries.append({"codim": k, "rep_key": o.representative.key,
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
    """<character of H^k, phi> for a class function given as one Cyc per
    conjugacy class (classes in their deterministic order); the conjugate
    phi(g)-bar is realized as phi(g^{-1})."""
    classes = conjugacy_classes(G)
    phi = list(phi)
    if len(phi) != len(classes):
        raise ClassMismatchError(
            "%d values for %d conjugacy classes" % (len(phi), len(classes)))
    cls_of = [0] * G.order
    for ci, cls in enumerate(classes):
        for g in cls:
            cls_of[g] = ci
    act = hyperplane_action(G, A)
    total = Cyc.zero()
    for perm, members in act.fibers().items():
        w = Cyc.zero()
        for g in members:
            w = w + phi[cls_of[G.inverse[g]]]
        if w.is_zero():
            continue
        total = total + w * Cyc.rational(perm_trace(A, perm, k))
    return total * Cyc.rational(Fraction(1, G.order))


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
