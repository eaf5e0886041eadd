from fractions import Fraction

import pytest

from reflact.arrangement import Arrangement, subarrangement
from reflact.catalog import make_arrangement, make_grpn, shipped_group
from reflact.exactnum import Cyc, CycMatrix, Span
from reflact.groups import (
    conjugacy_classes,
    det_character,
    generate,
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
    reflection_arrangement,
)
from reflact.invariants import (
    BasisVerificationError,
    CharacterSelectionError,
    ClassMismatchError,
    NonIntegralityError,
    NotNormalError,
    PoincarePoly,
    UnlabeledPairError,
    euler_identity_check,
    high_degree_invariants,
    isotypic_dim_global,
    isotypic_dim_projection,
    isotypic_dims_orbitwise,
    lehrer_solomon_check,
    multiplicity_classfn,
    order_two_character,
    poincare_invariants,
    project_invariant,
    relative_character,
    theorem4_basis,
    trivial_character,
    vanishing_check_detlike,
)
from reflact import invariants as invariants_mod
from reflact.invariants import (_as_dim, _class_average, _fixed_flat_traces,
                                _orbit_isotypic_dim)
from reflact.osalg import (OSElement, _circuits, _nbc_levels, _straightening,
                           _trace, apply_perm, nbc_basis, perm_trace,
                           straighten)
from test_osalg import memoized


def braid3():
    return make_arrangement("braid", 1, 3)


def w3():
    return make_grpn(1, 1, 3)


SMALL_CORPUS = [
    (braid3(), w3()),
    (make_arrangement("full", 2, 2), make_grpn(2, 1, 2)),
    (make_arrangement("full", 3, 2), make_grpn(3, 1, 2)),
    (make_arrangement("zero", 2, 2), make_grpn(2, 2, 2)),
]


def test_poincare_poly_basics():
    p = PoincarePoly([1, 2, 1])
    assert p == (1, 2, 1) and p == [1, 2, 1]
    assert p(1) == 4 and p(-1) == 0 and p(2) == 9
    assert str(p) == "1+2t+t^2"
    assert str(PoincarePoly([1, 1, 0, 1])) == "1+t+t^3"
    assert p.to_json() == [1, 2, 1]


def test_symmetric_group_braid_invariants():
    A, G = braid3(), w3()
    chi = trivial_character(G)
    assert isotypic_dim_global(A, G, chi, 0) == 1
    assert isotypic_dim_global(A, G, chi, 1) == 1
    assert isotypic_dim_global(A, G, chi, 2) == 0
    assert poincare_invariants(A, G, chi) == (1, 1, 0)
    assert not high_degree_invariants(A, G)


def test_full_monomial_rank2_invariants():
    A, G = make_arrangement("full", 2, 2), make_grpn(2, 1, 2)
    chi = trivial_character(G)
    assert isotypic_dim_global(A, G, chi, 0) == 1
    assert isotypic_dim_global(A, G, chi, 2) == 1
    assert poincare_invariants(A, G, chi) == (1, 2, 1)
    assert high_degree_invariants(A, G)


def test_methods_agree_on_small_corpus():
    for A, G in SMALL_CORPUS:
        for chi in (trivial_character(G), det_character(G)):
            report = isotypic_dims_orbitwise(A, G, chi)
            for k in range(A.rank() + 1):
                g = isotypic_dim_global(A, G, chi, k)
                assert g == report.graded[k]
                assert g == isotypic_dim_projection(A, G, chi, k)


def test_orbitwise_report_zero_kind():
    A, G = make_arrangement("zero", 2, 4), make_grpn(2, 2, 4)
    report = isotypic_dims_orbitwise(A, G, trivial_character(G))
    assert report.graded == (1, 1, 0, 1, 1)
    nonzero = [(o.codim, d) for o, d in report.orbit_dims if d > 0]
    assert nonzero == [(0, 1), (1, 1), (3, 1), (4, 1)]
    j = report.to_json()
    assert j["poincare"] == [1, 1, 0, 1, 1]
    assert j["method"] == "orbitwise"


def test_full_kind_odd_n():
    A, G = make_arrangement("full", 2, 3), make_grpn(2, 1, 3)
    assert poincare_invariants(A, G, trivial_character(G)) == (1, 2, 2, 1)


def test_lehrer_solomon_check():
    for A, G in SMALL_CORPUS:
        res = lehrer_solomon_check(A, G, trivial_character(G))
        assert res["passed"]
        assert res["orbit_failures"] == [] and res["degree_failures"] == []


def test_euler_identity_all_linear_characters():
    for A, G in SMALL_CORPUS:
        for chi in linear_characters(G):
            assert euler_identity_check(A, G, chi)


def test_euler_identity_empty_arrangement():
    A = Arrangement.from_covectors(2, [])
    with pytest.raises(ValueError):
        euler_identity_check(A, w3(), trivial_character(w3()))
    with pytest.raises(ValueError):
        high_degree_invariants(A, w3())


def test_project_invariant_idempotent():
    A, G = make_arrangement("full", 2, 2), make_grpn(2, 1, 2)
    x = straighten(A, (0, 2))
    p = project_invariant(A, G, x)
    assert project_invariant(A, G, p) == p
    perms = hyperplane_action(G, A).perms
    for g in G.generators:
        assert apply_perm(A, perms[g], p) == p


def test_theorem4_braid():
    A, G = braid3(), w3()
    basis = theorem4_basis(A, G)
    assert basis.cardinality == 2
    assert basis.poincare == (1, 1, 0)
    assert [e["monomials"] for e in basis.entries] == [[()], [(0,)]]


def test_theorem4_rank_zero():
    # d maps H^0 to 0: no Euler check, and the basis is the empty monomial
    A, G = make_arrangement("zero", 1, 1), make_grpn(1, 1, 1)
    assert A.rank() == 0
    basis = theorem4_basis(A, G)
    assert basis.poincare == (1,) and basis.cardinality == 1
    assert [e["monomials"] for e in basis.entries] == [[()]]


def test_theorem4_rank2_pairing():
    A, G = make_arrangement("full", 3, 2), make_grpn(3, 1, 2)
    basis = theorem4_basis(A, G)
    assert basis.poincare == (1, 2, 1)
    top = [e for e in basis.entries if e["codim"] == 2]
    assert len(top) == 1 and len(top[0]["monomials"]) == 1
    h1, h2 = top[0]["monomials"][0]
    assert h1 != h2


def test_theorem4_family_and_list_form():
    A, G = make_arrangement("zero", 2, 4), make_grpn(2, 2, 4)
    basis = theorem4_basis(A, G, family=("zero", 2, 2, 4))
    assert basis.cardinality == 4
    assert basis.poincare == (1, 1, 0, 1, 1)
    # the same monomials passed as plain groups give the same basis
    groups = [e["monomials"] for e in basis.entries if e["codim"] >= 2]
    again = theorem4_basis(A, G, cox_monomials=groups)
    assert [e["monomials"] for e in again.entries] == \
        [e["monomials"] for e in basis.entries]


def test_theorem4_unlabeled_orbit():
    A, G = make_arrangement("full", 2, 3), make_grpn(2, 1, 3)
    with pytest.raises(UnlabeledPairError):
        theorem4_basis(A, G)


def test_theorem4_wrong_monomial_count():
    A, G = braid3(), w3()
    with pytest.raises(BasisVerificationError):
        theorem4_basis(A, G, cox_monomials=[[(0,), (1,)]])


def test_relative_character_self():
    A, G = make_arrangement("full", 2, 2), make_grpn(2, 1, 2)
    rep = relative_character(A, G, G)
    for e in rep.entries:
        assert e["multiplicities"][0] == e["dim"]
        assert sum(e["multiplicities"]) == e["dim"]


def test_relative_character_index_two():
    Gt = make_grpn(2, 1, 2)
    G = make_grpn(2, 2, 2)
    A = make_arrangement("full", 2, 2)
    rep = relative_character(A, G, Gt)
    kern = [Gt.contains_matrix(G.elements[gi]) for gi in G.generators]
    sigma = order_two_character(Gt, kern)
    si = rep.characters.index(sigma)
    by_key = {e["rep_key"]: e for e in rep.entries}
    assert by_key[()]["multiplicities"] == [1, 0, 0, 0]
    assert by_key[(0,)]["multiplicities"] == [1, 0, 0, 0]
    # the swap-type hyperplane orbit and the center each pick up sigma
    assert by_key[(1,)]["dim"] == 2
    assert by_key[(1,)]["multiplicities"][0] == 1
    assert by_key[(1,)]["multiplicities"][si] == 1
    center = [e for e in rep.entries if e["codim"] == 2][0]
    assert center["multiplicities"][0] == 1 and center["multiplicities"][si] == 1


def test_relative_character_not_normal():
    Gt = make_grpn(2, 1, 2)
    G = generate([CycMatrix.from_rows([[-1, 0], [0, 1]])])
    A = make_arrangement("full", 2, 2)
    with pytest.raises(NotNormalError):
        relative_character(A, G, Gt)


def test_relative_character_not_contained():
    Gt = make_grpn(2, 2, 2)
    G = make_grpn(2, 1, 2)
    A = make_arrangement("zero", 2, 2)
    with pytest.raises(NotNormalError):
        relative_character(A, G, Gt)


def test_order_two_character_selection():
    Gt = make_grpn(2, 1, 2)
    with pytest.raises(CharacterSelectionError):
        order_two_character(Gt, [])  # three candidates
    chi = order_two_character(Gt, [Gt.generators[0]])
    assert chi(Gt.generators[0]) == Cyc.one()
    assert not chi.is_trivial()


def test_multiplicity_classfn_matches_isotypic():
    for A, G in SMALL_CORPUS:
        classes = conjugacy_classes(G)
        for chi in (trivial_character(G), det_character(G)):
            phi = [chi(cls[0]) for cls in classes]
            for k in range(A.rank() + 1):
                m = multiplicity_classfn(A, G, phi, k)
                assert m.is_rational()
                assert m.rational_value() == isotypic_dim_global(A, G, chi, k)


def test_multiplicity_classfn_sign_vanishes():
    A, G = braid3(), w3()
    sgn = det_character(G)
    phi = [sgn(cls[0]) for cls in conjugacy_classes(G)]
    for k in range(A.rank() + 1):
        assert multiplicity_classfn(A, G, phi, k).is_zero()


def test_multiplicity_classfn_length_mismatch():
    A, G = braid3(), w3()
    with pytest.raises(ClassMismatchError):
        multiplicity_classfn(A, G, [Cyc.one()], 1)


def test_vanishing_detlike():
    for r, p, n in [(1, 1, 3), (2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        G = make_grpn(r, p, n)
        res = vanishing_check_detlike(reflection_arrangement(G), G)
        assert res["passed"] and res["violations"] == []


# -- class averages against the per-element average ---------------------------

def _element_average(G, phi_of, trace):
    """The reference (1/|G|) sum over every element g of phi_of(g^{-1}) *
    trace(g), with no use of conjugacy classes."""
    total = Cyc.zero()
    for g in range(G.order):
        total = total + phi_of(G.inverse[g]) * Cyc.rational(trace(g))
    return total * Cyc.rational(Fraction(1, G.order))


def _os_trace(A, G, k):
    perms = hyperplane_action(G, A).perms
    return lambda g: perm_trace(A, perms[g], k)


def test_global_averages_match_per_element_reference():
    H3 = shipped_group("h3")
    pairs = SMALL_CORPUS + [
        (make_arrangement("zero", 2, 4), make_grpn(2, 2, 4)),
        (reflection_arrangement(H3), H3)]
    for A, G in pairs:
        classes = conjugacy_classes(G)
        for chi in linear_characters(G):
            phi = [chi(cls[0]) for cls in classes]
            for k in range(A.rank() + 1):
                ref = _element_average(G, chi, _os_trace(A, G, k))
                assert multiplicity_classfn(A, G, phi, k) == ref
                assert Cyc.rational(isotypic_dim_global(A, G, chi, k)) == ref


def test_class_indicators_read_the_inverse_class():
    # G(3,1,2) has classes not closed under inversion; an OS trace cannot
    # tell g from g^{-1} (H^k is defined over Q), so the helper is also fed
    # class indicators as traces, which can
    A, G = make_arrangement("full", 3, 2), make_grpn(3, 1, 2)
    classes = conjugacy_classes(G)
    cls_of = {g: ci for ci, cls in enumerate(classes) for g in cls}
    assert any(cls_of[G.inverse[cls[0]]] != ci for ci, cls in enumerate(classes))
    indicators = [[Cyc.one() if cj == ci else Cyc.zero()
                   for cj in range(len(classes))] for ci in range(len(classes))]
    for phi in indicators:
        phi_of = lambda g: phi[cls_of[g]]
        for k in range(A.rank() + 1):
            assert multiplicity_classfn(A, G, phi, k) == \
                _element_average(G, phi_of, _os_trace(A, G, k))
        for ind in indicators:
            trace = lambda g: ind[cls_of[g]].rational_value()
            assert _class_average(G, phi, trace) == \
                _element_average(G, phi_of, trace)


@pytest.mark.parametrize("make", [lambda: make_grpn(3, 1, 3),
                                  lambda: make_grpn(4, 2, 3),
                                  lambda: shipped_group("h3")])
def test_class_average_grouped_by_value_matches_per_class_sum(make):
    # the int weights are summed per distinct value of phi; the result must
    # be the per-class sum, and traces are read only where phi(c^-1) != 0
    G = make()
    A = reflection_arrangement(G)
    perms = hyperplane_action(G, A).perms
    classes = conjugacy_classes(G)
    cls_of = {g: ci for ci, cls in enumerate(classes) for g in cls}
    inv = [cls_of[G.inverse[cls[0]]] for cls in classes]
    z = Cyc.root_of_unity(12)
    phis = [[chi(cls[0]) for cls in classes] for chi in linear_characters(G)]
    phis.append([z ** (j % 5) if j % 3 else Cyc.zero()
                 for j in range(len(classes))])
    for phi in phis:
        for k in range(A.rank() + 1):
            def tr(g):
                return _fixed_flat_traces(A, perms[g])[k]
            ref = sum((phi[inv[j]] * Cyc.rational(len(cls) * tr(cls[0]))
                       for j, cls in enumerate(classes)), Cyc.zero())
            read = []
            got = _class_average(G, phi, lambda g: read.append(g) or tr(g))
            assert got == ref * Cyc.rational(Fraction(1, G.order))
            assert read == [cls[0] for j, cls in enumerate(classes)
                            if phi[inv[j]]]


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


def _sign_changes(n):
    """The diagonal sign changes, normal in G(2,1,n) with quotient S_n."""
    return generate([CycMatrix.from_rows(
        [[-1 if r == c == i else int(r == c) for c in range(n)] for r in range(n)])
        for i in range(n)])


RELATIVE_PAIRS = {
    "g224_in_g214": lambda: (make_arrangement("full", 2, 4),
                             make_grpn(2, 2, 4), make_grpn(2, 1, 4)),
    "g443_in_g423": lambda: (make_arrangement("full", 4, 3),
                             make_grpn(4, 4, 3), make_grpn(4, 2, 3)),
    "g333_in_g313": lambda: (make_arrangement("full", 3, 3),
                             make_grpn(3, 3, 3), make_grpn(3, 1, 3)),
    "signs_in_g213": lambda: (make_arrangement("full", 2, 3),
                              _sign_changes(3), make_grpn(2, 1, 3)),
}


@pytest.mark.parametrize("pair", sorted(RELATIVE_PAIRS))
def test_relative_character_matches_per_element_reference(pair):
    A, G, Gt = RELATIVE_PAIRS[pair]()
    report = relative_character(A, G, Gt)
    by_key = {e["rep_key"]: e for e in report.entries}
    perms = hyperplane_action(Gt, A).perms
    for o in orbits_on_lattice(Gt, A):
        k = o.codim
        # K_T^G, spanned from every flat of the orbit
        span = Span()
        for f in o.orbit:
            for mono in nbc_basis(subarrangement(A, f), k).monomials:
                parent = tuple(f.key[i] for i in mono)
                span.add(project_invariant(A, G, straighten(A, parent)).coeffs)
        entry = by_key[o.representative.key]
        assert entry["dim"] == len(span.pivots)
        traces = {}

        def trace(g):
            p = perms[g]
            if p not in traces:
                traces[p] = _perm_trace_on_span(A, p, span, k)
            return traces[p]

        for chi, m in zip(report.characters, entry["multiplicities"]):
            assert _element_average(Gt, chi, trace) == Cyc.rational(m)


@pytest.mark.parametrize("pair,offset", [
    ("g224_in_g214", 1), ("g224_in_g214", -1), ("signs_in_g213", 1)])
def test_relative_character_checks_the_multiplicity_sum(pair, offset, monkeypatch):
    # above the dimension always fails; below it fails when Gt/G is abelian.
    # Only the ambient group's multiplicities are shifted: G's invariant
    # dimensions, which give dim K_T^G, stay right
    A, G, Gt = RELATIVE_PAIRS[pair]()
    orbit_dim = invariants_mod._orbit_isotypic_dim
    monkeypatch.setattr(invariants_mod, "_orbit_isotypic_dim",
                        lambda A_, H, *rest: orbit_dim(A_, H, *rest)
                        + (offset if H is Gt else 0))
    with pytest.raises(NonIntegralityError):
        relative_character(A, G, Gt)


def test_relative_character_traces_each_ambient_orbit_once(monkeypatch):
    # the class traces of K_T do not depend on the character, so each orbit
    # of the ambient group that carries G-invariants is traced once, at one
    # element per conjugacy class, however many characters are 1 on G
    A, G, Gt = RELATIVE_PAIRS["g224_in_g214"]()
    report = relative_character(A, G, Gt)
    real = invariants_mod._orbit_class_traces
    traced = []

    def counting(A_, H, orbit):
        traces = real(A_, H, orbit)
        if H is Gt:
            traced.append(orbit.representative.key)
            assert sorted(traces) == sorted(c[0] for c in conjugacy_classes(Gt))
        return traces

    monkeypatch.setattr(invariants_mod, "_orbit_class_traces", counting)
    assert relative_character(A, G, Gt).to_json() == report.to_json()
    carriers = [e["rep_key"] for e in report.entries if e["dim"]]
    assert len(carriers) == 8
    assert sorted(traced) == sorted(carriers)


def test_method_disagreement_is_caught(monkeypatch):
    # the global and orbitwise methods are cross-checked in every degree
    A, G = make_arrangement("full", 2, 3), make_grpn(2, 1, 3)
    chi = trivial_character(G)
    real = invariants_mod.isotypic_dim_global
    monkeypatch.setattr(invariants_mod, "isotypic_dim_global",
                        lambda A_, G_, chi_, k: real(A_, G_, chi_, k) + (k == 2))
    with pytest.raises(NonIntegralityError, match="method disagreement at degree 2"):
        poincare_invariants(A, G, chi)
    result = lehrer_solomon_check(A, G, chi)
    assert not result["passed"]
    assert result["degree_failures"] == [2] and result["orbit_failures"] == []


@pytest.mark.parametrize("value", [
    Cyc.root_of_unity(3), Cyc.rational(Fraction(1, 2)), Cyc.rational(-1)],
    ids=["non_rational", "fractional", "negative"])
def test_as_dim_refuses_what_is_not_a_dimension(value):
    assert _as_dim(Cyc.rational(3)) == 3
    with pytest.raises(NonIntegralityError):
        _as_dim(value)


def test_global_average_traces_one_permutation_per_class():
    G = make_grpn(3, 1, 4)
    A = make_arrangement.__wrapped__("full", 3, 4)   # fresh: no traces cached
    isotypic_dim_global(A, G, trivial_character(G), 2)
    traced = memoized(A, _fixed_flat_traces)
    assert 0 < len(traced) <= len(conjugacy_classes(G))
    # the global method straightens nothing: A has no Orlik-Solomon fact
    assert not any(memoized(A, fact) for fact in
                   (_circuits, _nbc_levels, _straightening, _trace))


def test_fixed_flat_traces_equal_os_traces():
    # the Mobius sums over fixed flats against the straightened NBC traces,
    # on every class representative, and on every distinct permutation
    # where |G| <= 384
    H3, F4 = shipped_group("h3"), shipped_group("f4")
    pairs = [
        (make_arrangement("zero", 1, 4), make_grpn(1, 1, 4)),
        (make_arrangement("zero", 2, 4), make_grpn(2, 2, 4)),
        (make_arrangement("full", 2, 4), make_grpn(2, 1, 4)),
        (reflection_arrangement(H3), H3),
        (make_arrangement("full", 3, 4), make_grpn(3, 1, 4)),
        (reflection_arrangement(F4), F4),
    ]
    for A, G in pairs:
        perms = hyperplane_action(G, A).perms
        checked = {perms[cls[0]] for cls in conjugacy_classes(G)}
        if G.order <= 384:
            checked.update(perms)
        for p in checked:
            assert list(_fixed_flat_traces(A, p)) == \
                [perm_trace(A, p, k) for k in range(A.rank() + 1)]


# -- orbitwise averages as induced characters over G's classes ----------------

def _orbit_permutation_average(A, G, orbit, chi):
    """The reference (1/|N_T|) sum over the distinct permutations p that N_T
    induces on the representative's hyperplanes of (sum of chi(g^{-1}) over
    the g inducing p) * tr(p | H^top(A_T)), with no use of classes."""
    key = orbit.representative.key
    pos = {h: j for j, h in enumerate(key)}
    perms = hyperplane_action(G, A).perms
    weights = {}
    for g in orbit.N:
        p = tuple(pos[perms[g][i]] for i in key)
        weights[p] = weights.get(p, Cyc.zero()) + chi(G.inverse[g])
    sub = subarrangement(A, orbit.representative)
    total = Cyc.zero()
    for p, w in weights.items():
        total = total + w * Cyc.rational(perm_trace(sub, p, orbit.codim))
    return total * Cyc.rational(Fraction(1, len(orbit.N)))


def test_orbitwise_class_average_matches_permutation_reference():
    H3, F4 = shipped_group("h3"), shipped_group("f4")
    pairs = [
        (make_arrangement("zero", 1, 4), make_grpn(1, 1, 4)),
        (make_arrangement("zero", 2, 4), make_grpn(2, 2, 4)),
        (make_arrangement("full", 2, 4), make_grpn(2, 1, 4)),
        (reflection_arrangement(H3), H3),
        (make_arrangement("full", 3, 4), make_grpn(3, 1, 4)),
        (reflection_arrangement(F4), F4),
    ]
    for A, G in pairs:
        for o in orbits_on_lattice(G, A):
            for chi in linear_characters(G):
                assert Cyc.rational(_orbit_isotypic_dim(A, G, o, chi)) == \
                    _orbit_permutation_average(A, G, o, chi)


def test_cached_facts_die_with_their_group_and_arrangement():
    # generate and from_covectors keep no module-level cache of their own,
    # so once the caller drops G and A every memoized fact goes with them
    import gc
    import weakref
    G = generate([CycMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                  CycMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])])
    A = Arrangement.from_covectors(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    assert poincare_invariants(A, G, trivial_character(G)) == (1, 1, 0)
    top = orbits_on_lattice(G, A)[-1].representative
    assert len(subarrangement(A, top)) == 3
    refs = weakref.ref(G), weakref.ref(A)
    del G, A, top
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_orbitwise_traces_one_permutation_per_class():
    # the top orbit has one flat, fixed by all of G, so its character is
    # traced at most once per conjugacy class of G
    G = make_grpn(3, 1, 4)
    A = make_arrangement.__wrapped__("full", 3, 4)   # fresh: no traces cached
    isotypic_dims_orbitwise(A, G, trivial_character(G))
    top = [o for o in orbits_on_lattice(G, A) if o.codim == A.rank()]
    assert len(top) == 1 and len(conjugacy_classes(G)) == 51
    sub = subarrangement(A, top[0].representative)
    traces = memoized(sub, _trace)
    traced = [key for key in traces if key[0] == A.rank()]
    assert 0 < len(traced) <= 51


def test_orbitwise_makes_one_cyc_addition_per_class(monkeypatch):
    G, A = make_grpn(3, 1, 4), make_arrangement("full", 3, 4)
    orbits = orbits_on_lattice(G, A)
    calls = []
    original = Cyc.__add__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Cyc, "__add__", counting)
    for chi in linear_characters(G):
        for o in orbits:
            calls.clear()
            _orbit_isotypic_dim(A, G, o, chi)
            assert len(calls) <= len(conjugacy_classes(G))


def test_poincare_invariants_builds_no_element_matrices():
    # the pipeline reads the generators' matrices only, through G.matrix
    G = make_grpn.__wrapped__(3, 1, 4)
    poincare_invariants(make_arrangement("full", 3, 4), G, trivial_character(G))
    assert "elements" not in vars(G)
