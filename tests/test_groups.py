import copy
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from test_exactnum import exact, ref_rref

from reflact import catalog
from reflact import groups as groups_mod
from reflact.arrangement import Arrangement, Hyperplane, build_lattice
from reflact.exactnum import Cyc, CycMatrix, _prime_root, rref
from reflact.arrangement import canonicalize_hyperplane
from reflact.groups import (
    NotStableError,
    OrderCapExceededError,
    center,
    conjugacy_classes,
    det_character,
    determinant_like_characters,
    generate,
    group_from_json,
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
    pointwise_stabilizer,
    reflection_arrangement,
    reflections,
    setwise_stabilizer,
)


def perm_matrix(n, i, j):
    ent = [[1 if (r == c and r not in (i, j)) or (r, c) in ((i, j), (j, i)) else 0
            for c in range(n)] for r in range(n)]
    return CycMatrix.from_rows(ent)


def w3():
    return generate([perm_matrix(3, 0, 1), perm_matrix(3, 1, 2)])


def g212():
    return generate([CycMatrix.from_rows([[-1, 0], [0, 1]]), perm_matrix(2, 0, 1)])


def g333():
    z = Cyc.root_of_unity(3)
    t = perm_matrix(3, 0, 1)
    t2 = perm_matrix(3, 1, 2)
    s1 = CycMatrix.from_rows([[0, z, 0], [z * z, 0, 0], [0, 0, 1]])
    return generate([t, t2, s1])


def test_generate_orders():
    assert w3().order == 6
    assert g212().order == 8
    assert g333().order == 54  # 3^3 * 3! / 3


def test_a_group_with_its_elements_survives_deepcopy():
    G = catalog.make_grpn(2, 1, 3)
    G.elements
    H = copy.deepcopy(G)
    assert (H.order, H.perms, H.vectors) == (G.order, G.perms, G.vectors)
    assert H.elements == G.elements and H.elements[1] is not G.elements[1]


def test_generate_identity_first_and_inverses():
    G = g212()
    assert G.elements[0].is_identity()
    for i in range(G.order):
        assert G.mul(i, G.inverse[i]) == 0


def test_order_cap():
    with pytest.raises(OrderCapExceededError):
        generate([perm_matrix(3, 0, 1), perm_matrix(3, 1, 2)], order_cap=4)


def _phi(k):
    out, x, p = k, k, 2
    while p * p <= x:
        if x % p == 0:
            while x % p == 0:
                x //= p
            out -= out // p
        p += 1
    return out - out // x if x > 1 else out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_order_bound_is_brute_force_lcm(m):
    # phi(k) >= sqrt(k / 2) and phi(k) <= phi(lcm(m, k)), so every order
    # that qualifies is at most 2 (n phi(m))^2
    for n in range(1, 6):
        bound = n * _phi(m)
        L = 1
        for k in range(1, 2 * bound * bound + 1):
            if _phi(m * k // gcd(m, k)) <= bound:
                L = L * k // gcd(L, k)
        assert groups_mod._order_bound(n, m) == L, (n, m)


def test_order_bound_examples():
    # lcm(1, 2, 3, 4, 6) for 2 x 2 rational matrices; 16 * 3 * 5 for G(4,1,4)
    assert groups_mod._order_bound(2, 1) == 12
    assert groups_mod._order_bound(4, 4) == 240


def test_dimension_needed_examples():
    # orders 3 and 4 fit in GL_2(Q) but 12 needs phi(3) + phi(4); a factor 2
    # costs nothing over Q, and 4 costs nothing over Q(i)
    assert [groups_mod._dimension_needed(k, 1) for k in (1, 2, 3, 4, 6, 12)] \
        == [0, 0, 2, 2, 2, 4]
    assert groups_mod._dimension_needed(60, 1) == 8
    assert groups_mod._dimension_needed(12, 4) == 2


def test_infinite_order_is_refused_at_any_cap():
    # diag(2, 1/2, 1, ..., 1) has determinant 1; in dimension 12 the order
    # bound is 720,720, and g^L != I modulo p refuses it whatever the cap
    n = 12
    gen = [[Cyc.zero()] * n for _ in range(n)]
    for i in range(n):
        gen[i][i] = Cyc.rational({0: 2, 1: Fraction(1, 2)}.get(i, 1))
    assert groups_mod._order_bound(n, 1) == 720720
    for cap in (20, groups_mod.DEFAULT_ORDER_CAP):
        with pytest.raises(OrderCapExceededError, match="infinite order"):
            generate([CycMatrix.from_rows(gen)], order_cap=cap)


def test_generator_that_passes_modulo_p_is_refused_exactly():
    # [[0, 1], [1, p]] has determinant -1 and is the swap modulo p, so it
    # passes modulo p with order 2; g^2 != I exactly refuses it
    p, _ = _prime_root(1, 1 << 30)
    g = CycMatrix.from_rows([[0, 1], [1, p]])
    assert groups_mod._order_mod_p(g, groups_mod._order_bound(2, 1)) == (p, 2)
    for cap in (20, groups_mod.DEFAULT_ORDER_CAP):
        with pytest.raises(OrderCapExceededError,
                           match="infinite order.*not exactly"):
            generate([g], order_cap=cap)


def test_generator_order_above_the_cap_is_refused_before_the_closure():
    # a 5-cycle has order 5 > 4; the closure would find the same
    cycle = CycMatrix.from_rows([[int(i == (j + 1) % 5) for j in range(5)]
                                 for i in range(5)])
    with pytest.raises(OrderCapExceededError, match="exceeds cap 4"):
        generate([cycle], order_cap=4)
    assert generate([cycle], order_cap=5).order == 5


class _Captured(Exception):
    pass


def _generators_of(monkeypatch, build):
    """The generators a catalog build passes to generate, without the
    enumeration."""
    def spy(gens, **kwargs):
        raise _Captured(list(gens))

    monkeypatch.setattr(catalog, "generate", spy)
    monkeypatch.setattr(groups_mod, "generate", spy)
    with pytest.raises(_Captured) as info:
        build()
    return info.value.args[0]


@pytest.mark.parametrize("build", [
    (lambda r=r, p=p, n=n: catalog.make_grpn.__wrapped__(r, p, n))
    for r in range(1, 5) for p in range(1, r + 1) if r % p == 0
    for n in range(1, 5)] + [
    lambda: catalog.load_group_file(catalog.data_dir() / "h3.json"),
    lambda: catalog.load_group_file(catalog.data_dir() / "f4.json"),
], ids=["G(%d,%d,%d)" % (r, p, n)
        for r in range(1, 5) for p in range(1, r + 1) if r % p == 0
        for n in range(1, 5)] + ["H3", "F4"])
def test_every_catalog_generator_passes_the_modular_order_test(
        monkeypatch, build):
    for g in _generators_of(monkeypatch, build):
        L = groups_mod._order_bound(g.rows, g.m)
        p, k = groups_mod._order_mod_p(g, L)
        assert (p - 1) % g.m == 0 and p > 1 << 30, (g, p)
        power, order = g, 1
        while not power.is_identity():
            power, order = power * g, order + 1
        assert k == order and L % k == 0, (g, k, order)
        assert groups_mod._dimension_needed(k, g.m) <= g.rows


def test_modular_order_test_skips_a_prime_in_a_denominator():
    # [[0, q], [1/q, 0]] has order 2, and q is the first prime the test
    # would try; it must move on to the next prime = 1 (mod 3)
    w = Cyc.root_of_unity(3)
    q, _ = _prime_root(3, 1 << 30)
    g = CycMatrix.from_rows([[0, w * q], [Cyc.rational(Fraction(1, q)) / w, 0]])
    p, k = groups_mod._order_mod_p(g, groups_mod._order_bound(2, 3))
    assert k == 2 and p == _prime_root(3, q)[0] and p != q
    assert p % 3 == 1 and all(p % d for d in range(2, 1 << 16))
    # q is also the first prime for conductor 1; diag(q, 1/q) has infinite
    # order and is refused modulo the next one
    assert _prime_root(1, 1 << 30)[0] == q
    g = CycMatrix.from_rows([[q, 0], [0, Fraction(1, q)]])
    p, k = groups_mod._order_mod_p(g, groups_mod._order_bound(2, 1))
    assert k is None and p == _prime_root(1, q)[0]


def test_each_generator_image_is_computed_once(monkeypatch):
    # the closure keys orbit vectors by value, so the exact products are
    # one per (orbit vector, generator) pair
    G = catalog.make_grpn(4, 2, 3)
    gens = [G.elements[g] for g in G.generators]
    calls = []
    apply = CycMatrix.apply
    monkeypatch.setattr(CycMatrix, "apply",
                        lambda self, v: calls.append(1) or apply(self, v))
    assert generate(gens).order == G.order == 192
    assert len(calls) == len(G.vectors) * len(gens)


def test_trivial_group():
    G = generate([], dim=2)
    assert G.order == 1
    assert reflections(G) == []
    assert determinant_like_characters(G) == []


def test_reflections_w3():
    G = w3()
    refl = reflections(G)
    assert len(refl) == 3
    covs = sorted(tuple(str(c) for c in h.covector) for _, h in refl)
    assert covs == [("0", "1", "-1"), ("1", "-1", "0"), ("1", "0", "-1")]


def test_reflections_g212():
    # oracle: enumerate the 8 elements, rank-check I - g
    G = g212()
    refl = reflections(G)
    assert len(refl) == 4
    for i, h in refl:
        g = G.elements[i]
        fixed = g.apply([c for c in _kernel_vec(h)])
        assert all((a - b).is_zero() for a, b in zip(fixed, _kernel_vec(h)))


def _kernel_vec(h):
    # a nonzero vector in ker of a 2d covector
    a, b = h.covector
    if b.is_zero():
        return [Cyc.zero(), Cyc.one()]
    return [Cyc.one(), -(a / b)]


def test_reflection_arrangements():
    assert len(reflection_arrangement(w3())) == 3
    assert len(reflection_arrangement(g212())) == 4
    z = Cyc.root_of_unity(3)
    s = CycMatrix.from_rows([[0, z], [z * z, 0]])
    t = perm_matrix(2, 0, 1)
    G332 = generate([t, s])
    assert G332.order == 6
    assert len(reflection_arrangement(G332)) == 3


def test_orbits_w3_braid():
    G = w3()
    A = reflection_arrangement(G)
    orbits = orbits_on_lattice(G, A)
    assert [o.codim for o in orbits] == [0, 1, 2]
    for o in orbits:
        assert len(o.orbit) * len(o.N) == G.order
        assert o.Z <= o.N


def test_orbits_g212():
    G = g212()
    A = reflection_arrangement(G)
    orbits = orbits_on_lattice(G, A)
    hyper_orbits = [o for o in orbits if o.codim == 1]
    assert len(hyper_orbits) == 2  # |A/G| = 2


def test_orbits_trivial_group():
    G = generate([], dim=3)
    A = Arrangement.from_covectors(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    orbits = orbits_on_lattice(G, A)
    assert len(orbits) == len(build_lattice(A).by_key)


def test_not_stable():
    G = w3()
    A = Arrangement.from_covectors(3, [[1, -1, 0], [1, 0, -1]])
    with pytest.raises(NotStableError):
        hyperplane_action(G, A)
    G, A = catalog.make_grpn(2, 1, 3), catalog.make_arrangement("zero", 1, 3)
    with pytest.raises(NotStableError,
                       match="generator 3 maps hyperplane 1 outside A"):
        hyperplane_action(G, A)


@pytest.mark.parametrize("group, arrangement", [
    ("G(4,4,2)", "A_2^0(2)"),
    ("W(3)", "A_3^0(1)"),
    ("F4", None),
])
def test_hyperplane_action_matches_hashed_lookup(group, arrangement):
    # reference: g sends ker(a) to ker(a g^-1), canonicalized and found by
    # Cyc hashing in A.index_of; every element of the small groups, and the
    # generators and a sample of F4
    G = catalog.parse_group_spec(group)
    A = (catalog.parse_arrangement_spec(arrangement, G) if arrangement
         else reflection_arrangement(G))
    perms = hyperplane_action(G, A).perms
    checked = (range(G.order) if G.order < 100 else
               set(G.generators) | set(random.Random(5).sample(range(G.order), 40)))
    for k in checked:
        inv = G.matrix(G.inverse[k])
        assert tuple(perms[k]) == tuple(
            A.index_of(canonicalize_hyperplane(inv.apply_row(list(A.covector(i)))))
            for i in range(len(A)))


def test_stabilizers_w3():
    G = w3()
    A = reflection_arrangement(G)
    lat = build_lattice(A)
    # codim-1 flat: its Z and N have order 2 (identity and one transposition)
    f = lat.levels[1][0]
    Z = pointwise_stabilizer(G, f)
    N = setwise_stabilizer(G, f)
    assert len(Z) == 2 and Z == N
    cflat = lat.levels[2][0]
    assert pointwise_stabilizer(G, cflat) == frozenset(range(6))
    V = lat.levels[0][0]
    # setwise stabilizer of the full space is all of G; pointwise it is the
    # kernel of the action, which is trivial for a faithful matrix group
    assert setwise_stabilizer(G, V) == frozenset(range(6))
    assert pointwise_stabilizer(G, V) == frozenset({0})


def test_group_facts_are_computed_once():
    # the CLI matches characters by identity, so a second call must return
    # the very object the first one made
    G = w3()
    A = reflection_arrangement(G)
    for fn, args in [(conjugacy_classes, ()), (groups_mod._rational_classes, ()),
                     (linear_characters, ()), (reflections, ()),
                     (reflection_arrangement, ()), (hyperplane_action, (A,)),
                     (orbits_on_lattice, (A,))]:
        assert fn(G, *args) is fn(G, *args), fn.__name__
    assert build_lattice(A) is build_lattice(A)


def test_center_and_classes():
    assert center(w3()) == frozenset({0})
    G = g212()
    c = center(G)
    assert len(c) == 2
    for i in c:
        g = G.elements[i]
        assert g.is_identity() or all(
            (g[r, s] - (Cyc.rational(-1) if r == s else Cyc.zero())).is_zero()
            for r in range(2) for s in range(2))
    sizes = sorted(len(c) for c in conjugacy_classes(w3()))
    assert sizes == [1, 2, 3]


def test_center_in_setwise_stabilizers():
    G = g212()
    A = reflection_arrangement(G)
    c = center(G)
    for o in orbits_on_lattice(G, A):
        assert c <= o.N


def test_steinberg_pointwise_stabilizers():
    # the pointwise stabilizer of each flat is generated by the reflections
    # fixing the flat pointwise
    for G in (w3(), g212(), g333()):
        A = reflection_arrangement(G)
        refl = dict(reflections(G))
        for f in build_lattice(A).all_flats():
            Z = pointwise_stabilizer(G, f)
            gens = [i for i in refl if i in Z]
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
            assert sub == set(Z)


def test_linear_characters_w3():
    chars = linear_characters(w3())
    assert len(chars) == 2
    assert chars[0].is_trivial()
    sign = chars[1]
    for i, _ in reflections(w3()):
        assert sign(i) == Cyc.rational(-1)


def test_linear_characters_g212():
    chars = linear_characters(g212())
    assert len(chars) == 4  # abelianization C2 x C2
    G = g212()
    import random
    rng = random.Random(7)
    for ch in chars:
        for _ in range(50):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert ch(G.mul(a, b)) == ch(a) * ch(b)
        assert ch(0) == Cyc.one()


def test_linear_characters_cyclic():
    z = Cyc.root_of_unity(3)
    G = generate([CycMatrix(1, 1, [z])])
    assert G.order == 3
    chars = linear_characters(G)
    assert len(chars) == 3


def test_determinant_like():
    G = w3()
    dl = determinant_like_characters(G)
    assert len(dl) == 1
    assert dl[0] == det_character(G)
    G2 = g212()
    dl2 = determinant_like_characters(G2)
    assert det_character(G2) in dl2
    refl_i = reflections(G2)[0][0]
    assert det_character(G2)(refl_i) == Cyc.rational(-1)


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(1, 1, 3),
    lambda: catalog.make_grpn(1, 1, 4),
    lambda: catalog.make_grpn(2, 1, 2),
    lambda: catalog.make_grpn(3, 1, 3),
    lambda: catalog.make_grpn(3, 3, 3),
    lambda: catalog.make_grpn(4, 2, 4),
    lambda: catalog.make_grpn(4, 1, 3),
    lambda: catalog.make_grpn(4, 4, 3),
    lambda: catalog.make_grpn(2, 2, 4),
    lambda: catalog.make_grpn(6, 2, 2),
    lambda: catalog.make_grpn(6, 3, 2),
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.shipped_group("f4"),
], ids=["W(3)", "W(4)", "G(2,1,2)", "G(3,1,3)", "G(3,3,3)", "G(4,2,4)",
        "G(4,1,3)", "G(4,4,3)", "G(2,2,4)", "G(6,2,2)", "G(6,3,2)", "H3", "F4"])
def test_determinant_like_matches_brute_force(build):
    # one check per reflection, the value's order counted by repeated products
    G = build()

    def value_order(x):
        k, cur = 1, x
        while cur != Cyc.one():
            cur, k = cur * x, k + 1
        return k

    want = [ch for ch in linear_characters(G)
            if all(value_order(ch(i)) == G.element_order(i)
                   for i, _ in reflections(G))]
    assert want and determinant_like_characters(G) == want


def test_det_character_multiplicative():
    G = g333()
    ch = det_character(G)
    chi = det_character(G, inverse=True)
    for a in G.generators:
        for b in G.generators:
            assert ch(G.mul(a, b)) == ch(a) * ch(b)
            assert chi(a) == ch(a).inverse()


def test_group_from_json():
    obj = {
        "conductor": 1,
        "dim": 2,
        "generators": [[["0", "1"], ["1", "0"]]],
    }
    G = group_from_json(obj)
    assert G.order == 2
    with pytest.raises(ValueError):
        group_from_json({"dim": 2, "generators": [[["1", "0"]]]})
    with pytest.raises(ValueError):
        generate([], dim=-1)


def _matrix_bfs(gens):
    """Reference enumeration by CycMatrix products, elements keyed by their
    exact entries: the same BFS as generate (identity first, base * g in
    generator order), without the orbit permutations.  cayley[k][t] is the
    index of elements[k] * gens[t]."""
    n = gens[0].rows
    m = 1
    for g in gens:
        m = m * g.m // gcd(m, g.m)

    def key(M):
        return tuple(e.lift(m).c for e in M.entries)

    elements = [CycMatrix.identity(n)]
    index = {key(elements[0]): 0}
    parents, cayley = [(-1, -1)], {}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gi, g in enumerate(gens):
                prod = elements[i] * g
                k = key(prod)
                if k not in index:
                    index[k] = len(elements)
                    nxt.append(len(elements))
                    elements.append(prod)
                    parents.append((i, gi))
                cayley[i, gi] = index[k]
        frontier = nxt
    cayley = [[cayley[i, gi] for gi in range(len(gens))] for i in range(len(elements))]
    return elements, parents, cayley, lambda M: index[key(M)]


def _built_with_generators(monkeypatch, build):
    """Build a catalog group and capture the generators it passes to
    generate."""
    seen = []

    def spy(gens, **kwargs):
        seen.append(list(gens))
        return generate(gens, **kwargs)

    monkeypatch.setattr(catalog, "generate", spy)
    monkeypatch.setattr(groups_mod, "generate", spy)
    G = build()
    return G, seen[-1]


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn.__wrapped__(1, 1, 4),
    lambda: catalog.make_grpn.__wrapped__(2, 2, 4),
    lambda: catalog.load_group_file(catalog.data_dir() / "h3.json"),
    lambda: catalog.load_group_file(catalog.data_dir() / "f4.json"),
    lambda: catalog.make_grpn.__wrapped__(3, 1, 3),
    lambda: catalog.make_grpn.__wrapped__(2, 2, 3),
], ids=["W(4)", "G(2,2,4)", "H3", "F4", "G(3,1,3)", "G(2,2,3)"])
def test_generate_matches_matrix_bfs(monkeypatch, build):
    G, gens = _built_with_generators(monkeypatch, build)
    elements, parents, cayley, index_of = _matrix_bfs(gens)
    # elements[k] = elements[parent] * gens[t], with (parent, t) = parents[k]
    assert [G.matrix(k) for k in range(G.order)] == elements
    assert G.elements == elements
    assert G.parents == parents
    assert G.generators == [index_of(g) for g in gens]
    assert G.cayley == cayley
    assert G.inverse == [index_of(M.inverse()) for M in elements]
    rng = random.Random(3)
    for _ in range(200):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert G.mul(i, j) == index_of(elements[i] * elements[j])
    assert all(G.contains_matrix(M) == k for k, M in enumerate(elements))


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(1, 1, 4),
    lambda: catalog.make_grpn(2, 2, 4),
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.shipped_group("f4"),
    lambda: catalog.make_grpn(3, 1, 3),
], ids=["W(4)", "G(2,2,4)", "H3", "F4", "G(3,1,3)"])
def test_classes_and_center_match_brute_force(build):
    # classes {y x y^-1 : y in G} and the center by products over all of G,
    # without the Cayley table
    G = build()
    want, class_of = [], {}
    for x in range(G.order):
        if x not in class_of:
            cls = sorted({G.mul(G.mul(y, x), G.inverse[y]) for y in range(G.order)})
            class_of.update(dict.fromkeys(cls, len(want)))
            want.append(cls)
    assert conjugacy_classes(G) == want
    assert center(G) == {x for x in range(G.order)
                         if all(G.mul(x, y) == G.mul(y, x) for y in range(G.order))}


def _powers(G, g):
    """g, g^2, ..., g^o = 1, by products."""
    out = [g]
    while out[-1] != 0:
        out.append(G.mul(out[-1], g))
    return out


@pytest.mark.parametrize("spec,classes,rational", [
    ("W(4)", 5, 5), ("H3", 10, 8), ("G(3,1,3)", 22, 13), ("G(3,3,3)", 10, 8),
    ("G(4,1,3)", 40, 26), ("G(3,1,4)", 51, 30), ("G(4,2,4)", 60, 46),
    ("F4", 25, 25)])
def test_rational_classes(spec, classes, rational):
    # a rational class joins the classes of the g^j with j prime to the
    # order of g; each class names the least member of the first class of
    # its rational class
    G = catalog.parse_group_spec(spec)
    cls = conjugacy_classes(G)
    reps = groups_mod._rational_classes(G)
    assert (len(cls), len(set(reps))) == (classes, rational)
    class_of = {x: c for c, members in enumerate(cls) for x in members}
    first = {}
    for c, g in enumerate(reps):
        assert cls[first.setdefault(g, c)][0] == g
    # closed under g -> g^j, and one rational class per representative
    for x in range(G.order):
        powers = _powers(G, x)
        assert {reps[class_of[y]] for j, y in enumerate(powers, 1)
                if gcd(j, len(powers)) == 1} == {reps[class_of[x]]}
    for g in first:
        powers = _powers(G, g)
        assert {class_of[y] for j, y in enumerate(powers, 1)
                if gcd(j, len(powers)) == 1} == \
            {c for c, r in enumerate(reps) if r == g}


@pytest.mark.parametrize("group, arrangement, kernel, rational, image", [
    ("G(4,1,4)", "A_4(4)", 4, 66, 28), ("G(4,2,4)", "A_4(4)", 4, 46, 24),
    ("G(3,1,4)", "A_4(3)", 3, 30, 13), ("G(6,2,3)", "A_3(6)", 3, 28, 13),
    ("H3", None, 2, 8, 4), ("F4", None, 2, 25, 16),
    ("G(3,3,4)", "A_4(3)", 1, 13, 13), ("G(2,1,4)", "A_4(2)", 2, 20, 14),
    ("G(2,2,4)", "A_4^0(2)", 2, 13, 10), ("W(4)", "A_4^0(1)", 1, 5, 5)])
def test_action_classes_count_the_rational_classes_of_the_image(
        group, arrangement, kernel, rational, image):
    # |K| for K the kernel of G -> Sym(A), then the rational classes of G
    # and of its image G/K, which are as many as the traces an average reads
    G = catalog.parse_group_spec(group)
    A = catalog.parse_arrangement_spec(arrangement, G)
    action = hyperplane_action(G, A)
    assert len(action.fibers[action.perms[0]]) == kernel
    assert len(set(groups_mod._rational_classes(G))) == rational
    assert len(set(groups_mod._action_classes(G, A))) == image


def _perm_powers(action, p):
    """p, p^2, ..., p^o = the identity, by products of permutations."""
    out = [p]
    while out[-1] != action.perms[0]:
        out.append(action.compose(out[-1], p))
    return out


@pytest.mark.parametrize("group, arrangement", [
    ("H3", None), ("G(3,1,3)", "A_3(3)"), ("G(4,2,3)", "A_3(4)"),
    ("G(2,2,4)", "A_4^0(2)")])
def test_action_classes_are_closed_under_prime_powers(group, arrangement):
    # every permutation p^j, j prime to the order of p in G/K, lies in a
    # class with the same representative, and a representative's powers
    # reach exactly the classes it represents, the least member of which
    # it is; p's order is below g's for some g, so the walk is on p
    G = catalog.parse_group_spec(group)
    A = catalog.parse_arrangement_spec(arrangement, G)
    perms = hyperplane_action(G, A).perms
    classes = conjugacy_classes(G)
    reps = groups_mod._action_classes(G, A)
    rep_of = {}
    for cls, r in zip(classes, reps):
        for x in cls:
            assert rep_of.setdefault(perms[x], r) == r
    shorter = 0
    for x in range(G.order):
        walk = _perm_powers(hyperplane_action(G, A), perms[x])
        shorter += len(walk) < G.element_order(x)
        assert {rep_of[q] for j, q in enumerate(walk, 1)
                if gcd(j, len(walk)) == 1} == {rep_of[perms[x]]}
    assert shorter
    for g in set(reps):
        walk = _perm_powers(hyperplane_action(G, A), perms[g])
        met = {q for j, q in enumerate(walk, 1) if gcd(j, len(walk)) == 1}
        mine = [c for c, r in enumerate(reps) if r == g]
        assert [c for c, cls in enumerate(classes)
                if met.intersection(perms[x] for x in cls)] == mine
        assert g == min(x for c in mine for x in classes[c])


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(4, 2, 4),
    lambda: catalog.make_grpn(3, 1, 3),
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.load_group_file(
        Path(catalog.__file__).parent / "data" / "h3.json"),
], ids=["G(4,2,4)", "G(3,1,3)", "H3", "h3.json"])
def test_reflections_match_a_per_class_rank(build):
    # the reference decides rank(g - I) = 1 at every conjugacy class
    G = build()

    def rows(i):
        return [[e - (r == j) for j, e in enumerate(row)]
                for r, row in enumerate(G.matrix(i).row_list())]

    want = []
    for cls in conjugacy_classes(G):
        if ref_rref(CycMatrix.from_rows(rows(cls[0])))[2] == 1:
            want += [(i, canonicalize_hyperplane(
                next(r for r in rows(i) if any(r)))) for i in cls]
    assert reflections(G) == sorted(want, key=lambda t: t[0])


def test_contains_matrix_across_conductors():
    G333, G223 = catalog.make_grpn(3, 3, 3), catalog.make_grpn(2, 2, 3)
    assert (G333.m, G223.m) == (3, 2)
    perm = next(M for M in G223.elements
                if not M.is_identity()
                and all(e.is_zero() or e == 1 for e in M.entries))
    signed = next(M for M in G223.elements
                  if any(e == -1 for e in M.entries))
    k = G333.contains_matrix(perm)
    assert k is not None and G333.elements[k] == perm
    assert G333.contains_matrix(signed) is None
    assert G333.contains_matrix(CycMatrix.identity(2)) is None


def _root_group(m):
    """<zeta_m> in dimension 1: m orbit vectors, the elements zeta_m^k in
    BFS order k = 0..m-1."""
    return generate([CycMatrix(1, 1, [Cyc.root_of_unity(m)])])


@pytest.mark.parametrize("m, seq", [(256, bytes), (257, tuple)])
def test_permutations_change_type_above_256_points(m, seq):
    # 256 orbit vectors are the most a byte string holds; 257 take the
    # int-tuple path, whose products must agree with Cyc products too
    G = _root_group(m)
    assert (len(G.vectors), G.order) == (m, m)
    assert all(type(p) is seq for p in G.perms)
    rng = random.Random(7)
    for _ in range(50):
        i, j = rng.randrange(m), rng.randrange(m)
        assert G.matrix(G.mul(i, j)) == G.matrix(i) * G.matrix(j)
        assert (G.matrix(G.inverse[i]) * G.matrix(i)).is_identity()
        assert G.contains_matrix(G.matrix(i)) == i
    assert G.contains_matrix(CycMatrix.identity(1)) == 0


def test_bytes_permutations_match_the_tuple_path(monkeypatch):
    # at the 256-point boundary the bytes path gives the same elements,
    # parents, Cayley table, inverses and products as int tuples do, and
    # the same hyperplane permutations and fibers
    def build():
        G = _root_group(256)
        H = catalog.make_grpn.__wrapped__(3, 1, 3)
        return G, hyperplane_action(H, catalog.make_arrangement("full", 3, 3))

    (G, act), tuples = build(), groups_mod._perm_ops(257)
    monkeypatch.setattr(groups_mod, "_perm_ops", lambda size: tuples)
    T, tact = build()
    assert (type(G.perms[0]), type(T.perms[0])) == (bytes, tuple)
    assert [tuple(p) for p in G.perms] == T.perms
    assert (G.parents, G.cayley, G.inverse) == (T.parents, T.cayley, T.inverse)
    assert [G.mul(i, 37) for i in range(256)] == [T.mul(i, 37) for i in range(256)]
    assert (type(act.perms[0]), type(tact.perms[0])) == (bytes, tuple)
    assert [tuple(p) for p in act.perms] == tact.perms
    assert [(tuple(p), gs) for p, gs in act.fibers.items()] == \
        list(tact.fibers.items())


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(3, 3, 3),
    lambda: _root_group(257),
], ids=["G(3,3,3)", "zeta_257"])
def test_contains_matrix_is_none_for_a_column_outside_the_orbit(build):
    G = build()
    two = CycMatrix(G.n, G.n, [Cyc.rational(2) if r == c else Cyc.zero()
                               for r in range(G.n) for c in range(G.n)])
    assert G.contains_matrix(two) is None


def test_lookups_by_value_across_conductors():
    # G(4,1,3) at conductor 4 on A_3(4) rebuilt at conductor 12: orbit
    # vectors and hyperplanes are found by value, whatever the conductor
    G, A = catalog.make_grpn(4, 1, 3), catalog.make_arrangement("full", 4, 3)
    B = Arrangement(3, [Hyperplane(tuple(c.lift(12) for c in h.covector))
                        for h in A.hyperplanes])
    assert (G.m, A.conductor, B.conductor) == (4, 4, 12)
    assert B.hyperplanes == A.hyperplanes
    assert hyperplane_action(G, B).perms == hyperplane_action(G, A).perms
    M = CycMatrix(3, 3, [e.lift(12) for e in G.matrix(5).entries])
    assert M.m == 12 and G.contains_matrix(M) == 5


def _reflections_per_element(G):
    """Reference: one rref(g - I) per element; rank 1 is a reflection, and
    the first reduced row is its hyperplane."""
    out = []
    ident = CycMatrix.identity(G.n).entries
    for i, g in enumerate(G.elements):
        if i == 0:
            continue
        diff = CycMatrix(G.n, G.n, [a - b for a, b in zip(g.entries, ident)])
        red, _, rank = rref(diff)
        if rank == 1:
            out.append((i, canonicalize_hyperplane(red.row(0))))
    return out


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(1, 1, 4),
    lambda: catalog.make_grpn(2, 2, 4),
    lambda: catalog.make_grpn(3, 1, 3),
    lambda: catalog.make_grpn(3, 3, 3),
    lambda: catalog.make_grpn(4, 4, 2),
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.shipped_group("f4"),
    lambda: catalog.load_group_file(
        Path(catalog.__file__).parent / "data" / "h3.json"),
], ids=["W(4)", "G(2,2,4)", "G(3,1,3)", "G(3,3,3)", "G(4,4,2)", "H3", "F4",
        "h3.json"])
def test_reflections_match_per_element_rref(build):
    # F4's orbit vectors have denominator 2, and h3.json has conductor 5
    G = build()
    want = _reflections_per_element(G)
    got = reflections(G)
    assert got == want
    assert [[c.m for c in h.covector] for _, h in got] == \
        [[c.m for c in h.covector] for _, h in want]


def _fresh(spec):
    """A catalog group generated anew, with no facts computed yet."""
    G = catalog.parse_group_spec(spec)
    return generate([G.matrix(g) for g in G.generators])


def _count_rrefs(monkeypatch):
    calls = []
    monkeypatch.setattr(groups_mod, "rref",
                        lambda M: calls.append(M) or rref(M))
    return calls


@pytest.mark.parametrize("spec, tested, classes", [
    ("G(4,2,4)", 2, 45), ("F4", 2, 24), ("H3", 1, 7), ("G(3,1,4)", 2, 29)])
def test_reflections_rank_test_only_classes_of_rank_one_mod_p(
        monkeypatch, spec, tested, classes):
    # of the non-identity rational classes, only those whose g - I has
    # rank <= 1 modulo p reach the exact rank test
    G = _fresh(spec)
    assert len(set(groups_mod._rational_classes(G))) - 1 == classes
    calls = _count_rrefs(monkeypatch)
    reflections(G)
    assert len(calls) == tested


@pytest.mark.parametrize("spec", ["G(4,2,4)", "F4", "H3"])
def test_reflections_screen_only_skips_work(monkeypatch, spec):
    # with every orbit-vector entry sent to 0 modulo p, g - I is 0 there,
    # so every rational class reaches the exact test, with the same output
    want, G = reflections(catalog.parse_group_spec(spec)), _fresh(spec)
    mod_p = groups_mod._mod_p
    monkeypatch.setattr(groups_mod, "_mod_p",
                        lambda values: (mod_p(values)[0], lambda x: 0))
    calls = _count_rrefs(monkeypatch)
    assert reflections(G) == want
    assert len(calls) == len(set(groups_mod._rational_classes(G))) - 1


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(3, 1, 3),
    lambda: catalog.make_grpn(4, 2, 2),
    lambda: catalog.make_grpn(2, 1, 3),
    lambda: catalog.shipped_group("f4"),
], ids=["G(3,1,3)", "G(4,2,2)", "G(2,1,3)", "F4"])
def test_linear_characters_order(build):
    # trivial character first, then the rest by their _canonical value tuples
    chars = linear_characters(build())
    assert chars[0].is_trivial()
    keys = [tuple(v._canonical() for v in ch.values) for ch in chars[1:]]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def _linear_characters_via_derived_subgroup(G):
    """Reference: the cosets of [G,G], the normal closure of the generator
    commutators, with the dual of G/[G,G] grown one generator at a time.
    Same roots and same order as linear_characters."""
    def closure(seeds, gens, act):
        items, seen = list(seeds), set(seeds)
        for x in items:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    items.append(y)
        return items

    def conj(x, g):
        return G.mul(G.mul(g, x), G.inverse[g])

    comms = {G.mul(G.mul(a, b), G.mul(G.inverse[a], G.inverse[b]))
             for a in G.generators for b in G.generators}
    conjugates = closure(sorted(comms), G.generators, conj)
    der = sorted(closure([0], sorted(set(conjugates) | {G.inverse[c] for c in conjugates}),
                         G.mul))
    coset_of, reps = [-1] * G.order, []
    for i in range(G.order):
        if coset_of[i] < 0:
            for h in der:
                coset_of[G.mul(i, h)] = len(reps)
            reps.append(i)
    q = len(reps)

    def qmul(a, b):
        return coset_of[G.mul(reps[a], reps[b])]

    exponent = 1
    for a in range(q):
        k, cur = 1, a
        while cur:
            cur, k = qmul(cur, a), k + 1
        exponent = exponent * k // gcd(exponent, k)
    chars, sub = [{0: 0}], [0]
    for a in range(1, q):
        if a in chars[0]:
            continue
        d, cur = 1, a
        while cur not in chars[0]:
            cur, d = qmul(cur, a), d + 1
        new_chars = []
        for phi in chars:
            g = gcd(d, exponent)
            assert phi[cur] % g == 0
            mod = exponent // g
            base = (phi[cur] // g) * (pow(d // g, -1, mod) if mod > 1 else 0) % mod
            for t in range(g):
                ext = dict(phi)
                for s0 in sub:
                    cur2 = s0
                    for j in range(1, d):
                        cur2 = qmul(cur2, a)
                        ext[cur2] = (phi[s0] + j * (base + t * mod)) % exponent
                new_chars.append(ext)
        chars, sub = new_chars, list(new_chars[0])
    assert len(chars) == q and all(len(c) == q for c in chars)
    roots = ([Cyc.root_of_unity(exponent, k) for k in range(exponent)]
             if exponent > 1 else [Cyc.one()])
    keys = [r._canonical() for r in roots]
    chars.sort(key=lambda phi: (any(phi.values()), [keys[phi[c]] for c in range(q)]))
    return [[roots[phi[c]] for c in coset_of] for phi in chars]


def _cyclic3():
    return generate([CycMatrix(1, 1, [Cyc.root_of_unity(3)])])


def _cyclic60():
    # one generator and BFS depth 59: the widest fields of a packed relation
    return generate([CycMatrix(1, 1, [Cyc.root_of_unity(60)])])


@pytest.mark.parametrize("build", [
    (lambda r=r, p=p, n=n: catalog.make_grpn(r, p, n))
    for r in range(1, 5) for p in range(1, r + 1) if r % p == 0
    for n in range(1, 5)] + [
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.shipped_group("f4"),
    _cyclic3,
    _cyclic60,
], ids=["G(%d,%d,%d)" % (r, p, n)
        for r in range(1, 5) for p in range(1, r + 1) if r % p == 0
        for n in range(1, 5)] + ["H3", "F4", "C3", "C60"])
def test_linear_characters_match_derived_subgroup_reference(build):
    G = build()
    want = _linear_characters_via_derived_subgroup(G)
    got = [ch.values for ch in linear_characters(G)]
    assert [[(v.m, v.c) for v in vals] for vals in got] == \
        [[(v.m, v.c) for v in vals] for vals in want]


def test_relation_echelon():
    assert groups_mod._echelon([(0, -3), (4, 6), (6, 3)], 2) == [(2, -3), (0, 3)]
    assert groups_mod._echelon([(-2, 1), (0, -5)], 2) == [(2, -1), (0, 5)]
    with pytest.raises(ArithmeticError):
        groups_mod._echelon([(1, 0), (2, 0)], 2)


def test_linear_characters_check_every_relation(monkeypatch):
    # doubling the echelon rows admits characters of a sublattice, which
    # fail the original relations
    echelon = groups_mod._echelon
    monkeypatch.setattr(groups_mod, "_echelon", lambda rows, s: [
        tuple(2 * a for a in h) for h in echelon(rows, s)])
    with pytest.raises(ArithmeticError):
        linear_characters(w3())


def _orbit_cases():
    G213 = catalog.make_grpn(2, 1, 3)
    H3 = catalog.shipped_group("h3")
    return [(G213, catalog.make_arrangement("full", 2, 3)),
            (H3, reflection_arrangement(H3))]


def test_orbit_Z_is_pointwise_stabilizer():
    for G, A in _orbit_cases():
        for o in orbits_on_lattice(G, A):
            assert o.Z == pointwise_stabilizer(G, o.representative)


def test_orbits_need_no_cyclotomic_products_until_Z(monkeypatch):
    for G, A in _orbit_cases():
        A = Arrangement(A.n, A.hyperplanes)   # fresh caches
        build_lattice(A)
        hyperplane_action(G, A)
        calls = []
        original = Cyc.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Cyc, "__mul__", counting)
        orbits = orbits_on_lattice(G, A)
        assert not calls
        for o in orbits:
            o.Z
        assert calls
        monkeypatch.undo()


# the benchmark's ladder, F4, and the groups with four elements per
# hyperplane permutation of A_4(4)
_ORBIT_PAIRS = [("W(4)", "A_4^0(1)"), ("G(2,2,4)", "A_4^0(2)"),
                ("G(2,1,4)", "A_4(2)"), ("H3", None), ("G(3,1,4)", "A_4(3)"),
                ("F4", None), ("G(4,1,4)", "A_4(4)"), ("G(4,2,4)", "A_4(4)")]


def _orbit_pair(gspec, aspec):
    G = catalog.parse_group_spec(gspec)
    return G, catalog.parse_arrangement_spec(aspec, G)


def test_orbit_transport_carries_the_representative_onto_each_member():
    for G, A in (_orbit_pair(*pair) for pair in _ORBIT_PAIRS):
        fibers = hyperplane_action(G, A).fibers
        for o in orbits_on_lattice(G, A):
            rep = o.representative.key
            assert set(o.transport) == {f.key for f in o.orbit}
            assert rep == min(o.transport)
            assert tuple(o.transport[rep]) == tuple(range(len(A)))
            for X, x in o.transport.items():
                assert x in fibers
                assert tuple(sorted(x[h] for h in rep)) == X


def _fiber_scan_orbits(G, A):
    """The lattice orbits as the images of each representative's mask under
    every distinct hyperplane permutation: (representative key, member
    keys, N as the union of the fixing fibers), by codim, then key."""
    lattice, fibers = build_lattice(A), hyperplane_action(G, A).fibers
    out, seen = [], set()
    for rep in sorted(lattice.by_key):
        if rep in seen:
            continue
        members, N = set(), []
        for p, gs in fibers.items():
            key = lattice.key_of[sum(1 << p[i] for i in rep)]
            members.add(key)
            if key == rep:
                N += gs
        seen |= members
        out.append((rep, sorted(members), frozenset(N)))
    return sorted(out, key=lambda o: (lattice.by_key[o[0]].codim, o[0]))


@pytest.mark.parametrize("gspec, aspec", _ORBIT_PAIRS)
def test_orbits_match_the_fiber_scan(gspec, aspec):
    # the generator closure finds the orbits, representatives, members and
    # N of a scan of every distinct permutation, and leaves N unbuilt
    G, A = _orbit_pair(gspec, aspec)
    A = Arrangement(A.n, A.hyperplanes)     # fresh caches
    orbits = orbits_on_lattice(G, A)
    assert not any("N" in o.__dict__ for o in orbits)
    assert [(o.representative.key, [f.key for f in o.orbit], o.N)
            for o in orbits] == _fiber_scan_orbits(G, A)


def test_fibers_group_the_elements_by_permutation():
    G = catalog.make_grpn(3, 1, 3)
    act = hyperplane_action(G, catalog.make_arrangement("full", 3, 3))
    assert list(act.fibers) == list(dict.fromkeys(act.perms))
    assert sorted(g for gs in act.fibers.values() for g in gs) == list(range(G.order))
    assert all(act.perms[g] == p and gs == sorted(gs)
               for p, gs in act.fibers.items() for g in gs)


def _setwise_reference(G, X):
    """Elements mapping X into the span of its basis rows, decided by
    reducing each image against the dense reference echelon."""
    if not X.basis.rows:
        return frozenset(range(G.order))
    red, pivots, rank = ref_rref(X.basis)
    span = red.row_list()[:rank]
    out = []
    for i, g in enumerate(G.elements):
        ok = True
        for r in range(X.basis.rows):
            img = g.apply(list(X.basis.row(r)))
            for p, row in zip(pivots, span):
                f = img[p]
                img = [a - f * b for a, b in zip(img, row)]
            ok = ok and all(c.is_zero() for c in img)
        if ok:
            out.append(i)
    return frozenset(out)


def test_setwise_stabilizer_matches_dense_reference():
    G = catalog.make_grpn(2, 1, 3)
    A = catalog.make_arrangement("full", 2, 3)
    flats = build_lattice(A).all_flats()
    sizes = set()
    for X in flats:
        got = setwise_stabilizer(G, X)
        assert got == _setwise_reference(G, X)
        sizes.add(len(got))
    assert len(sizes) > 2


def _det_per_element(M):
    """Reference: Gaussian elimination of one matrix, the product of its
    pivots with a sign per row swap."""
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


@pytest.mark.parametrize("build", [
    lambda: catalog.make_grpn(1, 1, 4),
    lambda: catalog.make_grpn(3, 1, 3),
    lambda: catalog.make_grpn(4, 2, 4),
    lambda: catalog.shipped_group("h3"),
    lambda: catalog.shipped_group("f4"),
], ids=["W(4)", "G(3,1,3)", "G(4,2,4)", "H3", "F4"])
def test_det_character_matches_per_element_det(build):
    G = build()
    want = [_det_per_element(M) for M in G.elements]
    got, got_inv = det_character(G), det_character(G, inverse=True)
    assert [exact(v) for v in got.values] == [exact(v) for v in want]
    assert [exact(v) for v in got_inv.values] == \
        [exact(v.inverse()) for v in want]
