import random
from math import gcd

import pytest

from reflact import catalog
from reflact import groups as groups_mod
from reflact.arrangement import Arrangement, build_lattice
from reflact.exactnum import Cyc, CycMatrix, rref
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


def test_generate_identity_first_and_inverses():
    G = g212()
    assert G.elements[0].is_identity()
    for i in range(G.order):
        assert G.mul(i, G.inverse[i]) == 0


def test_order_cap():
    with pytest.raises(OrderCapExceededError):
        generate([perm_matrix(3, 0, 1), perm_matrix(3, 1, 2)], order_cap=4)


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


def _matrix_bfs(gens):
    """Reference enumeration by CycMatrix products, elements keyed by their
    exact entries: the same BFS as generate (identity first, base * g in
    generator order), without the orbit permutations."""
    n = gens[0].rows
    m = 1
    for g in gens:
        m = m * g.m // gcd(m, g.m)

    def key(M):
        return tuple(e.lift(m).c for e in M.entries)

    elements = [CycMatrix.identity(n)]
    index = {key(elements[0]): 0}
    parents = [(-1, -1)]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gi, g in enumerate(gens):
                prod = elements[i] * g
                if key(prod) not in index:
                    index[key(prod)] = len(elements)
                    nxt.append(len(elements))
                    elements.append(prod)
                    parents.append((i, gi))
        frontier = nxt
    return elements, parents, lambda M: index[key(M)]


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
], ids=["W(4)", "G(2,2,4)", "H3", "F4", "G(3,1,3)"])
def test_generate_matches_matrix_bfs(monkeypatch, build):
    G, gens = _built_with_generators(monkeypatch, build)
    elements, parents, index_of = _matrix_bfs(gens)
    assert G.elements == elements
    assert G.parents == parents
    assert G.generators == [index_of(g) for g in gens]
    assert G.inverse == [index_of(M.inverse()) for M in elements]
    rng = random.Random(3)
    for _ in range(200):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert G.mul(i, j) == index_of(elements[i] * elements[j])
    assert all(G.contains_matrix(M) == k for k, M in enumerate(elements))


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
], ids=["W(4)", "G(2,2,4)", "G(3,1,3)", "G(3,3,3)", "G(4,4,2)", "H3"])
def test_reflections_match_per_element_rref(build):
    G = build()
    want = _reflections_per_element(G)
    got = reflections(G)
    assert got == want
    assert [[c.m for c in h.covector] for _, h in got] == \
        [[c.m for c in h.covector] for _, h in want]


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
