from fractions import Fraction
from itertools import combinations, permutations

import pytest

from reflact.arrangement import Arrangement, build_lattice, subarrangement
from reflact.exactnum import Cyc, CycMatrix, rref
from reflact.groups import generate, hyperplane_action
from reflact.osalg import (
    OSElement,
    _circuits,
    _straightening,
    _trace,
    action_matrix,
    action_trace,
    brieskorn_components,
    circuits,
    closure_key,
    euler_derivation,
    nbc_basis,
    perm_trace,
    rank_of_elements,
    straighten,
)


def memoized(obj, fn):
    """The results of the memoized fn kept on obj, by argument tuple."""
    return {key[1:]: v for key, v in vars(obj).get("_memo", {}).items()
            if key[0] is fn}


def braid3():
    return Arrangement.from_covectors(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])


def boolean2():
    return Arrangement.from_covectors(2, [[1, 0], [0, 1]])


def a2_2():
    # x1=0, x2=0, x1=x2, x1=-x2
    return Arrangement.from_covectors(2, [[1, 0], [0, 1], [1, -1], [1, 1]])


def perm_matrix(n, i, j):
    ent = [[1 if (r == c and r not in (i, j)) or (r, c) in ((i, j), (j, i)) else 0
            for c in range(n)] for r in range(n)]
    return CycMatrix.from_rows(ent)


def w3():
    return generate([perm_matrix(3, 0, 1), perm_matrix(3, 1, 2)])


# ---------------------------------------------------------------------------
# brute-force oracle: dimension of the degree-k quotient of the free space on
# ALL increasing k-tuples by all relations e_T * (OS relation of a dependent
# set), computed with plain rational row reduction
# ---------------------------------------------------------------------------

def sign_sorted(t):
    lst = list(t)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def os_relations(A, k):
    """(increasing k-tuples, their positions, relation rows over them)."""
    nh = len(A)
    monos = list(combinations(range(nh), k))
    pos = {m: i for i, m in enumerate(monos)}

    def is_dependent(sub):
        M = CycMatrix.from_rows([list(A.covector(i)) for i in sub])
        _, _, rank = rref(M)
        return rank < len(sub)

    relations = []
    for size in range(2, k + 2):
        for dep in combinations(range(nh), size):
            if not is_dependent(dep):
                continue
            for rest in combinations([i for i in range(nh) if i not in dep],
                                     k - size + 1):
                row = [Fraction(0)] * len(monos)
                for i in range(size):
                    piece = dep[:i] + dep[i + 1:]
                    term = piece + rest
                    if len(set(term)) < len(term):
                        continue
                    srt, sgn = sign_sorted(term)
                    row[pos[srt]] += Fraction((-1) ** (i + 1) * sgn)
                if any(row):
                    relations.append(row)
    return monos, pos, relations


def row_rank(rows):
    rank = 0
    pivots = {}
    for row in rows:
        row = row[:]
        for p, prow in pivots.items():
            f = row[p]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is not None:
            inv = row[lead]
            pivots[lead] = [c / inv for c in row]
            rank += 1
    return rank


def os_dim_oracle(A, k):
    monos, _, relations = os_relations(A, k)
    return len(monos) - row_rank(relations)


def test_circuits_examples():
    assert circuits(boolean2()) == []
    assert circuits(braid3()) == [(0, 1, 2)]
    cs = circuits(a2_2())
    assert len(cs) == 4 and all(len(c) == 3 for c in cs)


def test_nbc_basis_examples():
    A = braid3()
    b2 = nbc_basis(A, 2)
    assert b2.monomials == ((0, 1), (0, 2))
    assert len(nbc_basis(A, 0)) == 1 and nbc_basis(A, 0).monomials == ((),)
    B = boolean2()
    assert len(nbc_basis(B, 1)) == 2 and len(nbc_basis(B, 2)) == 1


def test_degrees_outside_the_rank():
    # no NBC basis there, so a trace is 0 and nbc_basis refuses the degree
    A, G = braid3(), w3()
    for k in (-1, A.rank() + 1):
        with pytest.raises(ValueError, match="out of range"):
            nbc_basis(A, k)
        got = perm_trace(A, (1, 0, 2), k)
        assert got == 0 and type(got) is Fraction
        for g in range(G.order):
            got = action_trace(A, G, g, k)
            assert got == 0 and type(got) is Fraction


def test_circuits_returns_a_fresh_list():
    A = braid3()
    got = circuits(A)
    got.append((9, 9))
    got[0] = None
    assert circuits(A) == [(0, 1, 2)]
    assert circuits(A) is not circuits(A)


def test_nbc_dims_match_oracle():
    for A in (braid3(), boolean2(), a2_2(),
              Arrangement.from_covectors(2, [[1, 0], [0, 1], [1, -1],
                                             [1, -Cyc.root_of_unity(4)],
                                             [1, Cyc.root_of_unity(4)], [1, 1]])):
        for k in range(A.rank() + 1):
            assert len(nbc_basis(A, k)) == os_dim_oracle(A, k)


def test_straighten_examples():
    A = braid3()
    # (h13, h23) -> (h12,h23) - (h12,h13)
    el = straighten(A, (1, 2))
    assert el.coeffs == {(0, 2): Fraction(1), (0, 1): Fraction(-1)}
    assert straighten(A, (0, 0)).is_zero()
    el = straighten(A, (2, 0))
    assert el.coeffs == {(0, 2): Fraction(-1)}
    # idempotent on NBC monomials
    for m in nbc_basis(A, 2).monomials:
        assert straighten(A, m).coeffs == {m: Fraction(1)}


def test_straighten_respects_relations_oracle():
    # straighten(x) - x must lie in the relation span: appending the
    # difference to the oracle's relation rows does not raise their rank
    for A in (a2_2(), braid3()):
        monos, pos, relations = os_relations(A, 2)
        rank = row_rank(relations)
        for x in permutations(range(len(A)), 2):
            el = straighten(A, x)
            assert set(el.coeffs) <= set(nbc_basis(A, 2).position)
            row = [Fraction(0)] * len(monos)
            for m, c in el.coeffs.items():
                row[pos[m]] += c
            srt, sgn = sign_sorted(x)
            row[pos[srt]] -= sgn
            assert row_rank(relations + [row]) == rank, x


def test_action_matrix_identity_and_perm():
    A = braid3()
    G = w3()
    n1 = len(nbc_basis(A, 1))
    ident = action_matrix(A, G, 0, 1)
    assert all(ident[i][j] == (1 if i == j else 0)
               for i in range(n1) for j in range(n1))
    # find the transposition swapping x1,x2: it fixes h12 and swaps h13,h23
    perms = hyperplane_action(G, A).perms
    t12 = next(i for i in range(1, G.order)
               if G.elements[i] == perm_matrix(3, 0, 1))
    M = action_matrix(A, G, t12, 1)
    tr = sum(M[i][i] for i in range(n1))
    assert tr == 1
    assert tr == action_trace(A, G, t12, 1)


def test_action_homomorphism():
    A = braid3()
    G = w3()
    for k in (1, 2):
        for a in G.generators:
            for b in G.generators:
                Ma = action_matrix(A, G, a, k)
                Mb = action_matrix(A, G, b, k)
                Mab = action_matrix(A, G, G.mul(a, b), k)
                n = len(Ma)
                prod = [[sum(Ma[i][l] * Mb[l][j] for l in range(n))
                         for j in range(n)] for i in range(n)]
                assert prod == Mab


def test_h1_permutation_character():
    A = braid3()
    G = w3()
    perms = hyperplane_action(G, A).perms
    for g in range(G.order):
        fixed = sum(1 for i, j in enumerate(perms[g]) if i == j)
        assert action_trace(A, G, g, 1) == fixed


def test_euler_derivation():
    A = a2_2()
    # d(h) = 1
    for i in range(4):
        el = euler_derivation(A, straighten(A, (i,)))
        assert el.coeffs == {(): Fraction(1)}
    # d(h_a h_b) = h_b - h_a
    el = euler_derivation(A, straighten(A, (0, 1)))
    assert el.coeffs == {(1,): Fraction(1), (0,): Fraction(-1)}
    with pytest.raises(ValueError):
        euler_derivation(A, straighten(A, ()))


def test_euler_derivation_squared_zero():
    for A in (braid3(), a2_2()):
        for k in range(2, A.rank() + 1):
            for m in nbc_basis(A, k).monomials:
                dd = euler_derivation(A, euler_derivation(A, straighten(A, m)))
                assert dd.is_zero()


def test_euler_complex_exact():
    for A in (braid3(), a2_2(), boolean2()):
        rk = A.rank()
        dims = [len(nbc_basis(A, k)) for k in range(rk + 1)]
        ranks = [0] * (rk + 2)
        for k in range(1, rk + 1):
            rows = [euler_derivation(A, straighten(A, m))
                    for m in nbc_basis(A, k).monomials]
            ranks[k] = rank_of_elements(rows)
        for k in range(1, rk + 1):
            assert ranks[k] + ranks[k + 1] == dims[k]


def test_equivariance_of_euler_derivation():
    A = braid3()
    G = w3()
    for g in G.generators:
        for k in (1, 2):
            for m in nbc_basis(A, k).monomials:
                x = straighten(A, m)
                perm = hyperplane_action(G, A).perms[g]
                from reflact.osalg import apply_perm
                lhs = euler_derivation(A, apply_perm(A, perm, x))
                rhs = apply_perm(A, perm, euler_derivation(A, x))
                assert lhs == rhs


def test_brieskorn_components():
    A = braid3()
    comps = brieskorn_components(A, 2)
    assert len(comps) == 1 and comps[0].dimension() == 2
    comps1 = brieskorn_components(A, 1)
    assert len(comps1) == 3 and all(c.dimension() == 1 for c in comps1)
    B = boolean2()
    comps2 = brieskorn_components(B, 2)
    assert len(comps2) == 1 and comps2[0].dimension() == 1


def test_brieskorn_sum():
    for A in (braid3(), a2_2()):
        lat = build_lattice(A)
        for k in range(A.rank() + 1):
            total = 0
            for f in lat.levels[k]:
                sub = subarrangement(A, f)
                total += len(nbc_basis(sub, k))
            assert total == len(nbc_basis(A, k))


def test_brieskorn_dims_match_subarrangements():
    A = a2_2()
    for k in range(A.rank() + 1):
        for comp in brieskorn_components(A, k):
            sub = subarrangement(A, comp.flat)
            assert comp.dimension() == len(nbc_basis(sub, k))


def test_oselement_json():
    A = braid3()
    el = straighten(A, (1, 2))
    j = el.to_json()
    assert j["k"] == 2
    assert {tuple(t["mono"]) for t in j["terms"]} == {(0, 1), (0, 2)}


# ---------------------------------------------------------------------------
# the lattice-derived matroid against test-side row reduction
# ---------------------------------------------------------------------------

def _fresh(A):
    """A copy of A with empty caches."""
    return Arrangement(A.n, A.hyperplanes)


def matroid_cases():
    from reflact.catalog import make_arrangement, shipped_group
    from reflact.groups import reflection_arrangement
    z4 = Cyc.root_of_unity(4)
    return {
        "A_3(3)": _fresh(make_arrangement("full", 3, 3)),
        "H3": _fresh(reflection_arrangement(shipped_group("h3"))),
        "z4": Arrangement.from_covectors(
            2, [[1, -1], [1, -z4], [1, 1], [1, z4], [1, 0], [0, 1]]),
    }


@pytest.fixture(scope="module", params=["A_3(3)", "H3", "z4"])
def matroid_case(request):
    return matroid_cases()[request.param]


def _span_rows(A, sub):
    if not sub:
        return []
    red, _, rank = rref(CycMatrix.from_rows([list(A.covector(i)) for i in sub]))
    return red.row_list()[:rank]


def _in_span(rows, vec):
    vec = list(vec)
    for row in rows:
        p = next(j for j, c in enumerate(row) if not c.is_zero())
        f = vec[p]
        if not f.is_zero():
            vec = [a - f * b for a, b in zip(vec, row)]
    return all(c.is_zero() for c in vec)


def test_independence_matches_rref(matroid_case):
    A = matroid_case
    lattice = build_lattice(A)
    for size in range(A.rank() + 2):
        for sub in combinations(range(len(A)), size):
            independent = len(_span_rows(A, sub)) == size
            assert (lattice.closure(sub) is not None) == independent, sub


def test_closure_key_matches_span_membership(matroid_case):
    A = matroid_case
    lattice = build_lattice(A)
    for size in range(A.rank() + 1):
        for sub in combinations(range(len(A)), size):
            if lattice.closure(sub) is None:
                with pytest.raises(ValueError):
                    closure_key(A, sub)
                continue
            rows = _span_rows(A, sub)
            want = tuple(i for i in range(len(A)) if _in_span(rows, A.covector(i)))
            assert closure_key(A, sub) == want


def test_subarrangement_view_matches_rebuilt(matroid_case):
    A = matroid_case
    for X in build_lattice(A).all_flats():
        view = subarrangement(A, X)
        rebuilt = Arrangement.from_covectors(A.n, [A.covector(i) for i in X.key])
        pos = [rebuilt.index_of(A.hyperplanes[i]) for i in X.key]

        def mapped(monos):
            return [tuple(pos[i] for i in m) for m in monos]

        assert mapped(circuits(view)) == circuits(rebuilt)
        assert view.rank() == rebuilt.rank() == X.codim
        for k in range(X.codim + 1):
            assert mapped(nbc_basis(view, k).monomials) == \
                list(nbc_basis(rebuilt, k).monomials)


@pytest.mark.parametrize("name", ["A_3(3)", "H3", "z4"])
def test_orbit_traces_need_no_cyclotomic_products(name, monkeypatch):
    # each orbit's K_T character straightens on A itself: once L(A), the
    # action and the orbits exist, it takes int lookups and int sums only
    from reflact.catalog import make_grpn, shipped_group
    from reflact.groups import conjugacy_classes, orbits_on_lattice
    from reflact.invariants import _orbit_class_traces
    A = matroid_cases()[name]
    G = {"A_3(3)": lambda: make_grpn(3, 1, 3), "H3": lambda: shipped_group("h3"),
         "z4": lambda: make_grpn(4, 1, 2)}[name]()
    orbits = orbits_on_lattice(G, A)
    conjugacy_classes(G)
    calls = []
    original = Cyc.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Cyc, "__mul__", counting)
    for o in orbits:
        _orbit_class_traces(G, A, o)
    assert memoized(A, _trace) and not calls


def test_oselement_degree_mismatch():
    with pytest.raises(ValueError):
        OSElement(1, {(0,): Fraction(1)}) + OSElement(2, {(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        OSElement(1, {}) - OSElement(0, {})


# ---------------------------------------------------------------------------
# straightening against the broken-circuit rewrite
# ---------------------------------------------------------------------------

def broken_circuit_straighten(A):
    """Reference straightening by broken circuits: in an independent
    monomial, take the least broken circuit B = C - min(C) it contains and
    solve the relation of the circuit C for e_B,
    e_B = sum_{i>=1} (-1)^{i+1} e_{C - c_i}.  Monomials with no broken
    circuit are the NBC basis."""
    broken = {}
    for C in circuits(A):
        broken.setdefault(frozenset(C[1:]), C)
    lattice = build_lattice(A)
    memo = {}

    def rewrite(mono):
        if mono in memo:
            return memo[mono]
        out = {}
        if lattice.closure(mono) is not None:
            found = [sub for size in range(2, len(mono) + 1)
                     for sub in combinations(mono, size)
                     if frozenset(sub) in broken]
            if not found:
                out = {mono: Fraction(1)}
            else:
                B = min(found)
                C = broken[frozenset(B)]
                rest = tuple(i for i in mono if i not in B)
                _, split = sign_sorted(B + rest)
                for i in range(1, len(C)):
                    merged, msign = sign_sorted(C[:i] + C[i + 1:] + rest)
                    f = split * (-1) ** (i + 1) * msign
                    for m, c in rewrite(merged).items():
                        out[m] = out.get(m, Fraction(0)) + f * c
                out = {m: c for m, c in out.items() if c}
        memo[mono] = out
        return out

    return rewrite


def test_straighten_matches_broken_circuit_rewrite(matroid_case):
    A = _fresh(matroid_case)
    reference = broken_circuit_straighten(_fresh(matroid_case))
    for size in range(A.rank() + 2):
        for mono in combinations(range(len(A)), size):
            assert straighten(A, mono).coeffs == reference(mono), mono


def test_straightening_builds_no_circuits():
    from reflact.catalog import make_arrangement, make_grpn
    from reflact.invariants import (isotypic_dim_projection,
                                    poincare_invariants, trivial_character)
    A = _fresh(make_arrangement("full", 2, 3))
    G = make_grpn(2, 1, 3)
    chi = trivial_character(G)
    # the orbitwise method and the projection both straighten on A
    assert poincare_invariants(A, G, chi) == (1, 2, 2, 1)
    assert isotypic_dim_projection(A, G, chi, 2) == 2
    assert memoized(A, _straightening)     # A has been straightened
    assert not memoized(A, _circuits)


@pytest.mark.parametrize("name", ["H3", "G(3,1,3)"])
def test_public_results_are_fractions_and_the_memo_ints(name):
    # the straightening memo and the traces add ints; every public result
    # is still a Fraction, never an int or a float
    from reflact.catalog import make_arrangement, make_grpn, shipped_group
    from reflact.groups import reflection_arrangement
    from reflact.invariants import poincare_invariants, trivial_character
    from reflact.osalg import apply_perm, perm_trace
    if name == "H3":
        G = shipped_group("h3")
        A = _fresh(reflection_arrangement(G))
    else:
        G, A = make_grpn(3, 1, 3), _fresh(make_arrangement("full", 3, 3))
    perms = hyperplane_action(G, A).perms
    g = G.generators[0]
    for k in range(A.rank() + 1):
        assert type(perm_trace(A, perms[g], k)) is Fraction
        assert type(action_trace(A, G, g, k)) is Fraction
        for mono in list(combinations(range(len(A)), k))[:60]:
            x = straighten(A, mono[::-1])
            images = [x, apply_perm(A, perms[g], x)]
            if k:
                images.append(euler_derivation(A, x))
            for el in images:
                assert all(type(c) is Fraction for c in el.coeffs.values())
    poincare_invariants(A, G, trivial_character(G))
    memo, _ = _straightening(A)
    assert memo and all(type(c) is int
                        for image in memo.values() for c in image.values())
    traces = memoized(A, _trace)
    assert traces and all(type(t) is int for t in traces.values())
