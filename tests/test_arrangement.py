import copy
from itertools import combinations

import pytest

from test_exactnum import exact, exact_matrix, ref_kernel, ref_rref

from reflact.arrangement import (
    Arrangement,
    Flat,
    FlatNotInLatticeError,
    _memo,
    build_lattice,
    canonicalize_hyperplane,
    essentialize,
    subarrangement,
)
from reflact.catalog import make_arrangement, shipped_group
from reflact.exactnum import Cyc, CycMatrix, _prime_root, rref
from reflact.groups import reflection_arrangement


def braid3():
    # x1=x2, x1=x3, x2=x3 in C^3
    return Arrangement.from_covectors(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])


def boolean2():
    return Arrangement.from_covectors(2, [[1, 0], [0, 1]])


def full_a2_1():
    # x1=0, x2=0, x1=x2
    return Arrangement.from_covectors(2, [[1, 0], [0, 1], [1, -1]])


def brute_force_flat_count(A):
    """Oracle: enumerate all hyperplane subsets, dedupe intersections by the
    closure key computed from scratch with rref."""
    seen = set()
    for k in range(len(A) + 1):
        for sub in combinations(range(len(A)), k):
            if sub:
                M = CycMatrix.from_rows([list(A.covector(i)) for i in sub])
                red, _, rank = rref(M)
                rows = red.row_list()[:rank]
            else:
                rows, rank = [], 0
            key = []
            for i in range(len(A)):
                vec = list(A.covector(i))
                for row in rows:
                    p = next(j for j, c in enumerate(row) if not c.is_zero())
                    f = vec[p]
                    if not f.is_zero():
                        vec = [a - f * b for a, b in zip(vec, row)]
                if all(c.is_zero() for c in vec):
                    key.append(i)
            seen.add((tuple(key), rank))
    return seen


def test_canonicalize_examples():
    h = canonicalize_hyperplane([0, 2, -2])
    assert h.covector == (Cyc.zero(), Cyc.one(), Cyc.rational(-1))
    z3 = Cyc.root_of_unity(3)
    h = canonicalize_hyperplane([z3, Cyc.rational(-1)])
    assert h.covector[0] == Cyc.one()
    assert h.covector[1] == -(z3 * z3)
    h = canonicalize_hyperplane([1, 0, 0])
    assert h.covector == (Cyc.one(), Cyc.zero(), Cyc.zero())
    with pytest.raises(ValueError):
        canonicalize_hyperplane([0, 0])


def test_lattice_boolean():
    lat = build_lattice(boolean2())
    assert [len(lv) for lv in lat.levels] == [1, 2, 1]
    assert len(lat) == 4


def test_lattice_braid():
    A = braid3()
    lat = build_lattice(A)
    assert [len(lv) for lv in lat.levels] == [1, 3, 1]
    # codim-2 flat is the triple intersection
    assert lat.levels[2][0].key == (0, 1, 2)
    # oracle: brute force over all subsets
    assert {(f.key, f.codim) for f in lat.all_flats()} == brute_force_flat_count(A)


def test_lattice_full_a2():
    A = full_a2_1()
    lat = build_lattice(A)
    assert len(lat) == 5
    assert {(f.key, f.codim) for f in lat.all_flats()} == brute_force_flat_count(A)


def test_lattice_counts_general():
    assert len(build_lattice(braid3()).levels[1]) == 3
    assert len(build_lattice(braid3()).levels[0]) == 1


def test_flat_basis_consistency():
    A = braid3()
    for f in build_lattice(A).all_flats():
        # every hyperplane in the key vanishes on the flat's row space
        for i in f.key:
            cov = A.covector(i)
            for r in range(f.basis.rows):
                s = Cyc.zero()
                for j in range(A.n):
                    s = s + cov[j] * f.basis[r, j]
                assert s.is_zero()
        assert f.codim == A.n - f.basis.rows


def test_memo_keeps_results_on_the_object_and_not_exceptions():
    calls = []

    @_memo
    def area(box, scale):
        """Doubles as a docstring check."""
        calls.append(scale)
        if scale < 0:
            raise ValueError("negative scale")
        return box.side * box.side * scale

    class Box:
        side = 3

    a, b = Box(), Box()
    assert area(a, 2) == area(a, 2) == 18 and calls == [2]
    assert area(b, 2) == 18 and calls == [2, 2]     # per object
    assert area(a, 1) == 9 and calls == [2, 2, 1]   # per argument tuple
    for _ in range(2):
        with pytest.raises(ValueError):
            area(a, -1)
    assert calls == [2, 2, 1, -1, -1]
    assert area.__name__ == "area" and area.__doc__.startswith("Doubles")
    assert set(a._memo) == {(area, 2), (area, 1)}


def test_subarrangement():
    A = braid3()
    lat = build_lattice(A)
    line = lat.levels[2][0]
    sub = subarrangement(A, line)
    assert len(sub) == 3 and sub.n == 3
    assert subarrangement(A, lat.levels[0][0]).hyperplanes == ()
    B = boolean2()
    origin = build_lattice(B).levels[2][0]
    assert len(subarrangement(B, origin)) == 2
    with pytest.raises(FlatNotInLatticeError):
        subarrangement(A, Flat((0, 1), CycMatrix.identity(3), 2))


def test_subarrangement_flats_are_key_subsets():
    A = full_a2_1()
    lat = build_lattice(A)
    for f in lat.all_flats():
        sub = subarrangement(A, f)
        sub_keys = set()
        for g in build_lattice(sub).all_flats():
            # translate sub indices back to parent indices
            sub_keys.add(tuple(f.key[i] for i in g.key))
        parent_keys = {g.key for g in lat.all_flats() if set(g.key) <= set(f.key)}
        assert sub_keys == parent_keys


def test_essentialize_braid():
    A = braid3()
    ess, proj = essentialize(A)
    assert ess.n == 2 and len(ess) == 3
    before = [len(lv) for lv in build_lattice(A).levels]
    after = [len(lv) for lv in build_lattice(ess).levels]
    assert before == after
    assert proj.rows == 2 and proj.cols == 3


def test_essentialize_essential_and_empty():
    B = boolean2()
    ess, _ = essentialize(B)
    assert ess.n == 2 and len(ess) == 2
    E, proj = essentialize(Arrangement(4, []))
    assert E.n == 0 and len(E) == 0


def test_json_roundtrip():
    A = Arrangement.from_covectors(2, [[1, -Cyc.root_of_unity(3)], [1, 0]])
    B = Arrangement.from_json(A.to_json())
    assert B.n == A.n
    assert [h.covector for h in B.hyperplanes] == [h.covector for h in A.hyperplanes]


def test_subarrangement_order_stable_under_conductor_drop():
    z4 = Cyc.root_of_unity(4)
    A = Arrangement.from_covectors(2, [[1, -1], [1, -z4], [1, 1], [1, z4], [1, 0], [0, 1]])
    lat = build_lattice(A)
    for f in lat.all_flats():
        sub = subarrangement(A, f)
        assert [sub.index_of(A.hyperplanes[i]) for i in f.key] == list(range(len(sub)))


def _essentialize_reference(A):
    """Essentialization by the dense reference echelon: the reduced rows of
    the covectors, and each covector's entries at their pivot columns."""
    red, pivots, rank = ref_rref(CycMatrix.from_rows([list(h.covector)
                                                      for h in A.hyperplanes]))
    rows = red.row_list()[:rank]
    new_cov = [[h.covector[p] for p in pivots] for h in A.hyperplanes]
    for h, coords in zip(A.hyperplanes, new_cov):
        back = [sum((c * r[j] for c, r in zip(coords, rows)), Cyc.zero())
                for j in range(A.n)]
        assert back == list(h.covector)
    return Arrangement.from_covectors(rank, new_cov), CycMatrix.from_rows(rows)


@pytest.mark.parametrize("kind, r, n", [("braid", 1, 4), ("full", 3, 3),
                                        ("zero", 4, 3)])
def test_essentialize_matches_dense_reference(kind, r, n):
    A = make_arrangement(kind, r, n)
    ess, proj = essentialize(A)
    want, want_proj = _essentialize_reference(A)
    assert ess.n == want.n
    assert [[exact(c) for c in h.covector] for h in ess.hyperplanes] == \
        [[exact(c) for c in h.covector] for h in want.hyperplanes]
    assert exact_matrix(proj) == exact_matrix(want_proj)


def _ref_lead(vec):
    return next((j for j, c in enumerate(vec) if not c.is_zero()), None)


def _ref_clear(res, r, p):
    """Dense residual update: clear column p of res with r, then rescale to
    leading entry 1."""
    f = res[p]
    if f.is_zero():
        return res
    res = [a - f * b for a, b in zip(res, r)]
    inv = res[_ref_lead(res)].inverse()
    return [c if c.is_zero() else inv * c for c in res]


def _ref_lattice(covectors):
    """Reference L(A) by dense residuals: (masks by codim in key order, join
    table, echelon rows of every flat)."""
    nh = len(covectors)
    bits = lambda F: tuple(i for i in range(nh) if F >> i & 1)
    rows_of = {0: []}
    residuals = {0: {j: list(c) for j, c in enumerate(covectors)}}
    join, masks = {}, [[0]]
    while True:
        nxt = []
        for F in masks[-1]:
            res_F = residuals.pop(F)
            covers = {}
            for j, res in res_F.items():
                got = covers.setdefault(tuple(c.c for c in res), [F, res])
                got[0] |= 1 << j
            row = [F] * nh
            for G, r in covers.values():
                for j in bits(G & ~F):
                    row[j] = G
                if G not in residuals:
                    p = _ref_lead(r)
                    rows_of[G] = rows_of[F] + [r]
                    residuals[G] = {j: _ref_clear(res, r, p)
                                    for j, res in res_F.items() if not G >> j & 1}
                    nxt.append(G)
            join[F] = tuple(row)
        if not nxt:
            break
        masks.append(sorted(nxt, key=bits))
    return [[bits(F) for F in level] for level in masks], join, rows_of


def _ref_basis(n, rows):
    if not rows:
        return CycMatrix.identity(n)
    space = ref_kernel(CycMatrix.from_rows(rows))
    return CycMatrix.from_rows(space) if space else CycMatrix(0, n, [])


def _assert_matches_reference(A):
    keys, join, rows_of = _ref_lattice([h.covector for h in A.hyperplanes])
    lat = build_lattice(A)
    assert [[f.key for f in lv] for lv in lat.levels] == keys
    assert lat.join == join
    for F, rows in rows_of.items():
        f = lat.by_key[lat.key_of[F]]
        assert exact_matrix(f.basis) == exact_matrix(_ref_basis(A.n, rows))


def _reference_cases():
    cases = [(kind, r, n) for kind in ("full", "zero")
             for r in range(1, 5) for n in range(1, 4)]
    cases += [("full", 3, 4), ("zero", 2, 4), ("full", 4, 4)]
    return [pytest.param(lambda c=c: make_arrangement(*c), id="%s(%d,%d)" % c)
            for c in cases] + [
        pytest.param(lambda name=name: reflection_arrangement(shipped_group(name)),
                     id=name) for name in ("h3", "f4")]


@pytest.mark.parametrize("make", _reference_cases())
def test_lattice_matches_dense_reference(make):
    # masks, key order, join tables and flat bases equal the dense residual
    # builder's, on the arrangement and on every one of its subarrangements
    A = make()
    _assert_matches_reference(A)
    for f in build_lattice(A).all_flats():
        _assert_matches_reference(subarrangement(A, f))


# the first prime the lattice build tries
_P, _ = _prime_root(1, 1 << 30)


@pytest.mark.parametrize("covectors", [
    [[1, 0, 0], [0, 1, 0], [1, _P, 0]],
    [[1, 0, 0], [0, 1, 0], [1, 1, _P]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, _P]],
], ids=["codim1-merge", "codim2-flat", "codim3-flat"])
def test_lattice_refuses_a_prime_that_merges_hyperplanes(covectors):
    # modulo _P, (1, _P, 0) equals (1, 0, 0), (1, 1, _P) lies in the span of
    # e1* and e2*, and (1, 1, 1, _P) in that of e1*, e2* and e3*; the
    # certification must refuse _P and build the exact lattice at a later
    # prime
    A = Arrangement.from_covectors(len(covectors[0]), covectors)
    _assert_matches_reference(A)
    assert build_lattice(A).prime != _P


def test_an_arrangement_with_its_lattice_survives_deepcopy():
    A = make_arrangement("full", 3, 3)
    lat = build_lattice(A)
    B = copy.deepcopy(A)
    copied = build_lattice(B)
    assert B.hyperplanes == A.hyperplanes and copied is not lat
    assert (copied.masks, copied.join, copied.prime) == \
        (lat.masks, lat.join, lat.prime)
    assert [exact_matrix(f.basis) for f in copied.all_flats()] == \
        [exact_matrix(f.basis) for f in lat.all_flats()]
