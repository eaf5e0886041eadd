import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from reflact import catalog
from reflact.arrangement import build_lattice
from reflact.catalog import (
    LabelCrossCheckError,
    UndefinedNameError,
    cox_monomials,
    data_dir,
    load_group_file,
    load_group_types,
    make_arrangement,
    make_grpn,
    named_hyperplane,
    orbit_type_names,
    pair_family,
    parse_arrangement_spec,
    parse_group_spec,
    prop41_labels,
    shipped_group,
    shipped_group_types,
    shipped_name,
)
from reflact.exactnum import Cyc
from reflact.groups import (
    OrderCapExceededError,
    orbits_on_lattice,
    pointwise_stabilizer,
    reflection_arrangement,
    reflections,
)
from reflact.invariants import theorem4_basis
from reflact.osalg import closure_key


def test_make_grpn_orders():
    assert make_grpn(1, 1, 3).order == 6
    assert make_grpn(2, 1, 2).order == 8
    assert make_grpn(3, 3, 2).order == 6
    assert make_grpn(4, 2, 4).order == 4 ** 4 * 24 // 2
    assert make_grpn(2, 1, 1).order == 2
    assert make_grpn(4, 4, 1).order == 1


def test_make_grpn_one_cache_entry_per_group():
    # the order cap is checked before the cached constructor, so every
    # caller shares one entry per (r, p, n)
    prop41_labels(2, 1, 3, "full")
    misses = make_grpn.cache_info().misses
    assert make_grpn(2, 1, 3) is parse_group_spec("G(2,1,3)")
    assert parse_group_spec("G(2,1,3)", order_cap=48) is make_grpn(2, 1, 3)
    assert make_grpn.cache_info().misses == misses


def test_catalog_constructor_caches_are_bounded():
    # each cached group keeps every arrangement paired with it
    for cached in (make_grpn, make_arrangement):
        assert cached.cache_parameters()["maxsize"] == 32


def test_order_cap_below_closed_form():
    with pytest.raises(OrderCapExceededError):
        parse_group_spec("G(2,1,3)", order_cap=47)
    with pytest.raises(OrderCapExceededError):
        prop41_labels(2, 1, 3, "full", order_cap=47)


def test_make_grpn_param_errors():
    with pytest.raises(ValueError):
        make_grpn(4, 3, 2)
    with pytest.raises(ValueError):
        make_grpn(0, 1, 2)


def test_make_arrangement_counts():
    assert len(make_arrangement("zero", 1, 3)) == 3
    assert len(make_arrangement("full", 2, 2)) == 4
    assert len(make_arrangement("zero", 3, 2)) == 3
    assert len(make_arrangement("braid", 7, 4)) == 6  # braid ignores r
    n, r = 4, 3
    assert len(make_arrangement("zero", r, n)) == r * n * (n - 1) // 2
    assert len(make_arrangement("full", r, n)) == r * n * (n - 1) // 2 + n


@pytest.mark.parametrize("r,p,n", [(1, 1, 3), (1, 1, 4), (2, 1, 2),
                                   (2, 2, 3), (3, 1, 2), (3, 3, 3), (4, 2, 2)])
def test_reflection_arrangement_matches_catalog(r, p, n):
    G = make_grpn(r, p, n)
    A = reflection_arrangement(G)
    kind = "zero" if p == r else "full"
    B = make_arrangement(kind, r, n)
    assert set(A.hyperplanes) == set(B.hyperplanes)


def test_prop41_examples():
    labs = prop41_labels(1, 1, 3, "zero")
    assert sorted(l.partition for l, _ in labs) == [(1, 1, 1), (2, 1), (3,)]

    labs = prop41_labels(2, 2, 2, "zero")
    twisted = [(l.partition, l.twist) for l, _ in labs if l.partition == (2,)]
    assert twisted == [((2,), 0), ((2,), 1)]

    labs = prop41_labels(2, 1, 2, "full")
    assert [(l.partition, l.twist) for l, _ in labs if l.partition == (2,)] == [((2,), 0)]


@pytest.mark.parametrize("r,p,n,kind", [
    (1, 1, 4, "zero"), (1, 1, 3, "full"),
    (2, 1, 3, "full"), (2, 2, 3, "zero"),
    (3, 3, 3, "zero"), (3, 1, 2, "full"),
    (2, 2, 4, "zero"),
])
def test_prop41_count_matches_orbits(r, p, n, kind):
    # the constructor cross-checks internally; re-assert the bijection here
    labs = prop41_labels(r, p, n, kind)
    G = make_grpn(r, p, n)
    A = make_arrangement(kind, r, n)
    orbits = orbits_on_lattice(G, A)
    assert len(labs) == len(orbits)
    keys = {f.key for _, f in labs}
    assert len(keys) == len(labs)


@pytest.mark.parametrize("r,p,n,kind", [(2, 2, 4, "zero"), (2, 1, 3, "full")])
def test_stabilizer_order_formula(r, p, n, kind):
    # |Z_lambda| = (r^{n-m} (n-m)!/p) * prod(l_i!) with the first factor
    # dropped when m = n
    G = make_grpn(r, p, n)
    for label, flat in prop41_labels(r, p, n, kind):
        m = sum(label.partition)
        expected = 1
        for part in label.partition:
            expected *= math.factorial(part)
        if n - m >= 1:
            expected *= r ** (n - m) * math.factorial(n - m) // p
        assert len(pointwise_stabilizer(G, flat)) == expected


def test_named_hyperplanes():
    r, p, n = 4, 2, 4
    A = make_arrangement("full", r, n)
    s = A.covector(named_hyperplane(r, p, n, "s"))
    assert [str(c) for c in s] == ["1", "0", "0", "0"]
    t2 = A.covector(named_hyperplane(r, p, n, "t_2"))
    assert [str(c) for c in t2] == ["1", "-1", "0", "0"]
    t21 = A.covector(named_hyperplane(r, p, n, "t_2^1"))
    assert t21[0] == Cyc.one() and t21[1] == -Cyc.root_of_unity(4)
    t4 = A.covector(named_hyperplane(r, p, n, "t_4"))
    assert [str(c) for c in t4] == ["0", "0", "1", "-1"]
    # the table holds the names each arrangement has: no s off the full
    # kind, no t_2^1 for r = 1, where x_1 = x_2 is t_2
    table = catalog._named_hyperplanes
    assert table(make_arrangement("zero", 2, 4), 2, 4) == {
        "t_2": 6, "t_3": 2, "t_4": 0, "t_2^1": 11}
    assert table(make_arrangement("full", 1, 3), 1, 3) == {
        "s": 5, "t_2": 3, "t_3": 1}
    assert table(make_arrangement("braid", 1, 3), 1, 3) == {"t_2": 1, "t_3": 0}


def test_named_hyperplane_errors():
    # s is a reflection of G(r,p,n) for r > 1 only, though full(1, n) holds
    # x_1 = 0; a name is spelled as the table spells it
    for r, name in ((1, "s"), (2, "t_5"), (2, "bogus"), (2, "t_02"),
                    (1, "t_2^1")):
        with pytest.raises(UndefinedNameError):
            named_hyperplane(r, 1, 3, name)


def test_cox_monomials_shapes():
    r, p, n = 2, 2, 4
    cm = cox_monomials(r, p, n, "zero")
    A = make_arrangement("zero", r, n)
    lat = build_lattice(A)
    # groups: one tuple of length n-1 at a codim n-1 flat, one of length n
    # at the center
    sizes = [(lat.by_key[closure_key(A, v[0])].codim, len(v), len(v[0]))
             for v in cm]
    assert sizes == [(3, 1, 3), (4, 1, 4)]

    A = make_arrangement("full", 4, 4)
    cm = cox_monomials(4, 2, 4, "full")
    lat = build_lattice(A)
    pair_lengths = sorted(len(v) for v in cm)
    # two E-pairs (codim 3 and 4), singletons elsewhere
    assert pair_lengths == [1, 1, 1, 2, 2]
    # every monomial of a group spans a flat of one codim, in one orbit
    orbit_of = {f.key: o.representative.key
                for o in orbits_on_lattice(make_grpn(4, 2, 4), A)
                for f in o.orbit}
    reps = []
    for v in cm:
        keys = [closure_key(A, mono) for mono in v]
        assert all(len(mono) == lat.by_key[keys[0]].codim for mono in v)
        assert len({orbit_of[key] for key in keys}) == 1
        reps.append(orbit_of[keys[0]])
    assert len(set(reps)) == len(reps)


# sha256 of the repr of the list of (kind, r, p, n, cox_monomials(r, p, n,
# kind)) for kind full then zero, r <= 6, p | r ascending and n <= 5, then
# braid (r = p = 1) with n <= 5, recorded before the plans were written in
# hyperplane names
COX_MONOMIALS_DIGEST = (
    "884fa142eb9931396fd7732c56d3a8fc7c80d456b7fbc8e0d0616442240d0ae7")


def test_cox_monomials_are_pinned():
    rows = [(kind, r, p, n, cox_monomials(r, p, n, kind))
            for kind in ("full", "zero", "braid")
            for r in range(1, 7) for p in range(1, r + 1)
            if r % p == 0 and (kind != "braid" or r == 1)
            for n in range(1, 6)]
    assert len(rows) == 145
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        COX_MONOMIALS_DIGEST


def test_cox_monomials_rank_one_full():
    # the table of full(2, 1) has no t_2^1, and the plan uses none
    assert cox_monomials(2, 1, 1, "full") == [[(0,)]]


def test_cox_monomials_certify_every_small_pair():
    # each plan's monomials have the degree of their flat's codimension;
    # for n = 2 the zero kind with p even has only the center
    for kind in ("full", "zero"):
        for r in range(1, 5):
            for p in (d for d in range(1, r + 1) if r % d == 0):
                for n in range(1, 4):
                    G, A = make_grpn(r, p, n), make_arrangement(kind, r, n)
                    basis = theorem4_basis(
                        A, G, cox_monomials(r, p, n, kind))
                    assert basis.cardinality == basis.poincare(1)


def test_orbit_type_names_without_a_table_are_generic():
    H3 = shipped_group("h3")
    A = reflection_arrangement(H3)
    names = orbit_type_names(H3, A)
    assert [names[o.representative.key] for o in orbits_on_lattice(H3, A)] == [
        "rank-0 subgroup, order 1", "rank-1 subgroup, order 2",
        "rank-2 subgroup, order 4", "rank-2 subgroup, order 6",
        "rank-2 subgroup, order 10", "rank-3 subgroup, order 120"]


def test_shipped_groups():
    H3 = shipped_group("h3")
    assert H3.order == 120
    assert len(reflections(H3)) == 15
    assert len(reflection_arrangement(H3)) == 15
    F4 = shipped_group("f4")
    assert F4.order == 1152
    assert len(reflections(F4)) == 24


def test_load_group_file_env_override(tmp_path, monkeypatch):
    obj = {"conductor": 1, "dim": 2, "generators": [[["0", "1"], ["1", "0"]]]}
    (tmp_path / "tiny.json").write_text(json.dumps(obj))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    from reflact.catalog import data_dir
    assert data_dir() == tmp_path
    G = load_group_file(data_dir() / "tiny.json")
    assert G.order == 2


def test_load_group_file_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_group_file(bad)
    bad.write_text(json.dumps({"dim": 2, "generators": [[["1", "0"]]]}))
    with pytest.raises(ValueError):
        load_group_file(bad)


def test_shipped_group_one_build_per_name():
    misses = shipped_group.cache_info().misses
    H3 = parse_group_spec("H3")
    assert H3 is shipped_group("h3")
    assert parse_group_spec("h3", order_cap=120) is H3
    assert shipped_group.cache_info().misses <= misses + 1
    with pytest.raises(OrderCapExceededError):
        parse_group_spec("H3", order_cap=119)


def test_shipped_caches_follow_the_data_directory(tmp_path, monkeypatch):
    # one name read from two directories in turn, with no cache_clear: each
    # directory's file comes back, and a directory read before is a hit
    package = data_dir()
    H3, f4_types = shipped_group("h3"), load_group_types(package / "f4.json")
    for sub, stem in (("a", "f4"), ("b", "h3")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "h3.json").write_text(
            (package / ("%s.json" % stem)).read_text())
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path / "a"))
    G = shipped_group("h3")
    assert G.order == 1152 and shipped_group_types("h3") == f4_types
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path / "b"))
    assert shipped_group("h3").order == 120
    assert shipped_group_types("h3") == load_group_types(package / "h3.json")
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path / "a"))
    misses = shipped_group.cache_info().misses
    assert shipped_group("h3") is G
    assert shipped_group.cache_info().misses == misses
    monkeypatch.delenv("REFLACT_DATA_DIR")
    assert shipped_group("h3") is H3


def test_braid_goes_with_the_symmetric_group_only():
    # braid(n) = zero(1, n), the arrangement of W(n) = G(1,1,n)
    assert ([(l.partition, f.key) for l, f in prop41_labels(1, 1, 3, "braid")]
            == [(l.partition, f.key) for l, f in prop41_labels(1, 1, 3, "zero")])
    assert cox_monomials(1, 1, 4, "braid") == cox_monomials(1, 1, 4, "zero")
    for r, p in ((2, 2), (2, 1)):
        for build in (prop41_labels, cox_monomials):
            with pytest.raises(ValueError, match="r = p = 1"):
                build(r, p, 3, "braid")


def test_parse_specs():
    assert parse_group_spec("G(2,1,2)").order == 8
    assert parse_group_spec("W(3)").order == 6
    assert parse_group_spec("H3").order == 120
    assert len(parse_arrangement_spec("A_3(2)")) == 9
    assert len(parse_arrangement_spec("A_3^0(2)")) == 6
    G = parse_group_spec("W(3)")
    assert len(parse_arrangement_spec(None, G)) == 3
    with pytest.raises(ValueError):
        parse_group_spec("Q(1,2)")
    with pytest.raises(ValueError):
        parse_arrangement_spec("B_3(2)")


def _named_specs():
    """Every group and arrangement spec of the golden corpus and README."""
    groups, arrangements = set(), set()

    def walk(x):
        if isinstance(x, dict):
            for k, v in x.items():
                if k in ("group", "ambient"):
                    groups.add(v)
                elif k == "arrangement":
                    arrangements.add(v)
                else:
                    walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(json.loads((data_dir() / "verify_expected.json").read_text()))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    groups.update(re.findall(r'--group "([^"]+)"', readme))
    arrangements.update(re.findall(r'--arrangement "([^"]+)"', readme))
    return sorted(groups), sorted(arrangements)


def test_pair_family_agrees_with_the_parsers(monkeypatch):
    # pair_family gives (kind, r, p, n) exactly when the parsers build
    # make_grpn(r, p, n) and make_arrangement(kind, r, n), called
    # positionally as the benchmark's cache counts expect
    groups, arrangements = _named_specs()
    assert {"H3", "F4", "W(4)", "G(2,2,4)"} <= set(groups)
    assert {"A_4(2)", "A_4^0(2)", "A_4(3)"} <= set(arrangements)
    groups.append(str(data_dir() / "h3.json"))
    calls = []
    for name in ("make_grpn", "make_arrangement"):
        real = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda *args, real=real:
                            calls.append(args) or real(*args))

    def built(parse, spec):
        calls.clear()
        obj = parse(spec)
        return obj, (calls[0] if calls else None)

    group_of = {g: built(parse_group_spec, g) for g in groups}
    arrangement_of = {a: built(parse_arrangement_spec, a) for a in arrangements}
    monkeypatch.undo()
    for G, rpn in group_of.values():
        assert rpn is None or G is make_grpn(*rpn)
    for A, params in arrangement_of.values():
        assert A is make_arrangement(*params)
    for g, (G, rpn) in group_of.items():
        family = pair_family(g)
        if rpn is None:
            assert family is None
        else:
            # the omitted arrangement is the group's reflection arrangement
            kind, r, p, n = family
            assert (r, p, n) == rpn
            assert set(reflection_arrangement(G).hyperplanes) == \
                set(make_arrangement(kind, r, n).hyperplanes)
        for a, (_, (kind, r, n)) in arrangement_of.items():
            same = rpn is not None and (rpn[0], rpn[2]) == (r, n)
            assert pair_family(g, a) == ((kind,) + rpn if same else None)


def test_pair_family_refuses_other_specs():
    for spec in ("H3", "F4", " h3 ", str(data_dir() / "f4.json"), "bogus"):
        assert pair_family(spec) is None
        assert pair_family(spec, "A_3(2)") is None
    assert pair_family("G(2,1,3)", "A_4(2)") is None      # n differs
    assert pair_family("G(2,1,3)", "A_3(3)") is None      # r differs
    assert pair_family("W(3)", "A_3^0(2)") is None        # W(n) has r = 1
    assert pair_family("G(2,1,3)", "B_3(2)") is None
    assert pair_family(None, "A_3(2)") is None
    assert pair_family("", None) is None
    assert pair_family(" G(2,1,3) ", " A_3^0(2) ") == ("zero", 2, 1, 3)
    assert pair_family("W(3)", "A_3(1)") == ("full", 1, 1, 3)


def test_shipped_name():
    assert shipped_name("H3") == "h3"
    assert shipped_name(" f4 ") == "f4"
    assert shipped_name("G(2,1,2)") is None
    assert shipped_name(None) is None


@pytest.mark.parametrize("table", [
    [{"codim": 1}], "oops", {"codim": 1}, [1],
    [{"codim": 1, "order": 2, "reflections": 3, "name": "A_1"}],
    [{"codim": [1], "order": 2, "reflections": [1], "name": "A_1"}],
    [{"codim": 1, "order": 2, "reflections": [1], "name": None}],
], ids=["missing_keys", "string", "object", "number_entry",
        "number_reflections", "list_codim", "null_name"])
def test_malformed_type_table_is_a_value_error(tmp_path, monkeypatch, table):
    obj = json.loads((data_dir() / "h3.json").read_text())
    obj["stabilizer_types"] = table
    (tmp_path / "h3.json").write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="malformed group file"):
        load_group_types(tmp_path / "h3.json")
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="malformed group file"):
        shipped_group_types("h3")


def test_type_table_entries_are_tuples():
    types = load_group_types(data_dir() / "h3.json")
    assert types == shipped_group_types("h3")
    assert types[1] == (1, 2, (1,), "A_1")
    assert load_group_types(data_dir() / "verify_expected.json") is None


def test_group_file_readers_refuse_the_same_inputs(tmp_path):
    # a missing file or a JSON value that is not an object is a ValueError
    # for both readers, never a bare OSError or AttributeError
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path in (tmp_path / "missing.json", listed):
        for load in (load_group_file, load_group_types):
            with pytest.raises(ValueError):
                load(path)
