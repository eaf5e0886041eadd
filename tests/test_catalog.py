import json
import math

import pytest

from reflact.arrangement import build_lattice
from reflact.catalog import (
    LabelCrossCheckError,
    UndefinedNameError,
    cox_monomials,
    load_group_file,
    make_arrangement,
    make_grpn,
    named_hyperplane,
    parse_arrangement_spec,
    parse_group_spec,
    prop41_labels,
    shipped_group,
)
from reflact.exactnum import Cyc
from reflact.groups import (
    OrderCapExceededError,
    orbits_on_lattice,
    pointwise_stabilizer,
    reflection_arrangement,
    reflections,
)


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


def test_named_hyperplane_errors():
    with pytest.raises(UndefinedNameError):
        named_hyperplane(1, 1, 3, "s")
    with pytest.raises(UndefinedNameError):
        named_hyperplane(2, 1, 3, "t_5")
    with pytest.raises(UndefinedNameError):
        named_hyperplane(2, 1, 3, "bogus")


def test_cox_monomials_shapes():
    r, p, n = 2, 2, 4
    cm = cox_monomials(r, p, n, "zero")
    A = make_arrangement("zero", r, n)
    lat = build_lattice(A)
    # entries: one tuple of length n-1 at the codim n-1 flat, one of length n
    # at the center
    sizes = sorted((lat.by_key[k].codim, len(v), len(v[0])) for k, v in cm.items())
    assert sizes == [(3, 1, 3), (4, 1, 4)]

    cm = cox_monomials(4, 2, 4, "full")
    lat = build_lattice(make_arrangement("full", 4, 4))
    pair_lengths = sorted(len(v) for v in cm.values())
    # two E-pairs (codim 3 and 4), singletons elsewhere
    assert pair_lengths == [1, 1, 1, 2, 2]
    for k, v in cm.items():
        for mono in v:
            assert len(mono) == lat.by_key[k].codim


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
