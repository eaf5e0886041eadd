import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reflact import cli
from reflact.catalog import data_dir
from reflact.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main, run, verify_suite
from reflact.exactnum import CycMatrix, _prime_root
from reflact.groups import LinearCharacter, OrderCapExceededError, generate


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def python(*args, timeout=300):
    """A fresh interpreter run with the package's source on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=src))


def group_file_refused(tmp_path, obj, message):
    """`reflact info --group` on obj as a group file exits 2 with message,
    in a fresh interpreter that must finish within 20 s."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    proc = python("-m", "reflact", "info", "--group", str(path), timeout=20)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_info_group():
    code, out, _ = invoke("info", "--group", "G(2,1,2)")
    assert code == EXIT_OK
    assert "order" in out and "8" in out
    code, out, _ = invoke("info", "--group", "G(2,1,2)", "--format", "json")
    payload = json.loads(out)
    assert payload["group"]["order"] == 8
    assert payload["group"]["reflections"] == 4
    assert payload["arrangement"]["hyperplanes"] == 4


def test_info_shipped_group_order_cap():
    code, _, err = invoke("info", "--group", "H3", "--order-cap", "119")
    assert code == EXIT_USAGE and "error" in err
    code, out, _ = invoke("info", "--group", "H3", "--order-cap", "120")
    assert code == EXIT_OK and "120" in out


def test_info_requires_something():
    code, _, err = invoke("info")
    assert code == EXIT_USAGE and "error" in err


def test_poincare_text_and_json():
    code, out, _ = invoke("poincare", "--group", "G(2,1,3)",
                          "--arrangement", "A_3(2)")
    assert code == EXIT_OK
    assert out.strip() == "1+2t+2t^2+t^3"
    code, out, _ = invoke("poincare", "--group", "G(2,1,3)",
                          "--arrangement", "A_3(2)", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 2, 2, 1]


def test_poincare_det_character():
    code, out, _ = invoke("poincare", "--group", "W(3)",
                          "--arrangement", "A_3^0(1)", "--character", "det")
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_lattice_csv():
    code, out, _ = invoke("lattice", "--arrangement", "A_2^0(2)",
                          "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "codim,flat"
    # empty flat, two hyperplanes, center
    assert len(lines) == 5


def test_orbits_table():
    code, out, _ = invoke("orbits", "--group", "G(2,2,2)",
                          "--arrangement", "A_2^0(2)", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["poincare"] == [1, 2, 1]
    assert [o["codim"] for o in payload["orbits"]] == [0, 1, 1, 2]


def test_orbits_exceptional_names():
    code, out, _ = invoke("orbits", "--group", "H3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    carriers = sorted(o["type"] for o in payload["orbits"] if o["dim"] > 0)
    assert carriers == ["A_0", "A_1", "A_1^2", "H_3"]


def test_invariant_basis_verb():
    code, out, _ = invoke("invariant-basis", "--group", "G(2,2,3)",
                          "--arrangement", "A_3^0(2)", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cardinality"] == 2
    assert payload["poincare"] == [1, 1, 0, 0]


@pytest.mark.parametrize("character", ["index:2", "det", "det-inv"])
def test_invariant_basis_refuses_a_nontrivial_character(character):
    # the certified basis is the trivial character's; a nontrivial selector
    # must not print it as if it answered
    pair = ("--group", "G(2,1,3)", "--arrangement", "A_3(2)")
    code, out, err = invoke("invariant-basis", *pair, "--character", character)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "trivial" in err
    trivial = invoke("invariant-basis", *pair, "--format", "json")
    assert trivial[0] == EXIT_OK
    for same in ("trivial", "index:0"):
        assert invoke("invariant-basis", *pair, "--format", "json",
                      "--character", same) == trivial


def test_invariant_basis_rank_zero():
    pair = ("--group", "W(1)", "--arrangement", "A_1^0(1)")
    code, out, err = invoke("invariant-basis", *pair, "--format", "json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["cardinality"] == 1 and payload["poincare"] == [1]
    assert [e["monomials"] for e in payload["entries"]] == [[[]]]
    assert invoke("poincare", *pair)[1].strip() == "1"


def test_characters_verb():
    code, out, _ = invoke("characters", "--group", "G(2,1,2)",
                          "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["characters"]) == 4
    assert payload["characters"][0]["values"][0] == "1"
    assert sum(c["det_like"] for c in payload["characters"]) >= 1


def test_characters_marks_det_like_by_value(monkeypatch):
    # equal characters that are not the same objects must still be marked
    argv = ("characters", "--group", "G(2,1,2)", "--format", "json")
    chars = json.loads(invoke(*argv)[1])["characters"]
    expected = [c["det_like"] for c in chars]
    assert any(expected) and not all(expected)
    real = cli.determinant_like_characters
    monkeypatch.setattr(cli, "determinant_like_characters",
                        lambda G: [LinearCharacter(c.values) for c in real(G)])
    code, out, _ = invoke(*argv)
    assert code == EXIT_OK
    assert [c["det_like"] for c in json.loads(out)["characters"]] == expected


def test_multiplicity_verb():
    code, out, _ = invoke("multiplicity", "--group", "W(3)",
                          "--arrangement", "A_3^0(1)", "--character", "det",
                          "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dimension"
    assert [l.split(",")[1] for l in lines[1:]] == ["0", "0", "0"]


def test_multiplicity_single_degree():
    code, out, _ = invoke("multiplicity", "--group", "G(2,1,2)",
                          "--arrangement", "A_2(2)", "--degree", "2",
                          "--format", "json")
    payload = json.loads(out)
    assert payload["multiplicities"] == [{"degree": 2, "dim": 1}]


def test_tex_format():
    code, out, _ = invoke("multiplicity", "--group", "G(2,1,2)",
                          "--arrangement", "A_2(2)", "--format", "tex")
    assert code == EXIT_OK
    assert out.startswith("\\begin{tabular}") and "\\end{tabular}" in out


def test_validation_errors():
    assert invoke("poincare", "--group", "Q(9)")[0] == EXIT_USAGE
    assert invoke("poincare", "--arrangement", "A_2(2)")[0] == EXIT_USAGE
    assert invoke("poincare", "--group", "W(3)", "--arrangement",
                  "B_2(1)")[0] == EXIT_USAGE
    assert invoke("multiplicity", "--group", "W(3)", "--arrangement",
                  "A_3^0(1)", "--character", "index:99")[0] == EXIT_USAGE
    assert invoke("multiplicity", "--group", "W(3)", "--arrangement",
                  "A_3^0(1)", "--degree", "7")[0] == EXIT_USAGE
    assert invoke("verify", "--table", "nope")[0] == EXIT_USAGE
    assert invoke("frobnicate")[0] == EXIT_USAGE


@pytest.mark.parametrize("group, arrangement, code, answer", [
    # stable pairs whose group and arrangement conductors differ
    ("G(2,2,2)", "A_2^0(1)", EXIT_OK, "1+t"),
    ("G(4,4,2)", "A_2^0(2)", EXIT_OK, "1+t"),
    # unstable pairs and a dimension mismatch
    ("G(3,1,2)", "A_2^0(1)", EXIT_USAGE, None),
    ("W(3)", "A_4(1)", EXIT_USAGE, None),
    ("H3", "A_3(1)", EXIT_USAGE, None),
])
def test_poincare_cross_conductor_and_unstable_pairs(group, arrangement,
                                                     code, answer):
    got, out, err = invoke("poincare", "--group", group,
                           "--arrangement", arrangement)
    assert got == code
    if answer is None:
        assert err.startswith("error: ")
    else:
        assert out.strip() == answer


def test_verify_small_suites():
    code, out, _ = invoke("verify", "--table", "table1", "--max-r", "3")
    assert code == EXIT_OK
    assert "4/4 cases passed" in out
    code, out, _ = invoke("verify", "--table", "acyclic", "--max-n", "2")
    assert code == EXIT_OK and "FAIL" not in out


def test_verify_parallel():
    report = verify_suite("acyclic", max_r=4, max_n=2, jobs=2)
    assert report["passed"] and len(report["cases"]) == 5


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported only when verify runs with more than one job
    proc = python("-c", "import sys, reflact.cli; print(sorted(m for m in "
                  "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_mismatch_exit_code(tmp_path, monkeypatch):
    doctored = {"version": 1,
                "table1": [{"kind": "full", "r": 2, "p": 1, "n": 2,
                            "poincare": [9, 9, 9]}]}
    (tmp_path / "verify_expected.json").write_text(json.dumps(doctored))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    code, out, _ = invoke("verify", "--table", "table1")
    assert code == EXIT_MISMATCH
    assert "FAIL" in out and "0/1 cases passed" in out


def test_main_returns_int():
    assert main(["info", "--group", "W(3)"]) == EXIT_OK


def test_singular_group_file_rejected(tmp_path):
    sing = [[1, 0], [0, 0]]
    with pytest.raises(ValueError):
        generate([CycMatrix.from_rows(sing)])
    path = tmp_path / "sing.json"
    path.write_text(json.dumps({"conductor": 1, "dim": 2,
                                "generators": [sing]}))
    code, out, err = invoke("info", "--group", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "singular" in err


def test_infinite_order_generator_hits_order_cap(tmp_path):
    # the orbit of e_1 under diag(2, 1) is infinite; the cap bounds it
    gen = [[2, 0], [0, 1]]
    with pytest.raises(OrderCapExceededError):
        generate([CycMatrix.from_rows(gen)], order_cap=5)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"conductor": 1, "dim": 2,
                                "generators": [gen]}))
    code, _, err = invoke("info", "--group", str(path), "--order-cap", "5")
    assert code == EXIT_USAGE and "cap" in err


@pytest.mark.parametrize("entry", [2, "1e400"])
def test_non_unitary_generator_exits_2_at_default_cap(tmp_path, entry):
    # det 2 (or 10^400) is no root of unity: refused before the closure
    # runs, which would otherwise walk to the 100,000-element cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "generators": [[[entry]]]}))
    code, out, err = invoke("info", "--group", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "infinite order" in err


@pytest.mark.parametrize("a", ["2", "-2"])
def test_determinant_one_infinite_order_exits_2(tmp_path, a):
    # diag(a, 1/2) has determinant +-1, a root of unity, but infinite order;
    # g^12 != I modulo p refuses it before the closure
    gen = [[a, "0"], ["0", "1/2"]]
    group_file_refused(tmp_path, {"dim": 2, "generators": [gen]},
                       "infinite order")


def _diag(n, entries):
    return [[entries.get(i, "1") if i == j else "0" for j in range(n)]
            for i in range(n)]


def test_high_dimensional_non_unitary_generator_exits_2_at_default_cap(
        tmp_path):
    # diag(2, 1, ..., 1) in dimension 12: the determinant check refuses it
    # before the closure could grow e_1, 2 e_1, 4 e_1, ... to the cap
    gen = _diag(12, {0: "2"})
    group_file_refused(tmp_path, {"dim": 12, "generators": [gen]},
                       "infinite order")


@pytest.mark.parametrize("n", [8, 12])
def test_high_dimensional_determinant_one_infinite_order_exits_2(tmp_path, n):
    # diag(2, 1/2, 1, ..., 1): g^L != I modulo p, with L = 5,040 for n = 8
    # and 720,720 for n = 12
    gen = _diag(n, {0: "2", 1: "1/2"})
    group_file_refused(tmp_path, {"dim": n, "generators": [gen]},
                       "infinite order")


def test_huge_entry_determinant_one_block_exits_2(tmp_path):
    # [[10^400, 1], [-1, 0]] + I_4 has determinant 1 and infinite order;
    # modulo p its entries are small
    gen = _diag(6, {})
    gen[0][:2], gen[1][:2] = [str(10 ** 400), "1"], ["-1", "0"]
    group_file_refused(tmp_path, {"dim": 6, "generators": [gen]},
                       "infinite order")


def test_generator_that_is_a_permutation_modulo_p_exits_2(tmp_path):
    # [[0, 1], [1, p]] is the swap modulo the first prime p the order test
    # uses, and has infinite order; g^2 != I exactly refuses it
    p, _ = _prime_root(1, 1 << 30)
    group_file_refused(tmp_path, {"dim": 2, "generators": [[[0, 1], [1, p]]]},
                       "infinite order")


def test_oversized_conductor_in_group_file_exits_2(tmp_path):
    # phi(10^8) is far above one coefficient; refused before phi is computed
    entry = {"m": 100000000, "c": ["1"]}
    group_file_refused(tmp_path, {"dim": 1, "generators": [[[entry]]]},
                       "malformed group file")


@pytest.mark.parametrize("dim", [-1, 2.5, True])
def test_group_file_dim_that_is_no_nonnegative_int_exits_2(tmp_path, dim):
    # -1 once ended in a traceback, and 2.5 was read as 2
    group_file_refused(tmp_path, {"dim": dim, "generators": []},
                       "malformed group file: dim")


def test_info_action_summary():
    argv = ("info", "--group", "G(3,1,4)", "--arrangement", "A_4(3)")
    code, out, _ = invoke(*argv, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["action"] == {
        "distinct_permutations": 648, "lattice_orbits": 12, "flats": 214,
        "conjugacy_classes": 51}
    code, out, _ = invoke(*argv)
    assert code == EXIT_OK
    assert "distinct_permutations  648" in out
    assert "conjugacy_classes      51" in out
    # with one of the two options there is no action summary
    for argv in (("info", "--group", "G(3,1,2)"),
                 ("info", "--arrangement", "A_2(3)")):
        code, out, _ = invoke(*argv, "--format", "json")
        assert code == EXIT_OK and "action" not in json.loads(out)
    code, _, err = invoke("info", "--group", "W(3)", "--arrangement", "A_4(1)")
    assert code == EXIT_USAGE and err.startswith("error: ")


def test_python_m_reflact():
    proc = python("-m", "reflact", "info", "--group", "W(3)", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["group"]["order"] == 6


def test_directory_as_group_spec_exits_2(tmp_path):
    code, out, err = invoke("info", "--group", str(tmp_path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "cannot read group file" in err


def test_zero_denominator_group_file_exits_2(tmp_path):
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps({"dim": 1, "generators": [[["1/0"]]]}))
    code, out, err = invoke("info", "--group", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "malformed group file" in err


def test_order_cap_below_closed_form_exits_2():
    code, _, err = invoke("info", "--group", "G(2,1,3)", "--order-cap", "47")
    assert code == EXIT_USAGE and "cap" in err
    assert invoke("info", "--group", "G(2,1,3)", "--order-cap", "48")[0] == EXIT_OK


def test_checks_survive_python_O():
    # python -O strips assert statements; these checks must still fire
    script = textwrap.dedent("""
        import io, sys
        from reflact.cli import run
        from reflact.exactnum import Cyc
        assert False, "asserts are stripped under -O"
        try:
            Cyc.root_of_unity(3).lift(4)
            sys.exit("lift to a non-multiple conductor did not raise")
        except ValueError:
            pass
        for argv, code, answer in [
                (["poincare", "--group", "G(2,2,2)", "--arrangement", "A_2^0(1)"], 0, "1+t"),
                (["poincare", "--group", "G(4,4,2)", "--arrangement", "A_2^0(2)"], 0, "1+t"),
                (["poincare", "--group", "G(3,1,2)", "--arrangement", "A_2^0(1)"], 2, None),
                (["poincare", "--group", "W(3)", "--arrangement", "A_4(1)"], 2, None)]:
            out = io.StringIO()
            got = run(argv, out=out, err=io.StringIO())
            if got != code or (answer and out.getvalue().strip() != answer):
                sys.exit("%s: exit %s, output %r" % (argv, got, out.getvalue()))
        print("ok")
    """)
    proc = python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("group,arrangement", [
    ("G(2,1,3)", "A_3(2)"), ("G(2,2,4)", "A_4^0(2)"), ("W(4)", "A_4^0(1)"),
    ("G(3,1,3)", "A_3(3)"), ("G(3,3,3)", "A_3^0(3)"), ("G(4,2,3)", "A_3(4)"),
])
@pytest.mark.parametrize("verb", ["invariant-basis", "orbits"])
def test_group_only_matches_its_reflection_arrangement(verb, group, arrangement):
    # without --arrangement the group's own family arrangement is meant
    alone = invoke(verb, "--group", group, "--format", "json")
    explicit = invoke(verb, "--group", group, "--arrangement", arrangement,
                      "--format", "json")
    assert alone[0] == EXIT_OK, alone[2]
    assert alone == explicit


@pytest.mark.parametrize("table", [[{"codim": 1}], "oops"],
                         ids=["missing_keys", "string"])
def test_malformed_type_table_exits_2(tmp_path, monkeypatch, table):
    # the group data are fine, so the group builds; its display table is not
    obj = json.loads((data_dir() / "h3.json").read_text())
    obj["stabilizer_types"] = table
    (tmp_path / "h3.json").write_text(json.dumps(obj))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    code, out, err = invoke("orbits", "--group", "H3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: malformed group file ")
    assert str(tmp_path / "h3.json") in err


# `--format json` output pinned byte for byte: hyperplane order, flat keys,
# rep_keys and monomials are public, and refactors must keep them
PINNED_JSON = {
    ("lattice", "H3", None): (
        '{"flats":[{"codim":0,"key":[]},{"codim":1,"key":[0]},{"codim":1,"key'
        '":[1]},{"codim":1,"key":[2]},{"codim":1,"key":[3]},{"codim":1,"key":'
        '[4]},{"codim":1,"key":[5]},{"codim":1,"key":[6]},{"codim":1,"key":[7'
        ']},{"codim":1,"key":[8]},{"codim":1,"key":[9]},{"codim":1,"key":[10]'
        '},{"codim":1,"key":[11]},{"codim":1,"key":[12]},{"codim":1,"key":[13'
        ']},{"codim":1,"key":[14]},{"codim":2,"key":[0,1]},{"codim":2,"key":['
        '0,2,7]},{"codim":2,"key":[0,3,4,8,10]},{"codim":2,"key":[0,5,6,11,12'
        ']},{"codim":2,"key":[0,9]},{"codim":2,"key":[0,13,14]},{"codim":2,"k'
        'ey":[1,2,10,12,14]},{"codim":2,"key":[1,3,5,7,13]},{"codim":2,"key":'
        '[1,4,6]},{"codim":2,"key":[1,8,11]},{"codim":2,"key":[1,9]},{"codim"'
        ':2,"key":[2,3]},{"codim":2,"key":[2,4,9,11,13]},{"codim":2,"key":[2,'
        '5,8]},{"codim":2,"key":[2,6]},{"codim":2,"key":[3,6]},{"codim":2,"ke'
        'y":[3,9,12]},{"codim":2,"key":[3,11,14]},{"codim":2,"key":[4,5]},{"c'
        'odim":2,"key":[4,7,12]},{"codim":2,"key":[4,14]},{"codim":2,"key":[5'
        ',9,10]},{"codim":2,"key":[5,14]},{"codim":2,"key":[6,7,8,9,14]},{"co'
        'dim":2,"key":[6,10,13]},{"codim":2,"key":[7,10]},{"codim":2,"key":[7'
        ',11]},{"codim":2,"key":[8,12]},{"codim":2,"key":[8,13]},{"codim":2,"'
        'key":[10,11]},{"codim":2,"key":[12,13]},{"codim":3,"key":[0,1,2,3,4,'
        '5,6,7,8,9,10,11,12,13,14]}],"hyperplanes":15,"rank":3}'
    ),
    ("orbits", "H3", None): (
        '{"character":"trivial","orbits":[{"codim":0,"dim":1,"index":1,"orbit'
        '_size":1,"rep_key":[],"type":"A_0"},{"codim":1,"dim":1,"index":15,"o'
        'rbit_size":15,"rep_key":[0],"type":"A_1"},{"codim":2,"dim":1,"index"'
        ':15,"orbit_size":15,"rep_key":[0,1],"type":"A_1^2"},{"codim":2,"dim"'
        ':0,"index":10,"orbit_size":10,"rep_key":[0,2,7],"type":"A_2"},{"codi'
        'm":2,"dim":0,"index":6,"orbit_size":6,"rep_key":[0,3,4,8,10],"type":'
        '"I_2(5)"},{"codim":3,"dim":1,"index":1,"orbit_size":1,"rep_key":[0,1'
        ',2,3,4,5,6,7,8,9,10,11,12,13,14],"type":"H_3"}],"poincare":[1,1,1,1]'
        '}'
    ),
    ("lattice", "G(3,1,3)", "A_3(3)"): (
        '{"flats":[{"codim":0,"key":[]},{"codim":1,"key":[0]},{"codim":1,"key'
        '":[1]},{"codim":1,"key":[2]},{"codim":1,"key":[3]},{"codim":1,"key":'
        '[4]},{"codim":1,"key":[5]},{"codim":1,"key":[6]},{"codim":1,"key":[7'
        ']},{"codim":1,"key":[8]},{"codim":1,"key":[9]},{"codim":1,"key":[10]'
        '},{"codim":1,"key":[11]},{"codim":2,"key":[0,1,2,3,4]},{"codim":2,"k'
        'ey":[0,5]},{"codim":2,"key":[0,6,7,8,9]},{"codim":2,"key":[0,10]},{"'
        'codim":2,"key":[0,11]},{"codim":2,"key":[1,5,6]},{"codim":2,"key":[1'
        ',7]},{"codim":2,"key":[1,8,10]},{"codim":2,"key":[1,9,11]},{"codim":'
        '2,"key":[2,5,7,10,11]},{"codim":2,"key":[2,6]},{"codim":2,"key":[2,8'
        ']},{"codim":2,"key":[2,9]},{"codim":2,"key":[3,5,8]},{"codim":2,"key'
        '":[3,6,11]},{"codim":2,"key":[3,7]},{"codim":2,"key":[3,9,10]},{"cod'
        'im":2,"key":[4,5,9]},{"codim":2,"key":[4,6,10]},{"codim":2,"key":[4,'
        '7]},{"codim":2,"key":[4,8,11]},{"codim":3,"key":[0,1,2,3,4,5,6,7,8,9'
        ',10,11]}],"hyperplanes":12,"rank":3}'
    ),
    ("orbits", "G(3,1,3)", "A_3(3)"): (
        '{"character":"trivial","orbits":[{"codim":0,"dim":1,"index":1,"orbit'
        '_size":1,"rep_key":[],"type":"A_0"},{"codim":1,"dim":1,"index":3,"or'
        'bit_size":3,"rep_key":[0],"type":"G(3,1,1)"},{"codim":1,"dim":1,"ind'
        'ex":9,"orbit_size":9,"rep_key":[1],"type":"A_1"},{"codim":2,"dim":1,'
        '"index":3,"orbit_size":3,"rep_key":[0,1,2,3,4],"type":"G(3,1,2)"},{"'
        'codim":2,"dim":1,"index":9,"orbit_size":9,"rep_key":[0,5],"type":"G('
        '3,1,1) A_1"},{"codim":2,"dim":0,"index":9,"orbit_size":9,"rep_key":['
        '1,5,6],"type":"A_2"},{"codim":3,"dim":1,"index":1,"orbit_size":1,"re'
        'p_key":[0,1,2,3,4,5,6,7,8,9,10,11],"type":"G(3,1,3)"}],"poincare":[1'
        ',2,2,1]}'
    ),
    ("invariant-basis", "G(3,1,3)", "A_3(3)"): (
        '{"cardinality":6,"entries":[{"codim":0,"monomials":[[]],"rep_key":[]'
        '},{"codim":1,"monomials":[[0]],"rep_key":[0]},{"codim":1,"monomials"'
        ':[[1]],"rep_key":[1]},{"codim":2,"monomials":[[5,7]],"rep_key":[0,1,'
        '2,3,4]},{"codim":2,"monomials":[[1,7]],"rep_key":[0,5]},{"codim":3,"'
        'monomials":[[1,5,7]],"rep_key":[0,1,2,3,4,5,6,7,8,9,10,11]}],"poinca'
        're":[1,2,2,1]}'
    ),
}


@pytest.mark.parametrize("verb,group,arrangement", list(PINNED_JSON),
                         ids=str)
def test_json_output_is_pinned(verb, group, arrangement):
    pair = ("--group", group) + (("--arrangement", arrangement) if arrangement else ())
    code, out, err = invoke(verb, *pair, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    pinned = json.loads(PINNED_JSON[verb, group, arrangement])
    assert out == json.dumps(pinned, indent=1, sort_keys=True) + "\n"


def test_invariant_basis_without_monomials_is_pinned():
    # H3's rank-2 orbits need monomials that no label supplies
    assert invoke("invariant-basis", "--group", "H3", "--format", "json") == (
        EXIT_USAGE, "", "error: no monomials for orbit with representative (0, 1)\n")
