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


def test_lattice_requires_a_group_or_an_arrangement():
    assert invoke("lattice") == (
        EXIT_USAGE, "", "error: --arrangement (or --group) is required for "
        "this verb\n")


def test_an_unparsable_character_selector_exits_2():
    assert invoke("poincare", "--group", "G(2,1,2)", "--character",
                  "bogus") == (
        EXIT_USAGE, "", "error: cannot parse character selector 'bogus'\n")


@pytest.mark.parametrize("verb", ["orbits", "invariant-basis"])
def test_a_family_group_alone_builds_one_lattice(verb):
    # with no --arrangement, G(r,p,n)'s reflection arrangement is its catalog
    # arrangement, the object whose lattice labels the orbits; a fresh
    # interpreter counts the lattices the verb builds
    proc = python("-c", textwrap.dedent("""
        import io
        from reflact import arrangement, cli
        built = []
        init = arrangement.IntersectionLattice.__init__
        arrangement.IntersectionLattice.__init__ = (
            lambda self, *args: built.append(args) or init(self, *args))
        code = cli.run([%r, "--group", "G(3,1,3)"], out=io.StringIO())
        print(code, len(built))
    """ % verb))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1\n", "")


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


def test_orbits_cross_checks_the_global_average(monkeypatch):
    # the orbits report prints the orbitwise Poincare polynomial, so it is
    # checked against the global trace average as poincare's is
    from reflact import invariants
    real = invariants.isotypic_dim_global
    monkeypatch.setattr(invariants, "isotypic_dim_global",
                        lambda A, G, chi, k: real(A, G, chi, k) + (k == 2))
    for verb in ("poincare", "orbits"):
        with pytest.raises(invariants.NonIntegralityError,
                           match="method disagreement at degree 2"):
            invoke(verb, "--group", "G(2,1,3)", "--arrangement", "A_3(2)")


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


@pytest.mark.parametrize("content, message", [
    (None, "cannot read golden file {}: No such file or directory"),
    ("{", "malformed golden file {}: Expecting property name enclosed in "
          "double quotes: line 1 column 2 (char 1)"),
    ("[]", "malformed golden file {}: not a JSON object"),
    ('{"table1": 5}', "golden file {} has no list of cases for suite "
                      "'table1'"),
    ('{"table1": [5]}', "golden file {} has no list of cases for suite "
                        "'table1'"),
    ('{"version": 1}', "golden file {} has no list of cases for suite "
                       "'table1'"),
    ('{"table1": [{"r": "x"}]}',
     "golden file {}: case 0 of suite 'table1' needs an int 'r'"),
    ('{"table1": [{"kind": "full", "r": 2, "n": 2, "poincare": [1, 1]}]}',
     "golden file {}: case 0 of suite 'table1' needs an int 'p'"),
    ('{"table1": [{"kind": "full", "r": 2, "p": 1, "n": 2, '
     '"poincare": [1, 2, 1]}, {"kind": 5, "r": 2, "p": true, "n": 2}]}',
     "golden file {}: case 1 of suite 'table1' needs an int 'p'"),
    ('{"table1": [{"kind": ["full"], "r": 2, "p": 1, "n": 2}]}',
     "golden file {}: case 0 of suite 'table1' needs a string 'kind'"),
], ids=["missing", "not_json", "list", "number_suite", "number_case",
        "missing_suite", "string_r", "missing_p", "bool_p", "list_kind"])
def test_verify_with_a_bad_golden_file_exits_2(tmp_path, monkeypatch,
                                               content, message):
    # a golden file that cannot serve its suite is reported as group files
    # are: a message and exit 2, not a traceback
    path = tmp_path / "verify_expected.json"
    if content is not None:
        path.write_text(content)
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "table1") == (
        EXIT_USAGE, "", "error: %s\n" % message.format(path))


@pytest.mark.parametrize("case, message", [
    ({"group": 3, "poincare": [1]}, "needs a string 'group'"),
    ({"group": "H3", "r": "4", "poincare": [1]}, "needs an int 'r'"),
], ids=["number_group", "string_r"])
def test_verify_checks_the_fields_of_a_group_case(tmp_path, monkeypatch,
                                                  case, message):
    # "r" and "n" are optional in a group suite, but select a case when set
    path = tmp_path / "verify_expected.json"
    path.write_text(json.dumps({"cor1": [case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "cor1") == (
        EXIT_USAGE, "", "error: golden file %s: case 0 of suite 'cor1' %s\n"
        % (path, message))


_TABLE2 = {"kind": "full", "r": 2, "p": 1, "n": 2, "poincare": [1, 2, 1],
           "orbit_dims": [[0, 1]]}
_THM6 = {"group": "G(2,2,4)", "ambient": "G(2,1,4)", "arrangement": "A_4(2)",
         "one_plus_sigma": [[0, 1]]}


@pytest.mark.parametrize("suite, case, message", [
    ("cor1", {"group": "G(2,1,2)"}, "needs a list of ints 'poincare'"),
    ("table1", dict(_TABLE2, poincare="x"), "needs a list of ints 'poincare'"),
    ("table1", dict(_TABLE2, poincare=[1, True]),
     "needs a list of ints 'poincare'"),
    ("table2", dict(_TABLE2, orbit_dims=7), "needs a list of [int, int] "
                                            "'orbit_dims'"),
    ("table2", dict(_TABLE2, orbit_dims=[[0, 1, 1]]),
     "needs a list of [int, int] 'orbit_dims'"),
    ("thm4", dict(_TABLE2, named=5),
     "needs a list of lists of lists of strings 'named'"),
    ("thm4", dict(_TABLE2, named=[["s"]]),
     "needs a list of lists of lists of strings 'named'"),
    ("thm6", dict(_THM6, one_plus_sigma=3),
     "needs a list of lists of ints 'one_plus_sigma'"),
    ("thm6", dict(_THM6, one_plus_sigma=[0, 1]),
     "needs a list of lists of ints 'one_plus_sigma'"),
], ids=["missing_poincare", "string_poincare", "bool_in_poincare",
        "number_orbit_dims", "triple_in_orbit_dims", "number_named",
        "shallow_named", "number_one_plus_sigma", "flat_one_plus_sigma"])
def test_verify_checks_the_list_fields_of_a_case(tmp_path, monkeypatch,
                                                 suite, case, message):
    # a list field of the wrong shape is a bad golden file (exit 2), not a
    # traceback or a mismatch
    path = tmp_path / "verify_expected.json"
    path.write_text(json.dumps({suite: [case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", suite) == (
        EXIT_USAGE, "", "error: golden file %s: case 0 of suite %r %s\n"
        % (path, suite, message))


_ZERO_NAMED = {"kind": "zero", "r": 2, "p": 2, "n": 4}


@pytest.mark.parametrize("suite, case, line", [
    ("table2", _TABLE2, "FAIL table2 full r=2 p=1 n=2: expected [[0, 1]], "
                        "got [[0, 1], [1, 1], [1, 1], [2, 1]]"),
    ("cor1", {"group": "G(2,1,2)", "poincare": [1, 2, 2]},
     "FAIL cor1 G(2,1,2): expected [1, 2, 2], got [1, 2, 1]"),
    ("thm4", dict(_ZERO_NAMED, named=[[["t_2", "t_2^1", "t_3"]],
                                      [["t_2", "t_2^1", "t_3", "t_4"]]]),
     "FAIL thm4 zero r=2 p=2 n=4: expected [[['t_2', 't_2^1', 't_3']], "
     "[['t_2', 't_2^1', 't_3', 't_4']]], got [[[0, 2, 6, 11]], [[0, 6, 11]]]"),
    ("thm6", dict(_THM6, one_plus_sigma=[[0, 1, 2, 3, 9]]),
     "FAIL thm6 G(2,2,4) on A_4(2) orbit 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,"
     "15: expected [1, 0, 0, 0], got [1, 0, 0, 1]"),
], ids=["table2_orbit_dims", "cor1_poincare", "thm4_named",
        "thm6_one_plus_sigma"])
def test_verify_reports_a_doctored_field(tmp_path, monkeypatch, suite, case,
                                         line):
    # the thm4 names are valid in A_4^0(2) but put t_3 where the plan has t_4
    (tmp_path / "verify_expected.json").write_text(json.dumps({suite: [case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", suite) == (
        EXIT_MISMATCH, line + "\n0/1 cases passed\n", "")


def test_verify_reads_names_in_the_case_arrangement(tmp_path, monkeypatch):
    # the zero-kind plan in names: t_2 = 6, t_2^1 = 11, t_3 = 2 and t_4 = 0
    # in A_4^0(2), where full(2, 4) would give 9, 15, 4 and 1
    case = dict(_ZERO_NAMED, named=[[["t_2", "t_2^1", "t_4"]],
                                    [["t_2", "t_2^1", "t_3", "t_4"]]])
    (tmp_path / "verify_expected.json").write_text(json.dumps({"thm4": [case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "thm4") == (
        EXIT_OK, "PASS thm4 zero r=2 p=2 n=4\n1/1 cases passed\n", "")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind, name, arrangement", [
    ("full", "t_9", "full(2, 4)"), ("zero", "s", "zero(2, 4)")])
def test_verify_refuses_a_name_the_arrangement_lacks(tmp_path, monkeypatch,
                                                     jobs, kind, name,
                                                     arrangement):
    # checked with the other golden fields, before any case runs
    path = tmp_path / "verify_expected.json"
    case = dict(_ZERO_NAMED, kind=kind, named=[[[name, "t_2"]]])
    path.write_text(json.dumps({"thm4": [_ZERO_NAMED, case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "thm4", "--jobs", jobs) == (
        EXIT_USAGE, "", "error: golden file %s: case 1 of suite 'thm4' names "
        "%r, no hyperplane of %s\n" % (path, name, arrangement))


@pytest.mark.parametrize("suite, case, message", [
    ("thm4", dict(_ZERO_NAMED, kind="bogus"),
     "kind must be one of ('braid', 'full', 'zero')"),
    ("table1", dict(_TABLE2, p=3), "p must divide r"),
    ("table2", dict(_TABLE2, p=0), "need r, p, n >= 1"),
    ("thm4", dict(_ZERO_NAMED, r=0), "need r, p, n >= 1"),
    ("table1", dict(_TABLE2, n=-1), "need r, p, n >= 1"),
    ("cor2", dict(_TABLE2, kind="braid"),
     "the braid arrangement goes with r = p = 1 only, not G(2,1,2)"),
], ids=["bogus_kind", "p_not_dividing_r", "zero_p", "zero_r", "negative_n",
        "braid_with_r_2"])
def test_verify_checks_the_values_of_a_family_case(tmp_path, monkeypatch,
                                                   suite, case, message):
    # a G(r,p,n) case with parameters no pair has is a bad golden file
    # (exit 2), not a ValueError or NotStableError traceback
    path = tmp_path / "verify_expected.json"
    path.write_text(json.dumps({suite: [case]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", suite) == (
        EXIT_USAGE, "", "error: golden file %s: case 0 of suite %r: %s\n"
        % (path, suite, message))


def test_run_verify_case_refuses_an_unknown_suite():
    with pytest.raises(cli.CLIError, match="unknown verify suite 'bogus'"):
        cli.run_verify_case("bogus", {})


def test_verify_reports_a_plan_that_does_not_certify(tmp_path, monkeypatch):
    # a plan with two monomials for an orbit that carries one invariant is
    # a failed case, not a traceback
    (tmp_path / "verify_expected.json").write_text(
        json.dumps({"thm4": [_ZERO_NAMED]}))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "_plan", lambda family: [[(0, 6, 11)] * 2])
    assert invoke("verify", "--table", "thm4") == (
        EXIT_MISMATCH, "FAIL thm4 zero r=2 p=2 n=4: expected certified basis, "
        "got error: orbit (0, 1, 6) carries 1 invariants but 2 monomials were "
        "given\n0/1 cases passed\n", "")


def test_run_verify_case_fails_on_an_unknown_name():
    # run_verify_case is public and reads no golden file, so it checks the
    # names itself: A_4^0(2) has no hyperplane x_1 = 0
    case = dict(_ZERO_NAMED, named=[[["t_2", "s"]]])
    assert cli.run_verify_case("thm4", case) == {
        "id": "thm4 zero r=2 p=2 n=4", "passed": False,
        "expected": "hyperplane names of zero(2, 4)",
        "got": "unknown name 's'"}


def test_verify_refuses_an_empty_selection(tmp_path, monkeypatch):
    # a selection with no case is an error, not a pass; --max-r 0 still
    # selects the cases that have no r
    assert invoke("verify", "--table", "thm6", "--max-r", "-1") == (
        EXIT_USAGE, "",
        "error: no case of suite 'thm6' has r <= -1 and n <= 4\n")
    doctored = {"version": 1,
                "cor1": [{"group": "H3", "poincare": [1, 1, 1, 1]},
                         {"group": "G(1,1,2)", "n": 2, "r": 1,
                          "poincare": [1, 1]}]}
    (tmp_path / "verify_expected.json").write_text(json.dumps(doctored))
    (tmp_path / "h3.json").write_bytes((data_dir() / "h3.json").read_bytes())
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "cor1", "--max-r", "0") == (
        EXIT_OK, "PASS cor1 H3\n1/1 cases passed\n", "")


@pytest.mark.parametrize("fmt, table", [
    ("csv", 'case,result,expected,got\n'
            'table1 full r=2 p=1 n=2,PASS,,\n'
            'table1 zero r=2 p=2 n=2,FAIL,"[9, 9, 9]","[1, 2, 1]"\n'),
    ("tex", '\\begin{tabular}{llll}\n'
            'case & result & expected & got \\\\\n\\hline\n'
            'table1 full r=2 p=1 n=2 & PASS &  &  \\\\\n'
            'table1 zero r=2 p=2 n=2 & FAIL & [9, 9, 9] & [1, 2, 1] \\\\\n'
            '\\end{tabular}\n'),
], ids=["csv", "tex"])
def test_verify_formats_are_one_row_per_case(tmp_path, monkeypatch, fmt, table):
    doctored = {"version": 1,
                "table1": [{"kind": "full", "r": 2, "p": 1, "n": 2,
                            "poincare": [1, 2, 1]},
                           {"kind": "zero", "r": 2, "p": 2, "n": 2,
                            "poincare": [9, 9, 9]}]}
    (tmp_path / "verify_expected.json").write_text(json.dumps(doctored))
    monkeypatch.setenv("REFLACT_DATA_DIR", str(tmp_path))
    assert invoke("verify", "--table", "table1", "--format", fmt) == (
        EXIT_MISMATCH, table, "")


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


def test_group_file_dim_true_exits_2_in_process(tmp_path):
    # the same refusal as above, through `run` in this interpreter
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"dim": True, "generators": []}))
    assert invoke("info", "--group", str(path)) == (
        EXIT_USAGE, "", "error: malformed group file: dim True is not an "
        "integer >= 0\n")


@pytest.mark.parametrize("entry", [{"m": 4.9, "c": ["0", "1"]},
                                   {"m": "3", "c": ["0", "1"]},
                                   {"m": True, "c": ["1"]}, True])
def test_group_file_entry_without_an_int_conductor_exits_2(tmp_path, entry):
    # m = 4.9 was read as zeta_4, "3" as zeta_3, and true (as a conductor or
    # as the entry itself) as 1: each exited 0
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"dim": 1, "generators": [[[entry]]]}))
    code, out, err = invoke("info", "--group", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: malformed group file: entry ")


def test_info_action_summary():
    argv = ("info", "--group", "G(3,1,4)", "--arrangement", "A_4(3)")
    code, out, _ = invoke(*argv, "--format", "json")
    assert code == EXIT_OK
    # the kernel of G -> Sym(A) is the scalars of order 3, and each trace
    # is read once per rational class of G modulo it
    assert json.loads(out)["action"] == {
        "distinct_permutations": 648, "lattice_orbits": 12, "flats": 214,
        "conjugacy_classes": 51, "rational_classes": 30, "kernel_order": 3,
        "image_rational_classes": 13}
    code, out, _ = invoke(*argv)
    assert code == EXIT_OK
    assert "distinct_permutations   648" in out
    assert "conjugacy_classes       51" in out
    assert "rational_classes        30" in out
    assert "kernel_order            3" in out
    assert "image_rational_classes  13" in out
    code, out, _ = invoke(*argv, "--format", "csv")
    assert code == EXIT_OK and "action,rational_classes,30" in out
    assert "action,kernel_order,3" in out
    assert "action,image_rational_classes,13" in out
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


def test_group_file_type_table_names_the_orbits(tmp_path):
    # a group file's own table is read, as a shipped file's is
    obj = json.loads((data_dir() / "h3.json").read_text())
    obj["stabilizer_types"] = [dict(t, name="my " + t["name"])
                               for t in obj["stabilizer_types"]]
    path = tmp_path / "my_h3.json"
    path.write_text(json.dumps(obj))
    code, out, err = invoke("orbits", "--group", str(path), "--format", "json")
    assert code == EXIT_OK, err
    carriers = sorted(o["type"] for o in json.loads(out)["orbits"] if o["dim"])
    assert carriers == ["my A_0", "my A_1", "my A_1^2", "my H_3"]


def test_group_file_with_a_malformed_type_table_exits_2(tmp_path):
    obj = json.loads((data_dir() / "h3.json").read_text())
    obj["stabilizer_types"] = "nope"
    path = tmp_path / "my_h3.json"
    path.write_text(json.dumps(obj))
    code, out, err = invoke("orbits", "--group", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: malformed group file %s" % path)


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
    ("invariant-basis", "H3", None): (
        '{"cardinality":4,"entries":[{"codim":0,"monomials":[[]],"rep_key":[]},'
        '{"codim":1,"monomials":[[0]],"rep_key":[0]},{"codim":2,"monomials":[[0'
        ',1]],"rep_key":[0,1]},{"codim":3,"monomials":[[0,1,2]],"rep_key":[0,1,'
        '2,3,4,5,6,7,8,9,10,11,12,13,14]}],"poincare":[1,1,1,1]}'
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


def test_invariant_basis_of_the_shipped_groups_is_pinned():
    # no plan names their orbits: each orbit takes its first NBC monomials
    # with independent projections; as sets, F4's are generator chains
    code, out, err = invoke("invariant-basis", "--group", "F4", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    basis = json.loads(out)
    assert (basis["cardinality"], basis["poincare"]) == (8, [1, 2, 2, 2, 1])
    assert [e["monomials"] for e in basis["entries"]] == [
        [[]], [[0]], [[1]], [[0, 1]], [[0, 4]], [[0, 1, 4]], [[0, 1, 9]],
        [[0, 1, 4, 9]]]
    # H3 read from its file reports what the shipped name does
    assert invoke("invariant-basis", "--group", str(data_dir() / "h3.json"),
                  "--format", "json") == \
        invoke("invariant-basis", "--group", "H3", "--format", "json")


def test_verify_builds_each_lattice_once():
    # a family group's reflection arrangement is its catalog arrangement, so
    # the suites that read G(r,p,n) by spec and by parameters share L(A);
    # a fresh interpreter counts the lattices the whole corpus builds
    proc = python("-c", textwrap.dedent("""
        import io
        from reflact import arrangement, cli
        built = []
        init = arrangement.IntersectionLattice.__init__
        arrangement.IntersectionLattice.__init__ = (
            lambda self, *args: built.append(args) or init(self, *args))
        code = cli.run(["verify", "--table", "all"], out=io.StringIO())
        print(code, len(built))
    """))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 28\n", "")
