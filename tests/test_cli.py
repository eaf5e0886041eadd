import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reflact.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main, run, verify_suite
from reflact.exactnum import CycMatrix
from reflact.groups import OrderCapExceededError, generate


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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


def test_characters_verb():
    code, out, _ = invoke("characters", "--group", "G(2,1,2)",
                          "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["characters"]) == 4
    assert payload["characters"][0]["values"][0] == "1"
    assert sum(c["det_like"] for c in payload["characters"]) >= 1


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
