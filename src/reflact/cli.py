"""Command-line front end.

Builds named or file-ingested group/arrangement pairs, runs the invariant
computations, verifies the shipped golden corpus, and emits text, JSON, CSV,
or TeX.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

from .arrangement import build_lattice
from .catalog import (
    SHIPPED_GROUPS,
    _family_arrangement,
    _named_hyperplanes,
    _read_json_object,
    cox_monomials,
    make_arrangement,
    make_grpn,
    orbit_type_names,
    pair_family,
    parse_arrangement_spec,
    parse_group_spec,
    prop41_labels,
    shipped_group_types,
    shipped_name,
    data_dir,
    load_group_types,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    NotStableError,
    _action_classes,
    _rational_classes,
    conjugacy_classes,
    det_character,
    determinant_like_characters,
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
    reflections,
)
from .invariants import (
    cross_checked_orbitwise,
    isotypic_dim_global,
    order_two_character,
    poincare_invariants,
    relative_character,
    theorem4_basis,
    trivial_character,
    vanishing_check_detlike,
)
from .osalg import euler_derivation, nbc_basis, rank_of_elements, straighten

__all__ = ["main", "run", "run_verify_case", "verify_suite", "load_expected",
           "SUITES", "CLIError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3

SUITES = ("table1", "table2", "cor1", "cor2", "thm4", "thm6", "cor5",
          "acyclic")
# the fields of a case each suite reads; "r" and "n", where a case has
# them, also select it, and a thm4 case may list its named monomials
_READS = dict.fromkeys(("table1", "cor2"), ("r", "p", "n", "kind", "poincare"))
_READS.update(table2=_READS["table1"] + ("orbit_dims",),
              thm4=("r", "p", "n", "kind"), cor1=("group", "poincare"),
              cor5=("group",), acyclic=("arrangement",),
              thm6=("group", "ambient", "arrangement", "one_plus_sigma"))
# each field's shape (`_fits`) and its name in a message
_SHAPES = dict.fromkeys("rpn", (int, "an int"))
_SHAPES.update(dict.fromkeys(("kind", "group", "ambient", "arrangement"),
                             (str, "a string")),
               poincare=([int], "a list of ints"),
               orbit_dims=([[int, int]], "a list of [int, int]"),
               named=([[[str]]], "a list of lists of lists of strings"),
               one_plus_sigma=([[int]], "a list of lists of ints"))

VERBS = ("info", "lattice", "orbits", "poincare", "invariant-basis",
         "characters", "multiplicity", "verify")


class CLIError(Exception):
    """Validation error mapped to exit code 2."""


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="reflact",
        description="Exact invariant cohomology of hyperplane-arrangement "
                    "complements under finite complex reflection groups.")
    parser.add_argument("verb", choices=VERBS)
    shipped = ", ".join('"%s"' % name for name in SHIPPED_GROUPS)
    parser.add_argument("--group", help='group spec: "G(r,p,n)", "W(n)", '
                                        '%s, or a data file path' % shipped)
    parser.add_argument("--arrangement",
                        help='arrangement spec: "A_n(r)" or "A_n^0(r)"; '
                             "defaults to the group's reflection arrangement")
    parser.add_argument("--character", default="trivial",
                        help="trivial | det | det-inv | index:<i>")
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--format", default="text",
                        choices=("json", "csv", "tex", "text"))
    parser.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--table", default="all",
                        help="verify suite: %s | all" % "|".join(SUITES))
    parser.add_argument("--max-r", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=4)
    return parser


def _get_pair(args, need_group=True, need_arrangement=True):
    G = None
    if args.group:
        try:
            G = parse_group_spec(args.group, order_cap=args.order_cap)
        except (ValueError, RuntimeError) as exc:
            raise CLIError(str(exc))
    elif need_group:
        raise CLIError("--group is required for this verb")
    A = None
    if args.arrangement or G is not None:
        try:
            A = parse_arrangement_spec(args.arrangement, G)
        except (ValueError, RuntimeError) as exc:
            raise CLIError(str(exc))
    if need_arrangement and A is None:
        raise CLIError("--arrangement (or --group) is required for this verb")
    if need_group and need_arrangement:
        try:
            hyperplane_action(G, A)
        except NotStableError as exc:
            raise CLIError(str(exc))
    return G, A


def _get_character(G, selector):
    s = (selector or "trivial").strip()
    if s == "trivial":
        return trivial_character(G)
    if s == "det":
        return det_character(G)
    if s == "det-inv":
        return det_character(G, inverse=True)
    m = re.fullmatch(r"index:(\d+)", s)
    if m:
        chars = linear_characters(G)
        i = int(m.group(1))
        if i >= len(chars):
            raise CLIError("character index %d out of range (%d linear "
                           "characters)" % (i, len(chars)))
        return chars[i]
    raise CLIError("cannot parse character selector %r" % selector)


def _type_names(args, G, A):
    """Orbit display names: family labels when the specs name a family,
    the group file's type table otherwise, generic where neither applies."""
    fam = pair_family(args.group, args.arrangement)
    if fam is not None:
        kind, r, p, n = fam
        try:
            labels = prop41_labels(r, p, n, kind, cross_check=False)
        except (ValueError, RuntimeError):
            labels = None
        if labels is not None:
            orbits = orbits_on_lattice(G, A)
            member_rep = {}
            for o in orbits:
                for f in o.orbit:
                    member_rep[f.key] = o.representative.key
            return {member_rep[f.key]: lab.type_name for lab, f in labels}
    name, types = shipped_name(args.group), None
    try:
        if name is not None:
            types = shipped_group_types(name)
        elif pair_family(args.group) is None:   # parse_group_spec read a file
            types = load_group_types(args.group.strip())
    except ValueError as exc:
        raise CLIError(str(exc))
    return orbit_type_names(G, A, types)


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _emit(out, fmt, title, headers, rows, payload):
    rows = [[str(c) for c in row] for row in rows]
    if fmt == "json":
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
    elif fmt == "tex":
        out.write("\\begin{tabular}{%s}\n" % ("l" * len(headers)))
        out.write(" & ".join(headers) + " \\\\\n\\hline\n")
        for row in rows:
            out.write(" & ".join(row) + " \\\\\n")
        out.write("\\end{tabular}\n")
    else:
        out.write(title + "\n")
        widths = [max([len(h)] + [len(r[i]) for r in rows])
                  for i, h in enumerate(headers)]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
                  + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                      + "\n")


def _key_str(key):
    return ",".join(str(i) for i in key) if key else "-"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_info(args, out):
    G, A = _get_pair(args, need_group=False, need_arrangement=False)
    if G is None and A is None:
        raise CLIError("info needs --group and/or --arrangement")
    payload, rows = {}, []
    if G is not None:
        payload["group"] = {"order": G.order, "rank": G.n,
                            "reflections": len(reflections(G)),
                            "linear_characters": len(linear_characters(G))}
        for k, v in sorted(payload["group"].items()):
            rows.append(["group", k, v])
    if A is not None:
        betti = [len(nbc_basis(A, k)) for k in range(A.rank() + 1)]
        payload["arrangement"] = {"hyperplanes": len(A), "rank": A.rank(),
                                  "betti": betti}
        rows.append(["arrangement", "hyperplanes", len(A)])
        rows.append(["arrangement", "rank", A.rank()])
        rows.append(["arrangement", "betti",
                     " ".join(str(b) for b in betti)])
    if args.group and args.arrangement:
        try:
            action = hyperplane_action(G, A)
        except NotStableError as exc:
            raise CLIError(str(exc))
        # each average takes one term per conjugacy class, and reads each
        # trace once per rational class of G modulo the kernel of G -> Sym(A)
        payload["action"] = {
            "distinct_permutations": len(action.fibers),
            "kernel_order": len(action.fibers[action.perms[0]]),
            "lattice_orbits": len(orbits_on_lattice(G, A)),
            "flats": len(build_lattice(A).by_key),
            "conjugacy_classes": len(conjugacy_classes(G)),
            "rational_classes": len(set(_rational_classes(G))),
            "image_rational_classes": len(set(_action_classes(G, A)))}
        for k, v in sorted(payload["action"].items()):
            rows.append(["action", k, v])
    _emit(out, args.format, "info", ["object", "field", "value"], rows,
          payload)
    return EXIT_OK


def _cmd_lattice(args, out):
    _, A = _get_pair(args, need_group=False)
    lat = build_lattice(A)
    rows, flats = [], []
    for k, level in enumerate(lat.levels):
        for f in level:
            rows.append([k, _key_str(f.key)])
            flats.append({"codim": k, "key": list(f.key)})
    payload = {"hyperplanes": len(A), "rank": A.rank(), "flats": flats}
    _emit(out, args.format, "intersection lattice", ["codim", "flat"], rows,
          payload)
    return EXIT_OK


def _cmd_orbits(args, out):
    G, A = _get_pair(args)
    chi = _get_character(G, args.character)
    names = _type_names(args, G, A)
    report = cross_checked_orbitwise(A, G, chi)
    rows, orbits = [], []
    for o, d in report.orbit_dims:
        key = o.representative.key
        rows.append([o.codim, names.get(key, "?"), _key_str(key),
                     len(o.orbit), len(o.orbit), d])
        orbits.append({"codim": o.codim, "type": names.get(key, "?"),
                       "rep_key": list(key), "orbit_size": len(o.orbit),
                       "index": len(o.orbit), "dim": d})  # [G:N_T] = |orbit|
    payload = {"character": args.character, "orbits": orbits,
               "poincare": list(report.graded)}
    _emit(out, args.format, "lattice orbits",
          ["codim", "type", "representative", "size", "index", "dim"],
          rows, payload)
    return EXIT_OK


def _cmd_poincare(args, out):
    G, A = _get_pair(args)
    chi = _get_character(G, args.character)
    poly = poincare_invariants(A, G, chi)
    payload = {"character": args.character,
               "coefficients": poly.to_json(), "display": str(poly)}
    if args.format == "text":
        out.write(str(poly) + "\n")
    else:
        rows = [[k, c] for k, c in enumerate(poly.coefficients)]
        _emit(out, args.format, "poincare", ["degree", "dimension"], rows,
              payload)
    return EXIT_OK


def _plan(family):
    """The catalog's Theorem-4 plan for a (kind, r, p, n) pair with n >= 3,
    and no plan otherwise: with n <= 2 the rank is at most 2, where
    `theorem4_basis` needs none."""
    if family is None or family[3] < 3:
        return ()
    kind, r, p, n = family
    return cox_monomials(r, p, n, kind)


def _cmd_invariant_basis(args, out):
    G, A = _get_pair(args)
    if not _get_character(G, args.character).is_trivial():
        raise CLIError("invariant-basis certifies the trivial character only")
    try:
        basis = theorem4_basis(
            A, G, _plan(pair_family(args.group, args.arrangement)))
    except (ValueError, RuntimeError) as exc:
        raise CLIError(str(exc))
    names = _type_names(args, G, A)
    rows = []
    for e in basis.entries:
        rows.append([e["codim"], names.get(e["rep_key"], "?"),
                     _key_str(e["rep_key"]),
                     " ".join("(%s)" % _key_str(m) for m in e["monomials"])])
    payload = basis.to_json()
    _emit(out, args.format, "invariant basis",
          ["codim", "type", "representative", "monomials"], rows, payload)
    return EXIT_OK


def _cmd_characters(args, out):
    G, _ = _get_pair(args, need_arrangement=False)
    chars = linear_characters(G)
    det_like = set(determinant_like_characters(G))
    classes = conjugacy_classes(G)
    rows, payload_chars = [], []
    for i, ch in enumerate(chars):
        values = [str(ch(cls[0])) for cls in classes]
        rows.append([i, "yes" if ch in det_like else "no",
                     " ".join(values)])
        payload_chars.append({"index": i, "det_like": ch in det_like,
                              "values": values})
    payload = {"class_sizes": [len(c) for c in classes],
               "characters": payload_chars}
    _emit(out, args.format, "linear characters",
          ["index", "det-like", "values on class representatives"],
          rows, payload)
    return EXIT_OK


def _cmd_multiplicity(args, out):
    G, A = _get_pair(args)
    chi = _get_character(G, args.character)
    degrees = ([args.degree] if args.degree is not None
               else list(range(A.rank() + 1)))
    for k in degrees:
        if not 0 <= k <= A.rank():
            raise CLIError("degree %d out of range 0..%d" % (k, A.rank()))
    rows = [[k, isotypic_dim_global(A, G, chi, k)] for k in degrees]
    payload = {"character": args.character,
               "multiplicities": [{"degree": k, "dim": d} for k, d in rows]}
    _emit(out, args.format, "isotypic multiplicities",
          ["degree", "dimension"], rows, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _expected_path():
    return data_dir() / "verify_expected.json"


def load_expected():
    """The golden file's object of suites; a file that cannot be read or
    holds no JSON object is a CLIError."""
    try:
        return _read_json_object(_expected_path(), "golden file")
    except ValueError as exc:
        raise CLIError(str(exc))


def _fail(case_id, expected, got):
    return {"id": case_id, "passed": False,
            "expected": expected, "got": got}


def _ok(case_id):
    return {"id": case_id, "passed": True}


def _case_id(suite, case):
    named = " on ".join(case[k] for k in ("group", "arrangement") if k in case)
    return "%s %s" % (suite, named or "%s r=%d p=%d n=%d" % (
        case["kind"], case["r"], case["p"], case["n"]))


def _case_pair(suite, case):
    """A golden case's (G, A): G(r,p,n) on kind(r, n), or the case's group
    on its arrangement, by default the group's reflection arrangement."""
    if "group" in _READS[suite]:
        G = parse_group_spec(case["group"])
        return G, parse_arrangement_spec(case.get("arrangement"), G)
    r, n = case["r"], case["n"]
    return make_grpn(r, case["p"], n), make_arrangement(case["kind"], r, n)


def run_verify_case(suite, case):
    if suite not in SUITES:
        raise CLIError("unknown verify suite %r" % suite)
    cid = _case_id(suite, case)
    if suite == "acyclic":
        A = parse_arrangement_spec(case["arrangement"])
        rk = A.rank()
        dims = [len(nbc_basis(A, k)) for k in range(rk + 1)]
        ranks = [0] * (rk + 2)
        for k in range(1, rk + 1):
            images = []
            for m in nbc_basis(A, k).monomials:
                img = euler_derivation(A, straighten(A, m))
                if k >= 2:
                    dd = euler_derivation(A, img)
                    if not dd.is_zero():
                        return _fail(cid, "d(d(x)) = 0", str(m))
                images.append(img)
            ranks[k] = rank_of_elements(images)
        for k in range(1, rk + 1):
            if ranks[k] + ranks[k + 1] != dims[k]:
                return _fail(cid, "exactness in degree %d" % k,
                             (ranks[k], ranks[k + 1], dims[k]))
        return _ok(cid)

    G, A = _case_pair(suite, case)
    if suite in ("table1", "table2", "cor1", "cor2"):
        report = cross_checked_orbitwise(A, G, trivial_character(G))
        got = list(report.graded)
        if got != case["poincare"]:
            return _fail(cid, case["poincare"], got)
        if suite == "table1":
            n_orbits = sum(1 for o in orbits_on_lattice(G, A) if o.codim == 1)
            if got[-1] != n_orbits - 1:
                return _fail(cid, "top dim = hyperplane orbits - 1 = %d"
                             % (n_orbits - 1), got[-1])
        if suite == "table2":
            dims = sorted([o.codim, d] for o, d in report.orbit_dims if d > 0)
            if dims != case["orbit_dims"]:
                return _fail(cid, case["orbit_dims"], dims)
        return _ok(cid)

    if suite == "thm4":
        kind, r, p, n = case["kind"], case["r"], case["p"], case["n"]
        try:
            basis = theorem4_basis(A, G, _plan((kind, r, p, n)))
        except (ValueError, RuntimeError) as exc:
            return _fail(cid, "certified basis", "error: %s" % exc)
        if "named" in case:
            unknown = _unknown_name(case, A)
            if unknown:
                return _fail(cid, "hyperplane names of %s(%d, %d)"
                             % (kind, r, n), "unknown name %r" % unknown)
            index = _named_hyperplanes(A, r, n)
            expected = {
                frozenset(frozenset(index[h] for h in mono) for mono in group)
                for group in case["named"]}
            got_named = {
                frozenset(frozenset(m) for m in e["monomials"])
                for e in basis.entries if e["codim"] >= 2}
            if got_named != expected:
                return _fail(cid, sorted(map(sorted, case["named"])),
                             [sorted(map(sorted, g)) for g in got_named])
        return _ok(cid)

    if suite == "thm6":
        Gt = parse_group_spec(case["ambient"])
        report = relative_character(A, G, Gt)
        kernel = [Gt.contains_matrix(G.matrix(gi)) for gi in G.generators]
        sigma = order_two_character(Gt, kernel)
        si = report.characters.index(sigma)
        special = {tuple(k) for k in case["one_plus_sigma"]}
        for e in report.entries:
            mults = e["multiplicities"]
            if e["dim"] == 0:
                continue
            want = [0] * len(mults)
            want[0] = 1
            if e["rep_key"] in special:
                want[si] = 1
            if mults != want:
                return _fail("%s orbit %s" % (cid, _key_str(e["rep_key"])),
                             want, mults)
        return _ok(cid)

    res = vanishing_check_detlike(A, G)                 # cor5
    if not res["passed"]:
        return _fail(cid, "no det-like multiplicities", res["violations"])
    return _ok(cid)


def _unknown_name(case, A):
    """The least name in a thm4 case's `named` that A lacks, or None."""
    held = _named_hyperplanes(A, case["r"], case["n"])
    return min({h for group in case["named"] for mono in group for h in mono}
               - held.keys(), default=None)


def _suite_cases(expected, name, max_r, max_n):
    block = expected.get(name)
    if isinstance(block, dict):
        block = [block]
    if not (isinstance(block, list)
            and all(isinstance(case, dict) for case in block)):
        raise CLIError("golden file %s has no list of cases for suite %r"
                       % (_expected_path(), name))
    optional = ("r", "n", "named") if name == "thm4" else ("r", "n")
    for k, case in enumerate(block):
        for field in _READS[name] + optional:
            shape, what = _SHAPES[field]
            if (field in case or field in _READS[name]) \
                    and not _fits(case.get(field), shape):
                raise CLIError("golden file %s: case %d of suite %r needs %s %r"
                               % (_expected_path(), k, name, what, field))
        if "kind" in _READS[name]:      # G(r,p,n) on kind(r, n)
            try:
                _, A = _family_arrangement(case["r"], case["p"], case["n"],
                                           case["kind"])
            except ValueError as exc:
                raise CLIError("golden file %s: case %d of suite %r: %s"
                               % (_expected_path(), k, name, exc))
            unknown = name == "thm4" and "named" in case \
                and _unknown_name(case, A)
            if unknown:
                raise CLIError("golden file %s: case %d of suite %r names %r, "
                               "no hyperplane of %s(%d, %d)"
                               % (_expected_path(), k, name, unknown,
                                  case["kind"], case["r"], case["n"]))
    return [case for case in block
            if case.get("r", 0) <= max_r and case.get("n", 0) <= max_n]


def _fits(value, shape):
    """Whether a JSON value has a shape: a type (a bool is no int), [s] a
    list of items of shape s, or [s, t, ...] a list of that many items."""
    if not isinstance(shape, list):
        return type(value) is shape
    return type(value) is list and (
        all(_fits(v, shape[0]) for v in value) if len(shape) == 1
        else len(value) == len(shape) and all(map(_fits, value, shape)))


def verify_suite(name, max_r=4, max_n=4, jobs=1):
    expected = load_expected()
    names = list(SUITES) if name == "all" else [name]
    for nm in names:
        if nm not in SUITES:
            raise CLIError("unknown verify suite %r (choose from %s)"
                           % (nm, ", ".join(SUITES)))
    work = [(nm, case) for nm in names
            for case in _suite_cases(expected, nm, max_r, max_n)]
    if not work:
        raise CLIError("no case of suite %r has r <= %d and n <= %d"
                       % (name, max_r, max_n))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_case_star, work))
    else:
        results = [run_verify_case(nm, case) for nm, case in work]
    return {"suite": name, "max_r": max_r, "max_n": max_n,
            "cases": results,
            "passed": all(c["passed"] for c in results)}


def _run_case_star(item):
    return run_verify_case(*item)


def _cmd_verify(args, out):
    report = verify_suite(args.table, max_r=args.max_r, max_n=args.max_n,
                          jobs=max(1, args.jobs))
    if args.format == "text":
        for case in report["cases"]:
            if case["passed"]:
                out.write("PASS %s\n" % case["id"])
            else:
                out.write("FAIL %s: expected %s, got %s\n"
                          % (case["id"], case["expected"], case["got"]))
        out.write("%d/%d cases passed\n"
                  % (sum(c["passed"] for c in report["cases"]),
                     len(report["cases"])))
    else:
        rows = [[c["id"], "PASS" if c["passed"] else "FAIL",
                 c.get("expected", ""), c.get("got", "")] for c in report["cases"]]
        _emit(out, args.format, "verify", ["case", "result", "expected", "got"],
              rows, report)
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "info": _cmd_info,
    "lattice": _cmd_lattice,
    "orbits": _cmd_orbits,
    "poincare": _cmd_poincare,
    "invariant-basis": _cmd_invariant_basis,
    "characters": _cmd_characters,
    "multiplicity": _cmd_multiplicity,
    "verify": _cmd_verify,
}


def run(argv, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args, out)
    except CLIError as exc:
        err.write("error: %s\n" % exc)
        return EXIT_USAGE


def main(argv=None):
    return run(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
