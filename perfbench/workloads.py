"""The three workloads: their cases, the public calls each case makes, and
the check on every answer.

Every case is one op.  An op fails when its answer differs from the golden
corpus or from a recorded or closed-form value, or when it raises; the pass
goes on either way.  Calls go through module attributes (``catalog.x``, not
``from catalog import x``) so that the tracer's wrappers see them.
"""

import random
import re
import time
from contextlib import nullcontext
from io import StringIO

from reflact import arrangement, catalog, cli, groups, invariants, osalg

# (group spec, arrangement spec, golden-corpus suite and match, recorded
# Poincare polynomial), in rising size
LADDER = [
    ("W(4)", "A_4^0(1)", "table2", {"kind": "zero", "r": 1, "p": 1, "n": 4},
     [1, 1, 0, 0]),
    ("G(2,2,4)", "A_4^0(2)", "table2", {"kind": "zero", "r": 2, "p": 2, "n": 4},
     [1, 1, 0, 1, 1]),
    ("G(2,1,4)", "A_4(2)", "table2", {"kind": "full", "r": 2, "p": 1, "n": 4},
     [1, 2, 2, 2, 1]),
    ("H3", None, "cor1", {"group": "H3"}, [1, 1, 1, 1]),
    ("G(3,1,4)", "A_4(3)", "table2", {"kind": "full", "r": 3, "p": 1, "n": 4},
     [1, 2, 2, 2, 1]),
]

# corpus: every golden case with r <= 4 and n <= 3, plus the thm6 case
CORPUS_MAX_R, CORPUS_MAX_N = 4, 3
CORPUS_SELECTED = 123

# CLI inputs that must give the right answer or exit code 2; they run after
# the timed ops and are reported apart from them
PROBES = [
    (["poincare", "--group", "G(2,2,2)", "--arrangement", "A_2^0(1)"], 0, "1+t"),
    (["poincare", "--group", "G(4,4,2)", "--arrangement", "A_2^0(2)"], 0, "1+t"),
    (["poincare", "--group", "G(3,1,2)", "--arrangement", "A_2^0(1)"], 2, None),
    (["poincare", "--group", "W(3)", "--arrangement", "A_4(1)"], 2, None),
]

GROUP_SPECS = ["G(4,2,4)", "F4"]
# values recorded at the seed commit where no closed form is used
RECORDED_GROUP_FACTS = {
    "G(4,2,4)": {"classes": 60, "linear": 4, "det_like": 1},
    "F4": {"order": 1152, "classes": 25, "linear": 4, "det_like": 1,
           "reflections": 24, "hyperplanes": 24},
}

_GRPN = re.compile(r"G\((\d+),(\d+),(\d+)\)")
_WN = re.compile(r"W\((\d+)\)")
_ARR = re.compile(r"A_(\d+)(\^0)?\((\d+)\)")


def group_key(spec):
    """Canonical name of a group spec, so G(1,1,n) and W(n) count once."""
    m = _GRPN.fullmatch(spec)
    if m:
        return "G(%s,%s,%s)" % m.groups()
    m = _WN.fullmatch(spec)
    if m:
        return "G(1,1,%s)" % m.group(1)
    return spec.upper()


def grpn_facts(r, p, n):
    """Closed forms for G(r,p,n): order r^n n!/p; r*C(n,2) hyperplanes
    x_i = z x_j, plus the n coordinate hyperplanes when p < r, which carry
    r/p - 1 reflections each."""
    order = r ** n // p
    for k in range(2, n + 1):
        order *= k
    pairs = r * n * (n - 1) // 2
    return {"order": order, "reflections": pairs + n * (r // p - 1),
            "hyperplanes": pairs + (n if p < r else 0)}


class Pass:
    """One pass of a workload: its ops and the objects it built."""

    def __init__(self, expected, tracer=None):
        self.expected = expected
        self.tracer = tracer
        self.ops = []             # (name, start, seconds, ok, detail)
        self.group_keys = set()
        self.groups = {}          # id -> group
        self.arrangements = {}    # id -> arrangement
        self.lattices = {}        # id -> arrangement with a built lattice
        self.os = {}              # id -> arrangement with NBC bases built
        self.actions = {}         # (id, id) -> (group, arrangement)
        self.orbits = {}          # (id, id) -> (group, arrangement)
        self.classes = 0
        self.probes = []          # (argv, ok, detail)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, name, fn):
        """Run one checked op; fn returns None when the answer is right,
        else a description of the mismatch."""
        if self.tracer:
            self.tracer.case = name
        t = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:  # a crash is a failed op; the pass goes on
            detail = "%s: %s" % (type(exc).__name__, exc)
        self.ops.append((name, t, time.perf_counter() - t, detail is None,
                         detail))

    def group(self, build, spec):
        G = build()
        self.group_keys.add(group_key(spec))
        self.groups[id(G)] = G
        return G

    def prebuild(self, G, A, lattice=False, orbits=False, nbc=False):
        """Build the pair's layers in dependency order through the public
        calls whose cached results the answer then reuses."""
        self.arrangements[id(A)] = A
        if lattice:
            arrangement.build_lattice(A)
            self.lattices[id(A)] = A
        if G is not None:
            groups.hyperplane_action(G, A)
            self.actions[id(G), id(A)] = (G, A)
            if orbits:
                groups.orbits_on_lattice(G, A)
                self.orbits[id(G), id(A)] = (G, A)
        if nbc:
            for k in range(A.rank() + 1):
                osalg.nbc_basis(A, k)
            self.os[id(A)] = A

    def run_probes(self):
        for argv, code, answer in PROBES:
            out, err = StringIO(), StringIO()
            try:
                got = cli.run(list(argv), out=out, err=err)
            except Exception as exc:
                self.probes.append((argv, False, "%s: %s"
                                    % (type(exc).__name__, exc)))
                continue
            ok = got == code and (answer is None
                                  or out.getvalue().strip() == answer)
            self.probes.append((argv, ok, None if ok else
                                "exit %s, output %r" % (got, out.getvalue())))

    def counts(self):
        """Exact sizes from public return values (cached by now)."""
        As = self.arrangements.values()
        return {
            "groups.order": sum(G.order for G in self.groups.values()),
            "groups.classes": self.classes,
            "groups.distinct_perms": sum(
                len(set(groups.hyperplane_action(G, A).perms))
                for G, A in self.actions.values()),
            "groups.lattice_orbits": sum(
                len(groups.orbits_on_lattice(G, A))
                for G, A in self.orbits.values()),
            "arrangement.hyperplanes": sum(len(A) for A in As),
            "arrangement.flats": sum(len(arrangement.build_lattice(A))
                                     for A in self.lattices.values()),
            "arrangement.conductor": max((A.conductor for A in As), default=0),
            "osalg.circuits": sum(len(osalg.circuits(A))
                                  for A in self.os.values()),
            "osalg.nbc_total": sum(len(osalg.nbc_basis(A, k))
                                   for A in self.os.values()
                                   for k in range(A.rank() + 1)),
            "catalog.group_builds": (catalog.make_grpn.cache_info().misses
                                     + catalog.shipped_group.cache_info().misses),
            "catalog.arrangement_builds":
                catalog.make_arrangement.cache_info().misses,
            "catalog.groups_distinct": len(self.group_keys),
        }


def _corpus_entry(expected, suite, match):
    block = expected[suite]
    for case in block if isinstance(block, list) else [block]:
        if all(case.get(k) == v for k, v in match.items()):
            return case
    return None


def _ladder_case(p, gspec, aspec, suite, match, recorded):
    G = p.group(lambda: catalog.parse_group_spec(gspec), gspec)
    A = catalog.parse_arrangement_spec(aspec, G)
    p.prebuild(G, A, lattice=True, orbits=True, nbc=True)
    chi = invariants.trivial_character(G)
    got = list(invariants.poincare_invariants(A, G, chi).coefficients)
    case = _corpus_entry(p.expected, suite, match)
    want = case and case["poincare"]
    if want != recorded:
        return "golden corpus holds %s, recorded %s" % (want, recorded)
    if got != want:
        return "expected %s, got %s" % (want, got)
    return None


def corpus_cases(expected):
    cases = []
    for suite in cli.SUITES:
        if suite == "thm6":
            continue
        block = expected[suite]
        for case in block if isinstance(block, list) else [block]:
            if case.get("r", 0) <= CORPUS_MAX_R and case.get("n", 0) <= CORPUS_MAX_N:
                cases.append((suite, case))
    if len(cases) != CORPUS_SELECTED:
        raise RuntimeError("golden corpus selection has %d cases, expected %d"
                           % (len(cases), CORPUS_SELECTED))
    block = expected["thm6"]
    cases += [("thm6", c) for c in (block if isinstance(block, list) else [block])]
    return cases


def _case_label(suite, case):
    what = [case[k] for k in ("group", "arrangement") if k in case]
    if not what:
        what = ["%s r=%d p=%d n=%d" % (case["kind"], case["r"], case["p"],
                                       case["n"])]
    return " ".join([suite] + what)


def _corpus_case(p, suite, case):
    """Build the case's pair through the constructors the verify call uses,
    then verify it."""
    if suite in ("table1", "table2", "cor2", "thm4"):
        r, n = case["r"], case["n"]
        G = p.group(lambda: catalog.make_grpn(r, case["p"], n),
                    "G(%d,%d,%d)" % (r, case["p"], n))
        A = catalog.make_arrangement(case["kind"], r, n)
        p.prebuild(G, A, lattice=True, orbits=True, nbc=suite != "thm4")
    elif suite in ("cor1", "cor5"):
        G = p.group(lambda: catalog.parse_group_spec(case["group"]),
                    case["group"])
        A = groups.reflection_arrangement(G)
        full = suite == "cor1"
        p.prebuild(G, A, lattice=full, orbits=full, nbc=True)
    elif suite == "thm6":
        G = p.group(lambda: catalog.parse_group_spec(case["group"]),
                    case["group"])
        Gt = p.group(lambda: catalog.parse_group_spec(case["ambient"]),
                     case["ambient"])
        A = catalog.parse_arrangement_spec(case["arrangement"])
        p.prebuild(Gt, A, lattice=True, orbits=True)
        p.prebuild(G, A, orbits=True)
    elif suite == "acyclic":
        A = catalog.parse_arrangement_spec(case["arrangement"])
        p.prebuild(None, A, nbc=True)
    with p.span("cli.%s_s" % suite):
        res = cli.run_verify_case(suite, case)
    if res["passed"]:
        return None
    return "expected %s, got %s" % (res.get("expected"), res.get("got"))


def _group_ops(p, spec):
    """The work of `characters` and `info --group` for one group, one op per
    public call, each checked."""
    m = _GRPN.fullmatch(spec)
    facts = dict(grpn_facts(*map(int, m.groups())) if m else {})
    facts.update(RECORDED_GROUP_FACTS[spec])
    got = {}

    def parse():
        got["G"] = G = p.group(lambda: catalog.parse_group_spec(spec), spec)
        return _mismatch("order", facts["order"], G.order)

    def classes():
        G = got["G"]
        cls = groups.conjugacy_classes(G)
        p.classes += len(cls)
        members = [g for c in cls for g in c]
        if sorted(members) != list(range(G.order)):
            return "classes do not partition the group"
        return _mismatch("classes", facts["classes"], len(cls))

    def characters():
        return _mismatch("linear characters", facts["linear"],
                         len(groups.linear_characters(got["G"])))

    def reflections():
        return _mismatch("reflections", facts["reflections"],
                         len(groups.reflections(got["G"])))

    def det_like():
        return _mismatch("det-like characters", facts["det_like"],
                         len(groups.determinant_like_characters(got["G"])))

    def arrangement_():
        A = groups.reflection_arrangement(got["G"])
        p.arrangements[id(A)] = A
        return _mismatch("hyperplanes", facts["hyperplanes"], len(A))

    for name, fn in [("parse_group_spec", parse),
                     ("conjugacy_classes", classes),
                     ("linear_characters", characters),
                     ("reflections", reflections),
                     ("determinant_like_characters", det_like),
                     ("reflection_arrangement", arrangement_)]:
        p.op("%s %s" % (spec, name), fn)


def _mismatch(what, want, got):
    return None if want == got else "%s: expected %s, got %s" % (what, want, got)


def _cache_keys(suite, case):
    """Cache keys of the group and arrangement a corpus case builds.
    make_grpn caches positional and keyword calls apart, and a reflection
    arrangement is cached on its group."""
    if suite in ("table1", "table2", "cor2", "thm4"):
        r, p, n = case["r"], case["p"], case["n"]
        return [("make_grpn", r, p, n), ("make_arrangement", case["kind"], r, n)]
    keys = [("parse_group_spec", group_key(case[k]))
            for k in ("group", "ambient") if k in case]
    if "arrangement" in case:
        m = _ARR.fullmatch(case["arrangement"])
        keys.append(("make_arrangement", "zero" if m.group(2) else "full",
                     int(m.group(3)), int(m.group(1))))
    return keys


def corpus_order(cases, seed):
    """Seed 0 keeps corpus order.  Any other seed permutes the blocks of
    cases that share cached objects and keeps corpus order inside a block,
    so the case that pays for a build is the same for every seed."""
    if not seed:
        return list(cases)
    root = list(range(len(cases)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    owner = {}
    for i, (suite, case) in enumerate(cases):
        for key in _cache_keys(suite, case):
            if key in owner:
                root[find(i)] = find(owner[key])
            else:
                owner[key] = i
    blocks = {}
    for i, item in enumerate(cases):
        blocks.setdefault(find(i), []).append(item)
    return [item for block in _shuffled(blocks.values(), seed) for item in block]


def _shuffled(items, seed):
    """Seed 0 keeps the listed order; any other seed permutes it."""
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


def run(name, p, seed):
    """Run workload `name` as one pass into `p`."""
    if name == "ladder":
        for gspec, aspec, suite, match, recorded in _shuffled(LADDER, seed):
            label = "%s on %s" % (gspec, aspec or "its reflection arrangement")
            p.op(label, lambda: _ladder_case(p, gspec, aspec, suite, match,
                                             recorded))
    elif name == "corpus":
        for suite, case in corpus_order(corpus_cases(p.expected), seed):
            p.op(_case_label(suite, case),
                 lambda: _corpus_case(p, suite, case))
    elif name == "groups":
        for spec in _shuffled(GROUP_SPECS, seed):
            _group_ops(p, spec)
    else:
        raise ValueError("unknown workload %r" % name)

