"""
Constructors for the named reflection groups and arrangements.

The infinite family G(r,p,n) (p dividing r) is realized by monomial matrices
over Q(zeta_r): the adjacent transpositions, the diagonal reflection
diag(zeta_r^p, 1, ..., 1) when p < r, and the order-two reflection
(x_1, x_2) -> (zeta_r x_2, zeta_r^{-1} x_1) when p > 1.  The associated
arrangements are

    full(r, n):  x_i = zeta x_j (zeta in mu_r, i < j) and x_i = 0,
    zero(r, n):  x_i = zeta x_j only,
    braid(n)  =  zero(1, n).

Orbits of G(r,p,n) on the intersection lattice are labelled by partitions:
for lambda = (l_1 >= ... >= l_a) of m <= n set bar_l0 = n - m,
b_i = e_{bar_l{i-1}+1} + ... + e_{bar_l{i}} and X_lambda = span{b_1,...,b_a}.
For r > 1 the labels are the partitions of m <= n-1 (m <= n-2 in the zero
case) together with pairs (lambda, u) where lambda is a partition of n and
0 <= u < gcd(p, l_1, ..., l_a); the representative of a twisted label is
d_0^u X_lambda with d_0 = diag(omega, 1, ..., 1).  Every label list is
cross-checked against a brute-force orbit enumeration.

Matrix data for the two shipped exceptional groups (h3.json over Q(zeta_5),
f4.json rational) lives in the package data directory; the REFLACT_DATA_DIR
environment variable overrides its location.

Named pairs are written in one grammar, read here and nowhere else:

    group specs:        G(r,p,n), W(n) = G(1,1,n), a shipped name (H3, F4;
                        any case), or a path to a group file;
    arrangement specs:  A_n(r) = full(r,n) and A_n^0(r) = zero(r,n).

`parse_group_spec` and `parse_arrangement_spec` build the objects, and
`pair_family` reads the G(r,p,n) family parameters of a pair from the same
patterns.

The hyperplane names s, t_i and t_2^1 map to the indices of an arrangement
through `_named_hyperplanes` alone: `cox_monomials` writes its Theorem-4
plans in them, `named_hyperplane` reads the table of full(r, n), and
`verify` that of a golden case's own arrangement.
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache
from math import factorial, gcd
from pathlib import Path

from .arrangement import Arrangement, build_lattice, canonicalize_hyperplane
from .exactnum import Cyc, CycMatrix, _dot
from .groups import (
    DEFAULT_ORDER_CAP,
    MatrixGroup,
    OrderCapExceededError,
    generate,
    group_from_json,
    orbits_on_lattice,
    reflection_arrangement,
    reflections,
)

__all__ = [
    "OrbitLabel",
    "LabelCrossCheckError",
    "UndefinedNameError",
    "make_grpn",
    "make_arrangement",
    "prop41_labels",
    "named_hyperplane",
    "cox_monomials",
    "load_group_file",
    "load_group_types",
    "data_dir",
    "shipped_group",
    "shipped_group_types",
    "orbit_type_names",
    "parse_group_spec",
    "parse_arrangement_spec",
    "pair_family",
    "shipped_name",
]

KINDS = ("braid", "full", "zero")
SHIPPED_GROUPS = ("H3", "F4")

_GROUP_RE = re.compile(r"G\((\d+),(\d+),(\d+)\)|W\((\d+)\)")
_ARR_RE = re.compile(r"A_(\d+)(\^0)?\((\d+)\)")


class LabelCrossCheckError(RuntimeError):
    """The partition labels do not biject with the brute-force orbits."""


class UndefinedNameError(ValueError):
    """A named hyperplane is not meaningful for the given parameters."""


def _check_params(r, p, n):
    if n < 1 or r < 1 or p < 1:
        raise ValueError("need r, p, n >= 1")
    if r % p != 0:
        raise ValueError("p must divide r")


def _transposition(n, i):
    """Matrix of the adjacent transposition swapping coordinates i, i+1."""
    ent = [[Cyc.one() if (a == b and a not in (i, i + 1)) or
            {a, b} == {i, i + 1} else Cyc.zero()
            for b in range(n)] for a in range(n)]
    return CycMatrix.from_rows(ent)


def _capped_grpn(r, p, n, order_cap):
    """make_grpn(r, p, n), refused before any enumeration when its order
    exceeds order_cap."""
    _check_params(r, p, n)
    if r ** n * factorial(n) // p > order_cap:
        raise OrderCapExceededError("G(%d,%d,%d) has order above the cap %d"
                                    % (r, p, n, order_cap))
    return make_grpn(r, p, n)


@lru_cache(maxsize=32)
def make_grpn(r: int, p: int, n: int) -> MatrixGroup:
    """The monomial reflection group G(r,p,n), of order r^n n!/p, built
    once per (r, p, n).  Enumeration stops at that order; callers that take
    an order cap check it against the closed form first.  Its reflection
    arrangement is kept as `make_arrangement`'s zero(r, n) if p == r, else
    full(r, n): the same hyperplanes in order, so the pair has one L(A)."""
    _check_params(r, p, n)
    gens = []
    for i in range(n - 1):
        gens.append(_transposition(n, i))
    w = Cyc.root_of_unity(r)
    if p < r:
        rows = [[(w ** p if a == 0 else Cyc.one()) if a == b else Cyc.zero()
                 for b in range(n)] for a in range(n)]
        gens.append(CycMatrix.from_rows(rows))
    if p > 1 and n >= 2:
        rows = [[Cyc.zero()] * n for _ in range(n)]
        rows[0][1] = w
        rows[1][0] = w.inverse()
        for a in range(2, n):
            rows[a][a] = Cyc.one()
        gens.append(CycMatrix.from_rows(rows))
    expected = r ** n * factorial(n) // p
    G = generate(gens, dim=n, order_cap=expected)
    if G.order != expected:
        raise LabelCrossCheckError(
            "G(%d,%d,%d) has order %d, expected %d" % (r, p, n, G.order, expected))
    # the `arrangement._memo` entry of reflection_arrangement(G)
    G.__dict__.setdefault("_memo", {})[reflection_arrangement,] = \
        make_arrangement("zero" if p == r else "full", r, n)
    return G


@lru_cache(maxsize=32)
def make_arrangement(kind: str, r: int, n: int) -> Arrangement:
    """The arrangement full(r,n) (x_i = zeta x_j plus coordinates) or
    zero(r,n) (x_i = zeta x_j only); braid(n) is zero(1,n)."""
    if kind not in KINDS:
        raise ValueError("kind must be one of %s" % (KINDS,))
    if kind == "braid":
        kind, r = "zero", 1
    if n < 1 or r < 1:
        raise ValueError("need r, n >= 1")
    w = Cyc.root_of_unity(r)
    covs = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(r):
                cov = [Cyc.zero()] * n
                cov[i] = Cyc.one()
                cov[j] = -(w ** a)
                covs.append(cov)
    if kind == "full":
        for i in range(n):
            cov = [Cyc.zero()] * n
            cov[i] = Cyc.one()
            covs.append(cov)
    return Arrangement.from_covectors(n, covs)


def _partitions(m):
    """Partitions of m as weakly decreasing tuples, lex-descending order."""
    if m == 0:
        return [()]
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(m, m, [])
    return out


class OrbitLabel:
    """A partition label (lambda, u) with a display name for its stabilizer
    reflection type."""

    __slots__ = ("partition", "twist", "type_name")

    def __init__(self, partition, twist, type_name):
        self.partition = tuple(partition)
        self.twist = twist
        self.type_name = type_name

    def __eq__(self, other):
        return (isinstance(other, OrbitLabel)
                and (self.partition, self.twist) == (other.partition, other.twist))

    def __hash__(self):
        return hash((self.partition, self.twist))

    def __repr__(self):
        if self.twist:
            return "OrbitLabel(%s, u=%d, %s)" % (
                self.partition, self.twist, self.type_name)
        return "OrbitLabel(%s, %s)" % (self.partition, self.type_name)


def _type_name(r, p, n, lam):
    """Display name of the pointwise-stabilizer reflection type of X_lambda:
    a G(r,p,k) block followed by A_{l-1} factors for the parts l > 1."""
    m = sum(lam)
    k = n - m
    pieces = []
    if k >= 2 or (k == 1 and p < r):
        if r == 1:
            pieces.append("A_%d" % (k - 1) if k >= 2 else "")
        else:
            pieces.append("G(%d,%d,%d)" % (r, p, k))
    counts = {}
    for part in lam:
        if part > 1:
            counts[part] = counts.get(part, 0) + 1
    for part in sorted(counts, reverse=True):
        c = counts[part]
        pieces.append("A_%d%s" % (part - 1, "^%d" % c if c > 1 else ""))
    pieces = [s for s in pieces if s]
    return " ".join(pieces) if pieces else "A_0"


def _family_arrangement(r, p, n, kind):
    """(kind, A) for G(r,p,n) on kind(r, n); braid is zero(1, n), the
    arrangement of W(n) = G(1,1,n) only."""
    _check_params(r, p, n)
    if kind == "braid":
        if (r, p) != (1, 1):
            raise ValueError("the braid arrangement goes with r = p = 1 only, "
                             "not G(%d,%d,%d)" % (r, p, n))
        kind = "zero"
    return kind, make_arrangement(kind, r, n)


def _x_lambda_flat(A, lattice, kind, r, lam, u=0):
    """The lattice flat d_0^u X_lambda, keyed by the hyperplanes that
    contain its basis vectors."""
    n = A.n
    w = Cyc.root_of_unity(r)
    rows = []
    start = n - sum(lam)
    for part in lam:
        vec = [Cyc.zero()] * n
        for j in range(start, start + part):
            vec[j] = Cyc.one()
        if u and start == 0:
            vec[0] = w ** u
        rows.append(vec)
        start += part
    key = []
    for i in range(len(A)):
        cov = A.covector(i)
        if not any(_dot(cov, row) for row in rows):
            key.append(i)
    flat = lattice.by_key.get(tuple(key))
    if flat is None:
        raise LabelCrossCheckError(
            "X_%s (u=%d) is not a flat of %s(%d,%d)" % (lam, u, kind, r, n))
    return flat


def prop41_labels(r, p, n, kind, cross_check=True,
                  order_cap=DEFAULT_ORDER_CAP):
    """Partition labels for the orbits of G(r,p,n) on the lattice of the
    full/zero arrangement, each with its representative flat.  With
    cross_check the list is verified to hit every brute-force orbit once."""
    kind, A = _family_arrangement(r, p, n, kind)
    lattice = build_lattice(A)
    # untwisted X_lambda for |lambda| <= top, then (lambda, u) for lambda |- n
    # and u < gcd(p, lambda); r = 1 forces p = 1, so u = 0 there
    top = n - 1 if kind == "full" else n - 2 if r > 1 else -1
    raw = [(lam, 0) for m in range(top + 1) for lam in _partitions(m)]
    raw += [(lam, u) for lam in _partitions(n) for u in range(gcd(p, *lam))]
    out = []
    seen_keys = set()
    for lam, u in raw:
        flat = _x_lambda_flat(A, lattice, kind, r, lam, u)
        if flat.key in seen_keys:
            raise LabelCrossCheckError(
                "duplicate representative for label %s u=%d" % (lam, u))
        seen_keys.add(flat.key)
        out.append((OrbitLabel(lam, u, _type_name(r, p, n, lam)), flat))
    if cross_check:
        G = _capped_grpn(r, p, n, order_cap)
        orbits = orbits_on_lattice(G, A)
        if len(orbits) != len(out):
            raise LabelCrossCheckError(
                "%d labels but %d orbits for G(%d,%d,%d) on %s" % (
                    len(out), len(orbits), r, p, n, kind))
        member_to_orbit = {}
        for idx, o in enumerate(orbits):
            for f in o.orbit:
                member_to_orbit[f.key] = idx
        hit = set()
        for _, flat in out:
            idx = member_to_orbit.get(flat.key)
            if idx is None or idx in hit:
                raise LabelCrossCheckError(
                    "representative %s misses or repeats an orbit" % (flat.key,))
            hit.add(idx)
    return out


def _named_hyperplanes(A, r, n) -> dict:
    """{name: index in A} for the named hyperplanes that A holds: "s" for
    H_1 = Fix(s) = (x_1 = 0), "t_i" for H_i = Fix(t_i) = (x_{i-1} = x_i)
    with 2 <= i <= n, and for r > 1 and n >= 2 "t_2^1" for H_2^1 =
    Fix(s t_2 s^{-1}) = (x_1 = zeta_r x_2)."""
    one, zero = Cyc.one(), Cyc.zero()
    covs = {"s": [one] + [zero] * (n - 1)}
    for i in range(2, n + 1):
        covs["t_%d" % i] = [zero] * (i - 2) + [one, -one] + [zero] * (n - i)
    if r > 1 and n >= 2:
        covs["t_2^1"] = [one, -Cyc.root_of_unity(r)] + [zero] * (n - 2)
    found = {name: A.index_of(canonicalize_hyperplane(cov))
             for name, cov in covs.items()}
    return {name: i for name, i in found.items() if i is not None}


def named_hyperplane(r, p, n, name) -> int:
    """Index in full(r,n) of a named hyperplane of G(r,p,n) (see
    `_named_hyperplanes`); s is a reflection of G(r,p,n) for r > 1 only."""
    _check_params(r, p, n)
    idx = _named_hyperplanes(make_arrangement("full", r, n), r, n).get(name)
    if idx is None or (name == "s" and r == 1):
        raise UndefinedNameError("%r names no reflecting hyperplane of "
                                 "G(%d,%d,%d)" % (name, r, p, n))
    return idx


def cox_monomials(r, p, n, kind):
    """The Theorem-4 plan for G(r,p,n) on kind(r, n): a list of groups of
    hyperplane-index monomials, one group per orbit of codimension >= 2
    (the center for n = 1), each with one tuple, or two for the pairs that
    appear when p and n are both even.  The plan is written in hyperplane
    names, each mapped once through `_named_hyperplanes`.
    `invariants.theorem4_basis` finds a group's orbit from the flat of its
    first monomial."""
    kind, A = _family_arrangement(r, p, n, kind)
    index = _named_hyperplanes(A, r, n)
    even = p % 2 == 0 and n % 2 == 0
    t = ["t_%d" % i for i in range(2, n + 1)]

    def group(names, pair):
        """names as a monomial, and with t_2 turned into t_2^1 when pair."""
        monos = ([names, ["t_2^1" if h == "t_2" else h for h in names]]
                 if pair else [names])
        return [tuple(sorted(index[h] for h in mono)) for mono in monos]

    if kind == "full":
        # X_(1^{n-k}), of stabilizer type G(r,p,k), then X_(2,1^{n-k-1})
        return ([group(["s"] + t[:k - 1], False) for k in range(2, n)]
                + [group(["s"] + t[:k - 2] + [t[k - 1]], even and k == n - 1)
                   for k in range(2, n)]
                + [group(["s"] + t, even)])             # the center
    if not even:        # p even makes r even, so r > 1
        return []
    center = [group(["t_2", "t_2^1"] + t[1:], False)]
    if n == 2:          # the (2,)-orbit is the center
        return center
    return [group(["t_2", "t_2^1"] + t[1:n - 3] + [t[n - 2]], False)] + center


def data_dir() -> Path:
    """Directory holding the shipped group data files; REFLACT_DATA_DIR
    overrides the package copy."""
    override = os.environ.get("REFLACT_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def _read_json_object(path, what) -> dict:
    """The JSON object in a data file, `what` naming the file's kind ("group
    file", "golden file") in messages; a file that cannot be read or holds
    no JSON object raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s %s: %s" % (what, path, exc.strerror))
    except ValueError as exc:
        raise ValueError("malformed %s %s: %s" % (what, path, exc))
    if not isinstance(obj, dict):
        raise ValueError("malformed %s %s: not a JSON object" % (what, path))
    return obj


def load_group_file(path, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Ingest a group from a JSON file matching the groups-module schema."""
    return group_from_json(_read_json_object(path, "group file"),
                           order_cap=order_cap)


def shipped_group(name: str) -> MatrixGroup:
    """One of the shipped exceptional groups, by lowercase file stem, built
    once per name and resolved data directory; `parse_group_spec` checks
    its order against a cap."""
    return _shipped_group(name, data_dir().resolve())


@lru_cache(maxsize=16)
def _shipped_group(name, directory):
    return load_group_file(directory / ("%s.json" % name))


shipped_group.cache_info = _shipped_group.cache_info
shipped_group.cache_clear = _shipped_group.cache_clear


def _type_entry(t):
    """A stabilizer-type entry {"codim", "order", "reflections", "name"} as
    a (codim, order, reflection counts, name) tuple; ValueError if it is
    not of that shape."""
    try:
        codim, order, counts, name = (t["codim"], t["order"],
                                      tuple(t["reflections"]), t["name"])
        ok = (all(isinstance(x, int) for x in (codim, order) + counts)
              and isinstance(name, str))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise ValueError("bad stabilizer type %r" % (t,))
    return codim, order, counts, name


def load_group_types(path):
    """Stabilizer-type display table of a group data file as (codim, order,
    reflection counts, name) tuples, or None when the file has none; a
    malformed table raises ValueError."""
    types = _read_json_object(path, "group file").get("stabilizer_types")
    if types is None:
        return None
    if not isinstance(types, list):
        raise ValueError("malformed group file %s: stabilizer_types is not a "
                         "list" % path)
    try:
        return tuple(_type_entry(t) for t in types)
    except ValueError as exc:
        raise ValueError("malformed group file %s: %s" % (path, exc))


def shipped_group_types(name: str):
    """The stabilizer-type table of a shipped group, () when it has none."""
    return load_group_types(data_dir() / (name + ".json")) or ()


def orbit_type_names(G: MatrixGroup, A: Arrangement, types=None) -> dict:
    """Display name per lattice-orbit representative key.

    A type entry matches an orbit on (codim, stabilizer order, reflection
    count per hyperplane orbit); unmatched orbits display generically.
    """
    orbits = orbits_on_lattice(G, A)
    h_orbits = [o for o in orbits if o.codim == 1]
    hpos = {f.key[0]: i for i, o in enumerate(h_orbits) for f in o.orbit}
    refl = {}
    for gi, h in reflections(G):
        hi = A.index_of(h)
        if hi is not None:
            refl[gi] = hi
    lookup = {}
    for t in types or ():
        codim, order, counts, name = _type_entry(t) if isinstance(t, dict) else t
        lookup[(codim, order, tuple(counts))] = name
    out = {}
    for o in orbits:
        Z = o.Z
        counts = [0] * len(h_orbits)
        for g in Z:
            hi = refl.get(g)
            if hi is not None:
                counts[hpos[hi]] += 1
        name = lookup.get((o.codim, len(Z), tuple(counts)))
        if name is None:
            name = "rank-%d subgroup, order %d" % (o.codim, len(Z))
        out[o.representative.key] = name
    return out


def _arrangement_params(spec):
    """(kind, r, n) when a spec names A_n(r) or A_n^0(r), else None."""
    m = _ARR_RE.fullmatch(spec.strip())
    if not m:
        return None
    return ("zero" if m.group(2) else "full", int(m.group(3)), int(m.group(1)))


def shipped_name(spec):
    """File stem of the shipped group a spec names ("h3" for "H3"), or None."""
    s = (spec or "").strip()
    return s.lower() if s.upper() in SHIPPED_GROUPS else None


def pair_family(group_spec, arrangement_spec=None):
    """(kind, r, p, n) when both specs name one monomial-family pair, or the
    group spec names G(r,p,n) or W(n) and the arrangement is omitted: its
    reflection arrangement is then A_n^0(r) if p == r, else A_n(r).  None
    otherwise, and when there is no group spec.

    >>> pair_family("G(2,2,4)", "A_4^0(2)"), pair_family("W(3)")
    (('zero', 2, 2, 4), ('zero', 1, 1, 3))
    """
    m = _GROUP_RE.fullmatch(group_spec.strip()) if group_spec else None
    if not m:
        return None
    r, p, n = map(int, m.groups()[:3] if m.group(1) else (1, 1, m.group(4)))
    if not arrangement_spec:
        return ("zero" if p == r else "full", r, p, n)
    arr = _arrangement_params(arrangement_spec)
    return (arr[0], r, p, n) if arr and arr[1:] == (r, n) else None


def parse_group_spec(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Parse "G(r,p,n)", "W(n)", "H3", "F4", or a path to a group file."""
    s = spec.strip()
    family = pair_family(s)
    if family is not None:
        return _capped_grpn(*family[1:], order_cap)
    name = shipped_name(s)
    if name is not None:
        G = shipped_group(name)
        if G.order > order_cap:
            raise OrderCapExceededError("%s has order %d, above the cap %d"
                                        % (s, G.order, order_cap))
        return G
    if os.path.exists(s):
        return load_group_file(s, order_cap=order_cap)
    raise ValueError("cannot parse group spec %r" % spec)


def parse_arrangement_spec(spec, group: MatrixGroup = None) -> Arrangement:
    """Parse "A_n(r)" (full) or "A_n^0(r)" (zero); with no spec, the
    reflection arrangement of the given group."""
    if spec is None:
        if group is None:
            raise ValueError("need an arrangement spec or a group")
        return reflection_arrangement(group)
    params = _arrangement_params(spec)
    if params is None:
        raise ValueError("cannot parse arrangement spec %r" % spec)
    return make_arrangement(*params)
