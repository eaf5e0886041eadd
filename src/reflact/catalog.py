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
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from pathlib import Path

from .arrangement import Arrangement, build_lattice, canonicalize_hyperplane
from .exactnum import Cyc, CycMatrix
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
]

KINDS = ("braid", "full", "zero")


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


@lru_cache(maxsize=None)
def make_grpn(r: int, p: int, n: int) -> MatrixGroup:
    """The monomial reflection group G(r,p,n), of order r^n n!/p, built
    once per (r, p, n).  Enumeration stops at that order; callers that take
    an order cap check it against the closed form first."""
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
    return G


@lru_cache(maxsize=None)
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


def _x_lambda_rows(n, r, lam, twist=0):
    """Basis vectors of d_0^u X_lambda."""
    m = sum(lam)
    w = Cyc.root_of_unity(r)
    rows = []
    start = n - m
    for part in lam:
        vec = [Cyc.zero()] * n
        for j in range(start, start + part):
            vec[j] = Cyc.one()
        if twist and start == 0:
            vec[0] = w ** twist
        rows.append(vec)
        start += part
    return rows


def _flat_of_rows(A, lattice, rows):
    """The lattice flat whose subspace is the span of the given rows."""
    key = []
    for i in range(len(A)):
        cov = A.covector(i)
        if all(sum((cov[j] * row[j] for j in range(A.n)), Cyc.zero()).is_zero()
               for row in rows):
            key.append(i)
    return lattice.by_key.get(tuple(key))


def prop41_labels(r, p, n, kind, cross_check=True,
                  order_cap=DEFAULT_ORDER_CAP):
    """Partition labels for the orbits of G(r,p,n) on the lattice of the
    full/zero arrangement, each with its representative flat.  With
    cross_check the list is verified to hit every brute-force orbit once."""
    _check_params(r, p, n)
    if kind not in KINDS:
        raise ValueError("kind must be one of %s" % (KINDS,))
    if kind == "braid":
        kind, r = "zero", 1
    A = make_arrangement(kind, r, n)
    lattice = build_lattice(A)
    raw = []
    if r > 1:
        max_m = n - 2 if kind == "zero" else n - 1
        for m in range(max_m + 1):
            for lam in _partitions(m):
                raw.append((lam, 0))
        for lam in _partitions(n):
            delta = gcd(p, *lam)
            for u in range(delta):
                raw.append((lam, u))
    elif kind == "zero":
        raw = [(lam, 0) for lam in _partitions(n)]
    else:
        for m in range(n + 1):
            for lam in _partitions(m):
                raw.append((lam, 0))
    out = []
    seen_keys = set()
    for lam, u in raw:
        flat = _flat_of_rows(A, lattice, _x_lambda_rows(n, r, lam, u))
        if flat is None:
            raise LabelCrossCheckError(
                "X_%s (u=%d) is not a flat of %s(%d,%d)" % (lam, u, kind, r, n))
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


def _named_covector(r, n, name):
    w = Cyc.root_of_unity(r)
    if name == "s":
        if r == 1:
            raise UndefinedNameError("s needs r > 1")
        cov = [Cyc.zero()] * n
        cov[0] = Cyc.one()
        return cov
    if name == "t_2^1":
        if r == 1:
            raise UndefinedNameError("t_2^1 needs r > 1")
        if n < 2:
            raise UndefinedNameError("t_2^1 needs n >= 2")
        cov = [Cyc.zero()] * n
        cov[0] = Cyc.one()
        cov[1] = -w
        return cov
    m = re.fullmatch(r"t_(\d+)", name)
    if m:
        i = int(m.group(1))
        if not 2 <= i <= n:
            raise UndefinedNameError("t_%d needs 2 <= %d <= n" % (i, i))
        cov = [Cyc.zero()] * n
        cov[i - 2] = Cyc.one()
        cov[i - 1] = Cyc.rational(-1)
        return cov
    raise UndefinedNameError("unknown hyperplane name %r" % name)


def named_hyperplane(r, p, n, name) -> int:
    """Index in full(r,n) of H_1 = Fix(s) = (x_1 = 0), H_i = Fix(t_i) =
    (x_{i-1} = x_i), or H_2^1 = Fix(s t_2 s^{-1}) = (x_1 = omega x_2)."""
    _check_params(r, p, n)
    A = make_arrangement("full", r, n)
    h = canonicalize_hyperplane(_named_covector(r, n, name))
    idx = A.index_of(h)
    if idx is None:
        raise UndefinedNameError("hyperplane %r not in full(%d,%d)" % (name, r, n))
    return idx


def _index_in(A, cov):
    idx = A.index_of(canonicalize_hyperplane(cov))
    if idx is None:
        raise UndefinedNameError("hyperplane not in arrangement")
    return idx


def cox_monomials(r, p, n, kind):
    """Hyperplane-index monomials for the invariant-basis construction in
    codimension >= 2, keyed by the representative-flat key of the orbit they
    belong to.  Values are lists with one tuple (or two, for the pairs that
    appear when p and n are both even)."""
    _check_params(r, p, n)
    if kind == "braid":
        kind, r = "zero", 1
    A = make_arrangement(kind, r, n)
    lattice = build_lattice(A)
    even = p % 2 == 0 and n % 2 == 0

    def cov_coord(i):
        cov = [Cyc.zero()] * n
        cov[i] = Cyc.one()
        return cov

    def cov_t(i):
        cov = [Cyc.zero()] * n
        cov[i - 2] = Cyc.one()
        cov[i - 1] = Cyc.rational(-1)
        return cov

    def cov_t21():
        cov = [Cyc.zero()] * n
        cov[0] = Cyc.one()
        cov[1] = -Cyc.root_of_unity(r)
        return cov

    def flat_key(lam, u=0):
        flat = _flat_of_rows(A, lattice, _x_lambda_rows(n, r, lam, u))
        if flat is None:
            raise LabelCrossCheckError("missing flat for %s" % (lam,))
        return flat.key

    out = {}
    if kind == "full":
        h1 = _index_in(A, cov_coord(0))
        t = {i: _index_in(A, cov_t(i)) for i in range(2, n + 1)}
        t21 = _index_in(A, cov_t21()) if r > 1 else None
        # one-part-free chains: X_(1^{n-k}) has stabilizer type G(r,p,k)
        for k in range(2, n):
            lam = tuple([1] * (n - k))
            out[flat_key(lam)] = [tuple(sorted([h1] + [t[i] for i in range(2, k + 1)]))]
        # chains with one doubled part: X_(2,1^{n-k-1})
        for k in range(2, n):
            lam = tuple([2] + [1] * (n - k - 1))
            u_range = range(gcd(p, *lam)) if sum(lam) == n else (0,)
            for u in u_range:
                if even and k == n - 1:
                    base = [h1] + [t[i] for i in range(2, n - 1)] + [t[n]]
                    alt = [h1, t21] + [t[i] for i in range(3, n - 1)] + [t[n]]
                    out[flat_key(lam, u)] = [tuple(sorted(base)), tuple(sorted(alt))]
                else:
                    mono = [h1] + [t[i] for i in range(2, k)] + [t[k + 1]]
                    out[flat_key(lam, u)] = [tuple(sorted(mono))]
        # the center
        full_chain = [h1] + [t[i] for i in range(2, n + 1)]
        if even:
            alt = [h1, t21] + [t[i] for i in range(3, n + 1)]
            out[flat_key(())] = [tuple(sorted(full_chain)), tuple(sorted(alt))]
        else:
            out[flat_key(())] = [tuple(sorted(full_chain))]
    elif r > 1:
        if even:
            t = {i: _index_in(A, cov_t(i)) for i in range(2, n + 1)}
            t21 = _index_in(A, cov_t21())
            lam = (2,)
            mono = [t[2], t21] + [t[i] for i in range(3, n - 1)] + [t[n]]
            out[flat_key(lam)] = [tuple(sorted(mono))]
            center = [t[2], t21] + [t[i] for i in range(3, n + 1)]
            out[flat_key(())] = [tuple(sorted(center))]
    return out


def data_dir() -> Path:
    """Directory holding the shipped group data files; REFLACT_DATA_DIR
    overrides the package copy."""
    override = os.environ.get("REFLACT_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def load_group_file(path, order_cap=DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Ingest a group from a JSON file matching the groups-module schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed group file %s: %s" % (path, exc))
    return group_from_json(obj, order_cap=order_cap)


@lru_cache(maxsize=None)
def shipped_group(name: str) -> MatrixGroup:
    """One of the shipped exceptional groups, by lowercase file stem, built
    once per name; `parse_group_spec` checks its order against a cap."""
    return load_group_file(data_dir() / ("%s.json" % name))


def load_group_types(path):
    """Stabilizer-type display table of a group data file, or None."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed group file %s: %s" % (path, exc))
    return obj.get("stabilizer_types")


@lru_cache(maxsize=None)
def shipped_group_types(name: str):
    types = load_group_types(data_dir() / ("%s.json" % name))
    return tuple((t["codim"], t["order"], tuple(t["reflections"]), t["name"])
                 for t in types or ())


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
        if isinstance(t, dict):
            t = (t["codim"], t["order"], tuple(t["reflections"]), t["name"])
        codim, order, counts, name = t
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


def parse_group_spec(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Parse "G(r,p,n)", "W(n)", "H3", "F4", or a path to a group file."""
    s = spec.strip()
    m = re.fullmatch(r"G\((\d+),(\d+),(\d+)\)", s)
    if m:
        r, p, n = map(int, m.groups())
        return _capped_grpn(r, p, n, order_cap)
    m = re.fullmatch(r"W\((\d+)\)", s)
    if m:
        return _capped_grpn(1, 1, int(m.group(1)), order_cap)
    if s.upper() in ("H3", "F4"):
        G = shipped_group(s.lower())
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
    s = spec.strip()
    m = re.fullmatch(r"A_(\d+)\((\d+)\)", s)
    if m:
        n, r = map(int, m.groups())
        return make_arrangement("full", r, n)
    m = re.fullmatch(r"A_(\d+)\^0\((\d+)\)", s)
    if m:
        n, r = map(int, m.groups())
        return make_arrangement("zero", r, n)
    raise ValueError("cannot parse arrangement spec %r" % spec)
