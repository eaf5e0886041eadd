"""End-to-end acceptance suite.

Every comparison is exact; the engine computes in exact cyclotomic/rational
arithmetic throughout, so there are no tolerances anywhere.
"""

from itertools import combinations

import pytest

from test_osalg import os_dim_oracle

from reflact.arrangement import build_lattice, subarrangement
from reflact.catalog import (
    make_arrangement,
    make_grpn,
    orbit_type_names,
    prop41_labels,
    shipped_group,
    shipped_group_types,
)
from reflact.cli import verify_suite
from reflact.groups import (
    hyperplane_action,
    linear_characters,
    orbits_on_lattice,
    reflection_arrangement,
    reflections,
)
from reflact.invariants import (
    euler_identity_check,
    isotypic_dim_global,
    isotypic_dim_projection,
    isotypic_dims_orbitwise,
    lehrer_solomon_check,
    poincare_invariants,
    theorem4_basis,
    trivial_character,
)
from reflact.osalg import apply_perm, euler_derivation, nbc_basis, straighten


def divisors(r):
    return [p for p in range(1, r + 1) if r % p == 0]


# (kind, r, p, n) pairs exercised by the corpus-wide criteria
CORPUS = [
    ("zero", 1, 1, 3), ("zero", 1, 1, 4), ("full", 1, 1, 3),
    ("full", 2, 1, 2), ("zero", 2, 2, 2), ("full", 2, 2, 2),
    ("full", 3, 1, 2), ("zero", 3, 3, 2), ("full", 3, 3, 2),
    ("full", 2, 1, 3), ("zero", 2, 2, 3),
    ("zero", 2, 2, 4), ("zero", 4, 4, 2), ("full", 4, 2, 2),
]


def corpus_pairs():
    for kind, r, p, n in CORPUS:
        yield make_arrangement(kind, r, n), make_grpn(r, p, n)


def small_pairs():
    for A, G in corpus_pairs():
        if len(A) <= 8:
            yield A, G


def assert_suite(report):
    failures = [c for c in report["cases"] if not c["passed"]]
    assert not failures, failures
    assert report["cases"], "suite ran no cases"


def test_criterion_1_rank_two_table():
    report = verify_suite("table1", max_r=6, max_n=2)
    assert_suite(report)
    assert len(report["cases"]) == 13  # all (r,p) with p | r, 2 <= r <= 6


def test_criterion_2_infinite_family_tables():
    assert_suite(verify_suite("table2", max_r=4, max_n=4))
    assert_suite(verify_suite("cor2", max_r=4, max_n=4))


def test_criterion_3_exceptional_rows():
    expected = {
        "h3": ([1, 1, 1, 1], {"A_0", "A_1", "A_1^2", "H_3"}),
        "f4": ([1, 2, 2, 2, 1],
               {"A_0", "A_1", "~A_1", "A_1~A_1", "B_2", "C_3", "B_3", "F_4"}),
    }
    for name, (poly, ct) in expected.items():
        G = shipped_group(name)
        A = reflection_arrangement(G)
        report = isotypic_dims_orbitwise(A, G, trivial_character(G))
        assert list(report.graded) == poly
        names = orbit_type_names(G, A, shipped_group_types(name))
        carriers = {names[o.representative.key]
                    for o, d in report.orbit_dims if d > 0}
        assert carriers == ct


def test_criterion_4_invariant_bases():
    report = verify_suite("thm4", max_r=4, max_n=4)
    assert_suite(report)
    # the suite data pins the named monomial sets for (A_4(r), G(r,2,4))
    assert len(report["cases"]) == 48
    # rank-2 pairs beyond the suite grid
    for r in (5, 6):
        for p in divisors(r):
            kind = "zero" if p == r else "full"
            A = make_arrangement(kind, r, 2)
            G = make_grpn(r, p, 2)
            basis = theorem4_basis(A, G)
            assert basis.cardinality == basis.poincare(1)
    # exceptional groups with caller-supplied generator chains, one
    # one-monomial group per orbit
    for name, chains in (("h3", [(9, 0), (9, 14, 0)]),
                         ("f4", [(4, 0), (1, 0), (1, 0, 9), (4, 1, 0),
                                 (4, 1, 0, 9)])):
        G = shipped_group(name)
        A = reflection_arrangement(G)
        basis = theorem4_basis(A, G, [[chain] for chain in chains])
        assert basis.cardinality == basis.poincare(1)


def test_criterion_5_brieskorn_and_lehrer_solomon():
    arrangements = list(corpus_pairs()) + [
        (reflection_arrangement(shipped_group("h3")), shipped_group("h3")),
        (reflection_arrangement(shipped_group("f4")), shipped_group("f4")),
    ]
    seen = set()
    for A, G in arrangements:
        if id(A) not in seen:
            seen.add(id(A))
            lat = build_lattice(A)
            for k in range(A.rank() + 1):
                total = sum(len(nbc_basis(subarrangement(A, f), k))
                            for f in lat.levels[k])
                assert total == len(nbc_basis(A, k))
        res = lehrer_solomon_check(A, G, trivial_character(G))
        assert res["passed"], (G, res)


def test_criterion_6_euler_complex():
    assert_suite(verify_suite("acyclic", max_r=4, max_n=4))
    # equivariance: the derivation commutes with every generator action
    for A, G in small_pairs():
        perms = hyperplane_action(G, A).perms
        for g in G.generators:
            perm = perms[g]
            for k in range(1, A.rank() + 1):
                for m in nbc_basis(A, k).monomials:
                    x = straighten(A, m)
                    assert euler_derivation(A, apply_perm(A, perm, x)) == \
                        apply_perm(A, perm, euler_derivation(A, x))


def test_criterion_7_vanishing():
    assert_suite(verify_suite("cor5", max_r=4, max_n=4))


def test_criterion_8_euler_identity_and_divisibility():
    for A, G in corpus_pairs():
        for chi in linear_characters(G):
            assert euler_identity_check(A, G, chi)
            poly = isotypic_dims_orbitwise(A, G, chi).poincare
            # synthetic division by (1 + t) must leave no remainder
            rem = 0
            for c in reversed(poly.coefficients):
                rem = c - rem
            assert rem == 0


def test_criterion_9_relative_theorem():
    assert_suite(verify_suite("thm6", max_r=4, max_n=4))


def test_criterion_10_label_cross_check():
    count = 0
    for r in range(1, 5):
        for p in divisors(r):
            for n in range(2, 5):
                for kind in ("full", "zero"):
                    labels = prop41_labels(r, p, n, kind, cross_check=True)
                    orbits = orbits_on_lattice(make_grpn(r, p, n),
                                               make_arrangement(kind, r, n))
                    assert len(labels) == len(orbits)
                    count += 1
    assert count == 48


def test_criterion_11_oracle_equivalence():
    seen = set()
    for A, G in small_pairs():
        if id(A) not in seen:
            seen.add(id(A))
            for k in range(A.rank() + 1):
                assert len(nbc_basis(A, k)) == os_dim_oracle(A, k)
        for chi in linear_characters(G):
            report = isotypic_dims_orbitwise(A, G, chi)
            for k in range(A.rank() + 1):
                d = isotypic_dim_global(A, G, chi, k)
                assert d == report.graded[k]
                assert d == isotypic_dim_projection(A, G, chi, k)
