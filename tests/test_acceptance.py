"""End-to-end acceptance gate: every criterion the engine must satisfy.

The heavy sweep (classifier plus all three oracles over the full builtin
catalog) runs once in a session fixture and is shared by the crosscheck,
implication and decomposition criteria.
"""

import time

import pytest

from algcomplete.automorphisms import (
    automorphism_group,
    inner_subgroup,
    relative_classifier,
)
from algcomplete.catalog import alternating, dihedral
from algcomplete.cli import _paper_examples
from algcomplete.commutators import center
from algcomplete.completeness import (
    centerless_char_criterion,
    char_simple_audit,
    decompose_proto_complete,
    implication_audit,
    one_step_check,
    oracle_completeness,
)
from algcomplete.errors import SizeCap
from algcomplete.groups import is_isomorphic, normal_subgroups
from algcomplete.lie import abelian_lie, lie_classify, nonabelian2, sl2
from algcomplete.rings import ring_classify, ring_zn, subring, zero_ring


@pytest.fixture(scope="session")
def audits(catalog):
    """One implication audit per catalog group, with its total wall time."""
    start = time.monotonic()
    results = {
        G.name: implication_audit(G, 2 * G.order, catalog, "builtin-catalog")
        for G in catalog
    }
    return time.monotonic() - start, results


# 1. named examples: exact boolean match, under ten seconds


def test_criterion_1_named_examples_suite():
    start = time.monotonic()
    checks = _paper_examples(None)
    elapsed = time.monotonic() - start
    failing = [c["check"] for c in checks if not c["pass"]]
    assert failing == []
    names = {c["check"] for c in checks}
    assert {
        "Z2 proto-complete",
        "Z2 not complete (witness in Z4)",
        "Z2 witness is the doubling embedding",
        "S3 strong-complete",
        "Z2xS3 not proto-complete",
        "Z4 not proto-complete",
    } <= names
    assert elapsed < 10.0


# 2. theorem-level classifier agrees with the definition-level oracle


def test_criterion_2_theorem_vs_oracle_crosscheck(audits):
    elapsed, results = audits
    mismatches = []
    for name, aud in results.items():
        if aud.report.proto_complete != aud.oracle_proto.flag:
            mismatches.append((name, "proto"))
        if aud.report.strong_complete != aud.oracle_strong.flag:
            mismatches.append((name, "strong"))
    assert mismatches == []
    assert len(results) == 74
    assert elapsed <= 300.0


# 3. centerless groups with outer automorphisms are never bounded-complete


def test_criterion_3_outer_automorphism_refutes_completeness(catalog):
    refuted = []
    for G in catalog:
        if center(G).order != 1:
            continue
        aut = automorphism_group(G)
        inn = inner_subgroup(G)
        if aut.order == inn.order:
            continue
        carrier = aut.carrier
        bound = -(-carrier.order // G.order)  # smallest bound admitting Aut(G)
        v = oracle_completeness(G, "complete", bound, [carrier], "aut-carrier")
        assert not v.flag, f"{G.name} must not be complete"
        assert v.witness is not None
        assert v.witness["image"] == sorted(inn.elements), (
            f"{G.name}: the non-split embedding must be the conjugation map"
        )
        refuted.append(G.name)
    assert len(refuted) == 7
    assert any(
        is_isomorphic(next(g for g in catalog if g.name == n), dihedral(5))
        for n in refuted
        if next(g for g in catalog if g.name == n).order == 10
    )


# 4. implication chain and the strong = proto + centerless equivalence


def test_criterion_4_implication_chain(audits):
    _, results = audits
    violations = {n: a.violations for n, a in results.items() if a.violations}
    assert violations == {}
    for aud in results.values():
        r = aud.report
        assert r.strong_complete == (r.proto_complete and r.center_order == 1)
        if r.strong_complete:
            assert aud.oracle_complete.flag and aud.oracle_proto.flag
        if aud.oracle_complete.flag:
            assert aud.oracle_proto.flag


# 5. every proto-complete group is center times a strong-complete quotient


def test_criterion_5_decomposition(catalog, audits):
    _, results = audits
    proto = [G for G in catalog if results[G.name].report.proto_complete]
    assert sorted(G.order for G in proto) == [1, 2, 6, 20, 24]
    for G in proto:
        Z, Q, iso = decompose_proto_complete(G)
        assert Z.order * Q.order == G.order
        assert iso.is_bijective


# 6. conjugation-injective with characteristic image = strong Aut, levelwise


def test_criterion_6_one_step(catalog, S3, S4, D5, Z4, V4):
    for G in (S3, S4, D5, Z4, V4):
        lhs, rhs = one_step_check(G)
        assert lhs == rhs
    skipped = []
    for G in catalog:
        try:
            lhs, rhs = one_step_check(G)
        except SizeCap:
            skipped.append(G.name)
            continue
        assert lhs == rhs, G.name
    assert len(skipped) <= 1  # only the elementary abelian 2-group of rank 4


# 7. characteristic = image-normal-in-Aut over whole normal lattices


def test_criterion_7_centerless_char_criterion(catalog):
    checked = 0
    for G in catalog:
        if center(G).order != 1:
            continue
        for S in normal_subgroups(G):
            direct, criterion = centerless_char_criterion(S)
            assert direct == criterion, (G.name, S.elements)
            checked += 1
    assert checked > 0


# 8. the alternating group on five letters and its automorphisms


def test_criterion_8_characteristically_simple_corollary():
    start = time.monotonic()
    rep = char_simple_audit(alternating(5))
    elapsed = time.monotonic() - start
    assert rep.aut_order == 120
    assert rep.aut_strong_complete
    assert elapsed <= 600.0


# 9. relative classifier projections


def test_criterion_9_relative_classifier(S3, S4, D5):
    A4 = next(s for s in normal_subgroups(S4) if s.order == 12)
    rc = relative_classifier(A4)
    assert rc.q1.is_injective

    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    rc = relative_classifier(A3)
    assert not rc.q1.is_injective

    for G in (S3, S4, D5):
        rc = relative_classifier(inner_subgroup(G))
        assert rc.q1.is_bijective


# 10. rings: completeness is exactly unitality


def test_criterion_10_rings():
    for n in range(1, 13):
        rep = ring_classify(ring_zn(n))
        assert rep.complete and rep.unitalization_splits
    for R, u_order in ((zero_ring(2), 4), (subring(ring_zn(8), [0, 2, 4, 6]), 16)):
        rep = ring_classify(R)
        assert not rep.complete
        assert not rep.unitalization_splits
        assert rep.unitalization_order == u_order


# 11. Lie algebras over prime fields


def test_criterion_11_lie():
    start = time.monotonic()
    assert lie_classify(sl2(5)).strong_complete
    assert lie_classify(nonabelian2(5)).strong_complete
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            rep = lie_classify(abelian_lie(d, p))
            assert not rep.proto_complete
    test_set = [sl2(3), sl2(5), sl2(7), nonabelian2(3), nonabelian2(5),
                abelian_lie(2, 3)]
    for L in test_set:
        rep = lie_classify(L)
        if rep.is_perfect and rep.center_dim == 0:
            # the derivation-algebra recursion is asserted inside lie_classify
            assert rep.strong_complete
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
