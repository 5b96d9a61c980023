"""Completeness classification: theorem criteria, bounded oracles, audits.

Terminology: a group is proto-complete when its conjugation morphism
c: G -> Aut(G) is a split epimorphism, strong-complete when c is an
isomorphism, and (boundedly) complete when every normal embedding found in
a finite universe splits.  Completeness proper quantifies over all groups,
so complete verdicts always carry their bound and universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    AbelianInput,
    CenterNonTrivial,
    NotCharacteristicallySimple,
    NotProtoComplete,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _Budget,
    direct_product,
    find_constrained_hom,
    normal_subgroups,
    quotient,
)
from .commutators import center, embedding_retraction, is_characteristic
from .automorphisms import (
    automorphism_group,
    conjugation_indices,
    inner_subgroup,
)
from .extensions import (
    GroupAction,
    enumerate_normal_embeddings,
    iter_actions,
    semidirect_columns,
    semidirect_product,
)


# -- theorem-based classification ---------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a definition-level bounded search."""

    mode: str
    flag: bool
    bound: int
    universe_id: str
    witness: Optional[dict] = None
    # the action of a failing split extension; never reported
    action: Optional[GroupAction] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ClassificationReport:
    name: str
    order: int
    center_order: int
    aut_order: int
    inn_order: int
    out_order: int
    proto_complete: bool
    proto_section: Optional[tuple[int, ...]]
    strong_complete: bool


def classify_completeness(
    G: FiniteGroup, budget: Optional[int] = None
) -> ClassificationReport:
    """Theorem-level verdicts: proto via a section of c, strong via c bijective.

    c is a split epi iff it is surjective (Out trivial) and some hom
    s: Aut(G) -> G satisfies c.s = id; when Out is nontrivial no
    automorphism carrier is ever materialized.  The strong verdict is
    computed both as "c bijective" and as "trivial center and trivial Out"
    and the two are cross-asserted.
    """
    aut = automorphism_group(G)
    z = center(G)
    inn_order = G.order // z.order
    out_order = aut.order // inn_order
    section = None
    if out_order == 1:
        # |Aut| = |Inn| <= |G|, so the carrier is always affordable here
        carrier = aut.carrier
        cidx = conjugation_indices(G, aut)
        fibers = {}
        for g, a in enumerate(cidx):
            fibers.setdefault(a, []).append(g)
        b = _Budget(budget if budget is not None else DEFAULT_SEARCH_BUDGET, "section search")
        found = find_constrained_hom(carrier, G, allowed=fibers, budget=b)
        if found:
            img = found[0]
            assert all(cidx[img[a]] == a for a in range(carrier.order))
            section = found[0]
    proto = section is not None
    strong = z.order == 1 and out_order == 1
    if strong:
        c = GroupHom(G, carrier, cidx)
        assert c.is_bijective, "trivial center and Out must make c an isomorphism"
        assert proto, "an isomorphism c is in particular a split epi"
    return ClassificationReport(
        name=G.name or f"group-of-order-{G.order}",
        order=G.order,
        center_order=z.order,
        aut_order=aut.order,
        inn_order=inn_order,
        out_order=out_order,
        proto_complete=proto,
        proto_section=section,
        strong_complete=strong,
    )


# -- definition-level oracles -------------------------------------------------


def _action_witness(a: GroupAction) -> dict:
    return {
        "kind": "split-extension",
        "kernel": a.X.name or f"order-{a.X.order}",
        "cokernel": a.B.name or f"order-{a.B.order}",
        "action": list(a.indices),
    }


def split_extension_oracles(
    G: FiniteGroup,
    bound: int,
    universe: Sequence[FiniteGroup],
    universe_id: str = "universe",
    budget: Optional[int] = None,
) -> tuple[OracleVerdict, OracleVerdict]:
    """The proto and strong oracle verdicts from one pass over the split extensions.

    Every split extension G -> A -> B with B in the universe (|B| <= bound)
    is visited once, in canonical order, and searched for up to two
    retractions of its kernel while the strong verdict stands, for one after
    that.  The first extension without a retraction refutes both verdicts
    (the strong one unless a non-unique retraction refuted it earlier) and
    ends the pass.  One budget covers every retraction search.

    A retraction is determined by its values on kappa(gens of G) and
    beta(gens of B), so the search reads only A's right multiplication by
    those (`semidirect_columns`, k*|A| entries), and G's own schedule levels
    serve every extension.  No middle group is built, so no element cap
    applies: a failing verdict carries its extension's action instead.
    """
    b = _Budget(budget if budget is not None else DEFAULT_SEARCH_BUDGET,
                "split-extension oracles")
    kernel_levels = G.hom_domain().schedules()
    fixed = {x: [x] for x in range(G.order)}  # a retraction fixes kappa(x) = x
    strong = None
    for B in universe:
        if B.order > bound:
            continue
        for a in iter_actions(B, G):
            found = find_constrained_hom(semidirect_columns(a, kernel_levels), G, allowed=fixed,
                                         budget=b, limit=1 if strong is not None else 2)
            if not found:
                w = _action_witness(a)
                w["failure"] = "no retraction"
                proto = OracleVerdict("proto", False, bound, universe_id, w, a)
                if strong is None:
                    strong = OracleVerdict("strong", False, bound, universe_id, dict(w), a)
                return proto, strong
            if strong is None and len(found) > 1:
                w = _action_witness(a)
                w["failure"] = "retraction not unique"
                strong = OracleVerdict("strong", False, bound, universe_id, w, a)
    proto = OracleVerdict("proto", True, bound, universe_id, None)
    return proto, strong or OracleVerdict("strong", True, bound, universe_id, None)


def oracle_completeness(
    G: FiniteGroup,
    mode: str,
    bound: int,
    universe: Sequence[FiniteGroup],
    universe_id: str = "universe",
    budget: Optional[int] = None,
) -> OracleVerdict:
    """Check the chosen completeness definition by bounded exhaustive search.

    proto: every split extension with kernel G and cokernel in the universe
    (|B| <= bound) admits a retraction of its kernel.  strong: the
    retraction is additionally unique.  Both come from one
    `split_extension_oracles` pass, so a proto call also runs the
    uniqueness search.  complete: every normal embedding of G into a
    universe member with |Y| <= bound*|G| splits.  The witness, if any, is
    the first failure in canonical enumeration order.
    """
    if mode not in ("proto", "strong", "complete"):
        raise ValueError(f"unknown oracle mode: {mode}")
    if mode in ("proto", "strong"):
        proto, strong = split_extension_oracles(G, bound, universe, universe_id, budget)
        return proto if mode == "proto" else strong
    b = _Budget(budget if budget is not None else DEFAULT_SEARCH_BUDGET, "normal embeddings")
    members = [Y for Y in universe if Y.order <= bound * G.order]
    for Y, h in enumerate_normal_embeddings(G, members):
        if embedding_retraction(h, b) is None:
            w = {
                "kind": "normal-embedding",
                "target": Y.name or f"order-{Y.order}",
                "image": sorted(set(h.image)),
                "failure": "no retraction",
            }
            return OracleVerdict(mode, False, bound, universe_id, w)
    return OracleVerdict(mode, True, bound, universe_id, None)


# -- structure theorems as operations -----------------------------------------


def decompose_proto_complete(G: FiniteGroup) -> tuple[Subgroup, FiniteGroup, GroupHom]:
    """Split a proto-complete G as center times a strong-complete quotient.

    The isomorphism is g -> (g * s(q(g))^-1, q(g)) for a section s of the
    central quotient q; both factors' expected verdicts are asserted.  s is
    the classification's section of c read through G/Z = Inn(G), s(q(g)) =
    section(c(g)), so no search runs besides the two classifications.
    """
    rep = classify_completeness(G)
    if not rep.proto_complete:
        raise NotProtoComplete(rep.name)
    Z = center(G)
    Q, proj = quotient(G, Z)
    cidx = conjugation_indices(G, automorphism_group(G))
    s_img = [0] * Q.order
    for g in range(G.order):
        s_img[proj(g)] = rep.proto_section[cidx[g]]
    s = GroupHom.create(Q, G, s_img)
    assert all(proj(s(q)) == q for q in range(Q.order))
    Zg, _ = Z.as_group()
    P, _, _ = direct_product(Zg, Q)
    local = {e: i for i, e in enumerate(Z.elements)}
    img = tuple(
        local[G.mul(g, G.inv(s(proj(g))))] * Q.order + proj(g) for g in range(G.order)
    )
    iso = GroupHom.create(G, P, img)
    assert iso.is_bijective
    q_rep = classify_completeness(Q)
    assert q_rep.strong_complete, "quotient by the center must be strong-complete"
    assert automorphism_group(Zg).order == 1 or Zg.order == 1, (
        "center factor must be proto-complete (trivial automorphisms)"
    )
    return Z, Q, iso


def one_step_check(G: FiniteGroup) -> tuple[bool, bool]:
    """(c injective and Inn characteristic in Aut(G)) vs
    (trivial center and Aut(G) strong-complete); their equality is a theorem
    checked by the test suite, not here."""
    aut = automorphism_group(G)
    z = center(G)
    carrier = aut.carrier
    inn = inner_subgroup(G, aut)
    aut2 = automorphism_group(carrier)
    lhs = z.order == 1 and is_characteristic(carrier, inn, aut2.elems)
    rhs = z.order == 1 and classify_completeness(carrier).strong_complete
    return lhs, rhs


def centerless_char_criterion(
    G: FiniteGroup, S: Subgroup
) -> tuple[bool, bool]:
    """For centerless G: S characteristic vs c(S) normal in Aut(G).

    Returns (direct, criterion); the theorem asserts they agree, and the
    test suite checks that over whole subgroup lattices.
    """
    if center(G).order != 1:
        raise CenterNonTrivial("criterion applies to centerless groups only")
    aut = automorphism_group(G)
    direct = is_characteristic(G, S, aut.elems)
    cidx = conjugation_indices(G, aut)
    restricted = [cidx[s] for s in S.elements]
    injective = len(set(restricted)) == S.order
    image = Subgroup(aut.carrier, tuple(sorted(set(restricted))))
    criterion = injective and image.is_normal()
    return direct, criterion


@dataclass(frozen=True)
class ImplicationAudit:
    report: ClassificationReport
    oracle_proto: OracleVerdict
    oracle_strong: OracleVerdict
    oracle_complete: OracleVerdict
    normal_all_characteristic: Optional[bool]
    violations: tuple[str, ...]


def implication_audit(
    G: FiniteGroup,
    bound: int,
    universe: Sequence[FiniteGroup],
    universe_id: str = "universe",
    budget: Optional[int] = None,
) -> ImplicationAudit:
    """Run every classifier and oracle on G and flag violated implications.

    The complete-oracle universe is augmented with the proto witness's
    middle group and, for centerless G, with Aut(G): without those members
    a catalog-only search can miss the refuting embedding and a bounded
    "complete" pass would contradict a proto failure.  The middle group is
    built here, by `semidirect_product`, so one over DEFAULT_ELEMENT_CAP
    elements raises SizeCap.
    """
    rep = classify_completeness(G, budget=budget)
    op, os_ = split_extension_oracles(G, bound, universe, universe_id, budget)
    extra: list[FiniteGroup] = []
    if op.action is not None:
        extra.append(semidirect_product(op.action).A)
    if rep.center_order == 1:
        aut = automorphism_group(G)
        if aut.order <= DEFAULT_ELEMENT_CAP:
            extra.append(aut.carrier)
    oc = oracle_completeness(
        G, "complete", bound, list(universe) + extra, universe_id + "+witnesses", budget
    )
    violations = []
    if rep.strong_complete and not oc.flag:
        violations.append("strong-complete but a normal embedding failed to split")
    if rep.strong_complete and not rep.proto_complete:
        violations.append("strong-complete but not proto-complete")
    if oc.flag and not rep.proto_complete:
        violations.append("bounded-complete unrefuted but proto-completeness fails")
    if op.flag != rep.proto_complete:
        violations.append("proto oracle disagrees with the split-epi criterion")
    if os_.flag != rep.strong_complete:
        violations.append("strong oracle disagrees with the c-isomorphism criterion")
    normal_char = None
    if rep.proto_complete:
        aut = automorphism_group(G)
        normal_char = all(is_characteristic(G, S, aut.elems) for S in normal_subgroups(G))
        if not normal_char:
            violations.append("proto-complete group with a non-characteristic normal subgroup")
    return ImplicationAudit(rep, op, os_, oc, normal_char, tuple(violations))


@dataclass(frozen=True)
class CharSimpleReport:
    name: str
    aut_order: int
    aut_strong_complete: bool


def char_simple_audit(G: FiniteGroup, budget: Optional[int] = None) -> CharSimpleReport:
    """For characteristically simple nonabelian G, Aut(G) must be strong-complete.

    `budget` limits the section search of Aut(G)'s classification; the
    automorphism search has its own fixed limit.
    """
    if G.is_abelian:
        raise AbelianInput(G.name or f"order-{G.order}")
    aut = automorphism_group(G)
    # characteristic subgroups are normal
    for S in normal_subgroups(G):
        if S.order in (1, G.order):
            continue
        if is_characteristic(G, S, aut.elems):
            raise NotCharacteristicallySimple(S.elements)
    carrier = aut.carrier
    rep = classify_completeness(carrier, budget=budget)
    assert rep.strong_complete, "Aut of a characteristically simple group must be strong-complete"
    return CharSimpleReport(G.name or f"order-{G.order}", aut.order, rep.strong_complete)
