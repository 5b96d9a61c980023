import random

import pytest
from hypothesis import given, settings, strategies as st

from algcomplete import completeness, extensions
from algcomplete.automorphisms import AutomorphismGroup
from algcomplete.catalog import alternating, cyclic, dicyclic, dihedral, symmetric
from algcomplete.commutators import center
from algcomplete.errors import (
    AbelianInput,
    CenterNonTrivial,
    NotCharacteristicallySimple,
    NotProtoComplete,
    SearchBudgetExceeded,
    SizeCap,
)
from algcomplete.extensions import (
    SplitExtension,
    enumerate_split_extensions,
    iter_action_orbits,
    iter_actions,
    semidirect_columns,
    semidirect_product,
)
from algcomplete.groups import (
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    _Budget,
    direct_product,
    find_constrained_hom,
    group_from_permutations,
    is_isomorphic,
    normal_subgroups,
    validate_table,
)
from algcomplete.completeness import (
    centerless_char_criterion,
    char_simple_audit,
    classify_completeness,
    decompose_proto_complete,
    implication_audit,
    one_step_check,
    oracle_completeness,
    split_extension_oracles,
)
from algcomplete.lie import LieAlgebra, LieReport, abelian_lie, lie_classify, sl2
from algcomplete.rings import FiniteRing, RingReport, ring_classify, ring_zn, subring
from conftest import holomorph_generators, relabel


def small_universe():
    return [cyclic(n) for n in range(1, 9)] + [symmetric(3), dihedral(4), dicyclic(2)]


def test_classify_z2(Z2):
    r = classify_completeness(Z2)
    assert r.proto_complete and not r.strong_complete
    assert r.center_order == 2 and r.out_order == 1


def test_classify_s3(S3):
    r = classify_completeness(S3)
    assert r.strong_complete and r.proto_complete
    assert r.center_order == 1 and r.out_order == 1
    # the section of c is the inverse of c itself here
    assert r.proto_section is not None


def test_classify_z2xs3_not_proto(Z2xS3):
    r = classify_completeness(Z2xS3)
    assert not r.proto_complete
    assert r.center_order == 2 and r.out_order == 2


def test_classify_abelian_landscape():
    for n in (3, 4, 5, 6, 7, 8):
        r = classify_completeness(cyclic(n))
        assert not r.proto_complete and not r.strong_complete


def test_oracle_z2_complete_refuted(Z2, Z4):
    v = oracle_completeness(Z2, "complete", 2, [Z4], "just-Z4")
    assert not v.flag
    assert v.witness["image"] == [0, 2]


def test_oracle_trivial_group_all_modes():
    triv = cyclic(1)
    for mode in ("proto", "strong", "complete"):
        assert oracle_completeness(triv, mode, 8, small_universe(), "small").flag


def test_oracle_s3_bounded_complete(S3):
    v = oracle_completeness(S3, "complete", 4, small_universe(), "small")
    assert v.flag and v.witness is None


def test_oracle_strong_refutes_z2(Z2):
    v = oracle_completeness(Z2, "strong", 4, small_universe(), "small")
    assert not v.flag
    assert v.witness["failure"] == "retraction not unique"


def test_oracle_proto_refutes_z4(Z4):
    v = oracle_completeness(Z4, "proto", 8, small_universe(), "small")
    assert not v.flag
    assert v.witness["failure"] == "no retraction"


def _kernel_retractions(e, budget, limit=1):
    """Up to `limit` retractions of kappa, searched on the full middle group e.A."""
    X = e.X
    forced = {e.kappa(x): [x] for x in range(X.order)}
    gens = [e.kappa(x) for x in X.generators] + [e.beta(b) for b in e.B.generators]
    return find_constrained_hom(e.A.hom_domain(gens), X, forced, budget=budget, limit=limit)


def _witness(G, B, a, failure):
    return {
        "kind": "split-extension",
        "kernel": G.name or f"order-{G.order}",
        "cokernel": B.name or f"order-{B.order}",
        "action": list(a.indices),
        "failure": failure,
    }


def per_mode_oracle(G, mode, bound, universe):
    """Reference: one mode at a time, every split extension built afresh.

    Returns (flag, witness, middle table or None).
    """
    b = _Budget(DEFAULT_SEARCH_BUDGET, "reference oracle")
    for B in universe:
        if B.order > bound:
            continue
        for a in iter_actions(B, G):
            e = semidirect_product(a)
            found = _kernel_retractions(e, b, limit=1 if mode == "proto" else 2)
            if found and (mode == "proto" or len(found) == 1):
                continue
            failure = "no retraction" if not found else "retraction not unique"
            return False, _witness(G, B, a, failure), e.A.table
    return True, None, None


def table_oracles(G, bound, universe, actions=iter_actions):
    """Reference: the fused split-extension pass over full Cayley tables.

    Every extension of an action that `actions` yields is built by
    `semidirect_product` (all of `SplitExtension.create`'s checks) and
    searched on its table.  Returns the proto and strong (flag, witness,
    middle table or None) and the number of search nodes spent.
    """
    b = _Budget(DEFAULT_SEARCH_BUDGET, "reference oracle")
    strong = None
    for B in universe:
        if B.order > bound:
            continue
        for a in actions(B, G):
            e = semidirect_product(a)
            found = _kernel_retractions(e, b, limit=1 if strong is not None else 2)
            if not found:
                proto = (False, _witness(G, B, a, "no retraction"), e.A.table)
                return proto, strong or proto, DEFAULT_SEARCH_BUDGET - b.left
            if strong is None and len(found) > 1:
                strong = (False, _witness(G, B, a, "retraction not unique"), e.A.table)
    holds = (True, None, None)
    return holds, strong or holds, DEFAULT_SEARCH_BUDGET - b.left


def column_oracles(monkeypatch, G, bound, universe):
    """split_extension_oracles and the search nodes its one budget spent."""
    made = []

    class Recording(_Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(completeness, "_Budget", Recording)
        pair = split_extension_oracles(G, bound, universe, "builtin")
    (b,) = made
    return pair, DEFAULT_SEARCH_BUDGET - b.left


def _middle_table(v):
    """The Cayley table of the verdict's failing extension, or None."""
    return semidirect_product(v.action).A.table if v.action is not None else None


def assert_matches_table_reference(monkeypatch, G, bound, universe):
    """Flags, witnesses and middle tables as over every action; nodes as over the orbits.

    The pass searches one action per Aut(G)-class, so its nodes are those
    of the table reference walking the same representatives, which must
    itself reach the verdicts of the walk over every action.
    """
    pair, spent = column_oracles(monkeypatch, G, bound, universe)
    *expected, _ = table_oracles(G, bound, universe)
    *on_orbits, expected_spent = table_oracles(G, bound, universe, iter_action_orbits)
    assert on_orbits == expected, G.name
    for mode, v, (flag, witness, middle) in zip(("proto", "strong"), pair, expected):
        assert (v.mode, v.bound, v.universe_id) == (mode, bound, "builtin")
        assert (v.flag, v.witness) == (flag, witness), (G.name, mode)
        assert _middle_table(v) == middle, (G.name, mode)
    assert spent == expected_spent, G.name


def test_column_pass_matches_table_reference(monkeypatch, catalog):
    """Flag, witness, middle table and nodes spent, at bound 2|G|; S4 at bound 7 below
    and at bound 48 against the column pass over every action."""
    for G in catalog:
        if G.name != "G24.14":
            assert_matches_table_reference(monkeypatch, G, 2 * G.order, catalog)


def test_column_pass_matches_table_reference_on_s4(monkeypatch, catalog):
    S4 = next(G for G in catalog if G.name == "G24.14")
    assert is_isomorphic(S4, symmetric(4)) is not None
    assert_matches_table_reference(monkeypatch, S4, 7, catalog)


def test_column_pass_spends_its_budget_to_the_node(S3):
    uni = small_universe()
    *_, spent = table_oracles(S3, 6, uni, iter_action_orbits)
    assert split_extension_oracles(S3, 6, uni, "small", budget=spent)[0].flag
    with pytest.raises(SearchBudgetExceeded, match="^split-extension oracles: "):
        split_extension_oracles(S3, 6, uni, "small", budget=spent - 1)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_relabelling_keeps_oracle_flags_and_witness_cokernels(catalog, data, rnd):
    G = data.draw(st.sampled_from([G for G in catalog if G.order <= 12]))
    H = relabel(G, rnd)
    expected = split_extension_oracles(G, 2 * G.order, catalog, "builtin")
    got = split_extension_oracles(H, 2 * G.order, catalog, "builtin")
    for v, w in zip(expected, got):
        assert w.flag == v.flag
        assert (w.witness or {}).get("cokernel") == (v.witness or {}).get("cokernel")


@pytest.mark.parametrize("name, failures", [
    ("S4", (None, None)),
    ("F20", (None, None)),
    ("D4", ("no retraction", "retraction not unique")),
])
def test_relabelling_keeps_the_orbit_pass_verdicts(catalog, name, failures):
    """Relabelling reorders Aut(G), so other actions lead their classes; verdicts stay."""
    G = {"S4": symmetric(4), "D4": dihedral(4),
         "F20": group_from_permutations(5, holomorph_generators(5), name="F20")}[name]
    H = relabel(G, random.Random(name))
    for K in (G, H):
        pair = split_extension_oracles(K, 2 * G.order, catalog, "builtin")
        assert tuple(v.flag for v in pair) == tuple(f is None for f in failures)
        assert tuple((v.witness or {}).get("failure") for v in pair) == failures


def test_fused_oracles_match_per_mode_reference(catalog):
    seen = {}
    for G in (G for G in catalog if G.order <= 12):
        pair = split_extension_oracles(G, 2 * G.order, catalog, "builtin")
        for mode, v in zip(("proto", "strong"), pair):
            flag, witness, middle = per_mode_oracle(G, mode, 2 * G.order, catalog)
            assert (v.mode, v.bound, v.universe_id) == (mode, 2 * G.order, "builtin")
            assert (v.flag, v.witness) == (flag, witness), (G.name, mode)
            assert _middle_table(v) == middle
        proto, strong = pair
        if proto.witness is not None:
            assert strong.witness is not None and strong.witness is not proto.witness
        seen[G.name] = tuple((v.witness or {}).get("failure") for v in pair)
    s3 = next(G.name for G in catalog if G.order == 6 and not G.is_abelian)
    assert seen[s3] == (None, None)
    assert seen["Z2"] == (None, "retraction not unique")
    assert seen["Z4"] == ("no retraction", "retraction not unique")
    assert seen["Z3"] == ("no retraction", "no retraction")


def test_pass_refutes_z4_past_the_element_cap(Z4):
    """|Z130| * |Z4| = 520 > 512: the pass reads generator columns, so no cokernel is skipped."""
    proto, strong = split_extension_oracles(Z4, 130, [cyclic(130)], "Z130")
    assert (proto.flag, strong.flag) == (False, False)
    assert proto.witness["cokernel"] == strong.witness["cokernel"] == "Z130"
    assert proto.witness["failure"] == "no retraction"
    # the trivial action comes first, and Hom(Z130, Z4) has two elements
    assert strong.witness["failure"] == "retraction not unique"
    assert proto.action.B.order == 130 and list(proto.action.indices) == proto.witness["action"]


def test_s4_pass_visits_the_whole_catalog_at_bound_48(monkeypatch, catalog):
    """18 of the 74 cokernels give middle groups of 528 to 576 elements.

    The same pass over every action, not one per Aut(S4)-class, is the
    reference for the verdicts.
    """
    S4 = next(G for G in catalog if G.name == "G24.14")
    seen = []

    def recording(B, X):
        seen.append(B)
        return iter_action_orbits(B, X)

    with monkeypatch.context() as m:
        m.setattr(completeness, "iter_action_orbits", recording)
        proto, strong = split_extension_oracles(S4, 48, catalog, "builtin")
    assert len(seen) == len(catalog) == 74
    assert [B.name for B in seen] == [B.name for B in catalog]
    assert proto.flag and strong.flag
    monkeypatch.setattr(completeness, "iter_action_orbits", iter_actions)
    assert split_extension_oracles(S4, 48, catalog, "builtin") == (proto, strong)


def test_pass_builds_no_group(monkeypatch, Z4):
    def refuse(*args, **kwargs):
        raise AssertionError("the split-extension pass built a group")

    monkeypatch.setattr(completeness, "semidirect_product", refuse)
    monkeypatch.setattr(extensions, "semidirect_product", refuse)
    monkeypatch.setattr(FiniteGroup, "from_array", staticmethod(refuse))
    proto, strong = split_extension_oracles(Z4, 8, small_universe(), "small")
    assert not proto.flag and proto.action is not None and strong.action is not None


def test_own_constructions_skip_the_intakes(monkeypatch, Z2, Z3, Z4, S3):
    """Objects derived from checked ones are built without their kind's intake check."""
    ring12, ring8, sl2_5, ab4 = ring_zn(12), ring_zn(8), sl2(5), abelian_lie(4, 2)
    actions = list(iter_actions(Z4, S3))

    def refuse(*args, **kwargs):
        raise AssertionError("an own construction went through an intake")

    monkeypatch.setattr(SplitExtension, "create", staticmethod(refuse))
    monkeypatch.setattr(FiniteRing, "create", staticmethod(refuse))
    monkeypatch.setattr(LieAlgebra, "create", staticmethod(refuse))
    exts = enumerate_split_extensions(Z3, Z2)
    assert [e.A.name for e in exts] == ["Z3xZ2", "Z3:Z2"]
    assert exts[1].A.table == ((0, 1, 2, 3, 4, 5), (1, 2, 0, 5, 3, 4), (2, 0, 1, 4, 5, 3),
                               (3, 4, 5, 0, 1, 2), (4, 5, 3, 2, 0, 1), (5, 3, 4, 1, 2, 0))
    assert len(actions) == 4  # the trivial action and one per involution of Aut(S3) = S3
    for a in actions:
        dom = semidirect_columns(a)
        assert dom.columns == semidirect_product(a).A.hom_domain(dom.gens).columns
    assert ring_classify(ring12) == RingReport(
        name="Z/12", order=12, has_unit=True, unit=1, proto_complete=True, complete=True,
        strong_complete=True, unitalization_splits=True, unitalization_order=144)
    S = subring(ring8, [0, 2, 4, 6])
    assert S.add_table == ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    assert S.mul_table == ((0, 0, 0, 0), (0, 2, 0, 2), (0, 0, 0, 0), (0, 2, 0, 2))
    assert lie_classify(sl2_5) == LieReport(
        name="sl2(F5)", p=5, dim=3, center_dim=0, der_dim=3, is_perfect=True,
        proto_complete=True, strong_complete=True, section=((0, 0, 1), (0, 4, 0), (2, 0, 0)))
    assert lie_classify(ab4) == LieReport(
        name="abelian4(F2)", p=2, dim=4, center_dim=4, der_dim=16, is_perfect=False,
        proto_complete=False, strong_complete=False, section=None)


def test_audit_builds_the_middle_group_under_the_cap(Z4):
    aud = implication_audit(Z4, 8, small_universe(), "small")
    assert not aud.oracle_proto.flag and aud.violations == ()
    with pytest.raises(SizeCap, match="^semidirect product order 520 exceeds cap 512$"):
        implication_audit(Z4, 130, [cyclic(130)], "Z130")


def test_budget_exhaustion_names_the_phase(S3, Z2, Z4):
    with pytest.raises(SearchBudgetExceeded, match="^split-extension oracles: "):
        split_extension_oracles(Z2, 4, small_universe(), "small", budget=1)
    with pytest.raises(SearchBudgetExceeded, match="^normal embeddings: "):
        oracle_completeness(Z2, "complete", 2, [Z4], "just-Z4", budget=1)
    with pytest.raises(SearchBudgetExceeded, match="^section search: "):
        classify_completeness(S3, budget=1)


def out_trivial_groups(catalog):
    """The builtin groups with Out(G) = 1, Hol(Z_p) for six primes, S4 and S5."""
    hol = [group_from_permutations(p, holomorph_generators(p), name=f"Hol(Z{p})")
           for p in (5, 7, 11, 13, 17, 23)]
    return ([G for G in catalog if classify_completeness(G).out_order == 1]
            + hol + [symmetric(4), symmetric(5)])


def test_section_on_inn_is_unique(monkeypatch, catalog):
    """With Out(G) = 1 c has at most one section, so the one found does not
    depend on the generators the search on Inn(G) uses."""
    groups = out_trivial_groups(catalog)
    sections = [classify_completeness(G).proto_section for G in groups]
    found = []

    def two_sections(dom, G, **kwargs):
        found.append(find_constrained_hom(dom, G, limit=2, **kwargs))
        return found[-1]

    monkeypatch.setattr(completeness, "find_constrained_hom", two_sections)
    for G, section in zip(groups, sections):
        assert classify_completeness(G).proto_section == section
        assert found.pop() == [section], G.name
    assert len(groups) == 13  # Z1, Z2, S3, F20 and S4 built in, 6 holomorphs, S4 and S5


def test_classification_builds_no_carrier(monkeypatch, catalog):
    def refuse(aut):
        raise AssertionError(f"the classification built the carrier of Aut({aut.base.name})")

    monkeypatch.setattr(AutomorphismGroup, "carrier", property(refuse))
    for G in list(catalog) + out_trivial_groups(catalog):
        classify_completeness(G)


def test_decompose_s3(S3):
    Z, Q, iso = decompose_proto_complete(S3)
    assert Z.order == 1 and is_isomorphic(Q, S3) is not None


def test_decompose_z2(Z2):
    Z, Q, iso = decompose_proto_complete(Z2)
    assert Z.order == 2 and Q.order == 1


def test_decompose_rejects_z2xs3(Z2xS3):
    with pytest.raises(NotProtoComplete):
        decompose_proto_complete(Z2xS3)


def test_one_step_examples(S3, S4, Z4, V4, D5):
    assert one_step_check(S3) == (True, True)
    assert one_step_check(S4) == (True, True)
    assert one_step_check(Z4) == (False, False)
    assert one_step_check(V4) == (False, False)
    lhs, rhs = one_step_check(D5)
    assert lhs == rhs


def test_centerless_char_criterion_examples(S3, S4):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    assert centerless_char_criterion(A3) == (True, True)
    V = next(s for s in normal_subgroups(S4) if s.order == 4)
    assert centerless_char_criterion(V) == (True, True)


def test_centerless_char_criterion_rejects_centered(Z4):
    from algcomplete.groups import trivial_subgroup

    with pytest.raises(CenterNonTrivial):
        centerless_char_criterion(trivial_subgroup(Z4))


def test_char_simple_audit_rejects_abelian(Z4):
    with pytest.raises(AbelianInput):
        char_simple_audit(Z4)


def test_char_simple_audit_rejects_s4(S4):
    with pytest.raises(NotCharacteristicallySimple):
        char_simple_audit(S4)


def test_char_simple_audit_s3(S3):
    # S3 is not characteristically simple (A3 is characteristic)
    with pytest.raises(NotCharacteristicallySimple):
        char_simple_audit(S3)


def test_implication_audit_consistency(Z2, S3, Z4):
    uni = small_universe()
    for G in (Z2, S3, Z4):
        aud = implication_audit(G, 2 * G.order, uni, "small")
        assert aud.violations == ()
    audZ2 = implication_audit(Z2, 4, uni, "small")
    assert audZ2.oracle_proto.flag and not audZ2.oracle_complete.flag


def test_implication_audit_witness_with_unnamed_cokernels(monkeypatch):
    # A4 and Z12 both print as "order-12"; Z12's action on Z3 refutes proto
    A4 = FiniteGroup(alternating(4).table)
    Z12 = FiniteGroup(cyclic(12).table)
    real = completeness.oracle_completeness
    checked = []

    def checking(G, mode, bound, universe, *args):
        if mode == "complete":
            for Y in universe:
                validate_table(Y.table)
            checked.extend(universe)
        return real(G, mode, bound, universe, *args)

    monkeypatch.setattr(completeness, "oracle_completeness", checking)
    aud = implication_audit(cyclic(3), 12, [A4, Z12])
    assert not aud.oracle_proto.flag
    assert aud.oracle_proto.witness["cokernel"] == "order-12"
    assert [Y.order for Y in checked] == [12, 12, 36]
    assert aud.violations == ()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 8, 9]))
def test_strong_iff_proto_and_centerless_cyclic(n):
    G = cyclic(n)
    r = classify_completeness(G)
    assert r.strong_complete == (r.proto_complete and r.center_order == 1)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]))
def test_strong_iff_proto_and_centerless_dihedral(n):
    r = classify_completeness(dihedral(n))
    assert r.strong_complete == (r.proto_complete and r.center_order == 1)
