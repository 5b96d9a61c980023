import pickle
import random
import tracemalloc
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.catalog import cyclic, dicyclic, dihedral, symmetric
from algcomplete.commutators import center, centralizer
from algcomplete.completeness import classify_completeness
from algcomplete.errors import SearchBudgetExceeded, TableInvalid
from algcomplete.groups import (
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    Subgroup,
    _Budget,
    direct_product,
    group_from_permutations,
    is_isomorphic,
    iter_hom_images,
    normal_subgroups,
)
from algcomplete.automorphisms import (
    AutomorphismGroup,
    automorphism_group,
    conjugation_indices,
    conjugation_morphism,
    inner_subgroup,
    outer_quotient,
    relative_classifier,
)
from conftest import holomorph_generators, relabel

# independently known automorphism group orders
KNOWN_AUT_ORDERS = {
    ("cyclic", 1): 1,
    ("cyclic", 2): 1,
    ("cyclic", 3): 2,
    ("cyclic", 4): 2,
    ("cyclic", 5): 4,
    ("cyclic", 6): 2,
    ("cyclic", 8): 4,
    ("cyclic", 12): 4,
    ("dihedral", 2): 6,
    ("dihedral", 3): 6,
    ("dihedral", 4): 8,
    ("dihedral", 5): 20,
    ("dihedral", 6): 12,
    ("symmetric", 3): 6,
    ("symmetric", 4): 24,
    ("dicyclic", 2): 24,
}

MAKERS = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric, "dicyclic": dicyclic}


@pytest.mark.parametrize("kind,n", sorted(KNOWN_AUT_ORDERS))
def test_automorphism_group_orders(kind, n):
    G = MAKERS[kind](n)
    assert automorphism_group(G).order == KNOWN_AUT_ORDERS[(kind, n)]


def test_identity_is_index_zero(S4):
    aut = automorphism_group(S4)
    assert aut.perms[0].tolist() == list(range(24))
    assert aut.element_order(0) == 1


def _perm_order(p) -> int:
    """Reference: the lcm of the cycle lengths of the permutation p."""
    n = len(p)
    seen = [False] * n
    out = 1
    for i in range(n):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        out = lcm(out, ln)
    return out


def test_element_orders_match_the_cycle_lengths(catalog, Hol17):
    for G in catalog + (Hol17,):
        aut = automorphism_group(G)
        expected = [_perm_order(p) for p in aut.perms.tolist()]
        assert [aut.element_order(i) for i in range(aut.order)] == expected, G.name


def test_mul_matches_python_composition(catalog):
    rnd = random.Random(17)
    for G in catalog:
        aut = automorphism_group(G)
        rows = aut.perms.tolist()
        pairs = [(rnd.randrange(aut.order), rnd.randrange(aut.order)) for _ in range(50)]
        for i, j in pairs:
            composed = [rows[i][x] for x in rows[j]]
            assert aut.mul(i, j) == rows.index(composed), G.name


def test_ops_interface_matches_carrier(S3):
    aut = automorphism_group(S3)
    carrier = aut.carrier
    for i in range(aut.order):
        assert aut.element_order(i) == carrier.element_order(i)
        for j in range(aut.order):
            assert aut.mul(i, j) == carrier.mul(i, j)
        inverse = aut.index_of_perm(np.argsort(aut.perms[i]))
        assert aut.mul(i, inverse) == aut.mul(inverse, i) == 0


def test_aut_s3_is_s3(S3):
    assert is_isomorphic(automorphism_group(S3).carrier, S3) is not None


def test_conjugation_kernel_is_center(S4, Z4, Z2xS3):
    for G in (S4, Z4, Z2xS3):
        c = conjugation_morphism(G)
        assert c.kernel().elements == center(G).elements


def test_inner_subgroup_is_normal_in_aut():
    for G in (symmetric(4), dihedral(4), dicyclic(2)):
        assert inner_subgroup(G).is_normal()


def test_outer_quotients():
    Q, proj = outer_quotient(cyclic(4))
    assert Q.order == 2
    Q, proj = outer_quotient(symmetric(4))
    assert Q.order == 1
    Q, proj = outer_quotient(dicyclic(2))  # Out(Q8) = S3
    assert Q.order == 6
    assert proj.is_surjective


def test_relative_classifier_a3_s3(S3):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    rc = relative_classifier(A3)
    # every automorphism of S3 preserves A3, so the carrier is all of Aut(S3)
    assert rc.carrier.order == 6
    assert rc.q2.is_injective and rc.q2.is_surjective
    assert not rc.q1.is_injective and rc.q1.is_surjective


def test_relative_classifier_q1_injective_when_centralizer_trivial(S4):
    A4 = next(s for s in normal_subgroups(S4) if s.order == 12)
    assert centralizer(A4).order == 1
    rc = relative_classifier(A4)
    assert rc.q1.is_injective


def test_relative_classifier_center_subgroup(Z2xS3):
    Z = center(Z2xS3)
    rc = relative_classifier(Z)
    # Aut(Z2) is trivial, so q1 lands in the one-element group
    assert rc.q1.codomain.order == 1


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 7, 9, 10, 12]))
def test_cyclic_aut_order_is_totient(n):
    phi = sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)
    assert automorphism_group(cyclic(n)).order == phi


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([3, 4, 5, 6, 8]))
def test_conjugation_image_order(n):
    # |Inn(D_n)| = 2n / |Z(D_n)|
    G = dihedral(n)
    inn = inner_subgroup(G)
    assert inn.order == G.order // center(G).order


def reference_carrier_table(aut):
    """Independent reference: one composition and one dict lookup per pair."""
    return tuple(tuple(aut.mul(i, j) for j in range(aut.order)) for i in range(aut.order))


def test_carrier_matches_reference(catalog, Hol17):
    checked = 0
    for G in catalog + (Hol17,):
        aut = automorphism_group(G)
        if aut.order > 512:
            continue
        assert aut.carrier.table == reference_carrier_table(aut), G.name
        checked += 1
    assert checked == len(catalog)  # every catalog group but Z2^4, plus Hol(Z17)


def test_carrier_shares_its_int_objects(Hol17):
    table = automorphism_group(Hol17).carrier.table
    assert len(table) == Hol17.order
    assert len({id(v) for row in table for v in row}) <= 2 * Hol17.order


def test_carrier_of_a_list_missing_an_element_raises(S4):
    aut = automorphism_group(S4)
    broken = AutomorphismGroup(S4, np.delete(aut.perms, 7, axis=0))
    with pytest.raises(TableInvalid, match="not closed under composition"):
        broken.carrier


def full_enumeration(G):
    """The reference: every injective hom G -> G from one search, sorted."""
    return sorted(iter_hom_images(G, G, budget=_Budget(DEFAULT_SEARCH_BUDGET, "reference"),
                                  injective=True))


def assert_cut_searches_yield_prefixes(G):
    """A budget that runs out, mostly inside a level, ends the search after a prefix of its images."""
    budget = _Budget(DEFAULT_SEARCH_BUDGET, "reference")
    images = list(iter_hom_images(G, G, budget=budget, injective=True))
    nodes = budget.size - budget.left
    for size in (2, 57, 100, 1234, 5000):
        if size >= nodes:
            continue
        budget = _Budget(size, "reference")
        found = []
        with pytest.raises(SearchBudgetExceeded, match=f"exhausted after {size} nodes$"):
            for img in iter_hom_images(G, G, budget=budget, injective=True):
                found.append(img)
        assert budget.left == -1 and found and found == images[:len(found)], (G.name, size)


LARGE = {
    "D60": lambda: dihedral(60),
    "D99": lambda: dihedral(99),
    "Dic30": lambda: dicyclic(30),
    "Hol(Z17)": lambda: group_from_permutations(17, holomorph_generators(17), name="Hol(Z17)"),
    "Hol(Z23)": lambda: group_from_permutations(23, holomorph_generators(23), name="Hol(Z23)"),
    "Z2xS5": lambda: direct_product(cyclic(2), symmetric(5), name="Z2xS5")[0],
}


def assert_matches_full_enumeration(G):
    aut = automorphism_group(G)
    assert aut.perms.dtype == np.int16 and not aut.perms.flags.writeable
    assert aut.perms.tolist() == [list(p) for p in full_enumeration(G)], G.name


def test_stabilizer_chain_lists_the_builtin_groups_like_the_full_enumeration(catalog):
    rnd = random.Random(14)
    for G in catalog:
        assert_matches_full_enumeration(G)
        assert_matches_full_enumeration(relabel(G, rnd))


@pytest.mark.parametrize("name", sorted(LARGE))
def test_stabilizer_chain_lists_large_groups_like_the_full_enumeration(name):
    G = LARGE[name]()
    assert_matches_full_enumeration(G)
    assert_matches_full_enumeration(relabel(G, random.Random(name)))
    assert_cut_searches_yield_prefixes(G)


def test_equal_automorphism_groups_have_the_same_base_and_rows(S4, S3):
    aut = automorphism_group(S4)
    assert AutomorphismGroup(S4, aut.perms.copy()) == aut
    assert AutomorphismGroup(S4, aut.perms[::-1]) != aut
    assert AutomorphismGroup(S4, aut.perms[:-1]) != aut
    assert automorphism_group(S3) != aut


def test_unpickled_automorphism_group_is_read_only(S4):
    aut = automorphism_group(S4)
    G = pickle.loads(pickle.dumps(S4))
    again = G.__dict__["automorphism_group"]
    assert again.base is G and again == aut
    assert not again.perms.flags.writeable


def test_automorphism_group_copies_a_writable_array(S4):
    aut = automorphism_group(S4)
    rows = aut.perms.copy()
    given_rows = AutomorphismGroup(S4, rows)
    rows[1] = rows[2]
    assert not given_rows.perms.flags.writeable
    assert given_rows == aut


def test_automorphism_group_of_d99_peaks_small():
    # Aut(D99) is 5940 int16 rows of 198 images, 2.2 MiB: the cosets are gathered
    # into one array and the sort key is dropped before the sorted copy is made
    G = FiniteGroup.from_table(dihedral(99).table)
    tracemalloc.start()
    try:
        assert automorphism_group(G).order == 5940
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_conjugation_indices_match_index_of_perm(catalog, Hol17):
    for G in catalog + (Hol17,):
        aut = automorphism_group(G)
        expected = tuple(
            aut.index_of_perm([G.conj(g, x) for x in range(G.order)]) for g in range(G.order)
        )
        assert conjugation_indices(G) == expected, G.name


@settings(max_examples=25, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_relabelling_keeps_invariants_and_verdicts(catalog, data, rnd):
    G = data.draw(st.sampled_from(catalog))
    H = relabel(G, rnd)
    assert H.order_profile == G.order_profile
    expected, got = classify_completeness(G), classify_completeness(H)
    for field in ("center_order", "aut_order", "inn_order", "out_order",
                  "proto_complete", "strong_complete"):
        assert getattr(got, field) == getattr(expected, field), field
