"""The batched level evaluator of the hom search against the per-candidate walk.

`groups.BATCH_LOOKUPS` picks the evaluator of each level into a FiniteGroup:
at infinity every level is walked candidate by candidate (the reference), at
1 every level is batched.  Both must yield the same images in the same
order and spend the same nodes, also when the budget runs out mid-level.
"""

import pytest
from hypothesis import given, settings, strategies as st

from algcomplete import groups
from algcomplete.catalog import cyclic, dicyclic, dihedral, symmetric
from algcomplete.completeness import classify_completeness
from algcomplete.errors import SearchBudgetExceeded
from algcomplete.extensions import iter_actions, semidirect_columns
from algcomplete.groups import (
    FiniteGroup,
    _Budget,
    direct_product,
    find_constrained_hom,
    group_from_permutations,
    iter_hom_images,
)

from conftest import holomorph_generators, relabel

WALK = float("inf")  # no level is batched
BATCH = 1  # every level into a FiniteGroup is batched


def fresh(G):
    """A copy of G without the automorphism group kept on G."""
    return FiniteGroup(G.table, G.name)


def automorphism_images(G, budget_size=10**7):
    """The images of Aut(G)'s search in yield order, and the nodes left."""
    b = _Budget(budget_size, "automorphism search")
    return list(iter_hom_images(G, G, budget=b, injective=True)), b.left


@pytest.fixture(scope="module")
def large_groups():
    Z2xS5, _, _ = direct_product(cyclic(2), symmetric(5), name="Z2xS5")
    return [
        dihedral(99),
        group_from_permutations(23, holomorph_generators(23), name="Hol(Z23)"),
        dicyclic(30),
        Z2xS5,
    ]


def test_automorphism_searches_match_the_walk(monkeypatch, catalog, large_groups):
    for G in list(catalog) + large_groups:
        runs = []
        for lookups in (WALK, groups.BATCH_LOOKUPS, BATCH):
            monkeypatch.setattr(groups, "BATCH_LOOKUPS", lookups)
            runs.append(automorphism_images(G))
        assert runs[0] == runs[1] == runs[2], G.name


def test_large_automorphism_levels_are_batched(monkeypatch, large_groups):
    """D99 and Hol(Z23) reach the batch at the default constant."""
    calls = []
    level = groups._LevelBatch.level
    monkeypatch.setattr(groups._LevelBatch, "level",
                        lambda self, *args: calls.append(args[0]) or level(self, *args))
    for G in large_groups[:2]:
        calls.clear()
        automorphism_images(G)
        assert calls, G.name


def test_section_searches_match_the_walk(monkeypatch, catalog):
    for G in catalog:
        reports = []
        for lookups in (WALK, BATCH):
            monkeypatch.setattr(groups, "BATCH_LOOKUPS", lookups)
            reports.append(classify_completeness(fresh(G)))
        assert reports[0] == reports[1], G.name


@pytest.mark.parametrize("kernel", ["G6.2", "Q8", "G20.4", "G24.14"])
@pytest.mark.parametrize("limit", [1, 2])
def test_retraction_searches_match_the_walk(monkeypatch, catalog, kernel, limit):
    named = {G.name: G for G in catalog}
    G = named[kernel]
    levels = G.hom_domain().schedules()
    fixed = {x: [x] for x in range(G.order)}
    for B in catalog:
        if B.order > 6:
            continue
        for a in iter_actions(B, G):
            dom = semidirect_columns(a, levels)
            runs = []
            for lookups in (WALK, BATCH):
                monkeypatch.setattr(groups, "BATCH_LOOKUPS", lookups)
                b = _Budget(10**7, "split-extension oracles")
                runs.append((find_constrained_hom(dom, G, allowed=fixed, budget=b, limit=limit),
                             b.left))
            assert runs[0] == runs[1], (kernel, B.name)


def images_until_exhausted(G, size):
    """The images yielded before a budget of `size` nodes runs out, and the nodes left."""
    b = _Budget(size, "automorphism search")
    found = []
    with pytest.raises(SearchBudgetExceeded, match=f"exhausted after {size} nodes$"):
        for img in iter_hom_images(G, G, budget=b, injective=True):
            found.append(img)
    return found, b.left


@pytest.mark.parametrize("size", [2, 57, 100, 1234, 5000])
def test_budget_runs_out_at_the_same_node_inside_a_batched_level(monkeypatch, size):
    """D99: 60 rotations at the walked first level, 99 reflections at the batched second."""
    D99 = dihedral(99)
    runs = []
    for lookups in (WALK, groups.BATCH_LOOKUPS, BATCH):
        monkeypatch.setattr(groups, "BATCH_LOOKUPS", lookups)
        runs.append(images_until_exhausted(D99, size))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1] == -1 and runs[0][0]


def test_batched_images_share_one_int_object_per_label(monkeypatch, Hol17):
    """Hol(Z17) has 272 elements, so most labels are not CPython's cached small ints."""
    monkeypatch.setattr(groups, "BATCH_LOOKUPS", BATCH)
    images, _ = automorphism_images(Hol17)
    assert len(images) == 272
    assert len({id(v) for img in images for v in img}) == Hol17.order


@settings(max_examples=25, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_relabelled_automorphism_searches_match_the_walk(catalog, data, rnd):
    G = relabel(data.draw(st.sampled_from([G for G in catalog if G.order > 2])), rnd)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for lookups in (WALK, BATCH):
            mp.setattr(groups, "BATCH_LOOKUPS", lookups)
            runs.append(automorphism_images(G))
    assert runs[0] == runs[1]
