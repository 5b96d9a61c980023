"""Node budgets: five entry points take one, every other search has a fixed, labelled limit."""

import dataclasses
import inspect

import numpy as np
import pytest

from algcomplete import automorphisms, commutators, completeness, extensions, groups
from algcomplete.automorphisms import automorphism_group, subgroup_verdict
from algcomplete.catalog import alternating, cyclic, dihedral, symmetric
from algcomplete.commutators import embedding_retraction, find_retraction
from algcomplete.completeness import decompose_proto_complete, one_step_check
from algcomplete.errors import SearchBudgetExceeded
from algcomplete.extensions import (
    classify_into_generic,
    enumerate_normal_embeddings,
    enumerate_split_extensions,
    iter_actions,
)
from algcomplete.groups import (
    FiniteGroup,
    Subgroup,
    _Budget,
    direct_product,
    enumerate_homs,
    find_constrained_hom,
    is_isomorphic,
    iter_hom_images,
)
from conftest import public_callables

# The entry points through which the CLI or the library passes a caller's node budget.
BUDGETED = {
    "completeness.char_simple_audit",
    "completeness.classify_completeness",
    "completeness.implication_audit",
    "completeness.oracle_completeness",
    "completeness.split_extension_oracles",
}


def test_only_the_five_entry_points_take_an_integer_budget():
    """A `budget` that is a node count, not a search's own `_Budget` object."""
    takes_budget = set()
    for name, fn in public_callables():
        param = inspect.signature(fn).parameters.get("budget")
        if param is not None and "_Budget" not in str(param.annotation):
            takes_budget.add(name)
    assert takes_budget == BUDGETED


def a3(G):
    return Subgroup.create(G, [g for g in range(G.order) if G.element_order(g) in (1, 3)])


def all_actions(B, X):
    return list(iter_actions(B, X))


# (module whose limit is lowered, search, its arguments, the phase its error names);
# the arguments are built afresh, before the limit is lowered, so that no group
# brings an automorphism group computed in an earlier case
SEARCHES = [
    (automorphisms, automorphism_group, lambda: (symmetric(3),), "automorphism search"),
    (extensions, all_actions, lambda: (cyclic(2), cyclic(3)), "action enumeration"),
    (groups, enumerate_homs, lambda: (cyclic(2), cyclic(2)), "hom enumeration"),
    (groups, is_isomorphic, lambda: (symmetric(3), symmetric(3)), "isomorphism search"),
    (extensions, enumerate_split_extensions, lambda: (cyclic(3), cyclic(2)),
     "action enumeration"),
    (extensions, classify_into_generic,
     lambda: (enumerate_split_extensions(cyclic(3), cyclic(2))[1],), "classifier search"),
    (extensions, enumerate_normal_embeddings, lambda: (cyclic(2), [dihedral(2)]),
     "normal embeddings"),
    (commutators, find_retraction, lambda: (a3(symmetric(3)),), "retraction search"),
    (commutators, subgroup_verdict, lambda: (a3(symmetric(3)),), "retraction search"),
    (completeness, decompose_proto_complete, lambda: (symmetric(3),), "section search"),
    (automorphisms, one_step_check, lambda: (symmetric(3),), "automorphism search"),
    (completeness, one_step_check, lambda: (symmetric(3),), "section search"),
]


@pytest.mark.parametrize(
    "module, search, make_args, phase", SEARCHES,
    ids=[f"{m.__name__.rsplit('.', 1)[1]}-{s.__name__}" for m, s, _, _ in SEARCHES],
)
def test_exhausted_search_names_its_phase(monkeypatch, module, search, make_args, phase):
    args = make_args()
    monkeypatch.setattr(module, "DEFAULT_SEARCH_BUDGET", 0)
    with pytest.raises(SearchBudgetExceeded, match=f"^{phase}: hom search node budget exhausted after 0 nodes$"):
        search(*args)


def test_automorphism_group_does_not_depend_on_call_order():
    A5 = alternating(5)
    aut = automorphism_group(A5)
    assert automorphism_group(A5) is aut and len(aut.perms) == 120
    twin = FiniteGroup(A5.table, A5.name)
    again = automorphism_group(twin)
    assert again is not aut and np.array_equal(again.perms, aut.perms)


def automorphism_nodes(monkeypatch, G) -> int:
    """The nodes the automorphism search spends on a group whose Aut is not yet kept."""
    spent = []

    class Recording(groups._Budget):
        def __init__(self, n, phase):
            super().__init__(n, phase)
            spent.append(self)

    monkeypatch.setattr(automorphisms, "_Budget", Recording)
    automorphism_group(G)
    (budget,) = spent
    assert budget.phase == "automorphism search"
    return budget.size - budget.left


def test_automorphism_search_spends_few_nodes(monkeypatch):
    """Stabilizer cosets instead of one search through every automorphism."""
    V4 = direct_product(cyclic(2), cyclic(2))[0]
    Z2_4 = direct_product(V4, V4)[0]
    assert automorphism_nodes(monkeypatch, dihedral(99)) <= 200  # 5940 automorphisms
    assert automorphism_nodes(monkeypatch, Z2_4) <= 400  # 20160 automorphisms


def test_every_search_takes_a_labelled_budget():
    """No search runs without a budget object, and no budget object lacks a phase."""
    for fn in (iter_hom_images, find_constrained_hom, embedding_retraction):
        assert inspect.signature(fn).parameters["budget"].default is inspect.Parameter.empty
    assert inspect.signature(_Budget).parameters["phase"].default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        find_constrained_hom(cyclic(2), cyclic(2))


def test_deleted_options_stay_deleted():
    """No public callable takes an element cap, extra audit factors or a recursion switch,
    and the hom search has one level evaluator, with no switch to a second."""
    for name, fn in public_callables():
        params = set(inspect.signature(fn).parameters)
        assert not params & {"cap", "factors", "check_derivation_algebra"}, name
    assert not hasattr(groups, "BATCH_LOOKUPS") and not hasattr(groups, "_LevelBatch")
    assert [f.name for f in dataclasses.fields(completeness.ClassificationReport)] == [
        "name", "order", "center_order", "aut_order", "inn_order", "out_order",
        "proto_complete", "proto_section", "strong_complete",
    ]
