"""Node budgets: five entry points take one, every other search has a fixed, labelled limit."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import algcomplete
from algcomplete import automorphisms, commutators, completeness, extensions, groups
from algcomplete.automorphisms import automorphism_group
from algcomplete.catalog import alternating, cyclic, dihedral, symmetric
from algcomplete.commutators import find_retraction, subgroup_verdict
from algcomplete.completeness import decompose_proto_complete, one_step_check
from algcomplete.errors import SearchBudgetExceeded
from algcomplete.extensions import (
    classify_into_generic,
    enumerate_normal_embeddings,
    enumerate_split_extensions,
    iter_actions,
)
from algcomplete.groups import Subgroup, enumerate_homs, is_isomorphic

# The entry points through which the CLI or the library passes a caller's node budget.
BUDGETED = {
    "completeness.char_simple_audit",
    "completeness.classify_completeness",
    "completeness.implication_audit",
    "completeness.oracle_completeness",
    "completeness.split_extension_oracles",
}


def public_callables():
    """(module.qualname, callable) for every public function and method of the package."""
    for info in pkgutil.iter_modules(algcomplete.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"algcomplete.{info.name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth in vars(obj):
                    fn = getattr(obj, meth)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{info.name}.{attr}.{meth}", fn
            elif inspect.isfunction(obj):
                yield f"{info.name}.{attr}", obj


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


S3, Z2, Z3, V4 = symmetric(3), cyclic(2), cyclic(3), dihedral(2)

# (module whose limit is lowered, search, its arguments, the phase its error names);
# the arguments are built before the limit is lowered
SEARCHES = [
    (automorphisms, automorphism_group, lambda: (S3,), "automorphism search"),
    (extensions, all_actions, lambda: (Z2, Z3), "action enumeration"),
    (groups, enumerate_homs, lambda: (Z2, Z2), "hom enumeration"),
    (groups, is_isomorphic, lambda: (S3, S3), "isomorphism search"),
    (extensions, enumerate_split_extensions, lambda: (Z3, Z2), "action enumeration"),
    (extensions, classify_into_generic,
     lambda: (enumerate_split_extensions(Z3, Z2)[1],), "classifier search"),
    (extensions, enumerate_normal_embeddings, lambda: (Z2, [V4]), "normal embeddings"),
    (commutators, find_retraction, lambda: (S3, a3(S3)), "retraction search"),
    (commutators, subgroup_verdict,
     lambda: (S3, a3(S3), automorphism_group(S3).elems), "retraction search"),
    (completeness, decompose_proto_complete, lambda: (S3,), "section search"),
    (automorphisms, one_step_check, lambda: (S3,), "automorphism search"),
    (completeness, one_step_check, lambda: (S3,), "section search"),
]


@pytest.mark.parametrize(
    "module, search, make_args, phase", SEARCHES,
    ids=[f"{m.__name__.rsplit('.', 1)[1]}-{s.__name__}" for m, s, _, _ in SEARCHES],
)
def test_exhausted_search_names_its_phase(monkeypatch, module, search, make_args, phase):
    monkeypatch.setattr(automorphisms, "_AUT_CACHE", {})
    args = make_args()
    monkeypatch.setattr(module, "DEFAULT_SEARCH_BUDGET", 0)
    with pytest.raises(SearchBudgetExceeded, match=f"^{phase}: hom search node budget exhausted$"):
        search(*args)


def test_automorphism_group_does_not_depend_on_call_order(monkeypatch):
    A5 = alternating(5)
    monkeypatch.setattr(automorphisms, "_AUT_CACHE", {})
    cold = automorphism_group(A5)
    assert automorphism_group(A5) is cold and len(cold.elems) == 120
    monkeypatch.setattr(automorphisms, "_AUT_CACHE", {})
    assert automorphism_group(A5).elems == cold.elems


def test_deleted_options_stay_deleted():
    """No public callable takes an element cap, extra audit factors or a recursion switch."""
    for name, fn in public_callables():
        params = set(inspect.signature(fn).parameters)
        assert not params & {"cap", "factors", "check_derivation_algebra"}, name
    assert [f.name for f in dataclasses.fields(completeness.ClassificationReport)] == [
        "name", "order", "center_order", "aut_order", "inn_order", "out_order",
        "proto_complete", "proto_section", "strong_complete",
    ]
