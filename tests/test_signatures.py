"""One source per object: Aut(G), a subgroup's parent and a search domain's generators
are read off the object that holds them, never passed next to it."""

import dataclasses
import inspect

from algcomplete.automorphisms import is_characteristic, relative_classifier, subgroup_verdict
from algcomplete.catalog import dihedral, symmetric
from algcomplete.completeness import centerless_char_criterion
from algcomplete.extensions import enumerate_split_extensions, iter_actions
from algcomplete.groups import all_subgroups, normal_subgroups
from conftest import public_callables, public_members

# every parameter list that lost an argument restating another one
SIGNATURES = {
    "groups.quotient": ["N"],
    "groups.iter_hom_images": ["G", "cod", "allowed", "budget", "injective"],
    "groups.find_constrained_hom": ["G", "H", "allowed", "budget", "limit"],
    "commutators.centralizer": ["S"],
    "commutators.find_retraction": ["S"],
    "automorphisms.conjugation_indices": ["G"],
    "automorphisms.conjugation_morphism": ["G"],
    "automorphisms.inner_subgroup": ["G"],
    "automorphisms.outer_quotient": ["G"],
    "automorphisms.is_characteristic": ["S"],
    "automorphisms.subgroup_verdict": ["S"],
    "automorphisms.relative_classifier": ["S"],
    "completeness.centerless_char_criterion": ["S"],
    "extensions.GroupAction.create": ["B", "aut", "indices"],
    "extensions.semidirect_columns": ["a"],  # X's schedules are the domain's own first levels
}

# the dataclasses whose other objects are properties read off these fields
FIELDS = {
    "extensions.GroupAction": ["B", "aut", "indices"],  # X is aut.base
    "extensions.SplitExtension": ["kappa", "alpha", "beta", "action"],  # X, A, B
    "automorphisms.RelativeClassifier": ["m", "pairs", "q1", "q2"],  # S, X, carrier
    "automorphisms.AutomorphismGroup": ["base", "perms"],  # order
    "groups.HomDomain": ["order", "gens", "columns"],  # schedules
}


def test_no_public_callable_takes_an_automorphism_list_besides_its_group():
    """An action's automorphism group is the one place its X is held, so it alone takes `aut`."""
    takes_aut = {name for name, fn in public_callables()
                 if set(inspect.signature(fn).parameters) & {"aut", "aut_perms"}}
    assert takes_aut == {"extensions.GroupAction.create"}


def test_parameter_lists_read_each_object_once():
    found = {name: list(inspect.signature(fn).parameters)
             for name, fn in public_callables() if name in SIGNATURES}
    assert found == SIGNATURES


def test_dataclass_fields_restate_nothing():
    found = {name: [f.name for f in dataclasses.fields(cls)]
             for name, cls in public_members() if name in FIELDS}
    assert found == FIELDS


def test_derived_objects_are_the_held_ones(S4):
    A4 = next(S for S in normal_subgroups(S4) if S.order == 12)
    rc = relative_classifier(A4)
    assert rc.X is S4 and rc.S is rc.m.domain and rc.carrier is rc.q1.domain
    e = enumerate_split_extensions(symmetric(3), dihedral(2))[1]
    assert e.X is e.kappa.domain and e.A is e.kappa.codomain and e.B is e.alpha.codomain
    a = next(iter_actions(dihedral(2), symmetric(3)))
    assert a.X is a.aut.base


def test_verdicts_are_about_the_subgroup_s_own_parent(S4):
    """A Klein four subgroup of S4 that is not normal is not characteristic in S4."""
    V = next(S for S in all_subgroups(S4)
             if S.order == 4 and not S.is_normal() and all(
                 S4.element_order(x) <= 2 for x in S.elements))
    assert not is_characteristic(V)
    v = subgroup_verdict(V)
    assert (v.is_normal, v.is_characteristic) == (False, False)
    assert centerless_char_criterion(V) == (False, False)
