"""Huq-commutation, centers, centralizers and subgroup predicates.

Bourn-normal and normal monomorphisms coincide for groups (Barr-exact
context), so only a single "normal" predicate is exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CodomainMismatch, NotASubgroup, TableInvalid
from .groups import (
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    Subgroup,
    find_constrained_hom,
    greedy_generators,
    _Budget,
)


def commutes(f: GroupHom, g: GroupHom) -> bool:
    """Huq-commutation of two maps into a common codomain.

    In groups this is elementwise commutation of the two images; when true
    the cooperator is the product map (a, b) -> f(a) g(b).
    """
    if f.codomain != g.codomain:
        raise CodomainMismatch("maps must share a codomain")
    X = f.codomain
    fim = sorted(set(f.image))
    gim = sorted(set(g.image))
    return all(X.table[a][b] == X.table[b][a] for a in fim for b in gim)


def center(G: FiniteGroup) -> Subgroup:
    """{z : zg = gz for all g}, the kernel of the conjugation morphism."""
    t = G.table
    n = G.order
    elems = tuple(z for z in range(n) if all(t[z][g] == t[g][z] for g in range(n)))
    return Subgroup(G, elems)


def centralizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """C_G(S); centralizer(G, G) coincides with center(G)."""
    if S.parent != G:
        raise NotASubgroup("subgroup belongs to a different parent")
    t = G.table
    elems = tuple(
        g for g in range(G.order) if all(t[g][s] == t[s][g] for s in S.elements)
    )
    return Subgroup(G, elems)


@dataclass(frozen=True)
class SubgroupVerdict:
    is_normal: bool
    is_characteristic: bool
    split_retraction: Optional[GroupHom]


def is_characteristic(G: FiniteGroup, S: Subgroup, aut_perms) -> bool:
    """alpha(S) = S for every automorphism (given as permutation arrays)."""
    eset = S._element_set
    return all(all(p[s] in eset for s in S.elements) for p in aut_perms)


def embedding_retraction(h: GroupHom, budget: _Budget) -> Optional[GroupHom]:
    """Some hom r: Y -> X with r.h = id_X for the embedding h: X -> Y, or a verified None.

    Reuses the constrained hom search: the images of X's generators are
    forced to their preimages, the remaining generators of Y range over all
    of X.
    """
    X, Y = h.domain, h.codomain
    gens = greedy_generators(Y, seed=[h(x) for x in X.generators])
    found = find_constrained_hom(Y, X, gens, {h(x): [x] for x in range(X.order)}, budget=budget)
    if not found:
        return None
    img = found[0]
    # the search fixes h(gens of X); that forces r.h = id
    if any(img[h(x)] != x for x in range(X.order)):
        raise TableInvalid("retraction search returned a map r with r.h != id")
    return GroupHom(Y, X, img)


def find_retraction(G: FiniteGroup, S: Subgroup) -> Optional[GroupHom]:
    """Some hom r: G -> S_as_group with r|S = id: the retraction of S's inclusion."""
    b = _Budget(DEFAULT_SEARCH_BUDGET, "retraction search")
    return embedding_retraction(S.as_group()[1], b)


def subgroup_verdict(G: FiniteGroup, S: Subgroup, aut_perms) -> SubgroupVerdict:
    """Normality, characteristicity and split-retraction verdicts for S <= G."""
    if S.parent != G:
        raise NotASubgroup("subgroup belongs to a different parent")
    normal = S.is_normal()
    char = is_characteristic(G, S, aut_perms)
    retr = find_retraction(G, S)
    if char and not normal:
        raise AssertionError("characteristic subgroup must be normal")
    return SubgroupVerdict(normal, char, retr)
