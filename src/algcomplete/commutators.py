"""Huq-commutation, centers, centralizers and retractions of subgroups.

Bourn-normal and normal monomorphisms coincide for groups (Barr-exact
context), so the single "normal" predicate is `Subgroup.is_normal`.
"""

from __future__ import annotations

from typing import Optional

from .errors import CodomainMismatch, TableInvalid
from .groups import (
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    Subgroup,
    find_constrained_hom,
    full_subgroup,
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
    return centralizer(full_subgroup(G))


def centralizer(S: Subgroup) -> Subgroup:
    """C_G(S), the elements of S's parent G that commute with every element of S."""
    G = S.parent
    t = G.table
    elems = tuple(
        g for g in range(G.order) if all(t[g][s] == t[s][g] for s in S.elements)
    )
    return Subgroup(G, elems)


def embedding_retraction(h: GroupHom, budget: _Budget) -> Optional[GroupHom]:
    """Some hom r: Y -> X with r.h = id_X for the embedding h: X -> Y, or a verified None.

    Reuses the constrained hom search: the images of X's generators are
    forced to their preimages, the remaining generators of Y range over all
    of X.
    """
    X, Y = h.domain, h.codomain
    gens = greedy_generators(Y, seed=[h(x) for x in X.generators])
    found = find_constrained_hom(Y.hom_domain(gens), X, {h(x): [x] for x in range(X.order)},
                                 budget=budget)
    if not found:
        return None
    img = found[0]
    # the search fixes h(gens of X); that forces r.h = id
    if any(img[h(x)] != x for x in range(X.order)):
        raise TableInvalid("retraction search returned a map r with r.h != id")
    return GroupHom(Y, X, img)


def find_retraction(S: Subgroup) -> Optional[GroupHom]:
    """Some hom r: G -> S_as_group with r|S = id, G the parent of S, or a verified None."""
    b = _Budget(DEFAULT_SEARCH_BUDGET, "retraction search")
    return embedding_retraction(S.as_group()[1], b)
