import collections
import json

import pytest

from algcomplete import catalog as catalog_module
from algcomplete.catalog import (
    alternating,
    build_catalog,
    cyclic,
    dicyclic,
    dihedral,
    resolve_catalog,
    symmetric,
)
from algcomplete.commutators import center
from algcomplete.errors import ConfigInvalid, SizeCap
from algcomplete.extensions import iter_actions, semidirect_product
from algcomplete.groups import FiniteGroup, is_isomorphic

# number of groups of each order 1..24, up to isomorphism (standard values)
GROUP_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15]


def test_builders_have_right_orders():
    assert cyclic(7).order == 7
    assert dihedral(6).order == 12
    assert dicyclic(3).order == 12
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert alternating(5).order == 60


def test_q8_is_not_dihedral():
    assert is_isomorphic(dicyclic(2), dihedral(4)) is None
    # but has the same order profile as... no: Q8 has a single involution
    prof = dict(dicyclic(2).order_profile)
    assert prof[2] == 1


def test_catalog_counts_match_literature(catalog):
    counts = collections.Counter(g.order for g in catalog)
    assert [counts.get(n, 0) for n in range(1, 25)] == GROUP_COUNTS
    assert len(catalog) == sum(GROUP_COUNTS)


def test_catalog_pairwise_non_isomorphic(catalog):
    by_order = collections.defaultdict(list)
    for g in catalog:
        by_order[g.order].append(g)
    for order, groups in by_order.items():
        if order > 16:
            continue  # keep the quadratic check affordable
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert is_isomorphic(groups[i], groups[j]) is None


def test_catalog_contains_standard_groups(catalog):
    for G in (symmetric(4), alternating(4), dihedral(6), dicyclic(4)):
        assert any(is_isomorphic(G, H) is not None for H in catalog if H.order == G.order)


def test_catalog_names_unique_and_deterministic(catalog):
    names = [g.name for g in catalog]
    assert len(set(names)) == len(names)
    again = build_catalog(24)
    assert [g.table for g in again] == [g.table for g in catalog]


def reference_catalog(max_order):
    """The closure rebuilt from every (X, B) pair in each round, until a round adds nothing."""
    pool = []

    def add(G):
        key = (G.order, G.order_profile, G.is_abelian, center(G).order)
        same = [H for H in pool if (H.order, H.order_profile, H.is_abelian,
                                    center(H).order) == key]
        if any(is_isomorphic(G, H) is not None for H in same):
            return False
        pool.append(G)
        return True

    for n in range(1, max_order + 1):
        add(cyclic(n))
    for n in range(2, max_order // 4 + 1):
        add(dicyclic(n))
    grew = True
    while grew:
        grew = False
        current = sorted(pool, key=lambda g: (g.order, g.name or ""))
        for X in current:
            for B in current:
                if X.order <= max_order // 2 and X.order * B.order <= max_order:
                    for a in iter_actions(B, X):
                        grew |= add(semidirect_product(a).A)
    out, counters = [], collections.Counter()
    for G in sorted(pool, key=lambda g: g.order):
        counters[G.order] += 1
        keep = G.name and ":" not in G.name and "x" not in G.name
        out.append(FiniteGroup(G.table, G.name if keep else f"G{G.order}.{counters[G.order]}"))
    return out


def test_catalog_matches_the_every_pair_closure(catalog):
    assert [(G.name, G.table) for G in catalog] == [
        (G.name, G.table) for G in reference_catalog(24)]


def test_catalog_builds_each_action_once(monkeypatch):
    built = collections.Counter()

    def recording(a, name=None):
        built[(a.X, a.B, a.indices)] += 1
        return semidirect_product(a, name)

    monkeypatch.setattr(catalog_module, "semidirect_product", recording)
    monkeypatch.setattr(catalog_module, "_CATALOG_CACHE", {})
    assert len(build_catalog(24)) == sum(GROUP_COUNTS)
    assert max(built.values()) == 1


def test_resolve_catalog_recipes():
    entries = [
        {"name": "Z6", "cyclic": 6},
        {"name": "K", "cayley": [[0, 1], [1, 0]]},
        {"name": "S3p", "permutations": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}},
        {"name": "Z6xK", "product": ["Z6", "K"]},
        {"name": "S3semi", "semidirect": {"kernel": "Z6", "actor": "K", "action": [0, 1]}},
        {"name": "Q", "quotient": {"parent": "Z6", "subgroup": [0, 2, 4]}},
    ]
    groups = resolve_catalog(entries)
    assert [g.order for g in groups] == [6, 2, 6, 12, 12, 2]
    assert is_isomorphic(groups[2], symmetric(3)) is not None
    assert is_isomorphic(groups[4], dihedral(6)) is not None


def test_resolve_catalog_rejects_duplicates():
    with pytest.raises(ConfigInvalid):
        resolve_catalog([{"name": "a", "cyclic": 2}, {"name": "a", "cyclic": 3}])


def test_resolve_catalog_rejects_unknown_reference():
    with pytest.raises(ConfigInvalid):
        resolve_catalog([{"name": "p", "product": ["x", "y"]}])


@pytest.mark.parametrize("build, n", [
    (cyclic, 513), (dihedral, 257), (dicyclic, 129), (symmetric, 6), (alternating, 7),
    (symmetric, 10**9),
])
def test_named_groups_over_the_element_cap_raise_size_cap(build, n):
    with pytest.raises(SizeCap, match="has more than 512 elements"):
        build(n)


def test_named_groups_at_the_element_cap_are_built():
    assert cyclic(512).order == 512 and dicyclic(128).order == 512
    assert alternating(6).order == 360 and symmetric(5).order == 120

