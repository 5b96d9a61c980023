"""Named group constructions and the shipped small-groups catalog.

The catalog of all groups of order <= 24 (up to isomorphism) is generated,
not hardcoded: seeds are the cyclic and dicyclic families, and the set is
closed under semidirect products that stay inside the order bound.  Member
counts are validated against the literature in the test suite, never
assumed by the engine.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigInvalid, SizeCap
from .groups import (
    DEFAULT_ELEMENT_CAP,
    FiniteGroup,
    Subgroup,
    direct_product,
    group_from_permutations,
    is_isomorphic,
    load_group,
    quotient,
    recipe_integer,
)
from .automorphisms import automorphism_group
from .commutators import center
from .extensions import GroupAction, iter_actions, semidirect_product


def _check_order(name: str, factors: Sequence[int]) -> None:
    """SizeCap if the product of `factors`, the order of group `name`, exceeds DEFAULT_ELEMENT_CAP.

    The product stops at the first partial product over the cap, so a huge
    index costs nothing.
    """
    order = 1
    for f in factors:
        order *= f
        if order > DEFAULT_ELEMENT_CAP:
            raise SizeCap(f"{name} has more than {DEFAULT_ELEMENT_CAP} elements")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ConfigInvalid("cyclic order must be >= 1")
    _check_order(f"Z{n}", [n])
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table, f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n."""
    if n < 1:
        raise ConfigInvalid("dihedral index must be >= 1")
    _check_order(f"D{n}", [2, n])
    if n == 1:
        return FiniteGroup(((0, 1), (1, 0)), "D1")
    if n == 2:
        table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        return FiniteGroup(table, "D2")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return group_from_permutations(n, [rot, flip], name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n; Dic_2 is the quaternion group Q8.

    Elements a^i b^j with a of order 2n, b^2 = a^n, b a b^-1 = a^-1;
    encoded as (i, j) -> 2*i + j.
    """
    if n < 2:
        raise ConfigInvalid("dicyclic index must be >= 2")
    _check_order(f"Dic{n}", [4, n])
    m = 2 * n

    def mul(e1, e2):
        i1, j1 = divmod(e1, 2)
        i2, j2 = divmod(e2, 2)
        if j1 == 0:
            i, j = (i1 + i2) % m, j2
        elif j2 == 0:
            i, j = (i1 - i2) % m, 1
        else:
            i, j = (i1 - i2 + n) % m, 0
        return 2 * i + j

    order = 4 * n
    table = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    name = "Q8" if n == 2 else f"Dic{n}"
    return FiniteGroup.from_table(table, name)


def symmetric(n: int) -> FiniteGroup:
    if n <= 1:
        return cyclic(1)
    _check_order(f"S{n}", range(2, n + 1))
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(n, gens, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n <= 2:
        return cyclic(1)
    _check_order(f"A{n}", range(3, n + 1))  # n!/2
    g1 = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [g1]
    elif n % 2 == 1:
        gens = [g1, tuple(list(range(1, n)) + [0])]
    else:
        gens = [g1, tuple([0] + list(range(2, n)) + [1])]
    return group_from_permutations(n, gens, name=f"A{n}")


_CATALOG_CACHE: dict[int, tuple[FiniteGroup, ...]] = {}


def build_catalog(max_order: int = 24) -> tuple[FiniteGroup, ...]:
    """All groups of order <= max_order up to isomorphism, deterministically.

    Seeds: cyclic Z1..Z_max and dicyclic Dic_n (the non-split members).
    Closure: semidirect products X : B over every action, while the product
    order fits.  Each round builds only the pairs with X or B found in the
    round before, since every other pair was built in an earlier round.  The
    result is sorted by (order, discovery index).
    """
    cached = _CATALOG_CACHE.get(max_order)
    if cached is not None:
        return cached
    pool: list[FiniteGroup] = []
    buckets: dict = {}  # cheap invariants -> the pool's groups that have them

    def add(G: FiniteGroup) -> bool:
        """Put G in the pool unless it holds an isomorphic group."""
        key = (G.order, G.order_profile, G.is_abelian, center(G).order)
        bucket = buckets.setdefault(key, [])
        if any(is_isomorphic(G, H) is not None for H in bucket):
            return False
        bucket.append(G)
        pool.append(G)
        return True

    for n in range(1, max_order + 1):
        add(cyclic(n))
    for n in range(2, max_order // 4 + 1):
        add(dicyclic(n))
    fresh = list(pool)
    while fresh:
        new = set(fresh)
        current = sorted(pool, key=lambda g: (g.order, g.name or ""))
        fresh = []
        for X in current:
            if X.order > max_order // 2:
                continue
            for B in current:
                if X.order * B.order > max_order:
                    continue
                if X not in new and B not in new:
                    continue
                for a in iter_actions(B, X):
                    A = semidirect_product(a).A
                    if add(A):
                        fresh.append(A)
    groups = sorted(pool, key=lambda g: g.order)
    renamed = []
    counters: dict[int, int] = {}
    for G in groups:
        k = counters.get(G.order, 0) + 1
        counters[G.order] = k
        name = G.name if G.name and ":" not in G.name and "x" not in G.name else None
        renamed.append(FiniteGroup(G.table, name or f"G{G.order}.{k}"))
    result = tuple(renamed)
    _CATALOG_CACHE[max_order] = result
    return result


# -- catalog files -------------------------------------------------------------


def resolve_catalog(entries: Sequence[dict]) -> list[FiniteGroup]:
    """Materialize a list of catalog entries; later recipes may name earlier ones."""
    named: dict[str, FiniteGroup] = {}
    out: list[FiniteGroup] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigInvalid(f"catalog entry {i} must be an object with a name")
        name = entry["name"]
        if name in named:
            raise ConfigInvalid(f"duplicate catalog name: {name}")
        try:
            G = _resolve_entry(entry, named)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"catalog entry {name!r}: {exc}") from None
        except KeyError as exc:
            raise ConfigInvalid(f"catalog entry {name!r}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"catalog entry {name!r}: malformed recipe: {exc}") from None
        G = FiniteGroup(G.table, name)
        named[name] = G
        out.append(G)
    return out


_NAMED = {"cyclic": cyclic, "dihedral": dihedral, "dicyclic": dicyclic,
          "symmetric": symmetric, "alternating": alternating}


def _resolve_entry(entry: dict, named: dict) -> FiniteGroup:
    if "cayley" in entry or "permutations" in entry:
        return load_group(entry)
    for key, build in _NAMED.items():
        if key in entry:
            return build(recipe_integer(entry[key], key))
    if "product" in entry:
        a, b = entry["product"]
        return direct_product(_lookup(named, a), _lookup(named, b))[0]
    if "semidirect" in entry:
        spec = entry["semidirect"]
        X = _lookup(named, spec["kernel"])
        B = _lookup(named, spec["actor"])
        aut = automorphism_group(X)
        a = GroupAction.create(B, X, aut, tuple(spec["action"]))
        return semidirect_product(a).A
    if "quotient" in entry:
        spec = entry["quotient"]
        parent = _lookup(named, spec["parent"])
        N = Subgroup.create(parent, spec["subgroup"])
        return quotient(parent, N)[0]
    raise ConfigInvalid("no recognized recipe")


def _lookup(named: dict, name: str) -> FiniteGroup:
    if name not in named:
        raise ConfigInvalid(f"catalog references unknown entry: {name}")
    return named[name]
