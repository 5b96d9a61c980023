"""Automorphism groups, conjugation, Out, characteristic subgroups and relative classifiers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NotNormal, SizeCap, TableInvalid, check_theorem
from .groups import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _Budget,
    iter_hom_images,
    quotient,
)
from .commutators import centralizer, find_retraction


@dataclass(frozen=True, eq=False)
class AutomorphismGroup:
    """Aut(base) as one read-only (|Aut| x |base|) integer array of permutations.

    Row i of `perms` is automorphism i as the images of base's elements, and
    `perms` is the only form of the automorphisms: every operation is a
    gather on it.  Composition is (f.g)(x) = f(g(x)); the rows are sorted
    lexicographically, which pins the identity at index 0.  An automorphism
    is known by its fingerprint, its images of the base's generators, and
    `_index` maps fingerprints back to row indices.  Two automorphism groups
    are equal when they have the same base and the same rows.  The Cayley
    table (`carrier`) is only materialized on demand because it is quadratic
    in the (possibly large) automorphism count; all searches can run against
    the group-ops interface (order/mul/element_order).  `perms` stays
    read-only: a caller's array that it can still write to is copied, and an
    unpickled one is locked again.
    """

    base: FiniteGroup
    perms: np.ndarray

    def __post_init__(self):
        if self.perms.flags.writeable:
            perms = self.perms.copy()
            perms.flags.writeable = False
            object.__setattr__(self, "perms", perms)

    def __setstate__(self, state):
        # numpy does not pickle the read-only flag
        self.__dict__.update(state)
        self.perms.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, AutomorphismGroup) and self.base == other.base
                and np.array_equal(self.perms, other.perms))

    def __hash__(self):
        return hash((self.base, self.order))

    @property
    def order(self) -> int:
        return len(self.perms)

    @cached_property
    def _fingerprints(self) -> np.ndarray:
        """Row i holds automorphism i's images of the base's generators."""
        return self.perms[:, list(self.base.generators)]

    @cached_property
    def _keys(self) -> list[tuple[int, ...]]:
        """Row i's fingerprint as a tuple of ints."""
        return list(map(tuple, self._fingerprints.tolist()))

    @cached_property
    def _index(self) -> dict:
        """Each element's index by its fingerprint."""
        return {f: i for i, f in enumerate(self._keys)}

    def index_of_perm(self, p) -> int:
        return self._index[tuple(p[g] for g in self.base.generators)]

    @cached_property
    def _inverse_fingerprints(self) -> np.ndarray:
        """Entry (f, j) is f^-1 of the base's generator j."""
        n, size = self.perms.shape
        inverses = np.empty_like(self.perms)
        inverses[np.arange(n)[:, None], self.perms] = np.arange(size, dtype=self.perms.dtype)
        return inverses[:, list(self.base.generators)]

    def conjugates(self, i: int) -> list[int]:
        """The index of f . p_i . f^-1 for every automorphism f, in row order.

        f p_i f^-1 sends generator g to f(p_i(f^-1(g))), so the fingerprints
        of all of them are one gather on `perms`.
        """
        images = np.take_along_axis(self.perms, self.perms[i][self._inverse_fingerprints], axis=1)
        return list(map(self._index.__getitem__, map(tuple, images.tolist())))

    def mul(self, i: int, j: int) -> int:
        """The index of p_i . p_j: row i of `perms` read at p_j's fingerprint."""
        item = self.perms.item
        return self._index[tuple([item(i, x) for x in self._keys[j]])]

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        """Every element's order, from the powers of all fingerprints at once.

        Power k of every row is one gather of `perms` at power k-1's
        fingerprints; a row's order is the first k whose fingerprint is the
        generators', since an automorphism fixing them is the identity.
        """
        gens = np.array(self.base.generators)
        orders = np.zeros(self.order, dtype=np.int64)
        cur, k = self._fingerprints, 1
        while not orders.all():
            orders[(orders == 0) & (cur == gens).all(axis=1)] = k
            cur, k = np.take_along_axis(self.perms, cur, axis=1), k + 1
        return tuple(orders.tolist())

    def element_order(self, i: int) -> int:
        return self._orders[i]

    @cached_property
    def carrier(self) -> FiniteGroup:
        """Cayley table of Aut(base) under composition.

        Entry (i, j) is f_i applied to f_j's fingerprint, looked up in
        `_index`.  A product whose fingerprint is not in the list raises
        TableInvalid, since then the list is not a group.
        """
        n = self.order
        if n > DEFAULT_ELEMENT_CAP:
            raise SizeCap(f"automorphism group order {n} exceeds cap {DEFAULT_ELEMENT_CAP}")
        index = self._index
        rows = []
        for i, composed in enumerate(self.perms[:, self._fingerprints]):
            row = list(map(index.get, map(tuple, composed.tolist())))
            if None in row:
                raise TableInvalid("automorphism list is not closed under composition",
                                   (i, row.index(None)))
            rows.append(tuple(row))
        name = f"Aut({self.base.name})" if self.base.name else None
        return FiniteGroup(tuple(rows), name)


def automorphism_group(G: FiniteGroup) -> AutomorphismGroup:
    """Aut(G), from the pointwise stabilizer chain of G's generators, rows sorted.

    The search has the fixed limit DEFAULT_SEARCH_BUDGET, so the result
    never depends on call order.  It is kept on G, so it lives as long as G
    does.
    """
    aut = G.__dict__.get("automorphism_group")
    if aut is None:
        perms = _stabilizer_chain(G)
        # big-endian rows compare bytewise in numeric order, so one sort of
        # the rows as opaque byte strings orders them lexicographically; the
        # key is freed before the sorted copy is made
        order = np.argsort(
            perms.astype(perms.dtype.newbyteorder(">")).view(f"V{perms.itemsize * G.order}").ravel())
        perms = perms[order]
        if not np.array_equal(perms[0], np.arange(G.order)):
            raise TableInvalid("automorphism search did not return the identity first")
        perms.flags.writeable = False
        aut = G.__dict__["automorphism_group"] = AutomorphismGroup(G, perms)
    return aut


def _stabilizer_chain(G: FiniteGroup) -> np.ndarray:
    """Every automorphism of G once, as the rows of an int16 array (int32 past 32767 elements).

    Stab_d, the automorphisms fixing the generators g_0..g_{d-1}, is the
    union of the cosets rep_c . Stab_{d+1}, one per point c of the orbit of
    g_d under Stab_d, with rep_c(g_d) = c; each coset is one gather
    rep_c[Stab_{d+1}].  Stab_{k-1} is one hom search with the earlier
    generators fixed, so only its last level has more than one candidate.
    For d < k-1 the orbit is closed under the automorphisms known to lie in
    Stab_d: the rows of Stab_{k-1}, the representatives searched on the
    levels below, and at d = 0 the inner automorphisms of the generators,
    which cost no search.  Each order-matching candidate c still outside
    the orbit gets one first-solution search for an automorphism sending
    g_d to c; a found one joins the automorphisms the orbit is closed under.
    All searches share one "automorphism search" budget and one search
    domain, so its schedules are built once.
    """
    n = G.order
    dtype = np.int16 if n < 2**15 else np.int32
    dom = G.hom_domain()
    gens = dom.gens
    budget = _Budget(DEFAULT_SEARCH_BUDGET, "automorphism search")
    fixed = {g: [g] for g in gens[:-1]}
    stab = np.array(list(iter_hom_images(dom, G, fixed, budget=budget, injective=True)), dtype=dtype)
    moves = [(row, row.tolist()) for row in stab]  # (array, list) pairs, each in Stab_d
    t, inverses, orders = G.table, G.inverses, G.element_orders
    for d in range(len(gens) - 2, -1, -1):
        g = gens[d]
        if d == 0:
            for h in gens:
                inner = [t[t[h][x]][inverses[h]] for x in range(n)]
                moves.append((np.array(inner, dtype=dtype), inner))
        reps = {g: np.arange(n, dtype=dtype)}
        _close_orbit(reps, moves)
        fixed = {x: [x] for x in gens[:d]}
        for c in range(n):
            if c in reps or orders[c] != orders[g]:
                continue
            fixed[g] = [c]
            img = next(iter_hom_images(dom, G, fixed, budget=budget, injective=True), None)
            if img is not None:
                reps[c] = np.array(img, dtype=dtype)
                moves.append((reps[c], list(img)))
                _close_orbit(reps, moves)
        cosets = np.empty((len(reps), *stab.shape), dtype=dtype)
        for coset, rep in zip(cosets, reps.values()):
            np.take(rep, stab, out=coset)
        stab = cosets.reshape(-1, n)
    return stab


def _close_orbit(reps: dict, moves: list) -> None:
    """Close the orbit `reps` under the (array, list) automorphisms `moves`, in place.

    `reps` maps each orbit point to an automorphism sending the base point
    there; a point y = m(x) reached first from x gets m . rep_x, one gather.
    """
    orbit = list(reps)
    for x in orbit:
        for row, images in moves:
            y = images[x]
            if y not in reps:
                reps[y] = row[reps[x]]
                orbit.append(y)


def conjugation_morphism(G: FiniteGroup) -> GroupHom:
    """c_G: G -> Aut(G) carrier, g -> (x -> g x g^-1); kernel is the center."""
    return GroupHom(G, automorphism_group(G).carrier, conjugation_indices(G))


def conjugation_indices(G: FiniteGroup) -> tuple[int, ...]:
    """Images of c_G as indices into the rows of automorphism_group(G).perms, without the carrier.

    Only the fingerprint of each inner automorphism is computed: for each g,
    g x g^-1 for the generators x of G, one dict lookup per g.
    """
    index = automorphism_group(G)._index
    t = G.table
    gens = G.generators
    return tuple(
        index[tuple(t[row[x]][ig] for x in gens)] for row, ig in zip(t, G.inverses)
    )


def inner_subgroup(G: FiniteGroup) -> Subgroup:
    """Inn(G) = im(c_G), as a subgroup of the automorphism carrier."""
    return Subgroup(automorphism_group(G).carrier, tuple(sorted(set(conjugation_indices(G)))))


def outer_quotient(G: FiniteGroup):
    """Out(G) = Aut(G)/Inn(G) with the projection from the carrier."""
    Q, proj = quotient(inner_subgroup(G))
    if G.name:
        Q = FiniteGroup(Q.table, f"Out({G.name})")
        proj = GroupHom(proj.domain, Q, proj.image)
    return Q, proj


def is_characteristic(S: Subgroup) -> bool:
    """alpha(S) = S for every automorphism alpha of S's parent."""
    return bool(_preserves(automorphism_group(S.parent), S).all())


def _preserves(aut: AutomorphismGroup, S: Subgroup) -> np.ndarray:
    """Whether each automorphism maps S into itself, from one gather of `perms`."""
    mask = np.zeros(S.parent.order, dtype=bool)
    mask[list(S.elements)] = True
    return mask[aut.perms[:, list(S.elements)]].all(axis=1)


@dataclass(frozen=True)
class SubgroupVerdict:
    is_normal: bool
    is_characteristic: bool
    split_retraction: Optional[GroupHom]


def subgroup_verdict(S: Subgroup) -> SubgroupVerdict:
    """Normality, characteristicity and split-retraction verdicts for S in its parent."""
    normal = S.is_normal()
    char = is_characteristic(S)
    retr = find_retraction(S)
    check_theorem(normal or not char, S.parent.name or f"order-{S.parent.order}",
                  "a characteristic subgroup is normal")
    return SubgroupVerdict(normal, char, retr)


@dataclass(frozen=True)
class RelativeClassifier:
    """Pairs (theta, phi) in Aut(S) x Aut(X) agreeing along the inclusion m: S -> X."""

    m: GroupHom
    pairs: tuple[tuple[int, int], ...]
    q1: GroupHom
    q2: GroupHom

    @property
    def S(self) -> FiniteGroup:
        return self.m.domain

    @property
    def X(self) -> FiniteGroup:
        return self.m.codomain

    @property
    def carrier(self) -> FiniteGroup:
        return self.q1.domain


def relative_classifier(S: Subgroup) -> RelativeClassifier:
    """The classifier of the normal inclusion of S in its parent G, with its two projections.

    The carrier consists of the pairs (theta, phi) with phi restricting to
    theta on S; q2 is injective by construction, and q1 is checked to be
    injective whenever the centralizer of S in G is trivial.
    """
    if not S.is_normal():
        raise NotNormal("relative classifier requires a normal subgroup")
    G = S.parent
    Sg, incl = S.as_group()
    autS = automorphism_group(Sg)
    autX = automorphism_group(G)
    local = np.zeros(G.order, dtype=np.intp)
    local[list(S.elements)] = np.arange(S.order)
    rows = np.flatnonzero(_preserves(autX, S))
    thetas = local[autX.perms[np.ix_(rows, S.elements)]].tolist()
    pairs = [(autS.index_of_perm(theta), j) for theta, j in zip(thetas, rows.tolist())]
    pairs.sort()
    index = {pr: k for k, pr in enumerate(pairs)}
    table = tuple(
        tuple(index[(autS.mul(a1, b1), autX.mul(a2, b2))] for (b1, b2) in pairs)
        for (a1, a2) in pairs
    )
    carrier = FiniteGroup(table, name=f"[{Sg.name or 'S'},{G.name or 'X'}]")
    q1 = GroupHom(carrier, autS.carrier, tuple(p[0] for p in pairs))
    q2 = GroupHom(carrier, autX.carrier, tuple(p[1] for p in pairs))
    check_theorem(q2.is_injective, carrier.name, "q2 is injective")
    check_theorem(centralizer(S).order > 1 or q1.is_injective, carrier.name,
                  "q1 is injective when the centralizer of S is trivial")
    return RelativeClassifier(incl, tuple(pairs), q1, q2)
