"""Split extensions: semidirect products, holonomy, classifiers, enumerators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import SizeCap, TableInvalid, check_theorem
from .groups import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    HomDomain,
    _Budget,
    direct_product,
    int_table,
    iter_hom_images,
)
from .automorphisms import AutomorphismGroup, automorphism_group, conjugation_indices


@dataclass(frozen=True)
class GroupAction:
    """A homomorphism B -> Aut(X), stored as indices into the automorphism list.

    Storing indices instead of a GroupHom into the Aut carrier keeps actions
    usable when the carrier table would blow the element cap.  X is aut.base.
    """

    B: FiniteGroup
    aut: AutomorphismGroup
    indices: tuple[int, ...]

    @staticmethod
    def create(B: FiniteGroup, aut: AutomorphismGroup, indices) -> "GroupAction":
        """The action with the outside `indices`, read by `int_table` and checked."""
        a = GroupAction(B, aut, tuple(int_table(indices, ndim=1).tolist()))
        a.check()
        return a

    @property
    def X(self) -> FiniteGroup:
        return self.aut.base

    def check(self) -> np.ndarray:
        """Check that b -> a(b) is a homomorphism on the generators of B; raise TableInvalid.

        Returns q with q[b] = a(b^-1) as a permutation array of X.  The law
        a((g b)^-1) = a(b^-1) a(g^-1) is compared for one generator g and
        every b at once, as q[g b] = q[b] o q[g].
        """
        B, idx, n_aut = self.B, self.indices, self.aut.order
        if len(idx) != B.order:
            raise TableInvalid("action must have one entry per element of B", (len(idx),))
        bad = [i for i in idx if not 0 <= i < n_aut]
        if bad:
            raise TableInvalid("action index out of range", (bad[0],))
        if idx[0] != 0:
            raise TableInvalid("action must send identity to identity")
        q = self.aut.perms[[idx[b] for b in B.inverses]]
        for g in B.generators:
            if not np.array_equal(q[B.np_table[g]], q[:, q[g]]):
                raise TableInvalid("action is not a hom", (g,))
        return q

    def apply(self, b: int, x: int) -> int:
        return int(self.aut.perms[self.indices[b], x])

    @property
    def is_trivial(self) -> bool:
        return all(i == 0 for i in self.indices)


def trivial_action(B: FiniteGroup, X: FiniteGroup) -> GroupAction:
    return GroupAction(B, automorphism_group(X), (0,) * B.order)


def iter_actions(B: FiniteGroup, X: FiniteGroup) -> Iterator[GroupAction]:
    """All actions of B on X, lazily, in canonical order."""
    aut = automorphism_group(X)
    b = _Budget(DEFAULT_SEARCH_BUDGET, "action enumeration")
    for img in iter_hom_images(B, aut, budget=b):
        yield GroupAction(B, aut, img)


def iter_action_orbits(B: FiniteGroup, X: FiniteGroup) -> Iterator[GroupAction]:
    """The least action of each Aut(X)-conjugacy class, lazily, in `iter_actions` order.

    f in Aut(X) sends an action a to a'(b) = f a(b) f^-1, and phi(b, x) =
    (b, f(x)) is an isomorphism of the two semidirect products with phi
    kappa = kappa f, so r -> f^-1 r phi is a bijection of the retractions of
    their kernels.  Whether a retraction exists, whether it is unique, and
    the middle group up to isomorphism are therefore the same on a class.
    `iter_actions` yields in lex order on the images of B's generators, so
    the first member of a class it meets is the least: each yielded action
    puts the generator images of its whole class into a seen set, and every
    action in that set is skipped.
    """
    aut = automorphism_group(X)
    gens = B.generators
    seen: set = set()
    for a in iter_actions(B, X):
        key = tuple(a.indices[g] for g in gens)
        if key in seen:
            continue
        seen.update(zip(*(aut.conjugates(i) for i in key)))
        yield a


@dataclass(frozen=True)
class SplitExtension:
    """X --kappa--> A --alpha--> B with a section beta of alpha.

    Invariants (checked in `create`, which raises TableInvalid): alpha.beta =
    id_B, kappa injective, im(kappa) = ker(alpha) and is normal in A.  X, A
    and B are read off kappa and alpha.
    """

    kappa: GroupHom
    alpha: GroupHom
    beta: GroupHom
    action: Optional[GroupAction] = None

    @property
    def X(self) -> FiniteGroup:
        return self.kappa.domain

    @property
    def A(self) -> FiniteGroup:
        return self.kappa.codomain

    @property
    def B(self) -> FiniteGroup:
        return self.alpha.codomain

    @staticmethod
    def create(kappa: GroupHom, alpha: GroupHom, beta: GroupHom, action=None) -> "SplitExtension":
        X, A, B = kappa.domain, kappa.codomain, alpha.codomain
        if not (alpha.domain == A and beta.domain == B and beta.codomain == A):
            raise TableInvalid("kappa, alpha and beta do not compose")
        if any(alpha(beta(b)) != b for b in range(B.order)):
            raise TableInvalid("beta is not a section")
        if not kappa.is_injective:
            raise TableInvalid("kappa is not mono")
        ker = alpha.kernel()
        if tuple(sorted(set(kappa.image))) != ker.elements:
            raise TableInvalid("im(kappa) != ker(alpha)")
        if not ker.is_normal():
            raise TableInvalid("im(kappa) is not normal")
        return SplitExtension(kappa, alpha, beta, action)


def semidirect_product(a: GroupAction, name: Optional[str] = None) -> SplitExtension:
    """B acting on X, carrier B x X with (b,x)(b',x') = (bb', a(b'^-1)(x) x').

    Element (b,x) is encoded as b*|X| + x, so kappa(x) = x and the identity
    lands at index 0.  The table is assembled blockwise with numpy, and that
    array becomes the group's `np_table`; the convention makes conjugation by
    beta(b) realize the action on im(kappa).  The action is checked to be a
    homomorphism (`GroupAction.check`), which is what makes the table a group.
    """
    B, X = a.B, a.X
    nb, m = B.order, X.order
    n = nb * m
    if n > DEFAULT_ELEMENT_CAP:
        raise SizeCap(f"semidirect product order {n} exceeds cap {DEFAULT_ELEMENT_CAP}")
    xt = X.np_table
    # inner[b', x, x'] = X.table[a(b'^-1)(x)][x']
    inner = xt[a.check()]  # shape (nb, m, m)
    bm = B.np_table * m  # shape (nb, nb)
    full = bm[:, None, :, None] + np.transpose(inner, (1, 0, 2))[None, :, :, :]
    if name is None and B.name and X.name:
        name = f"{X.name}:{B.name}" if not a.is_trivial else f"{X.name}x{B.name}"
    A = FiniteGroup.from_array(full.reshape(n, n), name)
    kappa = GroupHom(X, A, tuple(range(m)))
    alpha = GroupHom(A, B, tuple(i // m for i in range(n)))
    beta = GroupHom(B, A, tuple(b * m for b in range(nb)))
    return SplitExtension.create(kappa, alpha, beta, a)


def semidirect_columns(a: GroupAction) -> HomDomain:
    """X : B as a hom-search domain on kappa(gens of X) + beta(gens of B), with no table.

    Each column comes straight from (b,x)(b',x') = (bb', a(b'^-1)(x) x'),
    with (b,x) encoded as b*|X| + x as in `semidirect_product`: kappa(x0)
    sends (b,x) to (b, x x0) and beta(b0) sends it to (b b0, a(b0^-1)(x)).
    That is O(|A|) memory per generator instead of the |A|^2 Cayley table.
    Since kappa(x) = x, its first search levels are X's own schedules.

    The split-extension invariants are checked on the generators, raising
    TableInvalid: beta is a section, kappa is injective, im(kappa) =
    ker(alpha), and N g = g N for N = im(kappa) and every generator g.  The
    action is checked to be a homomorphism, which is what makes these
    columns those of a group.
    """
    inverse_perms = a.check()
    B, X = a.B, a.X
    nb, m = B.order, X.order
    n = nb * m
    alpha = np.arange(n) // m
    kappa = np.arange(m)
    beta = np.arange(nb) * m
    bt, xt = B.np_table, X.np_table
    gens = list(X.generators) + [b0 * m for b0 in B.generators]  # kappa(x0) = x0, beta(b0) = b0 m
    cols = [(beta[:, None] + xt[:, x0]).ravel() for x0 in X.generators]
    for b0 in B.generators:
        cols.append((beta[bt[:, b0]][:, None] + inverse_perms[b0]).ravel())
    image = np.zeros(n, dtype=bool)
    image[kappa] = True
    if not np.array_equal(alpha[beta], np.arange(nb)):
        raise TableInvalid("beta is not a section")
    if np.count_nonzero(image) != m:
        raise TableInvalid("kappa is not mono")
    if not np.array_equal(image, alpha == 0):
        raise TableInvalid("im(kappa) != ker(alpha)")
    for g, col in zip(gens, cols):
        coset = np.zeros(n, dtype=bool)
        coset[col[kappa]] = True  # N g
        # g N is the fibre of alpha over alpha(g), since a(1) is the identity
        if not np.array_equal(coset, alpha == alpha[g]):
            raise TableInvalid("im(kappa) is not normal", (g,))
    return HomDomain(n, tuple(gens), tuple(c.tolist() for c in cols))


def holonomy(G: FiniteGroup) -> SplitExtension:
    """The generic split extension G -> Aut(G) |x G -> Aut(G).

    Built from the tautological action; the evaluation map p2(a, x) = a.c(x)
    into Aut(G) is verified to be a homomorphism restricting to the
    conjugation morphism along kappa; a failure raises TheoremCheckFailed.
    """
    aut = automorphism_group(G)
    if aut.order > DEFAULT_ELEMENT_CAP:
        raise SizeCap(f"holonomy base Aut of order {aut.order} exceeds carrier cap")
    carrier = aut.carrier
    a = GroupAction(carrier, aut, tuple(range(aut.order)))
    name = f"Hol({G.name})" if G.name else None
    e = semidirect_product(a, name=name)
    m = G.order
    cidx = conjugation_indices(G)
    p2 = GroupHom.create(
        e.A, carrier, tuple(aut.mul(i // m, cidx[i % m]) for i in range(e.A.order))
    )
    check_theorem(all(p2(e.kappa(x)) == cidx[x] for x in range(m)),
                  e.A.name or f"order-{e.A.order}",
                  "the evaluation map of the holonomy restricts to c along kappa")
    return e


def induced_action(e: SplitExtension) -> GroupAction:
    """The action b -> (conjugation by beta(b), transported along kappa)."""
    X, B = e.X, e.B
    aut = automorphism_group(X)
    local = {e.kappa(x): x for x in range(X.order)}
    A = e.A
    idx = []
    for b in range(B.order):
        g = e.beta(b)
        perm = tuple(local[A.conj(g, e.kappa(x))] for x in range(X.order))
        idx.append(aut.index_of_perm(perm))
    return GroupAction.create(B, aut, idx)


def classify_into_generic(e: SplitExtension) -> tuple[GroupHom, GroupHom]:
    """The unique morphism (u, v) from e into the generic extension of its kernel.

    v sends b to conjugation-by-beta(b) on im(kappa); u factors a as
    beta(alpha(a)) . kappa(x) and maps it to the corresponding holonomy pair.
    The terminality claim is checked by exhausting all kappa-compatible
    homomorphisms A -> Hol(X).
    """
    X, A, B = e.X, e.A, e.B
    act = induced_action(e)
    hol = holonomy(X)
    v = GroupHom.create(B, act.aut.carrier, act.indices)
    m = X.order
    local = {e.kappa(x): x for x in range(m)}
    u_img = []
    for a in range(A.order):
        b = e.alpha(a)
        x = local[A.mul(A.inv(e.beta(b)), a)]
        u_img.append(act.indices[b] * m + x)
    u = GroupHom.create(A, hol.A, tuple(u_img))
    label = f"{X.name or f'order-{m}'} -> A -> {B.name or f'order-{B.order}'}"
    check_theorem(all(u(e.kappa(x)) == hol.kappa(x) for x in range(m))
                  and all(hol.alpha(u(a)) == v(e.alpha(a)) for a in range(A.order))
                  and all(u(e.beta(b)) == hol.beta(v(b)) for b in range(B.order)),
                  label, "(u, v) is a morphism into the generic split extension")
    count = 0
    gens = [e.kappa(x) for x in X.generators] + [e.beta(b) for b in B.generators]
    forced = {e.kappa(x): [hol.kappa(x)] for x in range(m)}
    b = _Budget(DEFAULT_SEARCH_BUDGET, "classifier search")
    for img in iter_hom_images(A.hom_domain(gens), hol.A, forced, budget=b):
        up = GroupHom(A, hol.A, img)
        vp = tuple(hol.alpha(up(e.beta(bb))) for bb in range(B.order))
        if all(hol.alpha(up(a)) == vp[e.alpha(a)] for a in range(A.order)) and all(
            up(e.beta(bb)) == hol.beta(vp[bb]) for bb in range(B.order)
        ):
            count += 1
    check_theorem(count == 1, label,
                  f"the generic split extension is terminal (found {count} classifying morphisms)")
    return u, v


def enumerate_split_extensions(X: FiniteGroup, B: FiniteGroup) -> list[SplitExtension]:
    """One split extension per action of B on X, in canonical action order."""
    return [semidirect_product(a) for a in iter_actions(B, X)]


def enumerate_normal_embeddings(
    X: FiniteGroup, universe: Sequence[FiniteGroup]
) -> list[tuple[FiniteGroup, GroupHom]]:
    """Every injective hom X -> Y with normal image, over all Y in the universe, one per image.

    The first embedding that the search meets is kept for each normal image.
    Whether an embedding has a retraction depends only on its image, so no
    other embedding onto that image is needed.
    """
    out = []
    b = _Budget(DEFAULT_SEARCH_BUDGET, "normal embeddings")
    for Y in universe:
        if Y.order % X.order != 0:
            continue
        first = {}  # image -> the first embedding onto it, in search order
        for img in iter_hom_images(X, Y, budget=b, injective=True):
            first.setdefault(frozenset(img), img)
        homs = (GroupHom(X, Y, img) for img in first.values())
        out.extend((Y, h) for h in homs if h.image_subgroup().is_normal())
    return out


def product_form_isomorphism(e: SplitExtension, retraction: GroupHom) -> GroupHom:
    """<alpha, lambda>: A -> B x X for a retraction lambda of kappa, verified bijective.

    When the kernel is proto-complete this exhibits the extension as the
    product extension.
    """
    P, _, _ = direct_product(e.B, e.X)
    m = e.X.order
    img = tuple(e.alpha(a) * m + retraction(a) for a in range(e.A.order))
    iso = GroupHom.create(e.A, P, img)
    check_theorem(iso.is_bijective, e.A.name or f"order-{e.A.order}",
                  "a retraction of the kernel makes <alpha, lambda> an isomorphism onto B x X")
    return iso
