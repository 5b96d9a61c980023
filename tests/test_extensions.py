import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.catalog import cyclic, dicyclic, dihedral, symmetric
from algcomplete.commutators import embedding_retraction, find_retraction
from algcomplete.errors import SizeCap, TableInvalid
from algcomplete.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _Budget,
    direct_product,
    is_isomorphic,
    normal_subgroups,
)
from algcomplete.automorphisms import automorphism_group
from algcomplete.extensions import (
    GroupAction,
    SplitExtension,
    classify_into_generic,
    enumerate_normal_embeddings,
    enumerate_split_extensions,
    holonomy,
    iter_action_orbits,
    iter_actions,
    product_form_isomorphism,
    semidirect_columns,
    semidirect_product,
    trivial_action,
)


def test_invariants_of_semidirect(Z3, Z2):
    for e in enumerate_split_extensions(Z3, Z2):
        assert all(e.alpha(e.beta(b)) == b for b in range(2))
        assert e.kappa.is_injective
        assert e.kappa.image_subgroup().is_normal()
        assert set(e.kappa.image) == set(e.alpha.kernel().elements)


def test_array_built_groups_match_their_tuple_tables(Z3, Z2, V4):
    groups = [e.A for X, B in [(Z3, Z2), (V4, Z3), (cyclic(7), cyclic(6))]
              for e in enumerate_split_extensions(X, B)]
    groups.append(direct_product(symmetric(3), Z2)[0])
    assert len(groups) == 2 + 3 + 6 + 1
    for A in groups:
        assert A.np_table.dtype == np.int64
        assert np.array_equal(A.np_table, np.asarray(A.table))
        assert A.inverses == tuple(row.index(0) for row in A.table)


def test_create_still_rejects_a_non_section(Z3, Z2):
    e = enumerate_split_extensions(Z3, Z2)[1]
    not_section = GroupHom(Z2, e.A, (0, 1))  # lands in im(kappa), so alpha(beta(1)) = 0
    with pytest.raises(TableInvalid, match="beta is not a section"):
        SplitExtension.create(e.kappa, e.alpha, not_section, e.action)


@pytest.mark.parametrize("X, B", [(cyclic(3), cyclic(2)), (dihedral(2), cyclic(3)),
                                  (cyclic(7), cyclic(6)), (symmetric(3), cyclic(4)),
                                  (dicyclic(2), dihedral(2)), (cyclic(1), cyclic(3))],
                         ids=["Z3:Z2", "V4:Z3", "Z7:Z6", "S3:Z4", "Q8:V4", "1:Z3"])
def test_columns_match_the_semidirect_table(X, B):
    levels = X.hom_domain().schedules
    for a in iter_actions(B, X):
        e = semidirect_product(a)
        dom = semidirect_columns(a)
        gens = [e.kappa(x) for x in X.generators] + [e.beta(b) for b in B.generators]
        assert dom.order == e.A.order and dom.gens == tuple(gens)
        assert dom.columns == e.A.hom_domain(gens).columns
        assert dom.gen_orders() == tuple(e.A.element_order(g) for g in gens)
        assert dom.schedules == e.A.hom_domain(gens).schedules
        assert dom.schedules[:len(levels)] == levels  # kappa(x) = x: X's own first levels
        assert dom.schedules is dom.schedules  # built once per domain


def test_columns_reject_a_non_homomorphic_action(Z3):
    aut = automorphism_group(Z3)
    bad = GroupAction(Z3, aut, (0, 1, 1))  # a(1) a(1) is the identity, not a(2)
    with pytest.raises(TableInvalid, match="action is not a hom"):
        semidirect_columns(bad)
    with pytest.raises(TableInvalid, match="action is not a hom"):
        GroupAction.create(Z3, aut, (0, 1, 1))


def test_z3_by_z2_gives_z6_and_s3(Z3, Z2, S3):
    exts = enumerate_split_extensions(Z3, Z2)
    assert len(exts) == 2
    kinds = {(is_isomorphic(e.A, cyclic(6)) is not None,
              is_isomorphic(e.A, S3) is not None) for e in exts}
    assert kinds == {(True, False), (False, True)}


def test_trivial_actor_recovers_kernel(S4):
    e = semidirect_product(trivial_action(cyclic(1), S4))
    assert is_isomorphic(e.A, S4) is not None


def test_z2_on_z2_only_product(Z2):
    exts = enumerate_split_extensions(Z2, Z2)
    assert len(exts) == 1
    assert exts[0].A.is_abelian


def test_v4_by_z3_actions(V4, Z3):
    exts = enumerate_split_extensions(V4, Z3)
    assert len(exts) == 3
    nontrivial = [e for e in exts if not e.action.is_trivial]
    assert len(nontrivial) == 2
    A4 = next(s for s in normal_subgroups(symmetric(4)) if s.order == 12).as_group()[0]
    assert all(is_isomorphic(e.A, A4) is not None for e in nontrivial)


def test_conjugation_by_section_realizes_action(Z3, Z2):
    for e in enumerate_split_extensions(Z3, Z2):
        a = e.action
        for b in range(2):
            for x in range(3):
                lhs = e.A.conj(e.beta(b), e.kappa(x))
                assert lhs == e.kappa(a.apply(b, x))


def test_holonomy_orders():
    assert holonomy(cyclic(2)).A.order == 2
    assert holonomy(dihedral(2)).A.order == 24
    h = holonomy(cyclic(3))
    assert is_isomorphic(h.A, symmetric(3)) is not None


def test_holonomy_size_cap():
    with pytest.raises(SizeCap):
        holonomy(symmetric(4))  # 24 * 24 = 576 > 512


def test_classifier_roundtrip(Z3, Z2, V4):
    for X, B in [(Z3, Z2), (V4, Z3)]:
        for e in enumerate_split_extensions(X, B):
            u, v = classify_into_generic(e)
            assert v.image == e.action.indices


def test_classifier_on_holonomy_is_identity(Z3):
    h = holonomy(Z3)
    u, v = classify_into_generic(h)
    assert v.image == tuple(range(v.codomain.order))
    assert u.image == tuple(range(u.codomain.order))


def test_normal_embeddings_z2_into_z4(Z2, Z4):
    out = enumerate_normal_embeddings(Z2, [Z4])
    assert len(out) == 1
    Y, h = out[0]
    assert h.image == (0, 2)


def test_normal_embeddings_z3_into_s3(Z3, S3):
    out = enumerate_normal_embeddings(Z3, [S3])
    assert len(out) == 1
    assert sorted(set(out[0][1].image)) == [e for e in range(6) if S3.element_order(e) in (1, 3)]


def test_normal_embeddings_identity(S3):
    out = enumerate_normal_embeddings(S3, [S3])
    assert len(out) == 1
    assert out[0][1].is_bijective


def test_normal_embeddings_skip_non_normal(S3, Z2):
    # order-2 subgroups of S3 are not normal
    out = enumerate_normal_embeddings(Z2, [S3])
    assert out == []


def test_product_form_for_split_kernel(Z2xS3, S3):
    # Z2 x S3 as a split extension of S3 by Z2 (trivial action)
    sub = Subgroup.create(Z2xS3, range(6))
    S3g, incl = sub.as_group()
    e = enumerate_split_extensions(S3g, cyclic(2))[0]
    lam = find_retraction(Subgroup.create(e.A, e.kappa.image))
    r = GroupHom(e.A, e.X, tuple(lam.image))
    iso = product_form_isomorphism(e, r)
    assert iso.is_bijective


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(2, 3), (3, 4), (4, 3), (2, 5), (3, 3)]))
def test_action_count_is_hom_count(pair):
    n, m = pair
    B, X = cyclic(n), cyclic(m)
    actions = list(iter_actions(B, X))
    aut = automorphism_group(X)
    from algcomplete.groups import enumerate_homs

    assert len(actions) == len(enumerate_homs(B, aut.carrier))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(3, 2), (4, 2), (5, 4), (2, 2)]))
def test_semidirect_order_multiplies(pair):
    m, n = pair
    X, B = cyclic(m), cyclic(n)
    for a in iter_actions(B, X):
        assert semidirect_product(a).A.order == m * n


def test_normal_embeddings_need_no_automorphism_group(monkeypatch, Z2, V4):
    from algcomplete import automorphisms, extensions

    def broken(G):
        raise RuntimeError("bug in the automorphism search")

    monkeypatch.setattr(automorphisms, "automorphism_group", broken)
    monkeypatch.setattr(extensions, "automorphism_group", broken)
    fresh = FiniteGroup.from_table(V4.table)
    out = enumerate_normal_embeddings(Z2, [fresh])
    assert [h.image for Y, h in out] == [(0, 1), (0, 2), (0, 3)]
    assert "automorphism_group" not in fresh.__dict__


def _extend_to_hom(X, Y, gen_images):
    """The image array of the hom X -> Y sending X's generators to gen_images, or None."""
    img = [None] * X.order
    img[0] = 0
    frontier = [0]
    for x in frontier:
        for g, h in zip(X.generators, gen_images):
            y, v = X.mul(x, g), Y.mul(img[x], h)
            if img[y] is None:
                img[y] = v
                frontier.append(y)
            elif img[y] != v:
                return None
    return tuple(img)


def normal_embeddings_by_brute_force(X, Y):
    """Every injective hom with normal image, the first onto each image.

    The homs come from every tuple of generator images in lex order.
    """
    out, seen = [], set()
    for gen_images in itertools.product(range(Y.order), repeat=len(X.generators)):
        img = _extend_to_hom(X, Y, gen_images)
        if img is None or len(set(img)) != X.order:
            continue
        image = frozenset(img)
        if image in seen:
            continue
        seen.add(image)
        if all(Y.conj(y, s) in image for y in range(Y.order) for s in image):
            out.append(img)
    return out


def test_normal_embeddings_match_the_brute_force_images(catalog, Z2, V4):
    Z2_3 = direct_product(Z2, V4, name="Z2^3")[0]
    targets = [Y for Y in catalog if Y.order == 16]
    assert "G16.13" in [Y.name for Y in targets]  # Z2^4, |Aut| = 20,160
    for X in (Z2, V4, Z2_3):
        for Y in targets:
            got = [h.image for Z, h in enumerate_normal_embeddings(X, [Y])]
            assert got == normal_embeddings_by_brute_force(X, Y), (X.name, Y.name)
    G16_13 = next(Y for Y in targets if Y.name == "G16.13")
    assert len(enumerate_normal_embeddings(V4, [G16_13])) == 35  # the subgroups of order 4


def test_first_embedding_without_retraction_is_the_first_of_its_aut_class(catalog, Z2, V4):
    """An Aut(Y)-class of images has one verdict, and the first failure opens its class.

    So the first embedding without a retraction is the one a walk over one
    embedding per Aut(Y)-class of images meets first.
    """
    shared = 0  # failures whose class holds more than one image
    for X in (Z2, cyclic(3), V4, cyclic(4)):
        for Y in catalog:
            if Y.order > 16 or Y.order % X.order:
                continue
            out = enumerate_normal_embeddings(X, [Y])
            rows = automorphism_group(Y).perms.tolist()
            classes = [min(tuple(sorted(row[s] for s in set(h.image))) for row in rows)
                       for _, h in out]
            b = _Budget(10**6, "retraction search")
            splits = [embedding_retraction(h, b) is not None for _, h in out]
            verdicts = dict(zip(classes, splits))
            assert all(verdicts[c] == v for c, v in zip(classes, splits)), (X.name, Y.name)
            if False in splits:
                i = splits.index(False)
                assert classes.index(classes[i]) == i, (X.name, Y.name)
                shared += classes.count(classes[i]) > 1
    assert shared == 10


def test_semidirect_product_rejects_a_non_homomorphic_action(Z3):
    bad = GroupAction(Z3, automorphism_group(Z3), (0, 1, 1))
    with pytest.raises(TableInvalid, match="action is not a hom"):
        semidirect_product(bad)


def _is_hom_pairwise(a):
    """The law a(xy) = a(x) a(y) on every pair, by index arithmetic in Aut(X)."""
    B, aut, idx = a.B, a.aut, a.indices
    return idx[0] == 0 and all(
        aut.mul(idx[x], idx[y]) == idx[B.mul(x, y)] for x in range(B.order) for y in range(B.order)
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(cyclic(2), cyclic(3)), (dihedral(2), cyclic(5)), (cyclic(4), dihedral(2)),
                        (symmetric(3), dihedral(2)), (cyclic(3), cyclic(7))]),
       st.booleans(), st.randoms(use_true_random=False))
def test_action_check_matches_the_pairwise_law(pair, start_valid, rnd):
    B, X = pair
    aut = automorphism_group(X)
    if start_valid:
        idx = list(rnd.choice(list(iter_actions(B, X))).indices)
        if rnd.random() < 0.5:  # one entry off, the identity's included
            idx[rnd.randrange(B.order)] = rnd.randrange(aut.order)
    else:
        idx = [0] + [rnd.randrange(aut.order) for _ in range(B.order - 1)]
    a = GroupAction(B, aut, tuple(idx))
    if _is_hom_pairwise(a):
        a.check()
        assert semidirect_product(a).A.order == B.order * X.order
    else:
        with pytest.raises(TableInvalid):
            semidirect_product(a)


def _z2_4():
    V4 = dihedral(2)
    return direct_product(V4, V4, name="Z2^4")[0]  # |Aut| = 20,160, above the carrier cap


def _conjugate_by_hand(aut, f, i):
    """The index of f . p_i . f^-1, composed in Python."""
    p = aut.perms[i].tolist()
    f_inv = [0] * len(f)
    for x, y in enumerate(f):
        f_inv[y] = x
    return aut.index_of_perm([f[p[f_inv[x]]] for x in range(len(f))])


def _class_by_hand(a):
    """The generator images of f a f^-1 for every f in Aut(X)."""
    aut = a.aut
    return {tuple(_conjugate_by_hand(aut, f, a.indices[g]) for g in a.B.generators)
            for f in aut.perms.tolist()}


@pytest.mark.parametrize("X", [symmetric(3), dicyclic(2), _z2_4()], ids=["S3", "Q8", "Z2^4"])
def test_conjugates_match_composition(X):
    aut = automorphism_group(X)
    for i in sorted({0, 1, aut.order // 2, aut.order - 1}):
        expected = [_conjugate_by_hand(aut, f, i) for f in aut.perms.tolist()]
        assert aut.conjugates(i) == expected


def assert_orbit_representatives(B, X):
    """The yielded actions are the least of their classes, one per class, in iter_actions order."""
    gens = B.generators
    every = [a.indices for a in iter_actions(B, X)]
    reps = list(iter_action_orbits(B, X))
    assert [a.indices for a in reps] == [i for i in every if i in {a.indices for a in reps}]
    classes = [_class_by_hand(a) for a in reps]
    for a, cls in zip(reps, classes):
        assert tuple(a.indices[g] for g in gens) == min(cls)
    union = set().union(*classes)
    assert sum(map(len, classes)) == len(union)  # no two yielded actions are conjugate
    assert union == {tuple(i[g] for g in gens) for i in every}
    return len(reps), len(every)


@pytest.mark.parametrize("B, X, counts", [
    (cyclic(2), symmetric(3), (2, 4)),
    (cyclic(6), symmetric(3), (3, 6)),
    (symmetric(3), symmetric(3), (3, 10)),
    (dihedral(2), symmetric(3), (4, 10)),
    (cyclic(2), dihedral(4), (4, 6)),
    (dihedral(2), dihedral(4), (16, 28)),
    (cyclic(4), dihedral(4), (5, 8)),
    (cyclic(2), dicyclic(2), (3, 10)),
    (cyclic(3), dicyclic(2), (2, 9)),
    (dihedral(2), dicyclic(2), (11, 52)),
    (cyclic(2), _z2_4(), (3, 316)),
    (cyclic(3), _z2_4(), (3, 1233)),
], ids=["Z2/S3", "Z6/S3", "S3/S3", "V4/S3", "Z2/D4", "V4/D4", "Z4/D4",
        "Z2/Q8", "Z3/Q8", "V4/Q8", "Z2/Z2^4", "Z3/Z2^4"])
def test_action_orbits_cover_every_action(B, X, counts):
    assert assert_orbit_representatives(B, X) == counts


def test_action_orbits_of_s4_cover_every_action_over_the_catalog(catalog):
    S4 = next(G for G in catalog if G.name == "G24.14")
    reps, every = zip(*(assert_orbit_representatives(B, S4) for B in catalog))
    assert (sum(reps), sum(every)) == (937, 5340)
