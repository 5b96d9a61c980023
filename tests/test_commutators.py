import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.catalog import cyclic, dihedral, symmetric
from algcomplete.commutators import center, centralizer, commutes, find_retraction
from algcomplete.errors import CodomainMismatch
from algcomplete.groups import GroupHom, Subgroup, enumerate_homs, full_subgroup, normal_subgroups
from algcomplete.automorphisms import is_characteristic, subgroup_verdict


def test_center_of_symmetric_groups():
    assert center(symmetric(3)).order == 1
    assert center(symmetric(4)).order == 1
    assert center(cyclic(8)).order == 8


def test_center_of_product(Z2xS3):
    assert center(Z2xS3).order == 2


def test_centralizer_of_full_subgroup_is_center(S4):
    assert centralizer(full_subgroup(S4)).elements == center(S4).elements


def test_centralizer_of_a3_in_s3(S3):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    assert centralizer(A3).elements == A3.elements


def test_commutes_requires_common_codomain(S3, Z4):
    f = GroupHom.identity(S3)
    g = GroupHom.identity(Z4)
    with pytest.raises(CodomainMismatch):
        commutes(f, g)


def test_commuting_images(Z2xS3, Z2, S3):
    homs = enumerate_homs(Z2, Z2xS3)
    central = [h for h in homs if set(h.image) <= set(center(Z2xS3).elements)]
    f = central[-1]
    g = GroupHom.identity(Z2xS3)
    assert commutes(f, g)
    noncentral = [h for h in homs if not set(h.image) <= set(center(Z2xS3).elements)]
    assert all(not commutes(h, g) for h in noncentral)


def test_characteristic_vs_normal_in_d4():
    D4 = dihedral(4)
    normals = normal_subgroups(D4)
    # the rotation subgroup is characteristic; the two klein subgroups are
    # normal but swapped by an outer automorphism
    rot = next(s for s in normals if s.order == 4 and any(D4.element_order(e) == 4 for e in s.elements))
    assert is_characteristic(rot)
    kleins = [s for s in normals if s.order == 4 and s != rot]
    assert len(kleins) == 2
    assert all(not is_characteristic(s) for s in kleins)


def test_retraction_onto_direct_factor(Z2xS3):
    # the S3 factor occupies indices 0..5 in the product encoding
    sub = Subgroup.create(Z2xS3, range(6))
    assert find_retraction(sub) is not None


def test_no_retraction_onto_a3(S3):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    assert find_retraction(A3) is None


def test_subgroup_verdict_a3(S3):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    v = subgroup_verdict(A3)
    assert v.is_normal and v.is_characteristic and v.split_retraction is None


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]))
def test_center_of_cyclic_is_everything(n):
    G = cyclic(n)
    assert center(G).order == n


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]))
def test_dihedral_center(n):
    # D_n has trivial center for odd n, order 2 for even n
    assert center(dihedral(n)).order == (2 if n % 2 == 0 else 1)
