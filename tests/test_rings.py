import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.errors import TableInvalid
from algcomplete.rings import (
    FiniteRing,
    ring_classify,
    ring_zn,
    subring,
    unitalization,
    zero_ring,
)


def test_zn_units():
    for n in range(1, 10):
        R = ring_zn(n)
        assert R.unit == (1 if n > 1 else 0)


def test_create_rejects_bad_distributivity():
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 1]]  # ok: this is Z/2, should pass
    FiniteRing.create(add, mul)
    bad_mul = [[1, 0], [0, 1]]  # 0*0=1 breaks absorption/distributivity
    with pytest.raises(TableInvalid):
        FiniteRing.create(add, bad_mul)


def test_associativity_witness_beyond_first_row_block():
    # rows 0..15 of the product are zero, so associativity holds for i < 16
    n = 20
    rnd = random.Random(5)
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[0 if i < 16 else rnd.randrange(n) for j in range(n)] for i in range(n)]
    M = np.asarray(mul)
    reference = tuple(int(x) for x in np.argwhere(M[M, :] != M[:, M])[0])
    assert reference[0] >= 16
    with pytest.raises(TableInvalid) as err:
        FiniteRing.create(add, mul)
    assert err.value.reason == "multiplication not associative"
    assert err.value.witness == reference


def test_create_memory_stays_below_cubic():
    # the unitalization of Z/12 has 144 elements: one int64 array of 144^3
    # entries is 24 MiB, the row-blocked checks need a fraction of that
    U = unitalization(ring_zn(12)).U
    tracemalloc.start()
    try:
        FiniteRing.create(U.add_table, U.mul_table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_zero_ring_has_no_unit():
    for n in (2, 3, 4):
        assert zero_ring(n).unit is None


def test_subring_of_z8():
    S = subring(ring_zn(8), [0, 2, 4, 6])
    assert S.order == 4
    assert S.unit is None
    # 2*2=4, 2*6=12=4, 6*6=36=4 in Z/8, relabeled by /2
    assert S.mul(1, 1) == 2


def test_subring_rejects_non_closed():
    with pytest.raises(TableInvalid):
        subring(ring_zn(8), [0, 1, 2])


def test_unitalization_is_unital():
    for R in (zero_ring(2), ring_zn(3), subring(ring_zn(8), [0, 2, 4, 6])):
        u = unitalization(R)
        assert u.U.unit is not None
        assert u.U.order == u.m * R.order
        # the kernel copy multiplies exactly like R
        for a in range(R.order):
            for b in range(R.order):
                assert u.U.mul(a, b) == R.mul(a, b)


def test_classify_zn_all_complete():
    for n in range(1, 13):
        rep = ring_classify(ring_zn(n))
        assert rep.has_unit and rep.complete and rep.strong_complete
        assert rep.unitalization_splits


def test_classify_zero_ring_refuted():
    rep = ring_classify(zero_ring(2))
    assert not rep.has_unit and not rep.complete
    assert not rep.unitalization_splits
    assert rep.unitalization_order == 4


def test_classify_even_subring_refuted():
    rep = ring_classify(subring(ring_zn(8), [0, 2, 4, 6]))
    assert not rep.has_unit and not rep.complete
    assert not rep.unitalization_splits


def test_flags_always_agree_with_unitality():
    rings = [ring_zn(n) for n in range(1, 9)] + [zero_ring(n) for n in (2, 3, 4)]
    rings.append(subring(ring_zn(8), [0, 2, 4, 6]))
    rings.append(subring(ring_zn(12), [0, 4, 8]))
    rings.append(subring(ring_zn(10), [0, 5]))  # unital: 5*5=25=5 is the unit
    for R in rings:
        rep = ring_classify(R)
        assert rep.complete == rep.has_unit == rep.proto_complete == rep.strong_complete


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 12))
def test_additive_exponent_of_zn(n):
    assert ring_zn(n).additive_exponent == n


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 8), st.integers(0, 7))
def test_smul_matches_repeated_addition(n, k):
    R = ring_zn(n)
    for a in range(n):
        assert R.smul(k, a) == (k * a) % n
