import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.errors import TableInvalid
from algcomplete.rings import (
    FiniteRing,
    Unitalization,
    _ring_retractions,
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


@pytest.mark.parametrize("add, mul, expected", [
    ([[0, 1], [1, 0]], [[0, 0], [0, 1.5]], ("entry is not an integer", (1, 1, 1.5))),
    ([[0, 1], [1, 0.0]], [[0, 0], [0, 1]], ("entry is not an integer", (1, 1, 0.0))),
    ([[0, 1], [1, 0]], [[0, 0], [0]], ("multiplication table shape mismatch", ())),
    ([[0, 1], [1, 0]], [[0, 0, 0], [0, 1, 0]], ("multiplication table shape mismatch", ())),
    ([[0, 1], [1, 0]], [[0, 0], [0, 2]], ("multiplication entry out of range", ())),
    ([[0, 1], [1, 0]], [[0, 0], [0, True]], ("entry is not an integer", (1, 1, True))),
    ([], [], ("no identity element", ())),
])
def test_create_reads_both_tables_as_integers(add, mul, expected):
    with pytest.raises(TableInvalid) as err:
        FiniteRing.create(add, mul)
    assert (err.value.reason, err.value.witness) == expected


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


# -- references: the tables and the retraction check, one entry at a time ------


def reference_unitalization(R):
    m = R.additive_exponent
    n = R.order
    size = m * n

    def add(x, y):
        a, r = divmod(x, n)
        b, s = divmod(y, n)
        return ((a + b) % m) * n + R.add(r, s)

    def mul(x, y):
        a, r = divmod(x, n)
        b, s = divmod(y, n)
        val = R.add(R.add(R.smul(a, s), R.smul(b, r)), R.mul(r, s))
        return ((a * b) % m) * n + val

    at = tuple(tuple(add(x, y) for y in range(size)) for x in range(size))
    mt = tuple(tuple(mul(x, y) for y in range(size)) for x in range(size))
    name = f"Z{m}|x{R.name}" if R.name else None
    return Unitalization(R, m, FiniteRing.create(at, mt, name))


def reference_retractions(u):
    R, m, U = u.R, u.m, u.U
    n = R.order
    out = []
    for e in range(n):
        img = tuple(R.add(R.smul(a, e), r) for a in range(m) for r in range(n))
        ok = all(
            img[U.mul(x, y)] == R.mul(img[x], img[y])
            for x in range(U.order)
            for y in range(U.order)
        )
        if ok and all(
            img[U.add(x, y)] == R.add(img[x], img[y])
            for x in range(U.order)
            for y in range(U.order)
        ):
            out.append(img)
    return out


REFERENCE_RINGS = (
    [ring_zn(n) for n in range(1, 13)]
    + [zero_ring(n) for n in (2, 3, 4, 6)]
    + [
        subring(ring_zn(8), [0, 2, 4, 6]),
        subring(ring_zn(12), [0, 4, 8]),
        subring(ring_zn(12), [0, 3, 6, 9]),
        subring(ring_zn(10), [0, 5]),
    ]
)


@pytest.mark.parametrize("R", REFERENCE_RINGS, ids=lambda R: R.name or f"subring-{R.order}")
def test_unitalization_and_retractions_match_the_reference(R):
    u, ref = unitalization(R), reference_unitalization(R)
    assert (u.m, u.U.name) == (ref.m, ref.U.name)
    assert u.U.add_table == ref.U.add_table
    assert u.U.mul_table == ref.U.mul_table
    assert _ring_retractions(u) == reference_retractions(ref)


def relabel_ring(R, new):
    """R on the labels new[i], with new[0] = 0."""
    n = R.order
    add, mul = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[new[a]][new[b]] = new[R.add(a, b)]
            mul[new[a]][new[b]] = new[R.mul(a, b)]
    return FiniteRing.create(add, mul, R.name)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(REFERENCE_RINGS), st.randoms(use_true_random=False))
def test_relabelling_keeps_every_ring_verdict(R, rnd):
    new = [0] + rnd.sample(range(1, R.order), R.order - 1)
    a, b = ring_classify(R), ring_classify(relabel_ring(R, new))
    assert b.unit == (None if a.unit is None else new[a.unit])
    fields = ("name", "order", "has_unit", "proto_complete", "complete", "strong_complete",
              "unitalization_splits", "unitalization_order")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
