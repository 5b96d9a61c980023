"""Finite (not necessarily unital) rings and their completeness verdicts.

For rings, every completeness notion collapses to the existence of a
multiplicative identity: the unitalization embedding R -> Z_m |x R is
normal (an ideal) and splits as a ring map exactly when R is unital.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import TableInvalid
from .groups import FiniteGroup, first_mismatch, int_table, validate_table


@dataclass(frozen=True)
class FiniteRing:
    """Additive Cayley table (abelian group, zero at index 0) plus multiplication."""

    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    name: Optional[str] = None

    @staticmethod
    def create(add_table, mul_table, name: Optional[str] = None) -> "FiniteRing":
        """A ring on the two tables, each read once by `int_table`.

        The addition table must be an abelian group table (`validate_table`),
        and the multiplication table one of the same shape with entries in
        range, associative and distributive over the addition.
        """
        A = validate_table(add_table)
        n = len(A)
        if n == 0:
            raise TableInvalid("no identity element")
        try:
            M = int_table(mul_table)
        except TableInvalid as exc:
            if exc.reason != "table is not square":
                raise
            M = None  # ragged
        if M is None or M.shape != (n, n):
            raise TableInvalid("multiplication table shape mismatch")
        if not np.array_equal(A, A.T):
            raise TableInvalid("addition is not commutative")
        if M.min() < 0 or M.max() >= n:
            raise TableInvalid("multiplication entry out of range")
        # one law after the other, each over ROW_BLOCK rows of i at a time
        bad = first_mismatch(n, lambda rows: M[M[rows]], lambda rows: M[rows][:, M])
        if bad is not None:
            raise TableInvalid("multiplication not associative", bad)
        # left: i(j+k) = ij + ik; right: (i+j)k = ik + jk
        left = first_mismatch(
            n,
            lambda rows: M[rows][:, A],
            lambda rows: A[M[rows][:, :, None], M[rows][:, None, :]],
        )
        if left is not None:
            raise TableInvalid("left distributivity fails")
        right = first_mismatch(
            n,
            lambda rows: M[A[rows]],  # (i+j)k
            lambda rows: A[M[rows][:, None, :], M[None, :, :]],  # ik + jk
        )
        if right is not None:
            raise TableInvalid("right distributivity fails")
        R = FiniteRing(tuple(map(tuple, A.tolist())), tuple(map(tuple, M.tolist())), name)
        R.__dict__["np_add"] = A
        R.__dict__["np_mul"] = M
        return R

    @cached_property
    def np_add(self) -> np.ndarray:
        return np.asarray(self.add_table, dtype=np.int64)

    @cached_property
    def np_mul(self) -> np.ndarray:
        return np.asarray(self.mul_table, dtype=np.int64)

    @property
    def order(self) -> int:
        return len(self.add_table)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    @cached_property
    def additive_group(self) -> FiniteGroup:
        return FiniteGroup(self.add_table, f"({self.name},+)" if self.name else None)

    @cached_property
    def additive_exponent(self) -> int:
        from math import lcm

        g = self.additive_group
        return lcm(*[g.element_order(x) for x in range(self.order)])

    def smul(self, k: int, a: int) -> int:
        """Integer scalar multiple k*a in the additive group."""
        if a == 0:
            return 0
        out = 0
        for _ in range(k % self.additive_group.element_order(a)):
            out = self.add(out, a)
        return out

    @cached_property
    def unit(self) -> Optional[int]:
        """The two-sided multiplicative identity, if one exists."""
        for e in range(self.order):
            if all(self.mul(e, x) == x and self.mul(x, e) == x for x in range(self.order)):
                return e
        return None


def ring_zn(n: int) -> FiniteRing:
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteRing.create(add, mul, f"Z/{n}")


def zero_ring(n: int) -> FiniteRing:
    """Additive Z_n with xy = 0."""
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return FiniteRing.create(add, mul, f"zero({n})")


def subring(R: FiniteRing, elements) -> FiniteRing:
    """The ring on a subset closed under + and *, relabeled with 0 first."""
    elems = sorted(set(elements))
    assert elems[0] == 0
    local = {e: i for i, e in enumerate(elems)}
    for a in elems:
        for b in elems:
            if R.add(a, b) not in local or R.mul(a, b) not in local:
                raise TableInvalid("subset is not closed", (a, b))
    add = tuple(tuple(local[R.add(a, b)] for b in elems) for a in elems)
    mul = tuple(tuple(local[R.mul(a, b)] for b in elems) for a in elems)
    return FiniteRing.create(add, mul)


@dataclass(frozen=True)
class Unitalization:
    """U = Z_m x R with (a,r)(b,s) = (ab, a.s + b.r + rs).

    (a,r) is encoded as a*|R| + r, so the kernel inclusion r -> (0,r) is r -> r.
    """

    R: FiniteRing
    m: int
    U: FiniteRing


def _multiples(R: FiniteRing, m: int) -> np.ndarray:
    """K[a][r] = a.r for 0 <= a < m, each row the previous one plus r."""
    A = R.np_add
    ar = np.arange(R.order)
    K = np.zeros((m, R.order), dtype=np.int64)
    for a in range(1, m):
        K[a] = A[K[a - 1], ar]
    return K


def unitalization(R: FiniteRing) -> Unitalization:
    """Both tables of Z_m x R at once, from R's tables and its multiples a.r."""
    m = R.additive_exponent
    n = R.order
    A, M, K = R.np_add, R.np_mul, _multiples(R, m)
    a, r = np.divmod(np.arange(m * n), n)  # x = a*n + r
    a1, r1, a2, r2 = a[:, None], r[:, None], a[None, :], r[None, :]
    at = ((a1 + a2) % m) * n + A[r1, r2]
    # (a,r)(b,s) = (ab, a.s + b.r + rs)
    mt = ((a1 * a2) % m) * n + A[A[K[a1, r2], K[a2, r1]], M[r1, r2]]
    at.flags.writeable = mt.flags.writeable = False  # so `create` keeps them without a copy
    name = f"Z{m}|x{R.name}" if R.name else None
    return Unitalization(R, m, FiniteRing.create(at, mt, name))


def _ring_retractions(u: Unitalization) -> list[tuple[int, ...]]:
    """All ring maps l: U -> R with l((0,r)) = r, by exhausting l((1,0)).

    Any additive retraction is determined by e = l((1,0)): additivity gives
    l((a,r)) = a.e + r, and the multiplicative law then holds iff e is a
    two-sided identity of R.  The search exhausts every e in R and verifies
    both laws on all pairs of U, each as one array comparison, so the list
    is complete.
    """
    R, m, U = u.R, u.m, u.U
    A, M = R.np_add, R.np_mul
    K = _multiples(R, m)
    out = []
    for e in range(R.order):
        img = A[K[:, e]].ravel()  # img[a*n + r] = a.e + r
        if np.array_equal(img[U.np_mul], M[img[:, None], img[None, :]]) and np.array_equal(
            img[U.np_add], A[img[:, None], img[None, :]]
        ):
            out.append(tuple(img.tolist()))
    return out


@dataclass(frozen=True)
class RingReport:
    name: str
    order: int
    has_unit: bool
    unit: Optional[int]
    proto_complete: bool
    complete: bool
    strong_complete: bool
    unitalization_splits: bool
    unitalization_order: int


def ring_classify(R: FiniteRing) -> RingReport:
    """Unitality by exhaustive search, cross-checked against the unitalization.

    All completeness flags equal has_unit; the kernel inclusion into the
    unitalization is the canonical normal (ideal) embedding and must split
    as a ring map exactly when a unit exists.
    """
    has_unit = R.unit is not None
    u = unitalization(R)
    retractions = _ring_retractions(u)
    splits = bool(retractions)
    assert splits == has_unit, "unitalization splitting must match unitality"
    if has_unit:
        # the retraction family is exactly {a.e + r} for two-sided units e;
        # units are unique, so the retraction is too
        assert len(retractions) == 1
    return RingReport(
        name=R.name or f"ring-of-order-{R.order}",
        order=R.order,
        has_unit=has_unit,
        unit=R.unit,
        proto_complete=has_unit,
        complete=has_unit,
        strong_complete=has_unit,
        unitalization_splits=splits,
        unitalization_order=u.U.order,
    )
