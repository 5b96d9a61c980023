"""Concrete finite groups: Cayley tables, subgroups, homomorphisms, searches.

Every group lives on element indices 0..n-1 with the identity pinned at
index 0, so homomorphism equality is plain tuple comparison.  All values
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    CodomainMismatch,
    ConfigInvalid,
    NotASubgroup,
    NotNormal,
    SearchBudgetExceeded,
    SizeCap,
    TableInvalid,
)

DEFAULT_ELEMENT_CAP = 512
DEFAULT_SEARCH_BUDGET = 5_000_000
ROW_BLOCK = 16  # rows of i per block when a law over triples is checked


def first_mismatch(n: int, lhs, rhs) -> Optional[tuple[int, ...]]:
    """The first index (i, j, k, ...) where the arrays lhs(rows) and rhs(rows) differ.

    Both sides are evaluated on ROW_BLOCK rows of i at a time (`rows` is a
    slice of range(n)), so a law over triples needs O(ROW_BLOCK * n^2)
    memory, not O(n^3).  Blocks run in order of i, so the result is the first
    mismatch in row-major order over the whole index range.  The table
    checks prove their laws on generators and scan only once a law is known
    to fail, to name its first witness.
    """
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        a, b = lhs(rows), rhs(rows)
        if not np.array_equal(a, b):
            bad = np.argwhere(a != b)[0]
            return (int(bad[0]) + start,) + tuple(int(x) for x in bad[1:])
    return None


def _table_fault(data, ndim: int) -> Optional[TableInvalid]:
    """The first fault of nested `data` as an ndim-cube of int64 integers, in row-major order.

    Every row at every level must have len(data) entries ("table is not
    square", witness: the row's index), and every entry must be an integer
    ("entry is not an integer") that fits in int64 ("entry out of range"),
    witness: the entry's index and value.  None if there is no fault.
    """
    n = len(data) if hasattr(data, "__len__") else -1

    def walk(x, idx: tuple) -> Optional[TableInvalid]:
        if len(idx) == ndim:
            v = x.item() if isinstance(x, np.generic) else x
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                return TableInvalid("entry is not an integer", idx + (v,))
            if not -(2**63) <= v < 2**63:
                return TableInvalid("entry out of range", idx + (v,))
            return None
        if isinstance(x, (str, bytes)) or not hasattr(x, "__len__") or len(x) != n:
            return TableInvalid("table is not square", idx)
        for i, y in enumerate(x):
            fault = walk(y, idx + (i,))
            if fault is not None:
                return fault
        return None

    return walk(data, ())


def _holds_bool(data, ndim: int) -> bool:
    """Whether the rectangular nested `data` has a bool entry, which numpy reads as 0 or 1.

    One pass of `type` over the entries, without a Python loop.
    """
    entries = data
    for _ in range(ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    kinds = set(map(type, entries))
    return bool in kinds or np.bool_ in kinds


def int_table(data, ndim: int = 2) -> np.ndarray:
    """Outside data as an int64 array with `ndim` axes: the one intake of every table.

    Cayley tables, ring tables, structure constants and permutations are all
    read here, once.  A signed integer array is taken as int64, copied
    unless it is read-only.  Other data is converted; ragged rows or an
    entry that is not an integer (a float, even 1.0, a string, None or a
    bool) or does not fit in int64 raise TableInvalid naming the first
    fault (`_table_fault`).  A rectangular array is returned whatever its
    shape: callers check the shape they need.  Empty data is the empty
    table.
    """
    try:
        a = np.asarray(data)
    except ValueError:  # numpy refuses ragged rows
        a = None
    if (a is not None and a.ndim == ndim and a.dtype.kind == "i"
            and (isinstance(data, np.ndarray) or not _holds_bool(data, ndim))):
        # a caller's array that it can still write to is copied, so that writing
        # to it later cannot change an object built from it
        return a.astype(np.int64, copy=a is data and a.flags.writeable)
    fault = _table_fault(data, ndim)
    if fault is not None:
        raise fault
    # a cube of integers that numpy did not type as such: empty, or mixed scalar types
    return np.asarray(data, dtype=object).astype(np.int64).reshape((len(data),) * ndim)


def _non_permutations(rows: np.ndarray) -> np.ndarray:
    """Which rows of the (k, n) array `rows`, entries in range(n), are not permutations.

    Each row marks the values it holds; a row is a permutation when it marks all n.
    """
    k, n = rows.shape
    seen = np.zeros((k, n), dtype=bool)
    seen[np.arange(k)[:, None], rows] = True
    return ~seen.all(axis=1)


def _check_range(t: np.ndarray, n: int) -> None:
    bad = np.argwhere((t < 0) | (t >= n))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise TableInvalid("entry out of range", (i, j, int(t[i, j])))


def table_generators(t: np.ndarray) -> list[int]:
    """Elements S of the table t (identity 0) whose products, with 0, reach every element.

    The smallest element not yet reached joins S, and the reached set R is
    closed again under products, all of R times all of R in one numpy step
    per round, so a word in S of length w is reached within about log2(w)
    rounds.  In a group each new element at least doubles the reached
    subgroup, so |S| <= log2(n).
    """
    n = len(t)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        s = int(np.argmin(reached))
        gens.append(s)
        reached[s] = True
        r = np.flatnonzero(reached)
        while True:
            reached[t[np.ix_(r, r)]] = True
            grown = np.flatnonzero(reached)
            if grown.size in (r.size, n):
                break
            r = grown
    return gens


def validate_table(table) -> np.ndarray:
    """The group table `table` as a checked int64 array (`int_table`).

    See `validate_table_with_generators`, which also returns the
    generating set that proved associativity.
    """
    return validate_table_with_generators(table)[0]


def validate_table_with_generators(table) -> tuple[np.ndarray, list[int]]:
    """The group table `table` as a checked int64 array, and its generators S.

    Raises TableInvalid with a witness at the first failure, checking in
    this order: square, entries in range, identity on the left, identity on
    the right, rows and columns permutations (row i, then column i, then row
    i + 1), associativity.  Each check reports its first failure in
    row-major order.

    Associativity is proved on the generators S (`table_generators`) by
    Light's test: (x s) y = x (s y) for all x, y and each s in S.  The
    elements a with (x a) y = x (a y) for all x, y hold 0 and are closed
    under products, so they hold every product of elements of S: the law
    holds for every triple.  Only when the test fails does `first_mismatch`
    scan every triple, to name the first failing one.
    """
    try:
        t = int_table(table)
    except TableInvalid as exc:
        if exc.reason == "table is not square" and exc.witness:
            # rows are read in order: a bad entry before the first ragged row comes first
            _check_range(int_table(table[: exc.witness[0]]), len(table))
        raise
    n = len(t)
    if t.shape != (n, n):  # rectangular: row 0 already has the wrong length
        raise TableInvalid("table is not square", (0,))
    _check_range(t, n)
    if n == 0:
        return t, []
    ar = np.arange(n)
    bad = np.flatnonzero(t[0] != ar)
    if bad.size:
        raise TableInvalid("identity law fails on the left", (0, int(bad[0])))
    bad = np.flatnonzero(t[:, 0] != ar)
    if bad.size:
        raise TableInvalid("identity law fails on the right", (int(bad[0]), 0))
    bad_rows, bad_cols = _non_permutations(t), _non_permutations(t.T)
    bad = np.flatnonzero(bad_rows | bad_cols)
    if bad.size:
        i = int(bad[0])
        what = "row" if bad_rows[i] else "column"
        raise TableInvalid(f"{what} is not a permutation", (i,))
    gens = table_generators(t)
    if not all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens):
        raise TableInvalid("associativity fails",
                           first_mismatch(n, lambda rows: t[t[rows]], lambda rows: t[rows][:, t]))
    return t, gens


def _label_rows(t: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of the square array `t`, entries in range(len(t)), as tuples.

    `tolist` makes one int object per entry above 256; these rows share one
    per label, gathered from an object array of the labels 64 rows at a
    time, so no list of the whole table is built.
    """
    labels = np.arange(len(t)).astype(object)
    return tuple(tuple(row) for start in range(0, len(t), 64)
                 for row in labels[t[start:start + 64]].tolist())


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full Cayley table, identity at index 0."""

    table: tuple[tuple[int, ...], ...]
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def from_table(table, name: Optional[str] = None) -> "FiniteGroup":
        """A group on `table`, read and checked by `validate_table` and kept as `np_table`."""
        t = validate_table(table)
        G = FiniteGroup(_label_rows(t), name)
        G.__dict__["np_table"] = t
        return G

    @staticmethod
    def from_array(t: np.ndarray, name: Optional[str] = None) -> "FiniteGroup":
        """A group on the int64 Cayley table `t`, kept as its `np_table`.

        The inverses are read off the array (the position of 0 in each row);
        a row without the identity raises TableInvalid.  No other law is
        checked: callers build `t` from groups they already trust.
        """
        is_id = t == 0
        inv = is_id.argmax(axis=1)
        missing = np.flatnonzero(~is_id[np.arange(len(t)), inv])
        if missing.size:
            raise TableInvalid("row has no inverse", (int(missing[0]),))
        G = FiniteGroup(_label_rows(t), name)
        G.__dict__["np_table"] = t
        G.__dict__["inverses"] = tuple(inv.tolist())
        return G

    # -- basic structure ---------------------------------------------------

    @cached_property
    def np_table(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for i, row in enumerate(self.table):
            inv[i] = row.index(0)
        return tuple(inv)

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1"""
        return self.table[self.table[g][x]][self.inverses[g]]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = [0] * self.order
        for i in range(self.order):
            k, x = 1, i
            while x != 0:
                x = self.table[x][i]
                k += 1
            orders[i] = k
        return tuple(orders)

    def element_order(self, i: int) -> int:
        return self.element_orders[i]

    @cached_property
    def order_profile(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, multiplicity) pairs; an isomorphism invariant."""
        counts: dict[int, int] = {}
        for o in self.element_orders:
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.order) for j in range(i))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return greedy_generators(self)

    def hom_domain(self, gens: Optional[Sequence[int]] = None) -> "HomDomain":
        """The hom-search domain on `gens` (default `generators`), columns read off the table."""
        gens = self.generators if gens is None else tuple(gens)
        return HomDomain(self.order, gens, tuple([row[g] for row in self.table] for g in gens))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.table)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


# -- closures and generating sets -----------------------------------------


def subgroup_closure(G: FiniteGroup, elems: Iterable[int]) -> tuple[int, ...]:
    """Sorted closure of `elems` under multiplication (hence inversion, finitely)."""
    seen = {0}
    frontier = [0]
    gens = sorted(set(elems))
    for x in gens:
        if x not in seen:
            seen.add(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        row = G.table[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
            z = G.table[g][x]
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return tuple(sorted(seen))


def greedy_generators(G: FiniteGroup, seed: Sequence[int] = ()) -> tuple[int, ...]:
    """Small generating set: repeatedly add the element giving the largest closure.

    Deterministic (ties broken by smallest index).  `seed` forces a prefix.
    With nothing chosen yet, the closure of x has element_orders[x] elements.
    A step skips every element inside a closure it has already computed (its
    own closure is no larger and would lose the tie) and stops at the first
    closure that is all of G.
    """
    gens = [g for g in seed if g != 0]
    n = G.order
    current = subgroup_closure(G, gens)
    while len(current) < n:
        if not gens:
            gens.append(max(range(1, n), key=G.element_orders.__getitem__))
            current = subgroup_closure(G, gens)
            continue
        best, best_closure = None, current
        covered = set(current)
        for x in range(n):
            if x in covered:
                continue
            closure = subgroup_closure(G, gens + [x])
            if len(closure) > len(best_closure):
                best, best_closure = x, closure
                if len(closure) == n:
                    break
            covered.update(closure)
        gens.append(best)
        current = best_closure
    return tuple(gens)


# -- subgroups -------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted tuple of parent element indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @staticmethod
    def create(parent: FiniteGroup, elements: Iterable[int]) -> "Subgroup":
        elems = tuple(sorted(set(elements)))
        if not elems or elems[0] != 0:
            raise NotASubgroup("subgroup must contain the identity")
        if elems[-1] >= parent.order:
            raise NotASubgroup(f"element {elems[-1]} out of range for order {parent.order}")
        eset = set(elems)
        for a in elems:
            if parent.inv(a) not in eset:
                raise NotASubgroup(f"not closed under inversion at {a}")
            for b in elems:
                if parent.table[a][b] not in eset:
                    raise NotASubgroup(f"not closed under multiplication at ({a},{b})")
        if parent.order % len(elems) != 0:
            raise NotASubgroup("order does not divide parent order")
        return Subgroup(parent, elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._element_set

    @cached_property
    def _element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def is_normal(self) -> bool:
        G = self.parent
        t = G.np_table
        elems = np.asarray(self.elements, dtype=np.int64)
        inv = np.asarray(G.inverses, dtype=np.int64)
        conj = t[t[:, elems], inv[:, None]]  # conj[g, i] = g * elems[i] * g^-1
        mask = np.zeros(G.order, dtype=bool)
        mask[elems] = True
        return bool(mask[conj].all())

    def as_group(self) -> tuple[FiniteGroup, "GroupHom"]:
        """Relabelled copy on 0..k-1 plus the inclusion back into the parent."""
        local = {e: i for i, e in enumerate(self.elements)}
        table = tuple(
            tuple(local[self.parent.table[a][b]] for b in self.elements) for a in self.elements
        )
        H = FiniteGroup(table, name=None)
        incl = GroupHom(H, self.parent, self.elements)
        return H, incl


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing cyclic subgroups under joins."""
    seen: set[tuple[int, ...]] = set()
    layer: list[tuple[int, ...]] = [(0,)]
    seen.add((0,))
    for x in range(1, G.order):
        c = subgroup_closure(G, [x])
        if c not in seen:
            seen.add(c)
            layer.append(c)
    frontier = list(seen)
    while frontier:
        new: list[tuple[int, ...]] = []
        for elems in frontier:
            if len(elems) == G.order:
                continue
            for x in range(1, G.order):
                if x in elems:
                    continue
                bigger = subgroup_closure(G, list(elems) + [x])
                if bigger not in seen:
                    seen.add(bigger)
                    new.append(bigger)
        frontier = new
    return [Subgroup(G, elems) for elems in sorted(seen, key=lambda e: (len(e), e))]


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every normal subgroup, in the (order, elements) order of `all_subgroups`.

    A normal subgroup is the join of the normal closures of the conjugacy
    classes it contains, so the normal subgroups are the class closures
    closed under joins.  The join of normal N and K is the product set NK.
    """
    t = G.np_table
    inv = np.asarray(G.inverses, dtype=np.int64)

    def members(idx: np.ndarray) -> tuple[int, ...]:
        mask = np.zeros(G.order, dtype=bool)
        mask[idx] = True
        return tuple(np.flatnonzero(mask).tolist())

    conj = t[t, inv[:, None]].T  # conj[x, g] = g x g^-1
    classes = {members(row) for row in conj[1:]}
    closures = {subgroup_closure(G, c) for c in classes}
    seen = {(0,)} | closures
    frontier = list(seen)
    while frontier:
        new: list[tuple[int, ...]] = []
        for elems in frontier:
            for k in closures:
                join = members(t[np.ix_(elems, k)])
                if join not in seen:
                    seen.add(join)
                    new.append(join)
        frontier = new
    return [Subgroup(G, elems) for elems in sorted(seen, key=lambda e: (len(e), e))]


# -- homomorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class GroupHom:
    """A total map between groups, recorded element-by-element."""

    domain: FiniteGroup
    codomain: FiniteGroup
    image: tuple[int, ...]

    @staticmethod
    def create(domain: FiniteGroup, codomain: FiniteGroup, image: Sequence[int]) -> "GroupHom":
        img = tuple(int(v) for v in image)
        if len(img) != domain.order:
            raise TableInvalid("image must have one entry per element of the domain", (len(img),))
        for i, v in enumerate(img):
            if not 0 <= v < codomain.order:
                raise TableInvalid("image entry out of range", (i, v))
        if img[0] != 0:
            raise TableInvalid("homomorphism must send identity to identity")
        for i in range(domain.order):
            for j in range(domain.order):
                if img[domain.table[i][j]] != codomain.table[img[i]][img[j]]:
                    raise TableInvalid("map is not a homomorphism", (i, j))
        return GroupHom(domain, codomain, img)

    @staticmethod
    def identity(G: FiniteGroup) -> "GroupHom":
        return GroupHom(G, G, tuple(range(G.order)))

    def __call__(self, x: int) -> int:
        return self.image[x]

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain != self.domain:
            raise CodomainMismatch("homomorphisms do not compose")
        return GroupHom(other.domain, self.codomain, tuple(self.image[v] for v in other.image))

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.image)) == self.domain.order

    @cached_property
    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.codomain.order

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.domain.order == self.codomain.order

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain, tuple(i for i, v in enumerate(self.image) if v == 0))

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.codomain, tuple(sorted(set(self.image))))


# -- generic backtracking hom search ----------------------------------------
#
# The domain is read only through a HomDomain: its order and the right
# multiplication by each generator.  Codomains need only a minimal "group ops"
# interface, so that they can be automorphism groups whose Cayley table would
# be too large to build: order, mul(i, j), element_order(i).


class _Budget:
    """A node budget; `phase` names the search that spends it in the error."""

    __slots__ = ("left", "phase", "size")

    def __init__(self, n: int, phase: str):
        self.left = n
        self.phase = phase
        self.size = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            nodes = f"{self.size} node" + ("" if self.size == 1 else "s")
            raise SearchBudgetExceeded(f"{self.phase}: hom search node budget exhausted after {nodes}")


@dataclass(frozen=True, eq=False)
class HomDomain:
    """What the hom search reads of its domain group.

    `columns[pos][x]` is x * gens[pos] for every element x of a group of
    `order` elements, identity at 0, so the search never needs the Cayley
    table.  A FiniteGroup supplies its columns from its table
    (`FiniteGroup.hom_domain`); a split extension supplies them from its
    action (`extensions.semidirect_columns`).  The search schedules are
    built once per domain object, so searches that share a domain share them.
    """

    order: int
    gens: tuple[int, ...]
    columns: tuple[Sequence[int], ...]

    def gen_orders(self) -> tuple[int, ...]:
        """The order of each generator g, from the powers of g along its own column."""
        orders = []
        for col in self.columns:
            k, x = 1, col[0]
            while x != 0:
                x = col[x]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def schedules(self) -> list[list[tuple[int, int, int, bool]]]:
        """Per-prefix multiplication schedules for the backtracking hom search.

        schedule[k] covers the subgroup generated by gens[:k+1] as
        (parent, gen_pos, product, is_new) entries in breadth-first order
        from the identity, with parents appearing before any product naming
        them, so image values can be propagated in one pass.  At full depth
        the schedule checks f(x*g)=f(x)*f(g) for every x and every generator
        g, which forces f to be a homomorphism.
        """
        schedules = []
        for k in range(1, len(self.columns) + 1):
            active = self.columns[:k]
            entries = []
            known = {0}
            reached = [0]
            for x in reached:  # grows as products are found: a breadth-first queue
                for pos, col in enumerate(active):
                    y = col[x]
                    is_new = y not in known
                    entries.append((x, pos, y, is_new))
                    if is_new:
                        known.add(y)
                        reached.append(y)
            schedules.append(entries)
        return schedules


def iter_hom_images(
    G: "FiniteGroup | HomDomain",
    cod,
    allowed: Optional[Mapping[int, Sequence[int]]] = None,
    *,
    budget: _Budget,
    injective: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Yield the full image array of every hom G -> cod determined by its generators.

    `G` is a FiniteGroup, searched on its `generators`, or a HomDomain, which
    carries its own (`G.hom_domain(gens)` for others).  Generator g ranges over
    allowed[g] in the given order, or over all of `cod` when g has no entry;
    candidates whose element order cannot match are dropped (with
    `injective=True` the order must equal g's, otherwise divide it).  Output
    order is lexicographic on the generator image tuple.  `cod` needs only
    the group-ops interface.  With `injective=True`, branches producing
    repeated images are pruned.

    Each candidate is walked through its level's schedule, reading products
    from the rows of a FiniteGroup codomain and through `cod.mul` otherwise.
    One node of `budget` is spent per candidate, in candidate order, as it
    is walked.
    """
    n = G.order
    if n == 1:
        yield (0,)
        return
    dom = G if isinstance(G, HomDomain) else G.hom_domain()
    allowed = allowed or {}
    candidates = []
    for g, o in zip(dom.gens, dom.gen_orders()):
        pool = allowed.get(g, range(cod.order))
        if injective:
            candidates.append([h for h in pool if cod.element_order(h) == o])
        else:
            candidates.append([h for h in pool if o % cod.element_order(h) == 0])
    schedules = dom.schedules
    k = len(dom.gens)
    rows = cod.table if isinstance(cod, FiniteGroup) else None
    cod_mul = cod.mul

    def attempt(depth: int, assigned: Sequence[int]) -> Optional[list[int]]:
        budget.spend()
        img = [-1] * n
        img[0] = 0
        used = {0} if injective else None
        for parent, pos, prod, is_new in schedules[depth]:
            if rows is not None:
                v = rows[img[parent]][assigned[pos]]
            else:
                v = cod_mul(img[parent], assigned[pos])
            if is_new:
                if injective:
                    if v in used:
                        return None
                    used.add(v)
                img[prod] = v
            elif img[prod] != v:
                return None
        return img

    def rec(depth: int, assigned: list[int]) -> Iterator[tuple[int, ...]]:
        last = depth + 1 == k
        for c in candidates[depth]:
            img = attempt(depth, assigned + [c])
            if img is None:
                continue
            if last:
                yield tuple(img)
            else:
                yield from rec(depth + 1, assigned + [c])

    yield from rec(0, [])


def enumerate_homs(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """Complete list of homomorphisms G -> H in canonical (lex) order."""
    b = _Budget(DEFAULT_SEARCH_BUDGET, "hom enumeration")
    return [GroupHom(G, H, img) for img in iter_hom_images(G, H, budget=b)]


def find_constrained_hom(
    G: "FiniteGroup | HomDomain",
    H,
    allowed: Optional[Mapping[int, Sequence[int]]] = None,
    *,
    budget: _Budget,
    limit: int = 1,
) -> list[tuple[int, ...]]:
    """The first `limit` hom image arrays of `iter_hom_images`."""
    return list(itertools.islice(iter_hom_images(G, H, allowed, budget=budget), limit))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """Some isomorphism G -> H, or None (a verified-none verdict).

    Backtracking with order-profile pruning; each generator ranges over the
    elements of H of its exact order.
    """
    if G.order != H.order or G.order_profile != H.order_profile:
        return None
    if G.is_abelian != H.is_abelian:
        return None
    b = _Budget(DEFAULT_SEARCH_BUDGET, "isomorphism search")
    for img in iter_hom_images(G, H, budget=b, injective=True):
        return GroupHom(G, H, img)
    return None


# -- constructions -----------------------------------------------------------


def recipe_integer(value, field: str) -> int:
    """A number of a JSON recipe: an integer or a string of one, never a float or a bool."""
    if isinstance(value, (bool, float)):
        raise ConfigInvalid(f"{field} must be an integer, not {value!r}")
    return int(value)


def load_group(source: dict) -> FiniteGroup:
    """Build a validated group from the JSON input schema.

    Accepts {"cayley": [[...]]} or
    {"permutations": {"degree": n, "generators": [[...], ...]}},
    each with an optional "name".  Element indexing is canonicalized so the
    identity sits at index 0.
    """
    name = source.get("name")
    if "cayley" in source:
        data = source["cayley"]
        n = len(data)
        if n > DEFAULT_ELEMENT_CAP:
            raise SizeCap(f"group order {n} exceeds cap {DEFAULT_ELEMENT_CAP}")
        try:
            t = int_table(data)
        except TableInvalid:
            return FiniteGroup.from_table(data, name)  # validate_table names the first fault
        if t.shape == (n, n):  # otherwise validate_table says why it is not square
            ar = np.arange(n)
            is_ident = np.flatnonzero((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0))
            if not is_ident.size:
                raise TableInvalid("no identity element")
            e = int(is_ident[0])
            if e and 0 <= t.min() and t.max() < n:  # out-of-range entries stay where they were
                # the swap of 0 and e is its own inverse: T'[i][j] = perm[T[perm[i]][perm[j]]]
                perm = ar.copy()
                perm[[0, e]] = e, 0
                t = perm[t[np.ix_(perm, perm)]]
        return FiniteGroup.from_table(t, name)
    if "permutations" in source:
        spec = source["permutations"]
        degree = recipe_integer(spec["degree"], "degree")
        return group_from_permutations(degree, spec["generators"], name=name)
    raise TableInvalid("source must contain 'cayley' or 'permutations'")


def group_from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: Optional[str] = None,
) -> FiniteGroup:
    """Closure of permutation generators under composition.

    Each generator is read by `int_table` and must be a permutation of
    range(degree).  Elements are indexed in discovery order with the
    identity first; a closure over DEFAULT_ELEMENT_CAP elements raises
    ClosureTooLarge.  The breadth-first closure records x * g for every
    element x and generator g; the table is then built a column at a time
    from a * (x * g) = (a * x) * g, one list lookup per entry instead of one
    permutation composition.
    """
    ident = tuple(range(degree))
    gens = []
    for g in generators:
        p = int_table(g, ndim=1)
        in_range = p.shape == (degree,) and not ((p < 0) | (p >= degree)).any()
        if not in_range or _non_permutations(p[None])[0]:
            raise TableInvalid("generator is not a permutation", tuple(p.tolist()))
        gens.append(tuple(p.tolist()))
    index = {ident: 0}
    queue = deque([ident])
    right = [[] for _ in gens]  # right[pos][x] = x * gens[pos]
    parents = []  # (x, pos) with y = x * gens[pos], for each y after the identity
    while queue:
        x = queue.popleft()
        ix = index[x]
        for pos, g in enumerate(gens):
            y = tuple(x[g[i]] for i in range(degree))  # x after g
            iy = index.get(y)
            if iy is None:
                if len(index) >= DEFAULT_ELEMENT_CAP:
                    raise ClosureTooLarge(f"closure exceeds element cap {DEFAULT_ELEMENT_CAP}")
                iy = index[y] = len(index)
                parents.append((ix, pos))
                queue.append(y)
            right[pos].append(iy)
    # column y = x * g of the table: a * y = (a * x) * g, one lookup per entry
    cols = [list(index.values())]
    for x, pos in parents:
        cols.append(list(map(right[pos].__getitem__, cols[x])))
    return FiniteGroup(tuple(zip(*cols)), name)


def direct_product(G: FiniteGroup, H: FiniteGroup, name: Optional[str] = None):
    """G x H with pairs indexed lexicographically.

    Returns (P, (proj1, proj2), (inj1, inj2)).
    """
    n, m = G.order, H.order
    if n * m > DEFAULT_ELEMENT_CAP:
        raise SizeCap(f"product order {n * m} exceeds cap {DEFAULT_ELEMENT_CAP}")
    t = np.kron(G.np_table, np.ones((m, m), dtype=np.int64)) * m + np.tile(H.np_table, (n, n))
    if name is None and G.name and H.name:
        name = f"{G.name}x{H.name}"
    P = FiniteGroup.from_array(t, name)
    p1 = GroupHom(P, G, tuple(i // m for i in range(n * m)))
    p2 = GroupHom(P, H, tuple(i % m for i in range(n * m)))
    i1 = GroupHom(G, P, tuple(g * m for g in range(n)))
    i2 = GroupHom(H, P, tuple(h for h in range(m)))
    return P, (p1, p2), (i1, i2)


def quotient(N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset group G/N of N's parent G with the canonical surjection; requires N normal."""
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    G = N.parent
    # cosets are numbered by their least element: the first element of a coset
    # met in increasing order is its least, so the identity's coset comes first
    reps: list[int] = []
    coset_of = [-1] * G.order
    for x in range(G.order):
        if coset_of[x] < 0:
            for s in N.elements:
                coset_of[G.table[x][s]] = len(reps)
            reps.append(x)
    table = tuple(tuple(coset_of[G.table[a][b]] for b in reps) for a in reps)
    Q = FiniteGroup(table, name=f"{G.name}/N" if G.name else None)
    proj = GroupHom(G, Q, tuple(coset_of))
    return Q, proj

