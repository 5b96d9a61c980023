import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algcomplete.catalog import cyclic, dicyclic, dihedral, symmetric
from algcomplete.errors import (
    ClosureTooLarge,
    ConfigInvalid,
    NotASubgroup,
    SizeCap,
    TableInvalid,
)
from algcomplete.groups import (
    DEFAULT_SEARCH_BUDGET,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _Budget,
    all_subgroups,
    direct_product,
    enumerate_homs,
    find_constrained_hom,
    greedy_generators,
    group_from_permutations,
    int_table,
    is_isomorphic,
    load_group,
    normal_subgroups,
    quotient,
    subgroup_closure,
    table_generators,
    validate_table,
    validate_table_with_generators,
)
from conftest import holomorph_generators


def test_validate_rejects_broken_identity():
    with pytest.raises(TableInvalid):
        validate_table([[1, 0], [0, 1]])


def test_from_array_rejects_a_row_without_identity():
    with pytest.raises(TableInvalid, match="row has no inverse"):
        FiniteGroup.from_array(np.array([[0, 1, 2], [1, 2, 1], [2, 0, 1]]))


# a quasigroup table with identity 0 that is not a group
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_validate_rejects_nonassociative():
    with pytest.raises(TableInvalid):
        validate_table(LOOP5)


def _loop_with_nucleus_z16():
    """Z16 x LOOP5, with (h, l) labelled 16 * l + h.

    Z16 x {0} (labels 0..15) lies in the nucleus, so every associativity
    failure has its first index in a row >= 16.
    """
    return [
        [16 * LOOP5[a // 16][b // 16] + (a + b) % 16 for b in range(80)] for a in range(80)
    ]


def test_validate_witness_beyond_first_row_block():
    table = _loop_with_nucleus_z16()
    t = np.asarray(table)
    reference = tuple(int(x) for x in np.argwhere(t[t, :] != t[:, t])[0])
    assert reference[0] >= 16
    with pytest.raises(TableInvalid) as err:
        validate_table(table)
    assert err.value.reason == "associativity fails"
    assert err.value.witness == reference


def reference_validate_table(table):
    """The loop version of `validate_table`: the reference for every reason and witness."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise TableInvalid("table is not square", (i,))
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise TableInvalid("entry out of range", (i, j, v))
    for j in range(n):
        if table[0][j] != j:
            raise TableInvalid("identity law fails on the left", (0, j))
    for i in range(n):
        if table[i][0] != i:
            raise TableInvalid("identity law fails on the right", (i, 0))
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            raise TableInvalid("row is not a permutation", (i,))
        if sorted(table[j][i] for j in range(n)) != list(range(n)):
            raise TableInvalid("column is not a permutation", (i,))
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise TableInvalid("associativity fails", (i, j, k))


def verdict(check, table):
    """None if `check` accepts `table`, else the (reason, witness) it raises."""
    try:
        check(table)
    except TableInvalid as err:
        return err.reason, err.witness
    return None


def _relabelled(table, new):
    """`table` with element x renamed new[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = table[a][b]
            out[new[a]][new[b]] = new[v] if 0 <= v < n else v
    return out


@st.composite
def broken_tables(draw, groups):
    """A group table or LOOP5 with one or two breaks; a ragged row is always the last break."""
    table = [list(row) for row in draw(st.sampled_from(groups))]
    n = len(table)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    kinds = ["entry", "swap", "range", "identity"]
    breaks = draw(st.lists(st.sampled_from(kinds), max_size=1))
    breaks.append(draw(st.sampled_from(kinds + ["ragged"])))
    for kind in breaks:
        if kind == "entry":
            (i, j), v = draw(cell), draw(st.integers(0, n - 1))
            table[i][j] = v
        elif kind == "swap":
            i, j = draw(cell)
            table[i], table[j] = table[j], table[i]
        elif kind == "range":
            (i, j), v = draw(cell), draw(st.sampled_from([-1, n, n + 7]))
            table[i][j] = v
        elif kind == "identity":
            new = draw(st.permutations(range(n)))
            table = _relabelled(table, new)
        else:
            i = draw(st.integers(0, n - 1))
            table[i] = table[i][:-1] if draw(st.booleans()) else table[i] + [0]
    return table


SMALL_TABLES = [G.table for G in (cyclic(1), cyclic(2), cyclic(5), dihedral(2), dihedral(3),
                                  dihedral(4), cyclic(12))] + [tuple(map(tuple, LOOP5))]


@settings(max_examples=200, deadline=None)
@given(broken_tables(SMALL_TABLES))
def test_validate_table_matches_the_loop_reference(table):
    assert verdict(validate_table, table) == verdict(reference_validate_table, table)


@pytest.mark.parametrize("table, expected", [
    ([[0, 1], [1, 1]], ("row is not a permutation", (1,))),
    ([[0, 1], [1]], ("table is not square", (1,))),
    ([[0, 1, 2], [1, 2, 0]], ("table is not square", (0,))),
    ([[0, 1], [1, 2]], ("entry out of range", (1, 1, 2))),
    ([[0, 1], [0, 1]], ("identity law fails on the right", (1, 0))),
    ([[0, 1, 2], [1, 0, 2], [2, 1, 0]], ("column is not a permutation", (1,))),
    (LOOP5, ("associativity fails", (1, 1, 2))),
    ([], None),
    ([[0]], None),
])
def test_validate_table_fixed_cases(table, expected):
    assert verdict(validate_table, table) == expected
    assert verdict(reference_validate_table, table) == expected


def normalized_latin_squares(n):
    """Every Latin square on range(n) whose row 0 and column 0 are 0, 1, ..., n-1."""
    table = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [set(row[:1]) for row in table]
    in_col = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield [row[:] for row in table]
            return
        i, j = cells[c]
        for v in range(n):
            if v not in in_row[i] and v not in in_col[j]:
                table[i][j] = v
                in_row[i].add(v)
                in_col[j].add(v)
                yield from fill(c + 1)
                in_row[i].remove(v)
                in_col[j].remove(v)

    yield from fill(0)


@pytest.mark.parametrize("n, squares, groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_validate_table_matches_the_triple_scan_on_every_latin_square(n, squares, groups):
    """Light's test on generators against the scan of every triple, on all loops of order n."""
    verdicts = [verdict(validate_table, t) for t in normalized_latin_squares(n)]
    expected = [verdict(reference_validate_table, t) for t in normalized_latin_squares(n)]
    assert verdicts == expected
    assert (len(verdicts), verdicts.count(None)) == (squares, groups)


@pytest.mark.parametrize("G, gens", [
    (cyclic(1), []),
    (cyclic(512), [1]),
    (direct_product(direct_product(cyclic(2), cyclic(2))[0], cyclic(2))[0], [1, 2, 4]),
    (symmetric(3), [1, 2]),
])
def test_table_generators_is_greedy_and_generates(G, gens):
    """The smallest element not yet generated joins S; S generates G."""
    assert table_generators(G.np_table) == gens
    assert validate_table_with_generators(G.table)[1] == gens
    assert len(subgroup_closure(G, gens)) == G.order


def test_validate_table_returns_the_checked_array(S3):
    t = validate_table(S3.table)
    assert t.dtype == np.int64 and t.tolist() == [list(row) for row in S3.table]
    assert FiniteGroup.from_table(S3.table).np_table.tolist() == t.tolist()


def test_table_groups_share_one_int_object_per_label():
    G = dicyclic(125)  # built by from_table, order 500
    assert len({id(v) for row in G.table for v in row}) == 500
    H = FiniteGroup.from_table(dihedral(250).table)
    assert H.table == dihedral(250).table
    assert len({id(v) for row in H.table for v in row}) == 500


def test_array_groups_share_one_int_object_per_label():
    P = direct_product(cyclic(2), dihedral(100))[0]  # built by from_array, order 400
    assert len({id(v) for row in P.table for v in row}) == 400
    assert P.table == tuple(map(tuple, P.np_table.tolist()))


@pytest.mark.parametrize("data, ndim, expected", [
    ([[0, 1], [1, 0.9]], 2, ("entry is not an integer", (1, 1, 0.9))),
    ([[0.0, 1.0], [1.0, 0.0]], 2, ("entry is not an integer", (0, 0, 0.0))),
    ([[True, False], [False, True]], 2, ("entry is not an integer", (0, 0, True))),
    ([[0, "1"], [1, 0]], 2, ("entry is not an integer", (0, 1, "1"))),
    ([[0, None], [1, 0]], 2, ("entry is not an integer", (0, 1, None))),
    ([[0, 2**70], [1, 0]], 2, ("entry out of range", (0, 1, 2**70))),
    ([[0, 1], 1], 2, ("table is not square", (1,))),
    ([[0, [1]], [1, 0]], 2, ("entry is not an integer", (0, 1, [1]))),
    ([[[0, 0], [0, 0]], [[0, 0], [0]]], 3, ("table is not square", (1, 1))),
    ([0, 1, 2.5], 1, ("entry is not an integer", (2, 2.5))),
    ([[0, True], [True, 0]], 2, ("entry is not an integer", (0, 1, True))),  # numpy reads 0, 1
    ([0, True, 2], 1, ("entry is not an integer", (1, True))),
    ([[0, 1], [1, np.bool_(False)]], 2, ("entry is not an integer", (1, 1, False))),
    (np.array([[0, 2**63], [1, 0]], dtype=np.uint64), 2, ("entry out of range", (0, 1, 2**63))),
    ([[0, 2**63], [1, 0]], 2, ("entry out of range", (0, 1, 2**63))),  # numpy reads uint64
    (np.zeros((2, 2)), 2, ("entry is not an integer", (0, 0, 0.0))),
])
def test_int_table_rejects_ragged_rows_and_non_integers(data, ndim, expected):
    assert verdict(lambda d: int_table(d, ndim), data) == expected


def test_int_table_accepts_integer_data(Z2):
    t = np.array(Z2.table, dtype=np.int64)
    assert np.array_equal(int_table(t), t) and not np.shares_memory(int_table(t), t)
    G = FiniteGroup.from_table(t)
    t[0, 0] = 1  # the caller's array is not the group's
    assert G.np_table[0, 0] == 0
    t.flags.writeable = False
    assert int_table(t) is t  # nobody can write to it: no copy
    assert int_table([]).shape == (0, 0) and int_table([], 3).shape == (0, 0, 0)
    assert int_table([[0, 1], [1, 0]]).dtype == np.int64
    assert int_table([[0, 1, 2]]).shape == (1, 3)  # rectangular: the caller checks the shape
    u = int_table(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert u.dtype == np.int64 and u.tolist() == [[0, 1], [1, 0]]


def reference_load_cayley(table):
    """The scan-and-index relabel: identity found entry by entry, moved to 0 by perm.index."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][j] == j for j in range(n))
                 and all(table[i][e] == i for i in range(n)))
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        table = [[perm.index(table[perm[i]][perm[j]]) for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(table)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_load_group_relabel_matches_the_reference(catalog, data):
    G = data.draw(st.sampled_from(catalog))
    table = _relabelled(G.table, data.draw(st.permutations(range(G.order))))
    assert load_group({"cayley": table}).table == reference_load_cayley(table).table


@pytest.mark.parametrize("table, expected", [
    ([[0, 1], [1, 1]], ("row is not a permutation", (1,))),
    ([[0, 1], [1]], ("table is not square", (1,))),
    ([], ("no identity element", ())),
    ([[1, 0], [0, 5]], ("no identity element", ())),
    ([[1, 0], [0, 1]], None),
    ([[1, 0, 5], [0, 1, 2], [2, 2, 0]], ("entry out of range", (0, 2, 5))),  # not relabelled
    ([[0, 1], [1, 0.9]], ("entry is not an integer", (1, 1, 0.9))),
    ([[0, True], [True, 0]], ("entry is not an integer", (0, 1, True))),
])
def test_load_group_rejections(table, expected):
    assert verdict(lambda t: load_group({"cayley": t}), table) == expected


@pytest.mark.parametrize("degree, message", [
    (True, "degree must be an integer, not True"),
    (2.5, "degree must be an integer, not 2.5"),
])
def test_load_group_reads_the_degree_as_an_integer(degree, message):
    with pytest.raises(ConfigInvalid, match=message):
        load_group({"permutations": {"degree": degree, "generators": []}})
    assert load_group({"permutations": {"degree": "2", "generators": [[1, 0]]}}).order == 2


def test_load_group_checks_the_size_first():
    with pytest.raises(SizeCap):
        load_group({"cayley": [[0.5]] * 513})


def test_permutation_generators_must_be_integer_permutations():
    with pytest.raises(TableInvalid, match=r"entry is not an integer \(witness: \(2, 2.5\)\)"):
        group_from_permutations(3, [[0, 1, 2.5]])
    with pytest.raises(TableInvalid, match=r"generator is not a permutation \(witness: \(1, 0\)\)"):
        group_from_permutations(3, [[0, 1, 2], [1, 0]])
    with pytest.raises(TableInvalid, match="generator is not a permutation"):
        group_from_permutations(3, [[0, 1, 1]])


def test_subgroup_create_rejects_elements_outside_the_parent(S3):
    with pytest.raises(NotASubgroup, match="element 99 out of range"):
        Subgroup.create(S3, [0, 99])


def test_load_group_relabels_identity():
    # identity sits at index 1 in this table for Z2
    G = load_group({"cayley": [[1, 0], [0, 1]]})
    assert G.table == ((0, 1), (1, 0))


def test_permutation_closure_matches_symmetric_group():
    S3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert S3.order == 6
    assert S3.order_profile == ((1, 1), (2, 3), (3, 2))


def test_element_orders_cyclic():
    Z6 = cyclic(6)
    assert [Z6.element_order(k) for k in range(6)] == [1, 6, 3, 2, 3, 6]


def test_inverses_and_conjugation(S3):
    for g in range(S3.order):
        assert S3.mul(g, S3.inv(g)) == 0
        for x in range(S3.order):
            assert S3.conj(g, x) == S3.mul(S3.mul(g, x), S3.inv(g))


def test_subgroup_closure_generates_whole_group(S3):
    gens = S3.generators
    assert subgroup_closure(S3, gens) == tuple(range(6))


def reference_greedy_generators(G, seed=()):
    """Reference: one subgroup closure per remaining element at every step."""
    gens = [g for g in seed if g != 0]
    current = set(subgroup_closure(G, gens))
    while len(current) < G.order:
        best, best_size = None, -1
        for x in range(G.order):
            if x in current:
                continue
            size = len(subgroup_closure(G, gens + [x]))
            if size > best_size:
                best, best_size = x, size
        gens.append(best)
        current = set(subgroup_closure(G, gens))
    return tuple(gens)


def test_greedy_generators_match_reference(catalog):
    for G in catalog:
        assert greedy_generators(G) == reference_greedy_generators(G), G.name


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_seeded_greedy_generators_match_reference(catalog, data):
    G = data.draw(st.sampled_from(catalog))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    assert greedy_generators(G, seed) == reference_greedy_generators(G, seed)


def test_subgroup_create_rejects_non_closed(S4):
    bad = [x for x in range(24) if S4.element_order(x) <= 3]
    with pytest.raises(NotASubgroup):
        Subgroup.create(S4, bad)


def test_all_subgroups_of_s3(S3):
    subs = all_subgroups(S3)
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]
    assert sorted(s.order for s in normal_subgroups(S3)) == [1, 3, 6]


@pytest.mark.parametrize("image, reason, witness", [
    ((0,), "image must have one entry per element of the domain", (1,)),
    ((), "image must have one entry per element of the domain", (0,)),
    ((0, 1, 2), "image must have one entry per element of the domain", (3,)),
    ((0, 5), "image entry out of range", (1, 5)),
    ((0, -1), "image entry out of range", (1, -1)),
    ((1, 0), "homomorphism must send identity to identity", ()),
], ids=["short", "empty", "long", "above", "negative", "identity"])
def test_hom_create_checks_the_image_shape_first(Z2, Z3, image, reason, witness):
    with pytest.raises(TableInvalid) as err:
        GroupHom.create(Z2, Z3, image)
    assert (err.value.reason, err.value.witness) == (reason, witness)


def test_quotient_s3_by_a3(S3):
    A3 = next(s for s in normal_subgroups(S3) if s.order == 3)
    Q, proj = quotient(A3)
    assert Q.order == 2
    assert proj.kernel().elements == A3.elements


def test_direct_product_projections(Z2, Z3):
    P, (p1, p2), (i1, i2) = direct_product(Z2, Z3)
    assert P.order == 6
    assert p1.compose(i1).image == tuple(range(2))
    assert p2.compose(i2).image == tuple(range(3))
    assert is_isomorphic(P, cyclic(6)) is not None


def brute_force_homs(G, H, gens=None):
    """Independent reference: filter every |H|^|gens| generator assignment."""
    gens = G.generators if gens is None else gens
    out = set()
    for assignment in itertools.product(range(H.order), repeat=len(gens)):
        img = _extend_assignment(G, H, gens, assignment)
        if img is not None:
            out.add(img)
    return out


def _extend_assignment(G, H, gens, assignment):
    img = [-1] * G.order
    img[0] = 0
    queue = [0]
    seen = {0}
    while queue:
        x = queue.pop(0)
        for pos, g in enumerate(gens):
            y = G.table[x][g]
            v = H.table[img[x]][assignment[pos]]
            if y in seen:
                if img[y] != v:
                    return None
            else:
                seen.add(y)
                img[y] = v
                queue.append(y)
    return tuple(img)


def test_hom_enumeration_matches_brute_force(Z4, S3):
    for G, H in [(Z4, S3), (S3, Z4), (S3, S3)]:
        fast = {h.image for h in enumerate_homs(G, H)}
        assert fast == brute_force_homs(G, H)


def test_hom_kernel_image_duality(S4):
    S3 = symmetric(3)
    for h in enumerate_homs(S4, S3):
        assert h.kernel().order * len(set(h.image)) == S4.order


def test_iso_detects_non_isomorphic():
    assert is_isomorphic(cyclic(4), dihedral(2)) is None
    assert is_isomorphic(dihedral(3), symmetric(3)) is not None


def test_iso_rejects_q8_vs_d4():
    from algcomplete.catalog import dicyclic

    assert is_isomorphic(dicyclic(2), dihedral(4)) is None


@st.composite
def small_groups(draw):
    kind = draw(st.sampled_from(["cyclic", "dihedral", "symmetric"]))
    if kind == "cyclic":
        return cyclic(draw(st.integers(1, 12)))
    if kind == "dihedral":
        return dihedral(draw(st.integers(1, 6)))
    return symmetric(draw(st.integers(1, 4)))


@settings(max_examples=30, deadline=None)
@given(small_groups())
def test_group_axioms_hold(G):
    n = G.order
    assert all(G.mul(0, x) == x and G.mul(x, 0) == x for x in range(n))
    for g in range(n):
        assert G.mul(g, G.inv(g)) == 0


@settings(max_examples=20, deadline=None)
@given(small_groups(), st.data())
def test_conjugation_is_automorphism(G, data):
    g = data.draw(st.integers(0, G.order - 1))
    perm = tuple(G.conj(g, x) for x in range(G.order))
    assert sorted(perm) == list(range(G.order))
    for x, y in itertools.product(range(G.order), repeat=2):
        assert perm[G.mul(x, y)] == G.mul(perm[x], perm[y])


@settings(max_examples=20, deadline=None)
@given(small_groups())
def test_homs_compose(G):
    H = symmetric(3)
    homs = enumerate_homs(G, H)[:4]
    for h in homs:
        for k in enumerate_homs(H, H)[:4]:
            kh = k.compose(h)
            assert all(kh(x) == k(h(x)) for x in range(G.order))


def _constrained_cases():
    """(G, H, gens, allowed) for small pairs, with each shape of constraint."""
    S3, Z4, Z6, V4 = symmetric(3), cyclic(4), cyclic(6), dihedral(2)
    P, (_, p2), (i1, i2) = direct_product(cyclic(2), S3)
    # retraction-shaped: the factor S3 of Z2 x S3 is forced to itself
    retraction = {i2(x): [x] for x in range(S3.order)}
    retraction_gens = [i2(x) for x in S3.generators] + [i1(1)]
    # fibre-shaped: each generator of S3 ranges over its fibre under p2
    fibres = {}
    for g in range(P.order):
        fibres.setdefault(p2(g), []).append(g)
    # fibres listed in descending order, so the given order is not the index order
    reversed_fibres = {k: v[::-1] for k, v in fibres.items()}
    return [
        (S3, S3, None, None),
        (Z6, S3, None, None),
        (S3, Z4, None, None),
        (V4, S3, None, {1: [1, 2, 3, 4, 5]}),
        (P, S3, retraction_gens, retraction),
        (S3, P, None, fibres),
        (S3, P, None, reversed_fibres),
    ]


def search_budget():
    return _Budget(DEFAULT_SEARCH_BUDGET, "test search")


@pytest.mark.parametrize(
    "G, H, gens, allowed", _constrained_cases(),
    ids=["S3-S3", "Z6-S3", "S3-Z4", "V4-S3-restricted", "retraction", "fibres",
         "reversed-fibres"],
)
def test_constrained_search_matches_brute_force(G, H, gens, allowed):
    gens = G.generators if gens is None else tuple(gens)
    pools = [(allowed or {}).get(g, range(H.order)) for g in gens]
    expected = {
        img for img in brute_force_homs(G, H, gens)
        if all(img[g] in pool for g, pool in zip(gens, pools))
    }
    found = find_constrained_hom(G.hom_domain(gens), H, allowed, budget=search_budget(),
                                 limit=10**9)
    assert len(found) == len(expected) and set(found) == expected
    if expected:
        # least generator image tuple, each image ranked by its place in the pool
        rank = [{h: i for i, h in enumerate(pool)} for pool in pools]
        assert found[0] == min(
            expected, key=lambda img: [r[img[g]] for r, g in zip(rank, gens)]
        )


def test_trivial_domain_has_one_hom(Z3):
    trivial = cyclic(1)
    assert [h.image for h in enumerate_homs(trivial, Z3)] == [(0,)]
    assert find_constrained_hom(trivial, Z3, budget=search_budget(), limit=5) == [(0,)]


def reference_group_from_permutations(degree, generators, cap=512):
    """Independent reference: one permutation composition per pair of elements."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in index:
                if len(elems) >= cap:
                    raise ClosureTooLarge(f"closure exceeds element cap {cap}")
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    return tuple(
        tuple(index[tuple(a[b[i]] for i in range(degree))] for b in elems) for a in elems
    )


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 7))
    return degree, draw(st.lists(st.permutations(range(degree)), max_size=3))


def _expected_table(degree, gens):
    try:
        return reference_group_from_permutations(degree, gens)
    except ClosureTooLarge:
        return None


@settings(max_examples=25, deadline=None)
@given(permutation_generators())
def test_permutation_closure_matches_reference(case):
    degree, gens = case
    expected = _expected_table(degree, gens)
    if expected is None:
        with pytest.raises(ClosureTooLarge):
            group_from_permutations(degree, gens)
    else:
        assert group_from_permutations(degree, gens).table == expected


@pytest.mark.parametrize(
    "degree, gens",
    [
        (17, holomorph_generators(17)),
        (23, holomorph_generators(23)),
        (99, [[(x + 1) % 99 for x in range(99)], [(-x) % 99 for x in range(99)]]),
    ],
    ids=["Hol(Z17)", "Hol(Z23)", "D99"],
)
def test_large_permutation_closures_match_reference(degree, gens):
    assert group_from_permutations(degree, gens).table == reference_group_from_permutations(
        degree, gens
    )


def _cycle_on_top_points(degree):
    """Generators moving the highest points of range(degree): a transposition and a 3-cycle."""
    swap, turn = list(range(degree)), list(range(degree))
    swap[-2], swap[-1] = swap[-1], swap[-2]
    turn[0], turn[-3], turn[-1] = degree - 3, degree - 1, 0
    return [swap, turn]


@pytest.mark.parametrize(
    "degree, gens",
    [
        (0, []),
        (0, [[]]),
        (5, []),
        (4, [[0, 1, 2, 3], [0, 1, 2, 3]]),
        (255, _cycle_on_top_points(255)),
        (256, _cycle_on_top_points(256)),
        (257, _cycle_on_top_points(257)),
        (258, [[(x + 1) % 256 for x in range(256)] + [256, 257], list(range(256)) + [257, 256]]),
    ],
    ids=["degree-0", "degree-0-identity", "no-generators", "identity-generators",
         "degree-255", "degree-256", "degree-257", "order-512"],
)
def test_closure_edges_match_reference(degree, gens):
    # 256 points still fit the uint8 keys, 257 need uint16; Z256 x Z2 fills the cap exactly
    assert group_from_permutations(degree, gens).table == reference_group_from_permutations(
        degree, gens
    )


def test_closure_over_the_cap_raises_like_the_reference():
    gens = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]  # S6, 720 elements
    with pytest.raises(ClosureTooLarge) as want:
        reference_group_from_permutations(6, gens)
    with pytest.raises(ClosureTooLarge) as got:
        group_from_permutations(6, gens)
    assert str(got.value) == str(want.value) == "closure exceeds element cap 512"


def test_negative_degree_is_rejected():
    for source in ({"permutations": {"degree": -1, "generators": []}},
                   {"permutations": {"degree": "-3", "generators": [[0]]}}):
        with pytest.raises(ConfigInvalid, match=r"^degree must be >= 0, not -\d$"):
            load_group(source)
    with pytest.raises(ConfigInvalid, match=r"^degree must be >= 0, not -1$"):
        group_from_permutations(-1, [])


def test_no_generators_give_the_trivial_group_at_any_degree():
    # the identity of range(10**30) is never built
    assert group_from_permutations(10**30, []).table == ((0,),)
    assert load_group({"permutations": {"degree": 10**30, "generators": []}}).table == ((0,),)
    with pytest.raises(TableInvalid, match="^generator is not a permutation"):
        group_from_permutations(10**30, [[0]])


def test_permutation_table_shares_its_int_objects(Hol17):
    # one int object per element label, not one per table entry
    assert len({id(v) for row in Hol17.table for v in row}) <= 2 * Hol17.order


@settings(max_examples=25, deadline=None)
@given(permutation_generators(), st.randoms(use_true_random=False))
def test_conjugated_generators_give_the_same_table(case, rnd):
    # renaming the points keeps every generator word, hence the BFS numbering
    degree, gens = case
    if _expected_table(degree, gens) is None:
        return
    s = list(range(degree))
    rnd.shuffle(s)
    renamed = []
    for g in gens:
        h = [0] * degree
        for i in range(degree):
            h[s[i]] = s[g[i]]
        renamed.append(h)
    assert group_from_permutations(degree, renamed).table == group_from_permutations(
        degree, gens
    ).table


def test_normal_subgroups_match_the_subgroup_filter(catalog):
    # the reference: every subgroup, kept when it is normal
    for G in list(catalog) + [symmetric(4), dihedral(6)]:
        want = [S.elements for S in all_subgroups(G) if S.is_normal()]
        assert [S.elements for S in normal_subgroups(G)] == want, G.name
