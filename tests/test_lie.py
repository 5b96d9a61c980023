import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algcomplete import lie
from algcomplete.errors import SearchBudgetExceeded, TableInvalid
from algcomplete.lie import (
    SECTION_EXPONENT_CAP,
    LieAlgebra,
    _bracket_respecting_section,
    _rref,
    abelian_lie,
    lie_classify,
    lie_derivations,
    nonabelian2,
    nullspace,
    rank,
    sl2,
    solve_linear,
)


def test_rref_solver_roundtrip():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(10):
            A = rng.integers(0, p, size=(4, 5))
            x = rng.integers(0, p, size=5)
            b = (A @ x) % p
            sol = solve_linear(A, b, p)
            assert sol is not None
            assert np.array_equal((A @ sol) % p, b)


def test_nullspace_dimension():
    for p in (2, 3, 5, 7):
        A = np.array([[1, 1, 0], [0, 0, 0]])
        ns = nullspace(A, p)
        assert ns.shape[1] == 2
        assert not np.any((A @ ns) % p)


def test_rank_rules():
    assert rank(np.eye(3, dtype=np.int64), 5) == 3
    assert rank(np.zeros((3, 3), dtype=np.int64), 5) == 0


def test_create_rejects_non_antisymmetric():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1  # missing the opposite sign
    with pytest.raises(TableInvalid):
        LieAlgebra.create(5, c)


def test_create_rejects_non_integer_constants():
    c = np.zeros((2, 2, 2), dtype=np.int64).tolist()
    c[0][1][1], c[1][0][1] = 0.5, -0.5
    with pytest.raises(TableInvalid) as err:
        LieAlgebra.create(5, c)
    assert (err.value.reason, err.value.witness) == ("entry is not an integer", (0, 1, 1, 0.5))
    with pytest.raises(TableInvalid, match="entry is not an integer"):
        LieAlgebra.create(5, np.zeros((2, 2, 2)))  # float zeros
    big = np.zeros((2, 2, 2), dtype=np.uint64)
    big[0, 1, 0] = 2**63  # would wrap to a negative int64, then a wrong residue mod 5
    with pytest.raises(TableInvalid) as err:
        LieAlgebra.create(5, big)
    assert (err.value.reason, err.value.witness) == ("entry out of range", (0, 1, 0, 2**63))
    assert LieAlgebra.create(3, []).dim == 0


def test_create_rejects_jacobi_failure():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 fails Jacobi over F5
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2], c[1, 0, 2] = 1, 4
    c[1, 2, 0], c[2, 1, 0] = 1, 4
    c[2, 0, 0], c[0, 2, 0] = 1, 4
    with pytest.raises(TableInvalid):
        LieAlgebra.create(5, c)


@pytest.mark.parametrize("p", [0, 1, 4, -5, True, 2.0], ids=repr)
def test_create_rejects_a_characteristic_that_is_not_a_prime(p):
    """Checked before any residue mod p: no ring that is not a field, no division by zero."""
    with pytest.raises(TableInvalid) as err:
        LieAlgebra.create(p, np.zeros((2, 2, 2), dtype=np.int64))
    assert (err.value.reason, err.value.witness) == ("characteristic is not a prime", (p,))
    for build in (sl2, nonabelian2):
        with pytest.raises(TableInvalid, match="characteristic is not a prime"):
            build(p)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("p", [1008209, 2**31 - 1], ids=repr)
def test_create_rejects_a_characteristic_that_overflows_int64(p):
    """sl2 brackets sum d^2 = 9 products of three entries below p; past int64 they would wrap."""
    assert 9 * (p - 1) ** 3 > INT64_MAX
    with pytest.raises(TableInvalid) as err:
        sl2(p)
    assert (err.value.reason, err.value.witness) == ("characteristic too large for int64 brackets", (p,))


@pytest.mark.parametrize("p", [65521, 1008199], ids=repr)
def test_sl2_classifies_up_to_the_largest_prime_int64_holds(p):
    """1008199 is the largest prime p with 9 (p-1)^3 in int64, and the next one (1008209) is refused."""
    assert 9 * (p - 1) ** 3 <= INT64_MAX
    rep = lie_classify(sl2(p))
    assert (rep.center_dim, rep.der_dim, rep.is_perfect) == (0, 3, True)
    assert rep.strong_complete and rep.proto_complete


def test_sl2_is_valid_and_perfect():
    L = sl2(5)
    rep = lie_classify(L)
    assert rep.is_perfect and rep.center_dim == 0


def test_sl2_derivations_dimension():
    assert lie_derivations(sl2(5)).der.dim == 3


def test_sl2_strong_complete():
    rep = lie_classify(sl2(5))
    assert rep.strong_complete and rep.proto_complete


def test_sl2_char2_has_central_h():
    # [h, e] = 2e vanishes mod 2, so h is central and ad is not injective
    rep = lie_classify(sl2(2))
    assert rep.center_dim > 0
    assert not rep.strong_complete


def test_nonabelian2_strong_complete():
    for p in (2, 3, 5):
        rep = lie_classify(nonabelian2(p))
        assert rep.strong_complete
        assert rep.der_dim == 2


def test_abelian_sweep_never_proto():
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            rep = lie_classify(abelian_lie(d, p))
            assert not rep.proto_complete and not rep.strong_complete
            assert rep.center_dim == d
            assert rep.der_dim == d * d  # all of gl(d)


def test_zero_algebra_strong_complete():
    rep = lie_classify(LieAlgebra.create(3, []))
    assert rep.strong_complete and rep.proto_complete


def test_derivations_satisfy_leibniz():
    for L in (sl2(5), nonabelian2(3), abelian_lie(2, 5)):
        data = lie_derivations(L)
        d = L.dim
        for mat in data.basis:
            D = np.asarray(mat, dtype=np.int64)
            for i, j in itertools.product(range(d), repeat=2):
                x = np.eye(d, dtype=np.int64)[i]
                y = np.eye(d, dtype=np.int64)[j]
                lhs = (D @ L.bracket(x, y)) % L.p
                rhs = (L.bracket(D @ x % L.p, y) + L.bracket(x, D @ y % L.p)) % L.p
                assert np.array_equal(lhs, rhs)


def test_ad_kernel_matches_bruteforce_center():
    for L in (sl2(5), nonabelian2(3), abelian_lie(2, 3)):
        p, d = L.p, L.dim
        brute = sum(
            1
            for vec in itertools.product(range(p), repeat=d)
            if not any(
                np.any(L.bracket(np.asarray(vec), np.eye(d, dtype=np.int64)[j]))
                for j in range(d)
            )
        )
        rep = lie_classify(L)
        assert brute == p ** rep.center_dim


def test_no_nonzero_algebra_with_trivial_der():
    test_set = [sl2(5), sl2(3), nonabelian2(2), nonabelian2(5), abelian_lie(1, 2)]
    for L in test_set:
        assert lie_derivations(L).der.dim > 0


def test_perfect_centerless_have_strong_complete_der():
    # asserted inside lie_classify; reaching here without error is the check
    for L in (sl2(5), sl2(3), sl2(7)):
        rep = lie_classify(L)
        assert rep.is_perfect and rep.center_dim == 0


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3))
def test_bracket_antisymmetry_random_vectors(p, d):
    L = sl2(p) if d == 3 else (nonabelian2(p) if d == 2 else abelian_lie(1, p))
    rng = np.random.default_rng(p * 10 + d)
    for _ in range(5):
        x = rng.integers(0, p, size=L.dim)
        y = rng.integers(0, p, size=L.dim)
        assert np.array_equal(L.bracket(x, y), (-L.bracket(y, x)) % p)


# -- references: the per-row, per-column and per-entry loops -------------------


def reference_rref(mat, p):
    m = mat.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if m[i, c] % p != 0), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and m[i, c] % p != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def reference_nullspace(mat, p):
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = reference_rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, c]) % p
    return basis


def reference_solve(mat, rhs, p):
    """One right-hand side at a time."""
    rows, cols = mat.shape
    aug = np.concatenate([mat % p, rhs.reshape(rows, 1) % p], axis=1)
    r, pivots = reference_rref(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols]
    return x


def reference_derivations(L):
    """(basis, der constants, ad_coords): a loop-built tensor and one solve per column."""
    p, d = L.p, L.dim
    c = L._c
    coeff = np.zeros((d, d, d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for s in range(d):
                    coeff[i, j, k, k, s] += c[i, j, s]
                coeff[i, j, k, :, i] -= c[:, j, k]
                coeff[i, j, k, :, j] -= c[i, :, k]
    ns = reference_nullspace(coeff.reshape(d * d * d, d * d) % p, p)
    m = ns.shape[1]
    mats = [ns[:, t].reshape(d, d) % p for t in range(m)]
    sc = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            comm = (mats[i] @ mats[j] - mats[j] @ mats[i]) % p
            coords = reference_solve(ns, comm.reshape(d * d), p)
            sc[i, j] = coords
            sc[j, i] = (-coords) % p
    ad_coords = np.zeros((m, d), dtype=np.int64)
    for i in range(d):
        adm = L.ad_matrix(np.eye(d, dtype=np.int64)[i])
        ad_coords[:, i] = reference_solve(ns, adm.reshape(d * d), p)
    return tuple(tuple(map(tuple, mm)) for mm in mats), sc, ad_coords


def reference_sections(L, data, limit):
    p, d = L.p, L.dim
    A = data.ad_coords
    m = data.der.dim
    if m == 0:
        return [np.zeros((d, 0), dtype=np.int64)]
    cols = []
    for j in range(m):
        x = reference_solve(A, np.eye(m, dtype=np.int64)[j], p)
        if x is None:
            return []
        cols.append(x)
    S0 = np.stack(cols, axis=1) % p
    Z = reference_nullspace(A, p)
    z = Z.shape[1]
    dsc = data.der._c
    out = []
    for entries in itertools.product(range(p), repeat=z * m):
        S = (S0 + Z @ np.asarray(entries, dtype=np.int64).reshape(z, m)) % p
        if all(
            np.array_equal((S @ dsc[i, j]) % p, L.bracket(S[:, i], S[:, j]))
            for i in range(m)
            for j in range(i + 1, m)
        ):
            out.append(S)
            if len(out) >= limit:
                break
    return out


def random_matrix(rng, p, rows, cols, r):
    """A rows x cols matrix over F_p of rank at most r."""
    return (rng.integers(0, p, size=(rows, r)) @ rng.integers(0, p, size=(r, cols))) % p


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 2**32 - 1))
@example(5, 0, 4, 2, 0)
@example(3, 4, 0, 2, 1)
def test_row_reduction_matches_the_reference(p, rows, cols, r, seed):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, p, rows, cols, r)
    reduced, pivots = _rref(A, p)
    ref_reduced, ref_pivots = reference_rref(A, p)
    assert np.array_equal(reduced, ref_reduced) and pivots == ref_pivots
    assert np.array_equal(nullspace(A, p), reference_nullspace(A, p))
    assert rank(A, p) == (len(ref_pivots) if 0 not in A.shape else 0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
@example(5, 0, 4, 2, 3, 0)
@example(3, 6, 5, 0, 2, 1)
def test_zero_duplicated_and_negated_rows_leave_the_null_space(p, rows, cols, r, extra, seed):
    """The Leibniz build drops such rows; the null space must not see them."""
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, p, rows, cols, r)
    picks = rng.integers(0, rows, size=2 * extra) if rows else np.zeros(0, dtype=np.int64)
    B = np.concatenate([
        A,
        np.zeros((extra, cols), dtype=np.int64),
        A[picks[:extra]],
        (-A[picks[extra:]]) % p,
    ])
    B = B[rng.permutation(B.shape[0])]
    assert np.array_equal(nullspace(B, p), reference_nullspace(A, p))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(5, 0, 3, 1, 2, 0)
@example(3, 4, 0, 1, 3, 1)
def test_batched_solves_match_one_solve_per_column(p, rows, cols, r, k, seed):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, p, rows, cols, r)
    B = (A @ rng.integers(0, p, size=(cols, k))) % p  # every column consistent
    X = solve_linear(A, B, p)
    assert X.shape == (cols, k)
    for j in range(k):
        assert np.array_equal(X[:, j], reference_solve(A, B[:, j], p))
    assert np.array_equal(solve_linear(A, B[:, 0], p), X[:, 0])
    # make exactly one column inconsistent, when A's columns do not span F_p^rows
    outside = [e for e in np.eye(rows, dtype=np.int64) if reference_solve(A, e, p) is None]
    if outside:
        j = int(rng.integers(k))
        B[:, j] = outside[0]
        inconsistent = [reference_solve(A, B[:, i], p) is None for i in range(k)]
        assert inconsistent == [i == j for i in range(k)]
        assert solve_linear(A, B, p) is None
        assert solve_linear(A, B[:, j], p) is None


def _direct_sum(*parts):
    d = sum(L.dim for L in parts)
    c = np.zeros((d, d, d), dtype=np.int64)
    off = 0
    for L in parts:
        k = L.dim
        c[off : off + k, off : off + k, off : off + k] = L._c
        off += k
    return LieAlgebra.create(parts[0].p, c)


def heisenberg(p):
    """[x, y] = z: a center and outer derivations (Der has dimension 6)."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 2], c[1, 0, 2] = 1, p - 1
    return LieAlgebra.create(p, c, f"heis(F{p})")


def _inverse(M, p):
    """M^-1 mod p by the reference row reduction of [M | I], or None if M is singular."""
    d = M.shape[0]
    r, pivots = reference_rref(np.concatenate([M % p, np.eye(d, dtype=np.int64)], axis=1), p)
    return r[:, d:] if pivots[:d] == list(range(d)) else None


def _gl_change(L, M, name=None):
    """Constants in the basis f_a = sum_i M[a][i] e_i, for M invertible mod p."""
    p = L.p
    N = _inverse(np.asarray(M, dtype=np.int64), p)
    assert N is not None
    return LieAlgebra.create(p, np.einsum("ai,bj,ijk,kl->abl", M, M, L._c, N) % p, name)


def _random_gl(d, p, rng, low=0):
    """A random invertible d x d matrix mod p with entries in [low, p)."""
    while True:
        M = rng.integers(low, p, size=(d, d))
        if _inverse(M, p) is not None:
            return M


_rng = np.random.default_rng(21)
REFERENCE_ALGEBRAS = [
    sl2(5), sl2(7), sl2(3), sl2(2), _direct_sum(sl2(5), sl2(5)), _direct_sum(sl2(7), sl2(7)),
    abelian_lie(1, 2), abelian_lie(2, 3), abelian_lie(3, 5), nonabelian2(2), nonabelian2(7),
    heisenberg(3), heisenberg(5), _direct_sum(sl2(5), abelian_lie(1, 5)),
    # dense constants: no zero entry in the change of basis
    _gl_change(_direct_sum(sl2(5), sl2(5)), _random_gl(6, 5, _rng, 1), "sl2(F5)^2-in-GL-basis"),
    _gl_change(heisenberg(5), _random_gl(3, 5, _rng, 1), "heis(F5)-in-GL-basis"),
]


@pytest.mark.parametrize("L", REFERENCE_ALGEBRAS, ids=lambda L: L.name or f"sum-dim-{L.dim}")
def test_derivation_data_matches_the_reference(L):
    data = lie_derivations(L)
    basis, sc, ad_coords = reference_derivations(L)
    assert data.basis == basis
    assert np.array_equal(data.der._c, sc)
    assert np.array_equal(data.ad_coords, ad_coords)
    # the search returns the first section of the reference's enumeration order
    section = _bracket_respecting_section(L, data)
    reference = reference_sections(L, data, L.p ** SECTION_EXPONENT_CAP)
    assert (None if section is None else section.tolist()) == (
        reference[0].tolist() if reference else None
    )


def test_heisenberg_has_center_and_outer_derivations():
    rep = lie_classify(heisenberg(5))
    assert (rep.center_dim, rep.der_dim) == (1, 6)
    assert not rep.proto_complete and not rep.strong_complete


def _monomial_change(L, perm, scalars):
    """Constants in the basis f_i = l_i e_perm(i)."""
    p, c = L.p, L._c
    lam = np.asarray(scalars, dtype=np.int64)
    inv = np.asarray([pow(int(x), -1, p) for x in lam], dtype=np.int64)
    cp = c[np.ix_(perm, perm, perm)]
    return LieAlgebra.create(p, lam[:, None, None] * lam[None, :, None] * cp * inv[None, None, :])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(REFERENCE_ALGEBRAS), st.randoms(use_true_random=False))
def test_monomial_change_of_basis_keeps_every_verdict(L, rnd):
    perm = list(range(L.dim))
    rnd.shuffle(perm)
    M = _monomial_change(L, perm, [rnd.randrange(1, L.p) for _ in range(L.dim)])
    fields = ("dim", "center_dim", "der_dim", "is_perfect", "proto_complete", "strong_complete")
    a, b = lie_classify(L), lie_classify(M)
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(REFERENCE_ALGEBRAS), st.integers(0, 2**32 - 1))
def test_gl_change_of_basis_keeps_every_verdict(L, seed):
    M = _random_gl(L.dim, L.p, np.random.default_rng(seed))
    fields = ("dim", "center_dim", "der_dim", "is_perfect", "proto_complete", "strong_complete")
    a, b = lie_classify(L), lie_classify(_gl_change(L, M))
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def test_section_cap_error_names_the_algebra_and_the_phase(monkeypatch):
    monkeypatch.setattr(lie, "SECTION_EXPONENT_CAP", -1)
    with pytest.raises(SearchBudgetExceeded) as err:
        lie_classify(sl2(5))
    assert str(err.value) == "sl2(F5): section search: section family of size 5^0"
