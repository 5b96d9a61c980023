"""Lie algebras over prime fields: derivations, ad, completeness verdicts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Optional

import numpy as np

from .errors import SearchBudgetExceeded, TableInvalid, check_theorem
from .groups import int_table

# enumeration cap for bracket-respecting sections: p^(center_dim * der_dim)
SECTION_EXPONENT_CAP = 6


# -- F_p linear algebra --------------------------------------------------------


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form mod p and the pivot column list.

    One scan of column c lists its nonzero rows.  The pivot is the first of
    them at or below the current row, swapped up only if it is not there
    already; every other listed row is then cleared by one broadcast update
    mod p.  Rows below the current one are zero left of the pivot column,
    so the update only touches columns from the pivot on.
    """
    m = np.asarray(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[:, c].nonzero()[0]
        at = nz.searchsorted(r)
        if at == nz.size:
            continue
        pivot = int(nz[at])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        row = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        m[r, c:] = row
        # a swap moves only the pivot among the rows in nz, so the others keep their index
        hit = nz[nz != pivot]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - m[hit, c, None] * row) % p
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the kernel, as columns; shape (cols, nullity)."""
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = _rref(mat, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = (-r[: len(pivots)][:, free]) % p
    return basis


def solve_linear(mat: np.ndarray, rhs: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution x of mat @ x = rhs mod p, or None.

    `rhs` is a vector or a (rows, k) matrix of k right-hand sides; x has the
    shape of `rhs` with rows replaced by mat's columns.  All columns are
    reduced together, and the result is None if any one has no solution.
    """
    rows, cols = mat.shape
    b = np.asarray(rhs) % p
    aug = np.concatenate([mat % p, b.reshape(rows, 1) if b.ndim == 1 else b], axis=1)
    r, pivots = _rref(aug, p)
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    x[pivots] = r[: len(pivots), cols:]
    return x[:, 0] if b.ndim == 1 else x


def rank(mat: np.ndarray, p: int) -> int:
    if 0 in mat.shape:
        return 0
    return len(_rref(mat, p)[1])


# -- the structures ------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] over F_p: [e_i, e_j] = sum_k c[i][j][k] e_k."""

    p: int
    dim: int
    sc: tuple
    name: Optional[str] = None

    @staticmethod
    def create(p: int, sc, name: Optional[str] = None) -> "LieAlgebra":
        """The algebra on the constants `sc`, read by `int_table` and taken mod p.

        p must be a prime integer (not a bool or a float): TableInvalid otherwise.
        The layer computes in int64, and its widest sum is a bracket of
        reduced coordinates, d^2 products of three entries below p (`bracket`
        and the section test of `_bracket_respecting_section`); every other
        sum is narrower.  A p at which d^2 (p-1)^3 exceeds int64 raises
        TableInvalid naming p.
        """
        if (isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 2
                or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
            raise TableInvalid("characteristic is not a prime", (p,))
        c = int_table(sc, ndim=3) % p
        d = c.shape[0]
        if c.shape != (d, d, d):
            raise TableInvalid("structure constants must be a d*d*d cube")
        if d * d * (int(p) - 1) ** 3 > np.iinfo(np.int64).max:
            raise TableInvalid("characteristic too large for int64 brackets", (p,))
        if d:
            if not np.array_equal(c, (-c.transpose(1, 0, 2)) % p):
                raise TableInvalid("bracket is not antisymmetric")
            if np.any(c[np.arange(d), np.arange(d)] % p):
                raise TableInvalid("[x,x] must vanish")
            # Jacobi: [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej] = 0
            t = np.einsum("ijl,lkm->ijkm", c, c)
            jac = (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) % p
            if np.any(jac):
                bad = np.argwhere(jac)[0]
                raise TableInvalid("Jacobi identity fails", tuple(int(v) for v in bad))
        L = LieAlgebra(p, d, tuple(tuple(map(tuple, plane)) for plane in c.tolist()), name)
        L.__dict__["_c"] = c
        return L

    @cached_property
    def _c(self) -> np.ndarray:
        return np.asarray(self.sc, dtype=np.int64).reshape(self.dim, self.dim, self.dim)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x % self.p, y % self.p, self._c) % self.p

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of [x, -] acting on coordinate columns: M[k][j] = sum_i x_i c[i][j][k]."""
        return np.einsum("i,ijk->kj", x % self.p, self._c) % self.p


def abelian_lie(dim: int, p: int) -> LieAlgebra:
    return LieAlgebra.create(p, np.zeros((dim, dim, dim), dtype=np.int64), f"abelian{dim}(F{p})")


def nonabelian2(p: int) -> LieAlgebra:
    """The 2-dim algebra with [e1, e2] = e2."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1], c[1, 0, 1] = 1, -1  # reduced mod p by `create`
    return LieAlgebra.create(p, c, f"aff2(F{p})")


def sl2(p: int) -> LieAlgebra:
    """Basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    c = np.zeros((3, 3, 3), dtype=np.int64)  # reduced mod p by `create`
    c[0, 1, 2], c[1, 0, 2] = 1, -1
    c[2, 0, 0], c[0, 2, 0] = 2, -2
    c[2, 1, 1], c[1, 2, 1] = -2, 2
    return LieAlgebra.create(p, c, f"sl2(F{p})")


@dataclass(frozen=True)
class DerivationData:
    """Der(L) with a chosen basis, its bracket, and the ad map into it."""

    L: LieAlgebra
    basis: tuple  # tuple of d*d int matrices (as nested tuples)
    der: LieAlgebra  # Der(L) in the chosen basis
    ad_coords: np.ndarray  # shape (der.dim, L.dim): column i = coords of ad(e_i)


def _label(L: LieAlgebra) -> str:
    """L's name in reports and theorem checks."""
    return L.name or f"lie-dim-{L.dim}-F{L.p}"


def _leibniz_system(c: np.ndarray, p: int) -> np.ndarray:
    """The equations of `lie_derivations` for the constants c, less the redundant ones.

    Row (i, j, k), for i < j only, holds the coefficients of the unknowns
    D[r][s] (row-major) in the k-coordinate of D[e_i,e_j] - [De_i,e_j] -
    [e_i,De_j]; it is built from the nonzero constants alone, and all-zero
    rows are dropped.  Equation (j, i, k) is the negative of (i, j, k) and
    (i, i, k) is identically 0, so the null space is the same as that of
    the full d^3 x d^2 system.
    """
    d = c.shape[0]
    ks = np.arange(d)
    iu, ju = np.triu_indices(d, 1)
    pair = np.zeros((d, d), dtype=np.int64)
    pair[iu, ju] = np.arange(iu.size)  # equation (i, j, k) is row (pair[i, j], k) for i < j
    coeff = np.zeros((iu.size, d, d, d), dtype=np.int64)  # [pair, k, r, s] of unknown D[r, s]
    a, b, e = c.nonzero()
    v = c[a, b, e]
    # D[e_i, e_j] puts c[i,j,s] on D[k, s] for every k
    up = a < b
    np.add.at(coeff, (pair[a[up], b[up], None], ks, ks, e[up, None]), v[up, None])
    # -[De_i, e_j] puts -c[r,j,k] on D[r, i], for every i < j
    n, i = (ks < b[:, None]).nonzero()
    np.add.at(coeff, (pair[i, b[n]], e[n], a[n], i), -v[n])
    # -[e_i, De_j] puts -c[i,r,k] on D[r, j], for every j > i
    n, j = (ks > a[:, None]).nonzero()
    np.add.at(coeff, (pair[a[n], j], e[n], b[n], j), -v[n])
    coeff %= p
    system = coeff.reshape(-1, d * d)
    return system[system.any(axis=1)]


def lie_derivations(L: LieAlgebra) -> DerivationData:
    """Solve D[x,y] = [Dx,y] + [x,Dy] as a linear system in the d^2 entries of D.

    Unknowns are D[r][s] (row-major); one equation per (i, j, k): the
    k-coordinate of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] vanishes.
    `_leibniz_system` keeps only the equations with i < j that are not
    all zero, which have the same null space.
    """
    p, d = L.p, L.dim
    if d == 0:
        der = LieAlgebra.create(p, np.zeros((0, 0, 0), dtype=np.int64),
                                f"Der({L.name})" if L.name else None)
        return DerivationData(L, (), der, np.zeros((0, 0), dtype=np.int64))
    c = L._c
    ns = nullspace(_leibniz_system(c, p), p)  # (d*d, m); columns are the basis, already independent
    m = ns.shape[1]
    mats = ns.T.reshape(m, d, d)
    # express every [Di, Dj] = DiDj - DjDi (i < j) in the basis; coordinates are unique
    iu, ju = np.triu_indices(m, 1)
    comm = (mats[iu] @ mats[ju] - mats[ju] @ mats[iu]) % p
    coords = solve_linear(ns, comm.reshape(-1, d * d).T, p)
    check_theorem(coords is not None, _label(L), "Der is closed under commutators")
    sc = np.zeros((m, m, m), dtype=np.int64)
    sc[iu, ju] = coords.T
    sc[ju, iu] = (-coords.T) % p
    der = LieAlgebra.create(p, sc, f"Der({L.name})" if L.name else None)
    ad_columns = c.transpose(0, 2, 1).reshape(d, d * d).T % p  # column i: ad(e_i), row-major
    ad_coords = solve_linear(ns, ad_columns, p)
    check_theorem(ad_coords is not None, _label(L), "the inner derivations lie in Der")
    return DerivationData(L, tuple(tuple(map(tuple, mm)) for mm in mats.tolist()), der, ad_coords)


@dataclass(frozen=True)
class LieReport:
    name: str
    p: int
    dim: int
    center_dim: int
    der_dim: int
    is_perfect: bool
    proto_complete: bool
    strong_complete: bool
    section: Optional[tuple] = None


def _bracket_respecting_section(L: LieAlgebra, data: DerivationData) -> Optional[np.ndarray]:
    """The first linear section s of ad: L -> Der with s a Lie map, as a (d, m) matrix, or None.

    The affine family of linear sections is S0 + Z @ C over all C, in the
    lexicographic order of C's entries; each member is tested against every
    basis bracket of Der.  Enumeration size p^(z*m) is capped; exceeding the
    cap raises instead of guessing.
    """
    p, d = L.p, L.dim
    A = data.ad_coords  # (m, d)
    m = data.der.dim
    if m == 0:
        return np.zeros((d, 0), dtype=np.int64)
    S0 = solve_linear(A, np.eye(m, dtype=np.int64), p)  # (d, m)
    if S0 is None:
        return None  # ad not surjective: no section at all
    Z = nullspace(A, p)  # (d, z) = center
    z = Z.shape[1]
    if z * m > SECTION_EXPONENT_CAP:
        raise SearchBudgetExceeded(f"{_label(L)}: section search: section family of size {p}^{z * m}")
    iu, ju = np.triu_indices(m, 1)
    dsc = data.der._c[iu, ju]  # (pairs, m): [D_i, D_j] in Der's basis
    for entries in itertools.product(range(p), repeat=z * m):
        C = np.asarray(entries, dtype=np.int64).reshape(z, m)
        S = (S0 + Z @ C) % p
        # S[D_i, D_j] against [S D_i, S D_j], for every pair i < j at once
        want = (S @ dsc.T) % p
        got = np.einsum("ap,bp,abk->kp", S[:, iu], S[:, ju], L._c) % p
        if np.array_equal(want, got):
            return S
    return None


def lie_classify(L: LieAlgebra) -> LieReport:
    """Completeness verdicts with ad in the role of the conjugation morphism.

    strong-complete iff ad: L -> Der(L) is bijective; proto-complete iff ad
    admits a bracket-respecting linear section.  For perfect centerless L
    the derivation algebra itself must come out strong-complete, which is
    checked here by classifying it once more.
    """
    rep, der = _lie_verdicts(L)
    if rep.is_perfect and rep.center_dim == 0:
        check_theorem(_lie_verdicts(der)[0].strong_complete, f"Der({rep.name})",
                      "the derivation algebra of a perfect centerless algebra is strong-complete")
    return rep


def _lie_verdicts(L: LieAlgebra) -> tuple[LieReport, LieAlgebra]:
    """The report of `lie_classify` and the derivation algebra Der(L)."""
    p, d = L.p, L.dim
    data = lie_derivations(L)
    m = data.der.dim
    A = data.ad_coords
    center_dim = d - rank(A, p) if d else 0
    # cross-check the center against the brute-force definition of kernel(ad)
    stacked = (
        np.concatenate([L.ad_matrix(np.eye(d, dtype=np.int64)[i]).reshape(-1, 1) for i in range(d)], axis=1)
        if d
        else np.zeros((0, 0), dtype=np.int64)
    )
    check_theorem(center_dim == (d - rank(stacked, p) if d else 0), _label(L),
                  "the center is the kernel of ad")
    if d:
        brackets = L._c.reshape(d * d, d).T  # columns span [L, L]
        is_perfect = rank(brackets, p) == d
    else:
        is_perfect = True
    strong = center_dim == 0 and m == d
    S = _bracket_respecting_section(L, data)
    proto = S is not None
    if strong:
        check_theorem(proto, _label(L), "a bijective ad admits its inverse as a section")
    section = None if S is None else tuple(tuple(row) for row in S.tolist())
    report = LieReport(
        name=_label(L),
        p=p,
        dim=d,
        center_dim=center_dim,
        der_dim=m,
        is_perfect=is_perfect,
        proto_complete=proto,
        strong_complete=strong,
        section=section,
    )
    return report, data.der
