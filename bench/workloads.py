"""Seeded inputs for the three workloads and the closed forms they are checked against.

Everything here is the benchmark's own arithmetic: permutation closure,
Cayley tables, ring tables and Lie structure constants are built without
importing algcomplete, so the checks do not share code with the program
they judge.  The same (workload, seed) pair always gives the same inputs.
"""

from __future__ import annotations

import math
import random
from collections import deque

WORKLOADS = ("oracle-audit", "theorem-classify", "rings-lie")

# oracle-audit: an absolute cokernel bound with bound * |G| <= 512 for every
# audited G, so the oracle skips no universe member of order <= bound.
AUDIT_BOUND = 7
ELEMENT_CAP = 512


# -- number theory -------------------------------------------------------------


def phi(n: int) -> int:
    """Euler's totient."""
    out, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


def prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def primitive_roots(p: int) -> list[int]:
    qs = prime_factors(p - 1)
    return [g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs)]


# -- permutation groups --------------------------------------------------------


def closure(degree: int, gens) -> list[tuple[int, ...]]:
    """Every product of the generators, identity first (breadth-first)."""
    ident = tuple(range(degree))
    seen = {ident}
    out = [ident]
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in seen:
                seen.add(y)
                out.append(y)
                queue.append(y)
    return out


def cayley_from_perms(degree: int, gens) -> list[list[int]]:
    elems = closure(degree, gens)
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(a[b[i]] for i in range(degree))] for b in elems] for a in elems]


def relabel(rng: random.Random, *tables) -> list[list[list[int]]]:
    """The same operations on one shuffle of the labels; label 0 stays put."""
    n = len(tables[0])
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest  # old label i becomes new[i]
    old = [0] * n
    for i, v in enumerate(new):
        old[v] = i
    return [[[new[t[old[a]][old[b]]] for b in range(n)] for a in range(n)] for t in tables]


def hol_gens(p: int) -> list[list[int]]:
    """Hol(Z_p) = Z_p : Aut(Z_p) on the points of Z_p: x -> x + 1 and x -> g x."""
    g = primitive_roots(p)[0]
    return [[(x + 1) % p for x in range(p)], [(g * x) % p for x in range(p)]]


def dihedral_gens(n: int) -> list[list[int]]:
    """D_n on the n-gon: a rotation of order n and a reflection."""
    return [[(x + 1) % n for x in range(n)], [(-x) % n for x in range(n)]]


def symmetric_gens(n: int) -> list[list[int]]:
    """A transposition and an n-cycle."""
    return [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]]


def alternating_gens(n: int) -> list[list[int]]:
    """A 3-cycle and an n-cycle (n odd) or an (n-1)-cycle fixing 0 (n even)."""
    long = list(range(1, n)) + [0] if n % 2 else [0] + list(range(2, n)) + [1]
    return [[1, 2, 0] + list(range(3, n)), long]


def z2_times_symmetric_gens(n: int) -> list[list[int]]:
    """Z2 x S_n on n + 2 points: S_n on the first n, a swap of the last two."""
    gens = [g + [n, n + 1] for g in symmetric_gens(n)]
    return gens + [list(range(n)) + [n + 1, n]]


def relabel_points(gens, rng) -> list[list[int]]:
    """The generators conjugated by a random permutation s of the points.

    Conjugation renames points only: every word in the generators keeps its
    meaning, so a closure that numbers elements in breadth-first word order
    gives the same Cayley table for every s.
    """
    degree = len(gens[0])
    s = list(range(degree))
    rng.shuffle(s)
    out = []
    for g in gens:
        h = [0] * degree
        for i in range(degree):
            h[s[i]] = s[g[i]]
        out.append(h)
    return out


def dicyclic_table(n: int) -> list[list[int]]:
    """Dic_n of order 4n: a^i b^j with a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1."""
    m = 2 * n
    elems = [(i, j) for i in range(m) for j in range(2)]
    index = {e: k for k, e in enumerate(elems)}

    def mul(x, y):
        (i1, j1), (i2, j2) = x, y
        if j1 == 0:
            return ((i1 + i2) % m, j2)
        if j2 == 0:
            return ((i1 - i2) % m, 1)
        return ((i1 - i2 + n) % m, 0)

    return [[index[mul(x, y)] for y in elems] for x in elems]


# -- closed forms for the groups -----------------------------------------------


def group_closed_form(kind: str, n: int) -> dict:
    """|G|, |Z(G)|, |Aut(G)| and strong completeness from classical results.

    hol:     Hol(Z_p), p an odd prime, is complete; |Aut| = p(p-1).
    sym:     S_n, n >= 3 and n != 6, is complete; |Aut| = n!.
    alt:     A_n, n >= 4 and n != 6, has Aut = S_n, so Out = Z2.
    dih:     D_n, n >= 3: |Aut| = n phi(n); Z trivial for odd n, Z2 for even.
    dic:     Dic_n, n >= 3: Z = Z2 and Aut = Hol(Z_2n), so |Aut| = 2n phi(2n);
             Dic_2 = Q8 has Aut = S4.
    z2xsym:  Z2 x S_n: |Aut| = |Aut S_n| |Aut Z2| |Hom(S_n, Z2)| |Hom(Z2, Z(S_n))| = 2 n!.
    """
    f = math.factorial
    if kind == "hol":
        return {"order": n * (n - 1), "center_order": 1, "aut_order": n * (n - 1),
                "strong_complete": True}
    if kind == "sym":
        return {"order": f(n), "center_order": 1, "aut_order": f(n), "strong_complete": True}
    if kind == "alt":
        return {"order": f(n) // 2, "center_order": 1, "aut_order": f(n),
                "strong_complete": False}
    if kind == "dih":
        return {"order": 2 * n, "center_order": 1 if n % 2 else 2, "aut_order": n * phi(n),
                "strong_complete": n == 3}
    if kind == "dic":
        return {"order": 4 * n, "center_order": 2,
                "aut_order": 24 if n == 2 else 2 * n * phi(2 * n),
                "strong_complete": False}
    if kind == "z2xsym":
        return {"order": 2 * f(n), "center_order": 2, "aut_order": 2 * f(n),
                "strong_complete": False}
    raise ValueError(f"no closed form for {kind}")


# -- group catalogs ------------------------------------------------------------

# (name, kind, parameter); complete groups are audited next to groups that
# are known not to be complete (nontrivial center and outer automorphisms).
AUDIT_GROUPS = (
    ("S3", "sym", 3),
    ("S4", "sym", 4),
    ("F20", "hol", 5),
    ("Hol(Z7)", "hol", 7),
    ("D4", "dih", 4),
    ("Q8", "dic", 2),
)

CLASSIFY_GROUPS = (
    ("Hol(Z5)", "hol", 5),
    ("Hol(Z7)", "hol", 7),
    ("Hol(Z11)", "hol", 11),
    ("Hol(Z13)", "hol", 13),
    ("Hol(Z17)", "hol", 17),
    ("Hol(Z23)", "hol", 23),
    ("S4", "sym", 4),
    ("S5", "sym", 5),
    ("A5", "alt", 5),
    ("Z2xS5", "z2xsym", 5),
    ("D15", "dih", 15),
    ("D60", "dih", 60),
    ("D99", "dih", 99),
    ("Dic12", "dic", 12),
    ("Dic30", "dic", 30),
)


PERM_GENS = {"hol": hol_gens, "dih": dihedral_gens, "sym": symmetric_gens,
             "alt": alternating_gens, "z2xsym": z2_times_symmetric_gens}


def group_table(kind: str, n: int) -> list[list[int]]:
    if kind == "dic":
        return dicyclic_table(n)
    gens = PERM_GENS[kind](n)
    return cayley_from_perms(len(gens[0]), gens)


def _catalog(groups, rng) -> list[dict]:
    """Permutation groups on seeded point labels; Dic_n as tables with seeded labels."""
    out = []
    for name, kind, n in groups:
        if kind == "dic":
            out.append({"name": name, "cayley": relabel(rng, dicyclic_table(n))[0]})
        else:
            gens = relabel_points(PERM_GENS[kind](n), rng)
            out.append({"name": name,
                        "permutations": {"degree": len(gens[0]), "generators": gens}})
    return out


def audit_catalog(seed: int) -> list[dict]:
    return _catalog(AUDIT_GROUPS, random.Random(f"oracle-audit/{seed}"))


def classify_catalog(seed: int) -> list[dict]:
    return _catalog(CLASSIFY_GROUPS, random.Random(f"theorem-classify/{seed}"))


# -- rings ---------------------------------------------------------------------


def zn_tables(n: int, step: int = 1) -> tuple[list[list[int]], list[list[int]]]:
    """The subring step*Z/nZ of Z/n (all of Z/n for step 1), elements in increasing order."""
    elems = sorted({(k * step) % n for k in range(n)})
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[(a + b) % n] for b in elems] for a in elems]
    mul = [[index[(a * b) % n] for b in elems] for a in elems]
    return add, mul


def zero_ring_tables(n: int) -> tuple[list[list[int]], list[list[int]]]:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    return add, [[0] * n for _ in range(n)]


def brute_force_unit(mul) -> int | None:
    n = len(mul)
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            return e
    return None


def additive_exponent(add) -> int:
    """lcm of the additive orders, from the table alone."""
    out = 1
    for x in range(len(add)):
        k, y = 1, x
        while y != 0:
            y = add[y][x]
            k += 1
        out = math.lcm(out, k)
    return out


# (name, kind, n, step): Z/n, zero rings, and proper subrings step*Z/nZ.
RINGS = (
    ("Z/2", "zn", 2, 1),
    ("Z/3", "zn", 3, 1),
    ("Z/4", "zn", 4, 1),
    ("Z/6", "zn", 6, 1),
    ("Z/8", "zn", 8, 1),
    ("Z/9", "zn", 9, 1),
    ("Z/10", "zn", 10, 1),
    ("Z/11", "zn", 11, 1),
    ("Z/12", "zn", 12, 1),
    ("zero(2)", "zero", 2, 0),
    ("zero(4)", "zero", 4, 0),
    ("zero(6)", "zero", 6, 0),
    ("2Z/8Z", "zn", 8, 2),
    ("2Z/10Z", "zn", 10, 2),
    ("3Z/12Z", "zn", 12, 3),
    ("2Z/12Z", "zn", 12, 2),
)


# -- Lie algebras --------------------------------------------------------------


def sl2_constants(p: int) -> list:
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, p - 1
    c[2][0][0], c[0][2][0] = 2 % p, (p - 2) % p
    c[2][1][1], c[1][2][1] = (p - 2) % p, 2 % p
    return c


def nonabelian2_constants(p: int) -> list:
    """[e1, e2] = e2."""
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][1], c[1][0][1] = 1, p - 1
    return c


def direct_sum_constants(parts: list) -> list:
    d = sum(len(c) for c in parts)
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    off = 0
    for c in parts:
        k = len(c)
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    out[off + i][off + j][off + m] = c[i][j][m]
        off += k
    return out


def change_basis(c: list, p: int, rng) -> list:
    """Structure constants in the basis f_i = l_i e_pi(i), for a random
    permutation pi and random nonzero scalars l_i over F_p:
    [f_i, f_j] = sum_k l_i l_j c[pi i][pi j][pi k] / l_k f_k.

    A monomial change of basis keeps the zero pattern of the constants up to
    the permutation, so the linear algebra does about the same work for
    every seed.
    """
    d = len(c)
    pi = list(range(d))
    rng.shuffle(pi)
    lam = [rng.randrange(1, p) for _ in range(d)]
    inv = [pow(x, -1, p) for x in lam]
    return [[[lam[i] * lam[j] * c[pi[i]][pi[j]][pi[k]] * inv[k] % p for k in range(d)]
             for j in range(d)] for i in range(d)]


# (name, kind, p, k): k copies of sl2(F_p), abelian of dimension k, or aff2.
LIE = (
    ("sl2(F5)", "sl2", 5, 1),
    ("sl2(F7)", "sl2", 7, 1),
    ("sl2(F11)", "sl2", 11, 1),
    ("sl2(F5)^2", "sl2", 5, 2),
    ("sl2(F7)^2", "sl2", 7, 2),
    ("sl2(F5)^3", "sl2", 5, 3),
    ("sl2(F7)^3", "sl2", 7, 3),
    ("sl2(F5)^4", "sl2", 5, 4),
    ("abelian1(F2)", "abelian", 2, 1),
    ("abelian2(F3)", "abelian", 3, 2),
    ("abelian3(F5)", "abelian", 5, 3),
    ("abelian4(F2)", "abelian", 2, 4),
    ("aff2(F2)", "aff2", 2, 2),
    ("aff2(F3)", "aff2", 3, 2),
    ("aff2(F7)", "aff2", 7, 2),
)


def lie_closed_form(kind: str, p: int, k: int) -> dict:
    """dim Der, dim Z, perfection and strong completeness.

    sl2(F_p)^k, p >= 5: perfect and centerless with Der = ad, so dim Der = 3k
      and the algebra is strong-complete.
    abelian of dimension k: Der = gl_k, so dim Der = k^2; center everything.
    aff2: [e1, e2] = e2 has trivial center and Der = ad, of dimension 2.
    """
    if kind == "sl2":
        return {"dim": 3 * k, "der_dim": 3 * k, "center_dim": 0, "is_perfect": True,
                "strong_complete": True}
    if kind == "abelian":
        return {"dim": k, "der_dim": k * k, "center_dim": k, "is_perfect": False,
                "strong_complete": False}
    if kind == "aff2":
        return {"dim": 2, "der_dim": 2, "center_dim": 0, "is_perfect": False,
                "strong_complete": True}
    raise ValueError(kind)


def rings_lie_inputs(seed: int) -> list[dict]:
    """Ring tables with seeded labels; Lie constants in a seeded basis."""
    rng = random.Random(f"rings-lie/{seed}")
    out = []
    for name, kind, n, step in RINGS:
        add, mul = zn_tables(n, step) if kind == "zn" else zero_ring_tables(n)
        add, mul = relabel(rng, add, mul)
        out.append({"type": "ring", "name": name, "add": add, "mul": mul})
    for name, kind, p, k in LIE:
        if kind == "sl2":
            c = direct_sum_constants([sl2_constants(p)] * k)
        elif kind == "abelian":
            c = [[[0] * k for _ in range(k)] for _ in range(k)]
        else:
            c = nonabelian2_constants(p)
        out.append({"type": "lie", "name": name, "p": p, "sc": change_basis(c, p, rng)})
    return out


# -- checks --------------------------------------------------------------------


def check_audit_row(row: dict, kind: str, n: int, bound: int) -> list[str]:
    """Problems with one --mode audit row; empty when the row is right."""
    bad = []
    order = row["classification"]["order"]
    if order * bound > ELEMENT_CAP:
        bad.append(f"bound {bound} x |G| {order} exceeds {ELEMENT_CAP}: members would be skipped")
    if row["violations"]:
        bad.append(f"violations {row['violations']}")
    verdicts = [row[k] for k in ("oracle_proto", "oracle_strong", "oracle_complete")]
    if any(v["bound"] != bound for v in verdicts):
        bad.append("a verdict reports another bound")
    complete = group_closed_form(kind, n)["strong_complete"]
    if complete and not all(v["holds"] for v in verdicts):
        bad.append("a complete group failed an oracle")
    if not complete and (verdicts[0]["holds"] or verdicts[1]["holds"]):
        bad.append("a group that is not complete was not refuted")
    if row["classification"]["strong_complete"] != complete:
        bad.append("theorem verdict differs from the classical result")
    return bad


def check_classify_row(row: dict, kind: str, n: int) -> list[str]:
    want = group_closed_form(kind, n)
    return [f"{k} is {row[k]}, closed form gives {v}" for k, v in want.items() if row[k] != v]


def check_ring_row(row: dict, item: dict) -> list[str]:
    bad = []
    unit = brute_force_unit(item["mul"])
    has_unit = unit is not None
    if row["has_unit"] != has_unit or row["unit"] != unit:
        bad.append(f"unit {row['unit']}, brute force gives {unit}")
    want_u = additive_exponent(item["add"]) * len(item["add"])
    if row["unitalization_order"] != want_u:
        bad.append(f"unitalization order {row['unitalization_order']}, want {want_u}")
    for k in ("proto_complete", "complete", "strong_complete", "unitalization_splits"):
        if row[k] != has_unit:
            bad.append(f"{k} is {row[k]} but has_unit is {has_unit}")
    return bad


def check_lie_row(row: dict, kind: str, p: int, k: int) -> list[str]:
    want = lie_closed_form(kind, p, k)
    bad = [f"{key} is {row[key]}, closed form gives {v}" for key, v in want.items()
           if row[key] != v]
    if row["is_perfect"] and row["center_dim"] == 0 and not row["strong_complete"]:
        bad.append("perfect centerless algebra is not strong-complete")
    return bad
