"""Self-tests of the benchmark's span arithmetic and closed-form helpers.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 7.0, 2],
    ]
    t = tracing.span_totals(spans)
    assert t["a"] == {"s": 3.0, "cum_s": 10.0}
    assert t["b"] == {"s": 4.0, "cum_s": 4.0}
    assert t["c"] == {"s": 3.0, "cum_s": 4.0}
    assert sum(v["s"] for v in t.values()) == 10.0


def test_recursion_is_counted_once_in_cumulative_time():
    spans = [["r", 0.0, 10.0, -1], ["x", 1.0, 2.0, 0], ["r", 2.0, 5.0, 0], ["r", 3.0, 4.0, 2]]
    t = tracing.span_totals(spans)
    assert t["r"]["cum_s"] == 10.0
    assert t["r"]["s"] == 9.0
    assert t["x"]["s"] == 1.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_generators_are_timed_only_inside_next():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def gen():
        clock.now += 1.0
        yield 1
        clock.now += 2.0
        yield 2
        clock.now += 4.0

    wrapped = tracing.wrap(tr, "groups.iter_hom_images", gen)
    it = wrapped()
    assert next(it) == 1
    clock.now += 100.0  # the consumer's time is not the generator's
    assert next(it) == 2
    with pytest.raises(StopIteration):
        next(it)
    t = tracing.span_totals(tr.spans)
    assert t["groups.iter_hom_images"]["s"] == 7.0
    assert tr.counts["groups.iter_hom_images.calls"] == 1
    assert tr.counts["groups.iter_hom_images.images"] == 2
    assert tr.stack == []


def test_function_spans_nest_and_close_on_error():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def inner():
        clock.now += 2.0
        raise ValueError("boom")

    w_inner = tracing.wrap(tr, "m.inner", inner)

    def outer():
        clock.now += 1.0
        try:
            w_inner()
        except ValueError:
            pass
        clock.now += 1.0

    tracing.wrap(tr, "m.outer", outer)()
    t = tracing.span_totals(tr.spans)
    assert t["m.outer"] == {"s": 2.0, "cum_s": 4.0}
    assert t["m.inner"]["s"] == 2.0
    assert tr.counts["m.outer.calls"] == tr.counts["m.inner.calls"] == 1
    assert tr.stack == []


def test_metric_values_from_totals_and_counts():
    totals = {"lie.nullspace": {"s": 1.0, "cum_s": 1.5}, "lie.rank": {"s": 0.5, "cum_s": 0.5},
              "rings.ring_classify": {"s": 2.0, "cum_s": 3.0}}
    counts = {"rings.FiniteRing.create.calls": 7}
    assert tracing.metric_value("lie.linear_algebra.s", totals, counts) == 1.5
    assert tracing.metric_value("rings.ring_classify.cum_s", totals, counts) == 3.0
    assert tracing.metric_value("rings.FiniteRing.create.calls", totals, counts) == 7
    assert tracing.metric_value("groups.is_isomorphic.s", totals, counts) == 0.0


def test_install_wraps_every_name_a_module_uses():
    """Run in a fresh interpreter so the wrapped modules do not leak into other tests."""
    script = f"""
import json, sys
sys.path[:0] = [{os.path.join(os.path.dirname(HERE), 'src')!r}, {HERE!r}]
import algcomplete, tracing
from algcomplete import catalog, completeness, extensions
tr = tracing.Tracer()
produced = tracing.install(tr)
assert catalog.semidirect_product is completeness.semidirect_product is extensions.semidirect_product
assert algcomplete.semidirect_product is extensions.semidirect_product
assert hasattr(extensions.semidirect_product, "__wrapped__")
S3 = catalog.symmetric(3)
completeness.oracle_completeness(S3, "strong", 2, [catalog.cyclic(2)])
completeness.oracle_completeness(S3, "complete", 2, [catalog.cyclic(2)])
completeness.classify_completeness(S3)
print(json.dumps([tr.counts, sorted(produced)]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout
    counts, produced = json.loads(out)
    # every count kept is one install says it can produce, and so is every per-layer metric
    assert set(counts) <= set(produced)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        layers = {m["name"] for m in json.load(fh)["per_layer"]}
    assert layers <= set(produced)
    assert "extensions.enumerate_normal_embeddings.embeddings" in counts
    assert counts["completeness.oracle_strong.calls"] == 1
    # Aut(S3) = S3 has three involutions, so Z2 acts on S3 in 1 + 3 ways
    assert counts["extensions.iter_actions.actions"] == 4
    assert counts["extensions.semidirect_product.calls"] == 4
    assert counts["extensions.split_extension_check.calls"] == 4
    assert counts["completeness.classify_completeness.calls"] == 1


def test_unknown_layer_metric_stops_a_traced_run(tmp_path):
    root = os.path.dirname(HERE)
    ignore = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(os.path.join(root, "src"), tmp_path / "src", ignore=ignore)
    shutil.copytree(HERE, tmp_path / "bench", ignore=ignore)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec["per_layer"].append({"name": "groups.no_such_function.s", "unit": "s",
                              "better": "lower"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "rings-lie", "--seed", "1", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "groups.no_such_function.s" in proc.stderr
    assert proc.stdout == ""


# -- judging a run -----------------------------------------------------------------


def _round(report: dict) -> dict:
    return {"traced": False, "report_bytes": json.dumps(report).encode()}


def test_a_wrong_row_fails_and_makes_the_run_incorrect():
    checks = [("a", lambda r: []), ("b", lambda r: [] if r["x"] == 1 else ["x is wrong"])]
    good = {"objects": [{"name": "a"}, {"name": "b", "x": 1}]}
    wrong = {"objects": [{"name": "a"}, {"name": "b", "x": 2}]}
    correct, attempted, failed, _, problems = run.judge("rings-lie", False, [_round(good)] * 3,
                                                        checks)
    assert (correct, attempted, failed, problems) == (True, 6, 0, [])
    # consistently wrong in every round: the rounds agree, yet the run is not correct
    correct, attempted, failed, _, problems = run.judge("rings-lie", False, [_round(wrong)] * 3,
                                                        checks)
    assert (correct, attempted, failed) == (False, 6, 3)
    assert problems == [f"round {i}: b: x is wrong" for i in range(3)]


def test_a_failed_round_fails_all_its_rows_and_makes_the_run_incorrect():
    checks = [("a", lambda r: [])]
    rounds = [_round({"objects": [{"name": "a"}]}), {"error": "timed out", "traced": False}]
    correct, attempted, failed, _, _ = run.judge("rings-lie", False, rounds, checks)
    assert (correct, attempted, failed) == (False, 2, 1)


def test_a_call_that_wrote_no_report_is_a_round_error(tmp_path):
    report = tmp_path / "report.json"
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"rc": 2, "report": str(report)}))
    assert "wrote no report" in run.load_round(str(result), False)["error"]
    report.write_text("{}")
    assert "wrote no report" in run.load_round(str(result), False)["error"]
    result.write_text(json.dumps({"rc": 1, "report": str(report)}))
    assert run.load_round(str(result), True)["report_bytes"] == b"{}"


# -- closed-form helpers -----------------------------------------------------------


def test_phi_and_primitive_roots_by_brute_force():
    for n in range(1, 200):
        assert workloads.phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        roots = [g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1]
        assert workloads.primitive_roots(p) == roots


def _table_facts(table):
    n = len(table)
    center = [z for z in range(n) if all(table[z][x] == table[x][z] for x in range(n))]
    return n, len(center)


def _aut_count(table):
    """|Aut| by trying every image of a two-element generating set."""
    n = len(table)
    gens = next((a, b) for a in range(n) for b in range(n)
                if len(_span(table, [a, b])) == n)
    count = 0
    for x, y in itertools.product(range(n), repeat=2):
        img = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            e = frontier.pop()
            for g, h in ((gens[0], x), (gens[1], y)):
                f, v = table[e][g], table[img[e]][h]
                if f in img:
                    ok = ok and img[f] == v
                else:
                    img[f] = v
                    frontier.append(f)
        if ok and len(set(img.values())) == n and all(
            img[table[a][b]] == table[img[a]][img[b]] for a in range(n) for b in range(n)
        ):
            count += 1
    return count


def _span(table, gens):
    seen, frontier = {0}, [0]
    while frontier:
        e = frontier.pop()
        for g in gens:
            f = table[e][g]
            if f not in seen:
                seen.add(f)
                frontier.append(f)
    return seen


@pytest.mark.parametrize("kind,n", [("sym", 3), ("sym", 4), ("hol", 5), ("dih", 4), ("dih", 5),
                                    ("dih", 6), ("dic", 2), ("dic", 3), ("alt", 4)])
def test_group_closed_forms_on_small_groups(kind, n):
    table = workloads.relabel(random.Random(kind + str(n)), workloads.group_table(kind, n))[0]
    order, center = _table_facts(table)
    want = workloads.group_closed_form(kind, n)
    assert (order, center) == (want["order"], want["center_order"])
    assert _aut_count(table) == want["aut_order"]


def test_generators_give_the_named_group_orders():
    sizes = {("hol", 7): 42, ("sym", 5): 120, ("alt", 5): 60, ("alt", 4): 12,
             ("z2xsym", 5): 240, ("dih", 9): 18}
    for (kind, n), size in sizes.items():
        gens = workloads.PERM_GENS[kind](n)
        assert len(workloads.closure(len(gens[0]), gens)) == size


def test_point_relabelling_keeps_the_cayley_table():
    gens = workloads.hol_gens(11)
    table = workloads.cayley_from_perms(11, gens)
    for seed in range(3):
        moved = workloads.relabel_points(gens, random.Random(seed))
        assert moved != gens
        assert workloads.cayley_from_perms(11, moved) == table


def test_ring_helpers():
    add, mul = workloads.zn_tables(12, 3)
    assert len(add) == 4 and workloads.brute_force_unit(mul) is not None
    assert workloads.additive_exponent(add) == 4
    add, mul = workloads.zn_tables(12, 2)
    assert workloads.brute_force_unit(mul) is None
    add, mul = workloads.relabel(random.Random(1), *workloads.zn_tables(9))
    assert workloads.additive_exponent(add) == 9
    assert workloads.brute_force_unit(mul) is not None
    assert workloads.brute_force_unit(workloads.zero_ring_tables(4)[1]) is None


def test_change_of_basis_keeps_a_lie_algebra():
    p = 7
    c = workloads.direct_sum_constants([workloads.sl2_constants(p)] * 2)
    d = len(c)
    new = workloads.change_basis(c, p, random.Random(3))
    for i, j in itertools.product(range(d), repeat=2):
        assert all((new[i][j][k] + new[j][i][k]) % p == 0 for k in range(d))
    for i, j, k, m in itertools.product(range(d), repeat=4):
        jac = sum(new[i][j][l] * new[l][k][m] + new[j][k][l] * new[l][i][m]
                  + new[k][i][l] * new[l][j][m] for l in range(d))
        assert jac % p == 0


def test_inputs_depend_only_on_the_seed():
    for make in (workloads.audit_catalog, workloads.classify_catalog, workloads.rings_lie_inputs):
        assert json.dumps(make(5)) == json.dumps(make(5))
        assert json.dumps(make(5)) != json.dumps(make(6))
