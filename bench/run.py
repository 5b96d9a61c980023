"""Benchmark of algcomplete: three workloads, each round in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  A run repeats whole rounds of its workload while one
more round fits in S seconds (at least three rounds; with --trace 1,
untraced and traced rounds alternate, at least two of each), checks every
report row against closed forms, and prints one JSON object as its last
line.  --trace 0 reports the end-to-end metrics in BENCHMARK.json: the mean
of wall_s and cpu_s over the rounds and the median of the others; --trace 1
reports its per-layer metrics from spans around the program's public
functions.  Outputs go to bench/_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# Reported as the mean over a run's rounds, not the median: the machine's slow
# spells outlast a round, and the mean blends a run that straddles a change of
# speed where the median snaps to one side.
MEAN_METRICS = ("wall_s", "cpu_s")
RUN_CEILING_S = 150.0  # no round starts after this; a round's child is killed at 170 s


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")


def build() -> None:
    """Nothing to compile but the byte code; a missing program is an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "algcomplete", "__init__.py")):
        fail(f"no program at {src}/algcomplete")
    if not compileall.compile_dir(src, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        fail("byte compilation failed")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALGC_")}
    env.pop("PYTHONPATH", None)
    # one process, one thread: keep numpy's BLAS pool from adding threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# -- expected rows ---------------------------------------------------------------


def row_checks(workload: str, seed: int) -> list[tuple[str, object]]:
    """(name, check) per report row, in report order; check(row) lists problems."""
    if workload == "oracle-audit":
        b = workloads.AUDIT_BOUND
        return [(name, lambda r, k=kind, n=n: workloads.check_audit_row(r, k, n, b))
                for name, kind, n in workloads.AUDIT_GROUPS]
    if workload == "theorem-classify":
        return [(name, lambda r, k=kind, n=n: workloads.check_classify_row(r, k, n))
                for name, kind, n in workloads.CLASSIFY_GROUPS]
    lie = {name: (kind, p, k) for name, kind, p, k in workloads.LIE}
    out = []
    for item in workloads.rings_lie_inputs(seed):
        if item["type"] == "ring":
            out.append((item["name"], lambda r, it=item: workloads.check_ring_row(r, it)))
        else:
            out.append((item["name"],
                        lambda r, a=lie[item["name"]]: workloads.check_lie_row(r, *a)))
    return out


def report_problems(workload: str, report: dict) -> list[str]:
    """Problems with the report as a whole, outside its rows."""
    problems = []
    if workload != "rings-lie":
        if report.get("failed") is not False:
            problems.append("report says a check failed")
        if workload == "oracle-audit" and report.get("bound") != workloads.AUDIT_BOUND:
            problems.append(f"report bound {report.get('bound')}")
    return problems


def failed_rows(report: dict, checks) -> tuple[int, list[str]]:
    """Rows that are missing, misnamed, raise in their check, or fail it."""
    problems = []
    rows = report.get("objects", [])
    failed = max(0, len(checks) - len(rows))
    for (name, check), row in zip(checks, rows):
        try:
            bad = check(row) if row.get("name") == name else [f"row {row.get('name')}"]
        except (KeyError, TypeError, ValueError) as exc:
            bad = [f"check raised {exc!r}"]
        if bad:
            failed += 1
            problems += [f"{name}: {b}" for b in bad]
    return failed, problems


# -- rounds ------------------------------------------------------------------------


def run_round(workload: str, seed: int, traced: bool, workdir: str, rnd: int,
              deadline: float) -> dict:
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), "1" if traced else "0", workdir,
             str(rnd), repr(t0)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "traced": traced}
    path = os.path.join(workdir, f"result-{rnd}.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "traced": traced}
    return load_round(path, traced)


def load_round(path: str, traced: bool) -> dict:
    """A child's result, with its report's bytes; an error when it wrote no report.

    The CLI returns 0 or 1 (a check failed) with a report written, and 2 with
    none when it stops on an AlgebraError or an invalid configuration.
    """
    with open(path) as fh:
        res = json.load(fh)
    if res["rc"] not in (0, 1) or not os.path.exists(res["report"]):
        return {"error": f"measured call returned {res['rc']} and wrote no report",
                "traced": traced}
    with open(res["report"], "rb") as fh:
        res["report_bytes"] = fh.read()
    res["traced"] = traced
    return res


def judge(workload: str, trace: bool, rounds: list[dict], checks):
    """(correct, attempted, failed, [(global check, ok)], problems) of a run.

    Every round attempts every row.  A row fails when its check does not hold,
    and all rows of a round fail when the round errs.  No workload keeps an
    operation that is known to fail, so `correct` needs every row of every
    round to hold, besides the report-level, byte-identity and count checks.
    """
    problems: list[str] = []
    whole: list[str] = []
    attempted = failed = 0
    judged: dict[bytes, tuple[int, list[str]]] = {}
    for i, r in enumerate(rounds):
        attempted += len(checks)
        if "error" in r:
            failed += len(checks)
            problems.append(f"round {i}: {r['error']}")
            continue
        b = r["report_bytes"]
        if b not in judged:
            try:
                report = json.loads(b)
                judged[b] = failed_rows(report, checks)
                whole += report_problems(workload, report)
            except json.JSONDecodeError as exc:
                judged[b] = (len(checks), [f"report is not JSON: {exc}"])
        failed += judged[b][0]
        problems += [f"round {i}: {p}" for p in judged[b][1]]
    ok = [r for r in rounds if "error" not in r]
    problems += whole
    global_ok = [(f"{attempted - failed} of {attempted} rows match their closed forms",
                  failed == 0 and len(ok) > 0),
                 ("report-level checks", not whole)]
    same_bytes = len({r["report_bytes"] for r in ok}) <= 1
    global_ok.append(("reports byte-identical across rounds"
                      + (" (traced and untraced)" if trace else ""), same_bytes))
    if trace:
        traced_ok = [r for r in ok if r["traced"]]
        same_counts = len({json.dumps(r["counts"], sort_keys=True) for r in traced_ok}) <= 1
        global_ok.append(("counts repeat exactly across traced rounds",
                          same_counts and len(traced_ok) >= MIN_TRACED_ROUNDS))
    correct = all(v for _, v in global_ok)
    return correct, attempted, failed, global_ok, problems


def check_layers(spec: dict) -> None:
    """Exit 2 when a per-layer metric names no function that tracing wraps."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    produced = tracing.install(tracing.Tracer())
    missing = sorted({m["name"] for m in spec["per_layer"]} - produced)
    if missing:
        fail("per-layer metrics that no wrapped function produces: " + ", ".join(missing))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    build()
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    if trace:
        check_layers(spec)
    workdir = os.path.join(HERE, "_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    checks = row_checks(workload, seed)

    start = time.monotonic()
    deadline = start + RUN_CEILING_S + 20.0
    rounds: list[dict] = []
    need = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    while True:
        # a traced run alternates untraced and traced rounds, to measure the overhead
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, traced, workdir, len(rounds), deadline))
        measured = [r for r in rounds if r["traced"] == trace]
        elapsed = time.monotonic() - start
        # stop when one more round of the mean length would overrun the run
        next_end = elapsed + elapsed / len(rounds)
        if (len(measured) >= need and next_end > args.seconds) or next_end > RUN_CEILING_S:
            break

    correct, attempted, failed, global_ok, problems = judge(workload, trace, rounds, checks)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for label, v in global_ok:
        print(f"check: {label}: {'ok' if v else 'FAILED'}")
    for p in problems[:20]:
        print(f"problem: {p}")

    metrics = {}
    summary = {"workload": workload, "seed": seed, "trace": int(trace),
               "rounds": [{k: v for k, v in r.items() if k not in ("report_bytes", "totals")}
                          for r in rounds]}
    ok = [r for r in rounds if "error" not in r]
    traced_ok = [r for r in ok if r["traced"]]
    if not trace:
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in ok]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            est = "mean" if m["name"] in MEAN_METRICS else "median"
            value = statistics.fmean(vals) if est == "mean" else med
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} = {value:.6g} {m['unit']} ({est} of {len(vals)}; "
                  f"quartiles {q1:.6g} .. {q3:.6g})")
    elif traced_ok:
        import tracing

        for m in spec["per_layer"]:
            vals = [tracing.metric_value(m["name"], r["totals"], r["counts"]) for r in traced_ok]
            value = statistics.median(vals) if m["unit"] == "s" else vals[0]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        untraced = [r["wall_s"] for r in ok if not r["traced"]]
        traced_wall = statistics.median(r["wall_s"] for r in traced_ok)
        if untraced:
            base = statistics.median(untraced)
            summary["tracing_overhead_s"] = traced_wall - base
            print(f"tracing overhead: {traced_wall - base:+.4f} s (wall_s median traced "
                  f"{traced_wall:.4f} s, untraced {base:.4f} s; "
                  f"{traced_ok[0]['spans']} spans per traced round)")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    with open(os.path.join(workdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, default=str)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
