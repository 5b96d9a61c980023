"""One round of a workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TRACE WORKDIR ROUND T0

T0 is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes).  The child imports
algcomplete from the checkout's src/, writes the seeded inputs, issues the
measured call and writes ROUND's result to WORKDIR/result-ROUND.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _rings_lie(inputs_path: str, out_path: str) -> None:
    from dataclasses import asdict

    from algcomplete import FiniteRing, LieAlgebra, lie_classify, ring_classify

    with open(inputs_path) as fh:
        items = json.load(fh)
    rows = []
    for item in items:
        if item["type"] == "ring":
            rep = ring_classify(FiniteRing.create(item["add"], item["mul"], item["name"]))
        else:
            rep = lie_classify(LieAlgebra.create(item["p"], item["sc"], item["name"]))
        rows.append(asdict(rep))
    with open(out_path, "w") as fh:
        json.dump({"objects": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def prepare(workload: str, seed: int, workdir: str, rnd: int):
    """Write the inputs; return the measured call and the report path."""
    import workloads

    inputs = os.path.join(workdir, f"inputs-{rnd}.json")
    out = os.path.join(workdir, f"report-{rnd}.json")
    if workload == "oracle-audit":
        data = workloads.audit_catalog(seed)
        argv = ["--mode", "audit", "--catalog", inputs, "--universe", "builtin",
                "--bound", str(workloads.AUDIT_BOUND), "--jobs", "1", "--out", out]
    elif workload == "theorem-classify":
        data = workloads.classify_catalog(seed)
        argv = ["--mode", "classify", "--catalog", inputs, "--jobs", "1", "--out", out]
    else:
        data = workloads.rings_lie_inputs(seed)
        argv = None
    with open(inputs, "w") as fh:
        json.dump(data, fh)
    if argv is None:
        return (lambda: _rings_lie(inputs, out) or 0), out
    from algcomplete.cli import run_report

    return (lambda: run_report(argv)), out


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir, rnd, t0 = argv[1:7]
    seed, rnd, t0, trace = int(seed), int(rnd), float(t0), trace == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import algcomplete

    if not os.path.abspath(algcomplete.__file__).startswith(os.path.join(src, "")):
        print(f"algcomplete imported from {algcomplete.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    call, out = prepare(workload, seed, workdir, rnd)
    setup_s = time.monotonic() - t0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    rc = call()
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "report": out,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["totals"] = tracing.span_totals(tracer.spans)
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        with open(os.path.join(workdir, f"trace-{rnd}.json"), "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(os.path.join(workdir, f"result-{rnd}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
