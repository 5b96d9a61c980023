"""Batch driver: classify, audit, oracle-crosscheck, paper-examples.

Every flag has an environment-variable mirror with the ALGC_ prefix
(ALGC_CATALOG, ALGC_MODE, ALGC_BOUND, ALGC_UNIVERSE, ALGC_BUDGET, ALGC_OUT,
ALGC_JOBS); explicit flags win over the environment.  Reports are JSON with
sorted keys and contain no timestamps, so a fixed configuration produces
byte-identical output regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Optional, Sequence

from .errors import AlgebraError, ConfigInvalid
from .groups import DEFAULT_SEARCH_BUDGET, FiniteGroup, direct_product
from .catalog import alternating, build_catalog, cyclic, resolve_catalog, symmetric
from .completeness import (
    classify_completeness,
    char_simple_audit,
    implication_audit,
    oracle_completeness,
    split_extension_oracles,
)
from .rings import ring_classify, ring_zn, subring, zero_ring
from .lie import lie_classify, sl2

SCHEMA = "algcomplete-report/1"


def _env(name: str, default=None):
    return os.environ.get(f"ALGC_{name}", default)


def _positive_int(text: str) -> int:
    """argparse type for counts; also applied to string defaults from ALGC_*."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="algcomplete",
        description="Classify finite groups, rings and Lie algebras by completeness notions.",
    )
    p.add_argument("--catalog", default=_env("CATALOG", "builtin"),
                   help="catalog JSON path, or 'builtin' for all groups of order <= 24")
    p.add_argument("--mode", default=_env("MODE", "classify"), choices=list(MODES))
    p.add_argument("--bound", type=_positive_int, default=_env("BOUND"),
                   help="cokernel/universe bound; default 2*|G| per group")
    p.add_argument("--universe", default=_env("UNIVERSE", None),
                   help="universe JSON path for the oracles; default: the catalog itself")
    p.add_argument("--budget", type=_positive_int, default=_env("BUDGET"),
                   help="search node budget, shared by the section search of each "
                        "classification, by all retraction searches of one split-extension "
                        "pass (which gives a row's proto and strong verdicts together) or "
                        "by those of one complete oracle; automorphism search, action "
                        "enumeration and normal-embedding enumeration are not covered: "
                        f"each runs under its own fixed limit of {DEFAULT_SEARCH_BUDGET:,} nodes")
    p.add_argument("--out", default=_env("OUT", None), help="report file; default stdout")
    p.add_argument("--jobs", type=_positive_int, default=_env("JOBS", "1"))
    return p


def _load_catalog(path: str) -> list[FiniteGroup]:
    if path == "builtin":
        return list(build_catalog(24))
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read catalog: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ConfigInvalid("catalog file must hold a JSON list of entries")
    return resolve_catalog(entries)


def _verdict_dict(v) -> dict:
    return {
        "mode": v.mode,
        "holds": v.flag,
        "bound": v.bound,
        "universe": v.universe_id,
        "witness": v.witness,
    }


def _report_dict(rep) -> dict:
    return {
        "name": rep.name,
        "order": rep.order,
        "center_order": rep.center_order,
        "aut_order": rep.aut_order,
        "inn_order": rep.inn_order,
        "out_order": rep.out_order,
        "proto_complete": rep.proto_complete,
        "proto_section": list(rep.proto_section) if rep.proto_section else None,
        "strong_complete": rep.strong_complete,
    }


# worker functions must be module level for process pools


def _job_classify(args) -> dict:
    G, _, budget = args
    rep = classify_completeness(G, budget=budget)
    return _report_dict(rep)


def _job_crosscheck(args) -> dict:
    G, (bound, universe), budget = args
    b = bound if bound is not None else 2 * G.order
    rep = classify_completeness(G, budget=budget)
    op, os_ = split_extension_oracles(G, b, universe, "universe", budget)
    return {
        "name": rep.name,
        "bound": b,
        "proto": {"theorem": rep.proto_complete, "oracle": op.flag},
        "strong": {"theorem": rep.strong_complete, "oracle": os_.flag},
        "agree": op.flag == rep.proto_complete and os_.flag == rep.strong_complete,
    }


def _job_audit(args) -> dict:
    G, (bound, universe), budget = args
    b = bound if bound is not None else 2 * G.order
    aud = implication_audit(G, b, universe, "universe", budget)
    return {
        "name": aud.report.name,
        "classification": _report_dict(aud.report),
        "oracle_proto": _verdict_dict(aud.oracle_proto),
        "oracle_strong": _verdict_dict(aud.oracle_strong),
        "oracle_complete": _verdict_dict(aud.oracle_complete),
        "normal_subgroups_all_characteristic": aud.normal_all_characteristic,
        "violations": list(aud.violations),
    }


def _labelled(label: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with `label: ` put before the message of an AlgebraError it raises."""
    try:
        return fn(*args, **kwargs)
    except AlgebraError as exc:
        raise exc.prefixed(label) from None


# A pool worker's (catalog, extra): handed over once per worker by
# `_init_worker`, so a universe is unpickled once per worker, and a catalog
# that is its own universe stays one set of objects there, as at --jobs 1.
_WORKER_INPUT: tuple = ()


def _init_worker(catalog, extra) -> None:
    global _WORKER_INPUT
    _WORKER_INPUT = (catalog, extra)


def _pooled(job, i: int, budget) -> dict:
    catalog, extra = _WORKER_INPUT
    return job((catalog[i], extra, budget))


def _run_groups(job, catalog, extra, budget, jobs: int) -> list[dict]:
    """job((G, extra, budget)) for each G of the catalog; an error names its group."""
    labels = [G.name or f"group-of-order-{G.order}" for G in catalog]
    n = len(catalog)
    if jobs > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(catalog, extra)) as pool:
            return list(pool.map(_labelled, labels, [_pooled] * n, [job] * n, range(n),
                                 [budget] * n))
    return [_labelled(label, job, (G, extra, budget)) for label, G in zip(labels, catalog)]


def _paper_examples(budget) -> list[dict]:
    """The named group, ring and Lie results, each as an expected/actual pair."""
    checks = []

    def check(name: str, expected, actual):
        checks.append({"check": name, "expected": expected, "actual": actual,
                       "pass": expected == actual})

    Z2, Z4, S3 = cyclic(2), cyclic(4), symmetric(3)
    r2 = _labelled("Z2", classify_completeness, Z2, budget=budget)
    check("Z2 proto-complete", True, r2.proto_complete)
    v = _labelled("Z2", oracle_completeness, Z2, "complete", 2, [Z4], "Z4-only", budget)
    check("Z2 not complete (witness in Z4)", False, v.flag)
    check("Z2 witness is the doubling embedding", [0, 2],
          v.witness["image"] if v.witness else None)
    r3 = _labelled("S3", classify_completeness, S3, budget=budget)
    check("S3 strong-complete", True, r3.strong_complete)
    Z2xS3, _, _ = direct_product(Z2, S3, name="Z2xS3")
    check("Z2xS3 not proto-complete", False,
          _labelled("Z2xS3", classify_completeness, Z2xS3, budget=budget).proto_complete)
    check("Z4 not proto-complete", False,
          _labelled("Z4", classify_completeness, Z4, budget=budget).proto_complete)
    A5 = alternating(5)
    audit = _labelled("A5", char_simple_audit, A5, budget=budget)
    check("Aut(A5) order", 120, audit.aut_order)
    check("Aut(A5) strong-complete", True, audit.aut_strong_complete)
    check("Z/4 ring complete", True, _labelled("Z/4", ring_classify, ring_zn(4)).complete)
    check("zero ring on Z2 not complete", False,
          _labelled("zero ring on Z2", ring_classify, zero_ring(2)).complete)
    check("2Z/8Z not complete", False,
          _labelled("2Z/8Z", ring_classify, subring(ring_zn(8), [0, 2, 4, 6])).complete)
    sl = _labelled("sl2(F5)", lie_classify, sl2(5))
    check("sl2(F5) strong-complete", True, sl.strong_complete)
    check("sl2(F5) derivation dimension", 3, sl.der_dim)
    return checks


def _classify_rows(args, catalog, universe) -> list[dict]:
    return _run_groups(_job_classify, catalog, None, args.budget, args.jobs)


def _oracle_rows(job, args, catalog, universe) -> list[dict]:
    return _run_groups(job, catalog, (args.bound, universe), args.budget, args.jobs)


def _paper_rows(args, catalog, universe) -> list[dict]:
    return _paper_examples(args.budget)


# mode -> (report key, rows of the run, whether a row is a failed check)
MODES = {
    "classify": ("objects", _classify_rows, lambda row: False),
    "audit": ("objects", partial(_oracle_rows, _job_audit), lambda row: bool(row["violations"])),
    "oracle-crosscheck": ("objects", partial(_oracle_rows, _job_crosscheck),
                          lambda row: not row["agree"]),
    "paper-examples": ("checks", _paper_rows, lambda check: not check["pass"]),
}


def run_report(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode not in MODES:  # argparse checks choices on the flag, not on ALGC_MODE
        parser.error(f"ALGC_MODE: invalid choice: {args.mode!r} "
                     f"(choose from {', '.join(map(repr, MODES))})")
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    key, run, fails = MODES[args.mode]
    with out as fh:
        try:
            catalog = _load_catalog(args.catalog)
            same = not args.universe or args.universe == args.catalog
            rows = run(args, catalog, catalog if same else _load_catalog(args.universe))
        except AlgebraError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failed = any(map(fails, rows))
        report = {"schema": SCHEMA, "mode": args.mode, "catalog_size": len(catalog),
                  "bound": args.bound, key: rows, "failed": failed}
        try:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            fh.flush()
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 1 if failed else 0


def main() -> None:
    sys.exit(run_report())


if __name__ == "__main__":
    main()
