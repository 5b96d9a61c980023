import ast
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import algcomplete
from algcomplete import cli
from algcomplete.catalog import resolve_catalog
from algcomplete.cli import run_report
from algcomplete.errors import ConfigInvalid, NotASubgroup, SizeCap, TableInvalid
from conftest import relabel


def write_catalog(tmp_path, entries, name="cat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


def test_empty_catalog_classify(tmp_path):
    path = write_catalog(tmp_path, [])
    out = tmp_path / "r.json"
    assert run_report(["--catalog", path, "--mode", "classify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["objects"] == []
    assert report["schema"] == "algcomplete-report/1"
    assert not report["failed"]


def test_classify_small_catalog(tmp_path):
    path = write_catalog(tmp_path, [
        {"name": "Z2", "cyclic": 2},
        {"name": "S3", "symmetric": 3},
    ])
    out = tmp_path / "r.json"
    assert run_report(["--catalog", path, "--mode", "classify", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["objects"]
    assert rows[0]["proto_complete"] and not rows[0]["strong_complete"]
    assert rows[1]["strong_complete"]


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-directory", "directory"])
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch, target):
    """The report file is opened before the run, so a bad path stops it before any job."""
    jobs = []
    monkeypatch.setattr(cli, "_job_classify", jobs.append)
    path = write_catalog(tmp_path, [{"name": "Z3", "cyclic": 3}])
    out = tmp_path / target
    assert run_report(["--catalog", path, "--mode", "classify", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ") and captured.err.count("\n") == 1
    assert jobs == []


def test_crosscheck_bound_one(tmp_path):
    path = write_catalog(tmp_path, [{"name": "S3", "symmetric": 3}])
    out = tmp_path / "r.json"
    rc = run_report(["--catalog", path, "--mode", "oracle-crosscheck",
                     "--bound", "1", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["objects"]
    assert rows[0]["agree"]


def test_audit_mode(tmp_path):
    path = write_catalog(tmp_path, [
        {"name": "Z2", "cyclic": 2},
        {"name": "Z4", "cyclic": 4},
        {"name": "S3", "symmetric": 3},
    ])
    out = tmp_path / "r.json"
    assert run_report(["--catalog", path, "--mode", "audit", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["objects"]
    assert all(r["violations"] == [] for r in rows)
    z2 = next(r for r in rows if r["name"] == "Z2")
    assert z2["oracle_proto"]["holds"] and not z2["oracle_complete"]["holds"]


def test_paper_examples_mode(tmp_path):
    out = tmp_path / "r.json"
    assert run_report(["--mode", "paper-examples", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(c["pass"] for c in report["checks"])
    names = {c["check"] for c in report["checks"]}
    assert "S3 strong-complete" in names and "sl2(F5) strong-complete" in names


def test_reports_byte_identical_across_runs_and_jobs(tmp_path):
    path = write_catalog(tmp_path, [
        {"name": "Z2", "cyclic": 2},
        {"name": "Z3", "cyclic": 3},
        {"name": "S3", "symmetric": 3},
        {"name": "Z6", "cyclic": 6},
    ])
    for mode in ("classify", "audit"):
        outs = []
        for jobs in ("1", "1", "3"):
            out = tmp_path / f"r{len(outs)}.json"
            rc = run_report(["--catalog", path, "--mode", mode,
                             "--jobs", jobs, "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class InlinePool:
    """A ProcessPoolExecutor stand-in that runs its one worker in this process."""

    made = []

    def __init__(self, max_workers, initializer, initargs):
        self.initargs = initargs
        self.tasks = []
        InlinePool.made.append(self)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *columns):
        self.tasks = list(zip(*columns))
        return [fn(*task) for task in self.tasks]


def test_pool_workers_receive_catalog_and_universe_once(tmp_path, monkeypatch):
    path = write_catalog(tmp_path, [{"name": "Z2", "cyclic": 2}, {"name": "S3", "symmetric": 3}])
    expected = report_rows(tmp_path, path, "--mode", "audit", "--bound", "3")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_WORKER_INPUT", ())  # restored after the inline worker sets it
    InlinePool.made.clear()
    assert report_rows(tmp_path, path, "--mode", "audit", "--bound", "3", "--jobs", "2") == expected
    (pool,) = InlinePool.made
    catalog, (bound, universe) = pool.initargs
    assert bound == 3 and universe is catalog and [G.name for G in catalog] == ["Z2", "S3"]
    # a task names its group by index; no group travels with it
    assert [task[3:] for task in pool.tasks] == [(0, None), (1, None)]


def test_env_mirrors(tmp_path, monkeypatch):
    path = write_catalog(tmp_path, [{"name": "Z2", "cyclic": 2}])
    out = tmp_path / "r.json"
    monkeypatch.setenv("ALGC_CATALOG", path)
    monkeypatch.setenv("ALGC_MODE", "classify")
    monkeypatch.setenv("ALGC_OUT", str(out))
    assert run_report([]) == 0
    assert json.loads(out.read_text())["objects"][0]["name"] == "Z2"


def test_bad_catalog_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_report(["--catalog", str(path), "--mode", "classify"]) == 2


def test_missing_catalog_is_config_error(tmp_path):
    assert run_report(["--catalog", str(tmp_path / "nope.json")]) == 2


Z3 = {"name": "Z3", "cyclic": 3}


def semidirect(action):
    return {"name": "K", "semidirect": {"kernel": "Z3", "actor": "Z3", "action": action}}


Z2 = {"name": "Z2", "cyclic": 2}


def quotient_of_z2(subgroup):
    return {"name": "Q", "quotient": {"parent": "Z2", "subgroup": subgroup}}


@pytest.mark.parametrize("entries, error, message", [
    ([{"name": "K", "cayley": [[0, 1], [1, 1]]}], TableInvalid,
     "catalog entry 'K': row is not a permutation (witness: (1,))"),
    ([Z3, semidirect([0, 1, 7])], TableInvalid,
     "catalog entry 'K': action index out of range (witness: (7,))"),
    ([Z3, semidirect([0, 1, 1])], TableInvalid,
     "catalog entry 'K': action is not a hom (witness: (1,))"),
    ([{"name": "K", "cayley": [[0, 1], [1, 0.9]]}], TableInvalid,
     "catalog entry 'K': entry is not an integer (witness: (1, 1, 0.9))"),
    ([{"name": "K", "cayley": [[0, True], [True, 0]]}], TableInvalid,
     "catalog entry 'K': entry is not an integer (witness: (0, 1, True))"),
    ([{"name": "K", "permutations": {"degree": 3, "generators": [[0, 1, 2.5]]}}], TableInvalid,
     "catalog entry 'K': entry is not an integer (witness: (2, 2.5))"),
    ([Z3, {"name": "Q", "quotient": {"parent": "Z3", "subgroup": [0, 99]}}], NotASubgroup,
     "catalog entry 'Q': element 99 out of range for order 3"),
    ([Z3, {"name": "Q", "quotient": {"parent": "Z3", "subgroup": [0, 1]}}], NotASubgroup,
     "catalog entry 'Q': not closed under inversion at 1"),
    ([{"name": "K", "cyclic": 513}], SizeCap, "catalog entry 'K': Z513 has more than 512 elements"),
    ([{"name": "K", "symmetric": 6}], SizeCap, "catalog entry 'K': S6 has more than 512 elements"),
    ([Z3, semidirect([0, 1.0, 0])], TableInvalid,
     "catalog entry 'K': entry is not an integer (witness: (1, 1.0))"),
    ([Z3, semidirect([0, True, 2])], TableInvalid,
     "catalog entry 'K': entry is not an integer (witness: (1, True))"),
    ([Z3, {"name": [1], "cyclic": 2}], ConfigInvalid, "catalog entry 1: name must be a string"),
    ([{"name": 5, "cyclic": 2}], ConfigInvalid, "catalog entry 0: name must be a string"),
    ([{"name": "Z", "cyclic": 3}, {"name": "K", "product": "ZZ"}], ConfigInvalid,
     "catalog entry 'K': product must be a list of two names"),
    ([Z3, {"name": "Z2", "cyclic": 2}, {"name": "K", "product": {"Z3": 0, "Z2": 1}}],
     ConfigInvalid, "catalog entry 'K': product must be a list of two names"),
    ([Z3, semidirect(5)], ConfigInvalid, "catalog entry 'K': action must be a list"),
    ([Z3, semidirect("01")], ConfigInvalid, "catalog entry 'K': action must be a list"),
    ([Z2, quotient_of_z2([0, True])], TableInvalid,
     "catalog entry 'Q': entry is not an integer (witness: (1, True))"),
    ([Z2, quotient_of_z2([0, 2.0])], TableInvalid,
     "catalog entry 'Q': entry is not an integer (witness: (1, 2.0))"),
    ([Z2, quotient_of_z2("02")], ConfigInvalid, "catalog entry 'Q': subgroup must be a list"),
], ids=["cayley", "action-range", "action-hom", "cayley-float", "cayley-bool", "permutation-float",
        "quotient-index", "quotient-not-subgroup", "cyclic-over-cap", "symmetric-over-cap",
        "action-float", "action-bool", "name-list", "name-int", "product-string", "product-dict",
        "action-int", "action-string", "quotient-bool", "quotient-float", "quotient-string"])
@pytest.mark.parametrize("flag", ["--catalog", "--universe"])
def test_invalid_catalog_is_config_error(tmp_path, capsys, entries, error, message, flag):
    path = write_catalog(tmp_path, entries)
    assert run_report([flag, path, "--mode", "classify"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    with pytest.raises(error) as exc:
        resolve_catalog(entries)
    assert str(exc.value) == message


@pytest.mark.parametrize("recipe, detail", [
    ({"semidirect": {"kernel": "Z3"}}, "missing field 'actor'"),
    ({"cyclic": "x"}, "malformed recipe: invalid literal for int()"),
    ({"cyclic": 0}, "cyclic order must be >= 1"),
    ({"product": ["Z3"]}, "malformed recipe: not enough values to unpack"),
    ({"permutations": {"degree": 3}}, "missing field 'generators'"),
    ({"cyclic": 2.7}, "cyclic must be an integer, not 2.7"),
    ({"dihedral": True}, "dihedral must be an integer, not True"),
    ({"dicyclic": 2.0}, "dicyclic must be an integer, not 2.0"),
    ({"symmetric": False}, "symmetric must be an integer, not False"),
    ({"alternating": 5.5}, "alternating must be an integer, not 5.5"),
    ({"permutations": {"degree": 2.5, "generators": []}}, "degree must be an integer, not 2.5"),
    ({"permutations": {"degree": True, "generators": []}}, "degree must be an integer, not True"),
], ids=["semidirect-no-actor", "cyclic-not-int", "cyclic-zero", "product-one-factor",
        "permutations-no-generators", "cyclic-float", "dihedral-bool", "dicyclic-float",
        "symmetric-bool", "alternating-float", "degree-float", "degree-bool"])
def test_malformed_recipe_names_the_entry(tmp_path, capsys, recipe, detail):
    path = write_catalog(tmp_path, [Z3, {"name": "K", **recipe}])
    assert run_report(["--catalog", path, "--mode", "classify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog entry 'K': {detail}") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--catalog", "--universe"])
def test_negative_degree_is_config_error(tmp_path, capsys, flag):
    path = write_catalog(tmp_path, [{"name": "K", "permutations": {"degree": -1, "generators": []}}])
    assert run_report([flag, path, "--mode", "classify"]) == 2
    assert capsys.readouterr().err == "error: catalog entry 'K': degree must be >= 0, not -1\n"


@pytest.mark.parametrize("flag", ["--catalog", "--universe"])
def test_huge_degree_without_generators_is_the_trivial_group(tmp_path, capsys, flag):
    path = write_catalog(tmp_path, [{"name": "K", "permutations": {"degree": 10**30, "generators": []}}])
    assert run_report([flag, path, "--mode", "classify"]) == 0
    assert capsys.readouterr().err == ""
    assert resolve_catalog([{"name": "K", "permutations": {"degree": 10**30, "generators": []}}])[
        0].order == 1


def test_invalid_action_is_rejected_under_python_O(tmp_path):
    path = write_catalog(tmp_path, [Z3, semidirect([0, 1, 1])])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "algcomplete", "--catalog", path, "--mode", "classify"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: catalog entry 'K': action is not a hom")
    assert proc.stdout == ""


def run_faulty_under_python_O(fault: str, *argv):
    """The CLI under `python -O` after the statements `fault` have broken a module."""
    code = (
        "import sys\n"
        "from algcomplete import completeness, groups, lie, rings\n"
        "from algcomplete.cli import run_report\n"
        f"{fault}\n"
        "sys.exit(run_report(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-O", "-c", code, *argv], capture_output=True, text=True)


def test_failed_theorem_check_exits_2_under_python_O(tmp_path):
    """A theorem check is not an assert: under -O a c that is not bijective still stops the run."""
    path = write_catalog(tmp_path, [{"name": "S3", "symmetric": 3}])
    # in --mode classify only the injectivity check of c calls `set` in completeness
    fault = "completeness.set = lambda cidx: ()"
    proc = run_faulty_under_python_O(fault, "--catalog", path, "--mode", "classify")
    assert proc.returncode == 2
    assert proc.stderr == ("error: S3: theorem check failed for S3: "
                           "trivial center and trivial Out make c an isomorphism\n")
    assert proc.stdout == ""


def test_failed_ring_check_exits_2_under_python_O():
    fault = "rings._ring_retractions = lambda u: []"
    proc = run_faulty_under_python_O(fault, "--mode", "paper-examples")
    assert proc.returncode == 2
    assert proc.stderr == ("error: Z/4: theorem check failed for Z/4: "
                           "the unitalization splits exactly when R has a unit\n")
    assert proc.stdout == ""


def test_failed_lie_check_exits_2_under_python_O():
    fault = "lie.solve_linear = lambda mat, rhs, p: None"
    proc = run_faulty_under_python_O(fault, "--mode", "paper-examples")
    assert proc.returncode == 2
    assert proc.stderr == ("error: sl2(F5): theorem check failed for sl2(F5): "
                           "Der is closed under commutators\n")
    assert proc.stdout == ""


def test_the_package_has_no_assert_statements():
    """Theorem checks go through errors.check_theorem, which `python -O` does not strip."""
    found = []
    for path in sorted(Path(algcomplete.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def report_rows(tmp_path, catalog, *flags):
    """The exit code and the rows of a report on `catalog`."""
    out = tmp_path / "r.json"
    rc = run_report(["--catalog", catalog, *flags, "--out", str(out)])
    return rc, json.loads(out.read_text())["objects"]


def test_relabelled_catalog_gives_the_same_reports(tmp_path, catalog):
    """Every builtin group on shuffled labels: the same rows, up to the section's labels."""
    rnd = random.Random(7)
    entries = [{"name": G.name, "cayley": relabel(G, rnd).table} for G in catalog]
    relabelled = write_catalog(tmp_path, entries, "relabelled.json")
    for mode, flags in (("classify", []), ("oracle-crosscheck", ["--bound", "7"])):
        rc, expected = report_rows(tmp_path, "builtin", "--mode", mode, *flags)
        rc_relabelled, actual = report_rows(tmp_path, relabelled, "--mode", mode, *flags)
        assert rc_relabelled == rc and len(actual) == len(catalog)
        if mode == "classify":
            for row in expected + actual:
                del row["proto_section"]
        assert actual == expected


def z4_over_z130(tmp_path):
    return ["--catalog", write_catalog(tmp_path, [{"name": "Z4", "cyclic": 4},
                                                  {"name": "Z1", "cyclic": 1}]),
            "--universe", write_catalog(tmp_path, [{"name": "Z130", "cyclic": 130}], "uni.json"),
            "--bound", "130"]


def test_crosscheck_refutes_z4_past_the_element_cap(tmp_path):
    out = tmp_path / "r.json"
    rc = run_report(z4_over_z130(tmp_path) + ["--mode", "oracle-crosscheck", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["objects"][0]
    assert row["name"] == "Z4" and row["agree"]
    assert row["proto"] == {"theorem": False, "oracle": False}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_size_cap_names_the_group(tmp_path, capsys, jobs):
    rc = run_report(z4_over_z130(tmp_path) + ["--mode", "audit", "--jobs", jobs])
    assert rc == 2
    assert capsys.readouterr().err == "error: Z4: semidirect product order 520 exceeds cap 512\n"


@pytest.mark.parametrize("flag, value", [
    ("--bound", "0"), ("--bound", "abc"), ("--budget", "0"), ("--budget", "-5"),
    ("--jobs", "0"), ("--jobs", "x"),
])
def test_bad_numeric_flag_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_report(["--mode", "classify", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("name", ["BOUND", "BUDGET", "JOBS"])
def test_bad_numeric_env_is_usage_error(name, monkeypatch, capsys):
    monkeypatch.setenv(f"ALGC_{name}", "abc")
    with pytest.raises(SystemExit) as exc:
        run_report(["--mode", "classify"])
    assert exc.value.code == 2
    assert "not an integer" in capsys.readouterr().err


def test_bad_mode_env_is_usage_error(monkeypatch, capsys):
    """argparse checks `choices` on the flag only, so ALGC_MODE is checked on its own."""
    monkeypatch.setenv("ALGC_MODE", "bogus")
    with pytest.raises(SystemExit) as exc:
        run_report([])
    assert exc.value.code == 2
    assert "ALGC_MODE: invalid choice: 'bogus'" in capsys.readouterr().err


def test_numeric_env_defaults_are_parsed(tmp_path, monkeypatch):
    path = write_catalog(tmp_path, [{"name": "Z2", "cyclic": 2}])
    out = tmp_path / "r.json"
    monkeypatch.setenv("ALGC_BOUND", "3")
    monkeypatch.setenv("ALGC_JOBS", "2")
    rc = run_report(["--catalog", path, "--mode", "oracle-crosscheck", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["bound"] == 3 and report["objects"][0]["bound"] == 3


@pytest.mark.parametrize("group, phase", [
    ({"name": "S3", "symmetric": 3}, "section search"),
    ({"name": "Z3", "cyclic": 3}, "split-extension oracles"),
])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_budget_exhaustion_names_group_and_phase(tmp_path, capsys, group, phase, jobs):
    path = write_catalog(tmp_path, [group, {"name": "Z1", "cyclic": 1}])
    rc = run_report(["--catalog", path, "--mode", "audit", "--budget", "1", "--jobs", jobs])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {group['name']}: {phase}: hom search node budget exhausted after 1 node\n"


def test_universe_naming_the_catalog_reuses_it(tmp_path, monkeypatch):
    built = []

    def counting(source):
        built.append(source)
        return load_catalog(source)

    load_catalog = cli._load_catalog
    monkeypatch.setattr(cli, "_load_catalog", counting)
    path = write_catalog(tmp_path, [{"name": "Z2", "cyclic": 2}])
    for source in ("builtin", path):
        built.clear()
        rc = run_report(["--catalog", source, "--universe", source, "--mode", "classify",
                         "--out", str(tmp_path / "r.json")])
        assert rc == 0 and built == [source]


def test_any_algebra_error_names_the_group(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise TableInvalid("broken", (0,))

    monkeypatch.setattr(cli, "classify_completeness", failing)
    path = write_catalog(tmp_path, [{"name": "Z2", "cyclic": 2}])
    assert run_report(["--catalog", path, "--mode", "classify"]) == 2
    assert capsys.readouterr().err == "error: Z2: broken (witness: (0,))\n"


def test_paper_examples_error_names_the_object(capsys):
    assert run_report(["--mode", "paper-examples", "--budget", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: Z2: normal embeddings: hom search node budget exhausted after 1 node\n")


@pytest.mark.parametrize("step, label", [
    ("char_simple_audit", "A5"), ("ring_classify", "Z/4"), ("lie_classify", "sl2(F5)"),
])
def test_paper_examples_names_the_object_of_any_algebra_error(monkeypatch, capsys, step, label):
    def failing(*args, **kwargs):
        raise TableInvalid("broken", (0,))

    monkeypatch.setattr(cli, step, failing)
    assert run_report(["--mode", "paper-examples"]) == 2
    assert capsys.readouterr().err == f"error: {label}: broken (witness: (0,))\n"


@pytest.mark.parametrize("module", ["algcomplete", "algcomplete.cli"])
def test_console_script_entry(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "--mode", "paper-examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] is False
    assert proc.stderr == ""
