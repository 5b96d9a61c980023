import json
import subprocess
import sys

import pytest

from algcomplete.cli import run_report


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
    outs = []
    for jobs in ("1", "1", "3"):
        out = tmp_path / f"r{len(outs)}.json"
        rc = run_report(["--catalog", path, "--mode", "classify",
                         "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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


@pytest.mark.parametrize("entries, message", [
    ([{"name": "K", "cayley": [[0, 1], [1, 1]]}], "row is not a permutation (witness: (1,))"),
    ([Z3, semidirect([0, 1, 7])], "action index out of range (witness: (7,))"),
    ([Z3, semidirect([0, 1, 1])], "action is not a hom"),
    ([{"name": "K", "cayley": [[0, 1], [1, 0.9]]}],
     "entry is not an integer (witness: (1, 1, 0.9))"),
    ([{"name": "K", "cayley": [[0, True], [True, 0]]}],
     "entry is not an integer (witness: (0, 1, True))"),
    ([{"name": "K", "permutations": {"degree": 3, "generators": [[0, 1, 2.5]]}}],
     "entry is not an integer (witness: (2, 2.5))"),
    ([Z3, {"name": "Q", "quotient": {"parent": "Z3", "subgroup": [0, 99]}}],
     "element 99 out of range for order 3"),
    ([{"name": "K", "cyclic": 513}], "Z513 has more than 512 elements"),
    ([{"name": "K", "symmetric": 6}], "S6 has more than 512 elements"),
], ids=["cayley", "action-range", "action-hom", "cayley-float", "cayley-bool", "permutation-float",
        "quotient-index", "cyclic-over-cap", "symmetric-over-cap"])
@pytest.mark.parametrize("flag", ["--catalog", "--universe"])
def test_invalid_catalog_is_config_error(tmp_path, capsys, entries, message, flag):
    path = write_catalog(tmp_path, entries)
    assert run_report([flag, path, "--mode", "classify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


def test_invalid_action_is_rejected_under_python_O(tmp_path):
    path = write_catalog(tmp_path, [Z3, semidirect([0, 1, 1])])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "algcomplete", "--catalog", path, "--mode", "classify"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: action is not a hom") and proc.stdout == ""


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
    assert err == f"error: {group['name']}: {phase}: hom search node budget exhausted\n"


@pytest.mark.parametrize("module", ["algcomplete", "algcomplete.cli"])
def test_console_script_entry(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "--mode", "paper-examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] is False
    assert proc.stderr == ""
