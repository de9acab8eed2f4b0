import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permpat
from permpat.cli import main
from permpat.perms import parse_pattern_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_startup_imports_no_dataclasses_or_inspect():
    # every command pays for these imports first; the records are NamedTuples,
    # so start-up loads neither dataclasses nor the inspect module it pulls in
    src = Path(permpat.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import permpat, permpat.catalog, permpat.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_builds_no_tables():
    # only classify and verify read the classification tables, so a command
    # such as count or contains never imports catalog, which builds them
    src = Path(permpat.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import permpat.cli\n"
        "print('permpat.catalog' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--set", "123;321", "--n", "6")
    assert code == 0 and out.strip() == "0"


def test_count_catalan(capsys):
    code, out, _ = run(capsys, "count", "--set", "132", "--n", "5")
    assert code == 0 and out.strip() == "42"


def test_nu(capsys):
    code, out, _ = run(capsys, "nu", "--set", "132")
    assert code == 0
    image = parse_pattern_set(out.strip())
    assert len(image) == 10
    assert all(len(p) == 4 for p in image)


def test_standardize(capsys):
    code, out, _ = run(capsys, "standardize", "--word", "50 20 70")
    assert code == 0 and out.strip() == "213"


def test_standardize_malformed_word(capsys):
    # the word shares the permutation tokenizer, so errors name the bad token
    code, out, err = run(capsys, "standardize", "--word", "50 x 70")
    assert code == 1 and out == "" and "not an integer: 'x' (at position 3)" in err
    code, _, err = run(capsys, "standardize", "--word", "5a")
    assert code == 1 and "unexpected character 'a' (at position 1)" in err
    code, _, err = run(capsys, "standardize", "--word", "50 50")
    assert code == 1 and "duplicate" in err


def test_contains_and_witness(capsys):
    code, out, _ = run(capsys, "contains", "--perm", "2413", "--pattern", "12")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "contains", "--perm", "1423", "--pattern", "132", "--witness")
    assert code == 0 and out.strip() == "1 2 3"
    code, out, _ = run(capsys, "contains", "--perm", "321", "--pattern", "12", "--witness")
    assert code == 0 and out.strip() == "none"


def test_enumerate_formats_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "123,132,213,3421", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == sorted(lines)
    reparsed = frozenset(next(iter(parse_pattern_set(lit))) for lit in lines)
    assert reparsed == {(3, 4, 1, 2), (4, 2, 3, 1), (4, 3, 1, 2), (4, 3, 2, 1)}

    code, out, _ = run(capsys, "enumerate", "--set", "123;132;213;3421", "--n", "4",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["set"] == "123;132;213;3421"

    code, out, _ = run(capsys, "enumerate", "--set", "123;132;213;3421", "--n", "4",
                       "--format", "csv")
    assert code == 0 and len(out.strip().splitlines()) == 4


def test_orbit_json(capsys):
    code, out, _ = run(capsys, "orbit", "--set", "123")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2 and set(payload["members"]) == {"123", "321"}


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--set", "123;312;2143", "--nmax", "6")
    payload = json.loads(out)
    assert payload["entry"]["formula"] == "2n-2"
    assert payload["counts"][5] == 8
    # the whole payload, recorded before the entry stopped carrying the orbit
    # representative; the representative is not the set itself
    assert code == 0 and out == json.dumps({
        "set": "123;312;2143",
        "counts": [1, 1, 2, 4, 6, 8, 10],
        "entry": {
            "row_id": "2.linear-2n",
            "table": 2,
            "representative": "123;231;2143",
            "claimed_class_size": 24,
            "formula": "2n-2",
            "valid_from": 2,
            "citation": "direct recurrences",
        },
    }, indent=2) + "\n"


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "count", "--set", "12x", "--n", "4")
    assert code == 1 and "position" in err
    code, _, err = run(capsys, "count", "--set", "122", "--n", "4")
    assert code == 1
    code, _, err = run(capsys, "count", "--set", "132", "--n", "30")
    assert code == 1 and "cap" in err
    code, _, err = run(capsys, "count", "--set", "132")
    assert code == 1
    code, _, err = run(capsys, "count", "--set", "132", "--n", "-1")
    assert code == 1 and "nonnegative" in err
    code, _, err = run(capsys, "nu", "--set", "132", "--power", "0")
    assert code == 1 and "--power" in err
    # the image of a power-20 lift would be filtered out of all of S_23
    code, out, err = run(capsys, "nu", "--set", "132", "--power", "20")
    assert code == 1 and out == "" and "n=23 exceeds the hard cap 11" in err
    # a worker count below 1 is refused before any work, so stdout stays empty
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--nmax", "1", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("permpat: error:")
        # the flag's own bound refuses it, not the library's check behind it
        assert "argument --jobs" in err
    # a number is read like a separated literal value: ASCII digits only, with
    # no sign but -, no underscore and no padding
    for argv in (("count", "--set", "132", "--n", "٥"), ("count", "--set", "132", "--n", "+0_5"),
                 ("count", "--set", "132", "--n", " 5"), ("verify", "--nmax", "1", "--jobs", "٢")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("permpat: error:")


def test_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "3")
    code, _, err = run(capsys, "count", "--set", "132", "--n", "4")
    assert code == 1 and "cap" in err
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "12")
    code, out, _ = run(capsys, "count", "--set", "132", "--n", "4")
    assert code == 0 and out.strip() == "14"
    # nu is capped at k + power: 3 + 1 = 4 is above the cap 3, and 4 <= 4
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "3")
    code, _, err = run(capsys, "nu", "--set", "132")
    assert code == 1 and "n=4 exceeds the hard cap 3" in err
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "4")
    code, out, _ = run(capsys, "nu", "--set", "132")
    assert code == 0 and len(out.strip().split(";")) == 10
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "abc")
    code, _, err = run(capsys, "count", "--set", "132", "--n", "4")
    assert code == 1 and "PERMPAT_NMAX_CAP" in err
    # the cap is read by the flags' rule, also where nu checks k + power
    for raw in ("١٢", "1_2"):
        monkeypatch.setenv("PERMPAT_NMAX_CAP", raw)
        for argv in (("count", "--set", "132", "--n", "4"), ("nu", "--set", "132")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and "PERMPAT_NMAX_CAP" in err
            assert err.count("\n") == 1 and err.startswith("permpat: error:")
    # the default n_max of 9 must meet the cap as a given one does
    monkeypatch.setenv("PERMPAT_NMAX_CAP", "8")
    for argv in (("verify",), ("classify", "--set", "132")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "hard cap 8" in err


def test_output_determinism(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "nu", "--set", "123;321")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "orbit", "--set", "132;231;3124")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_json_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--nmax", "5", "--out", str(out_path), "--jobs", "2")
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["n_max"] == 5
    assert payload["unexpected_mismatches"] == []

    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "--nmax", "5", "--format", "csv", "--out", str(csv_path))
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "table,row_id,set,n,oracle,formula,verdict"


def test_verify_report_bytes_pinned(tmp_path, capsys):
    # the n = 7 report is pinned: the JSON body without its timing fields must
    # hash to the n = 7 digest in perfbench/reference.json, and the CSV grid
    # must match its recorded sha256 byte for byte
    json_path, csv_path = tmp_path / "report.json", tmp_path / "grid.csv"
    code, _, _ = run(capsys, "verify", "--nmax", "7", "--out", str(json_path))
    assert code == 0
    body = {k: v for k, v in json.loads(json_path.read_text()).items()
            if k not in ("elapsed_seconds", "jobs")}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == "0355b7ffe0d75222c7644ce2b5c3aefefd71288cbe0281c2ebdb263e2a5ab174"
    code, _, _ = run(capsys, "verify", "--nmax", "7", "--format", "csv", "--out", str(csv_path))
    assert code == 0
    grid = csv_path.read_bytes()
    assert len(grid) == 474_797
    assert hashlib.sha256(grid).hexdigest() == "2899d7db8d53e3cc76cf7f632b1f84384077f9c8ff9b6970cd0496221d5aaa90"


def test_verify_unwritable_out_exits_one(tmp_path, capsys):
    # a report path in a missing directory ends the run with one error line
    code, out, err = run(capsys, "verify", "--nmax", "3", "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("permpat: error: ")


def test_verify_dead_worker_exits_one(dying_worker, capsys):
    # a failed run is one error line and exit code 1, with no traceback
    code, out, err = run(capsys, "verify", "--nmax", "7", "--jobs", "2")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("permpat: error: ")


@pytest.mark.parametrize("dying_worker", ["raise"], indirect=True)
def test_verify_raising_worker_names_its_cause(dying_worker, capsys):
    # a worker's exception is still one error line, and that line names it
    code, out, err = run(capsys, "verify", "--nmax", "7", "--jobs", "2")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("permpat: error: ")
    assert lines[0].endswith("RuntimeError: a count worker raised")
