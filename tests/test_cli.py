"""Command-line workflow: keygen, simulate, tally, verify, audit,
receipt-check, and the exit-code contract (0 pass, 1 internal, 2 fail,
3 usage)."""

import json
import os
import subprocess
import sys

import starlock
from starlock.cli import main
from starlock.scenario import make_demo_scenario

SEED20 = "01234567890123456789"


def write_demo_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_demo_scenario().to_json()), encoding="utf-8")
    return str(path)


def run_pipeline(tmp_path):
    """keygen + simulate + tally into tmp_path; returns the artifact dir."""
    keys = tmp_path / "keys"
    out = tmp_path / "run"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5",
                 "--outdir", str(keys)]) == 0
    scenario = write_demo_scenario(tmp_path)
    assert main(["simulate", "--scenario", scenario, "--keys", str(keys),
                 "--outdir", str(out)]) == 0
    assert main([
        "tally",
        "--manifest", str(out / "params.json"),
        "--board", str(out / "board.jsonl"),
        "--cvrs", str(out / "cvrs.json"),
        "--papers", str(out / "papers.json"),
        "--shares", str(keys / "trustee_share_1.json"), str(keys / "trustee_share_3.json"),
        "--office", str(keys / "office_key.json"),
    ]) == 0
    return out


def test_keygen_writes_every_key_file(tmp_path) -> None:
    keys = tmp_path / "keys"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "1",
                 "--outdir", str(keys)]) == 0
    names = {p.name for p in keys.iterdir()}
    assert names == {
        "joint_key.json", "office_key.json",
        "trustee_share_1.json", "trustee_share_2.json", "trustee_share_3.json",
    }
    joint = json.loads((keys / "joint_key.json").read_text())
    assert joint["group"] == "test"
    assert (joint["n"], joint["k"]) == (3, 2)


def test_keygen_rejects_impossible_threshold(tmp_path) -> None:
    assert main(["keygen", "--n", "2", "--k", "3", "--seed", "1",
                 "--outdir", str(tmp_path)]) == 1


def test_env_var_sets_the_default_group(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("STARLOCK_GROUP", "prod")
    keys = tmp_path / "keys"
    assert main(["keygen", "--n", "1", "--k", "1", "--seed", "1",
                 "--outdir", str(keys)]) == 0
    assert json.loads((keys / "joint_key.json").read_text())["group"] == "prod"


def test_full_pipeline_verifies_and_resolves_receipts(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--report", str(report_path)]) == 0
    assert "PASS overall" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["overall"] is True

    receipts = json.loads((out / "receipts.json").read_text())
    cast = next(r for r in receipts if r["status"] == "CAST")
    spoiled = next(r for r in receipts if r["status"] == "SPOILED")
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", cast["terminal"], "--code", cast["code"]]) == 0
    assert "FOUND_CAST" in capsys.readouterr().out
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", spoiled["terminal"], "--code", spoiled["code"]]) == 0
    assert "FOUND_SPOILED" in capsys.readouterr().out
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", "T1", "--code", "A" * 20]) == 2
    assert "NOT FOUND" in capsys.readouterr().out


def test_demo_audit_escalates_on_razor_thin_margin(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    capsys.readouterr()  # drain the pipeline chatter
    code = main(["audit", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--cvrs", str(out / "cvrs.json"),
                 "--papers", str(out / "papers.json"),
                 "--commitments", str(out / "commitments.json"),
                 "--seed", SEED20])
    assert code == 2  # six ballots cannot confirm a one-vote margin
    printed = json.loads(capsys.readouterr().out)
    assert printed["verdict"] == "FULL_HAND_COUNT"
    assert printed["V"] == 1


def test_verify_flags_a_tampered_board(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    board = out / "board.jsonl"
    lines = board.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"status":"CAST"', '"status":"SPOILED"', 1)
    board.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--board", str(board),
                 "--manifest", str(out / "params.json")]) == 2
    assert "FAIL overall" in capsys.readouterr().out


def test_resimulation_is_byte_identical(tmp_path) -> None:
    scenario = write_demo_scenario(tmp_path)
    for name in ("a", "b"):
        assert main(["simulate", "--scenario", scenario,
                     "--outdir", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "board.jsonl").read_bytes() == \
        (tmp_path / "b" / "board.jsonl").read_bytes()


def test_usage_errors_exit_3(tmp_path) -> None:
    assert main([]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["audit", "--board", "x", "--manifest", "x", "--cvrs", "x",
                 "--papers", "x", "--seed", "42"]) == 3  # seed not 20 digits
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                 "--outdir", str(tmp_path)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad),
                 "--outdir", str(tmp_path)]) == 3
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")  # structurally valid, no seed
    assert main(["simulate", "--scenario", str(empty),
                 "--outdir", str(tmp_path)]) == 3


def test_module_entry_point_runs() -> None:
    # The child imports starlock from wherever this process found it.
    src = os.path.dirname(os.path.dirname(starlock.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "starlock", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "keygen" in proc.stdout and "receipt-check" in proc.stdout
