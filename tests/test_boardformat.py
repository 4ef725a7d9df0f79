"""The board format's single rules: effective status, contest layout and the
one-pass index, as the tally tooling, the verifier and the audit share them."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from helpers import board_raw_lines, demo_run, rechain, synthetic_comparison_record
from starlock.audit import run_audit
from starlock.ballot import BallotStyle, Contest
from starlock.boardformat import CAST, SPOILED, UNTALLIED, contest_columns, index_lines
from starlock.cli import main
from starlock.errors import ScenarioError, StarlockError
from starlock.scenario import Scenario, Voter
from starlock.verifier import parse_lines, verify_board

SRC = Path(__file__).resolve().parent.parent / "src" / "starlock"

MAYOR_XY = BallotStyle(style_id="a", contests=(Contest("mayor", ("x", "y")),))
MAYOR_XYZ = BallotStyle(style_id="b", contests=(Contest("mayor", ("x", "y", "z")),))


def entry(k, status=CAST):
    return {"kind": "entry", "index": str(k), "status": status}


def status(k, value):
    return {"kind": "status", "ref": str(k), "status": value}


def test_status_lines_override_in_file_order_even_before_their_entry() -> None:
    lines = [
        {"kind": "header"},
        status(1, UNTALLIED),
        entry(0),
        entry(1),
        status(0, SPOILED),
        status(0, CAST),
        entry(2, SPOILED),
    ]
    index = index_lines(lines)
    assert index.statuses == {0: CAST, 1: UNTALLIED, 2: SPOILED}
    assert [k for k, _, _ in index.entries] == [0, 1, 2]
    assert index.refs == [(1, 1), (4, 0), (5, 0)]
    assert index.misnumbered == []
    assert index_lines([entry(0), entry(2)]).misnumbered == [1]


def test_verifier_reads_a_leading_status_line_by_the_same_rule() -> None:
    result, _ = demo_run()
    lines = parse_lines(board_raw_lines(result["board"]))
    statuses = index_lines(lines).statuses
    k = min(i for i, s in statuses.items() if s == CAST)
    lines.insert(1, status(k, UNTALLIED))
    raw = rechain(lines, result["manifest"].election_id, result["office"], result["manifest"].gp)
    report = verify_board(raw, result["manifest"])
    details = [item.detail for item in report.failures()]
    assert f"entry {k} (UNTALLIED) has no decryption" in details
    assert "aggregate mismatch for mayor/ada" in details


def test_audit_reads_a_leading_status_line_by_the_same_rule() -> None:
    lines, manifest, cvrs, papers = synthetic_comparison_record()
    # Entry 100 says CAST, but a status line before it demotes it; it has no
    # CVR row, so counting it as CAST would abort the audit.
    lines = lines[:-1] + [status(100, SPOILED), entry(100), lines[-1]]
    out = run_audit(lines, manifest, cvrs, papers, "01234567890123456789", 0.1)
    assert out["N"] == 100
    assert out["verdict"] == "CONFIRMED"


def test_dangling_references_fail_the_decryption_check() -> None:
    result, _ = demo_run()
    lines = parse_lines(board_raw_lines(result["board"]))
    lines.append(status(999, CAST))
    raw = rechain(lines, result["manifest"].election_id, result["office"], result["manifest"].gp)
    report = verify_board(raw, result["manifest"])
    assert [item.detail for item in report.failures()] == ["line refers to no entry 999"]


def test_contest_defined_two_ways_is_refused_everywhere(tmp_path) -> None:
    with pytest.raises(StarlockError):
        contest_columns({"a": MAYOR_XY, "b": MAYOR_XYZ})
    with pytest.raises(ScenarioError, match="mayor"):
        Scenario(election_id="e", group="test", trustees=(1, 1), seed=1,
                 styles=(MAYOR_XY, MAYOR_XYZ), terminals=("T1",),
                 voters=(Voter("a", {"mayor": ["x"]}),))

    scenario = {
        "seed": 1,
        "styles": [MAYOR_XY.to_json(), MAYOR_XYZ.to_json()],
        "voters": [{"style": "b", "selections": {"mayor": ["z"]}}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--outdir", str(tmp_path / "run")]) == 3
    assert not (tmp_path / "run").exists()

    result, _ = demo_run()
    downtown = result["manifest"].styles[0]
    uptown = BallotStyle(style_id="uptown", contests=(
        Contest("mayor", ("ada", "grace", "zed"), 1, True),
    ))
    manifest = dataclasses.replace(result["manifest"], styles=(downtown, uptown))
    report = verify_board(board_raw_lines(result["board"]), manifest)
    assert [item.check for item in report.failures()] == ["tally"]
    assert "mayor defined differently" in report.failures()[0].detail


def test_verifier_and_format_modules_stay_independent() -> None:
    forbidden = {"pollsite", "board", "scenario", "cli"}
    for name in ("verifier.py", "boardformat.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    imported.add(node.module.rsplit(".", 1)[-1])
                imported |= {alias.name for alias in node.names}
        assert not imported & forbidden, (name, imported & forbidden)
