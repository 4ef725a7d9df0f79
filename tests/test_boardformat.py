"""The board format's single rules: effective status, contest layout and the
one-pass index, as the tally tooling, the verifier and the audit share them."""

import ast
import json
import random
from pathlib import Path

import pytest

from helpers import (
    board_lines,
    board_raw_lines,
    demo_commands,
    demo_run,
    rechain,
    replace,
    synthetic_comparison_record,
)
from helpers import synthetic_entry as entry
from starlock import verifier
from starlock.audit import published_commitments, run_audit
from starlock.ballot import BallotStyle, Contest
from starlock.board import Board
from starlock.boardformat import BULK_KEYS, CAST, SPOILED, UNTALLIED, contest_columns, read_board
from starlock.cli import main
from starlock.elgamal import keygen
from starlock.errors import ScenarioError, StarlockError
from starlock.group import TEST_GROUP
from starlock.scenario import Scenario, Voter
from starlock.verifier import verify_board

SRC = Path(__file__).resolve().parent.parent / "src" / "starlock"

MAYOR_XY = BallotStyle(style_id="a", contests=(Contest("mayor", ("x", "y")),))
MAYOR_XYZ = BallotStyle(style_id="b", contests=(Contest("mayor", ("x", "y", "z")),))


def status(k, value):
    return {"kind": "status", "ref": str(k), "status": value}


def chained(lines):
    """read_board's index of the lines of election "e", chained and signed."""
    return read_board(rechain(lines, "e", keygen(TEST_GROUP, random.Random(1)), TEST_GROUP), "e")


def test_status_lines_override_in_file_order_after_their_entry() -> None:
    lines = [
        {"kind": "header", "election_id": "e", "version": "1"},
        entry(0),
        entry(1),
        status(1, UNTALLIED),
        status(0, SPOILED),
        status(0, CAST),
        entry(2, SPOILED),
    ]
    index = chained(lines)
    assert index.broken is None
    assert index.statuses == {0: CAST, 1: UNTALLIED, 2: SPOILED}
    assert list(index.entries) == [0, 1, 2]
    # A status line above its entry is refused, and overrides nothing.
    leading = chained([lines[0], status(0, SPOILED), *lines[1:]])
    assert leading.broken == (1, "status line refers to no entry 0")
    assert leading.statuses == index.statuses
    # An entry out of sequence is the break, and is indexed all the same.
    skipped = chained([lines[0], entry(0), entry(2), entry(3)])
    assert skipped.broken == (2, "entry index out of sequence")
    assert list(skipped.entries) == [0, 2, 3]
    assert read_board([], "e").broken == (0, "board file missing header line")


def test_verifier_reads_a_leading_status_line_by_the_same_rule() -> None:
    result, _ = demo_run()
    lines = board_lines(result["board"])
    manifest = result["manifest"]
    statuses = read_board(board_raw_lines(result["board"]), manifest.election_id).statuses
    k = min(i for i, s in statuses.items() if s == CAST)
    lines.insert(1, status(k, UNTALLIED))
    raw = rechain(lines, manifest.election_id, result["office"], manifest.gp)
    report = verify_board(raw, manifest)
    chain = report.items[0]
    assert (chain.check, chain.ok, chain.line) == ("line_chain", False, 1)
    assert chain.detail == f"status line refers to no entry {k}"
    # The refused line demotes nothing: the decryptions and the tally still verify.
    assert {item.check for item in report.failures()} == {"line_chain", "signature"}


def test_audit_reads_a_leading_status_line_by_the_same_rule() -> None:
    # Entry 100 says CAST, and a status line before it would demote it: the
    # read refuses the board at that line, as parse_lines does for the audit.
    board, _, _, _ = synthetic_comparison_record(extra=[status(100, SPOILED), entry(100)])
    assert board.broken == (101, "status line refers to no entry 100")
    # After its entry the line demotes it; entry 100 has no CVR row, so
    # counting it as CAST would abort the audit.
    board, manifest, cvrs, papers = synthetic_comparison_record(
        extra=[entry(100), status(100, SPOILED)])
    assert board.broken is None
    out = run_audit(board, manifest, cvrs, papers, "01234567890123456789", 0.1,
                    published_commitments(cvrs))
    assert out["N"] == 100
    assert out["verdict"] == "CONFIRMED"


def test_dangling_references_break_the_line_chain() -> None:
    result, _ = demo_run()
    decryption = {"kind": "decryption", "ref": "999", "columns": [], "plaintext": {}}
    for line in (status(999, CAST), decryption):
        lines = [*board_lines(result["board"]), line]
        raw = rechain(lines, result["manifest"].election_id, result["office"],
                      result["manifest"].gp)
        report = verify_board(raw, result["manifest"])
        assert [(item.check, item.line, item.detail) for item in report.failures()] == [
            ("line_chain", len(lines) - 1, f"{line['kind']} line refers to no entry 999")]


def _drop_header(lines):
    del lines[0]
    return 0


def _rename_election(lines):
    lines[0]["election_id"] = "elsewhere"
    return 0


def _drop_entry_1(lines):
    del lines[2]  # entry 1: the entries after it are out of sequence
    return 2


def _leading_status(lines):
    lines.insert(1, status(0, UNTALLIED))
    return 1


def _insert_copy(kind, edit=lambda line: None):
    """A board edit: a copy of the first `kind` line, edited, inserted after it."""
    def mutate(lines):
        at = next(i for i, line in enumerate(lines) if line["kind"] == kind)
        copy = json.loads(json.dumps(lines[at]))
        edit(copy)
        lines.insert(at + 1, copy)
        return at + 1
    return mutate


def _empty_selections(dec):
    dec["plaintext"]["selections"] = {cid: [] for cid in dec["plaintext"]["selections"]}


def _zero_counts(tally):
    tally["result"] = {cid: dict.fromkeys(cols, "0") for cid, cols in tally["result"].items()}


# One crafted demo board per structure rule of the boardformat docstring: an
# edit returning the line it breaks, and the reason every reader gives.
RULE_BREAKS = {
    "1-no-header": (_drop_header, "board file missing header line"),
    "1-second-header": (_insert_copy("header"), "header line not first"),
    "2-other-election": (_rename_election, "header names election 'elsewhere', not "
                                           "'starlock-demo'"),
    "3-entry-out-of-sequence": (_drop_entry_1, "entry index out of sequence"),
    "3-entry-number-repeated": (_insert_copy("entry", lambda e: e.update(status="SPOILED")),
                                "entry index out of sequence"),
    "4-status-before-its-entry": (_leading_status, "status line refers to no entry 0"),
    "5-second-decryption": (_insert_copy("decryption", _empty_selections),
                            "entry 2 decrypted twice"),
    "6-second-close": (_insert_copy("terminal_close"), "terminal T1 closed twice"),
    "7-second-tally": (_insert_copy("tally", _zero_counts), "second tally line"),
}


def rule_break(edit):
    """The demo board after edit, re-chained and every signature re-made (the
    one after the polls close too, not only the last), so that only the
    structure rule is broken; and the number of the line edit breaks."""
    result, _ = demo_run()
    lines = board_lines(result["board"])
    lineno = edit(lines)
    manifest = result["manifest"]
    for at in [i for i, line in enumerate(lines) if line["kind"] == "signature"]:
        lines[at] = json.loads(rechain(lines[:at], manifest.election_id, result["office"],
                                       manifest.gp)[-1])
    return rechain(lines, manifest.election_id, result["office"], manifest.gp), lineno


@pytest.mark.parametrize("edit, reason", RULE_BREAKS.values(), ids=RULE_BREAKS)
def test_every_reader_refuses_a_structure_break_at_its_line(edit, reason, tmp_path,
                                                            capsys) -> None:
    """Only the structure rule is broken (rule_break): verify fails line_chain
    at the line where tally, audit and receipt-check each exit 2 with
    ChainBroken, for the same reason."""
    raw, lineno = rule_break(edit)
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(commands["verify"]) == 2
    assert f"FAIL line_chain [line {lineno}]: {reason}\n" in capsys.readouterr().out
    for name in ("tally", "audit", "receipt-check", "receipt-check-spoiled"):
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == f"ChainBroken: board line {lineno}: {reason}\n", name


def test_a_repeated_entry_number_counts_for_nothing() -> None:
    """A copy of entry 0 that says SPOILED is refused, and neither demotes
    entry 0 nor enters the terminal chain or the tally a second time."""
    result, _ = demo_run()
    manifest = result["manifest"]
    raw, lineno = rule_break(RULE_BREAKS["3-entry-number-repeated"][0])
    report = verify_board(raw, manifest)
    assert [(item.check, item.line) for item in report.failures()] == [("line_chain", lineno)]
    pristine = read_board(board_raw_lines(result["board"]), manifest.election_id,
                          ("ballot", "proof"))
    index = read_board(raw, manifest.election_id, ("ballot", "proof"))
    assert index.statuses[0] == pristine.statuses[0] == CAST
    cast = index.cast_ballots()
    assert cast.count(index.ballot(0)) == 1
    assert len(cast) == len(pristine.cast_ballots())


def test_a_structural_read_keeps_no_bulk_key_and_no_text() -> None:
    """The read audit and receipt-check take indexes every line of the demo
    board as verify's read does, less BULK_KEYS, and keeps no text; asking
    it for a ballot or a proof is the caller's error, not the board's."""
    result, _ = demo_run()
    raw, eid = board_raw_lines(result["board"]), result["manifest"].election_id
    whole, structural = read_board(raw, eid, ("ballot", "proof")), read_board(raw, eid)
    assert whole.texts == raw and structural.texts == []
    kept = lambda pair: (pair[0], {key: value for key, value in pair[1].items()  # noqa: E731
                                   if key not in BULK_KEYS.get(pair[1]["kind"], ())})
    for name in ("entries", "decryptions", "closes"):
        assert getattr(whole, name) and getattr(structural, name) == {
            key: kept(pair) for key, pair in getattr(whole, name).items()}, name
    assert structural.tally == kept(whole.tally) != whole.tally
    assert structural.signatures == whole.signatures
    assert (structural.statuses, structural.last, structural.head, structural.broken) == (
        whole.statuses, whole.last, whole.head, None)
    for ask in (structural.ballot, structural.proof):
        with pytest.raises(TypeError, match="board index that does not hold it"):
            ask(0)
    with pytest.raises(TypeError):
        structural.cast_ballots()
    assert whole.ballot(0) == result["board"]._index.ballot(0)


def test_no_board_index_keeps_an_entrys_ballot_or_proof_json(tmp_path, monkeypatch) -> None:
    """Every index holds an entry line without its ballot and proof: the
    writer holds the very records it published, Board.load (tally) decodes
    the ballots alone, and verify's read decodes both as it reads."""
    def bare(index):
        return index.entries and not any({"ballot", "proof"} & line.keys()
                                         for _, line in index.entries.values())

    result, _ = demo_run()
    board, manifest = result["board"], result["manifest"]
    writer = board._index
    published = [record.record for record in result["site"].records.values()]
    assert bare(writer) and len(writer.entries) == len(published)
    assert "columns" not in writer.tally[1]  # the writer indexes as a structural read does
    for k, record in enumerate(published):
        assert writer.ballot(k) is record.ballot and writer.proof(k) is record.proof

    board.write(tmp_path / "board.jsonl")
    loaded = Board.load(tmp_path / "board.jsonl", manifest)._index
    assert bare(loaded) and loaded.texts == writer.texts
    assert [loaded.ballot(k) for k in loaded.entries] == [record.ballot for record in published]
    with pytest.raises(TypeError):
        loaded.proof(0)

    reads = []

    def read_board_spy(*args):
        reads.append(read_board(*args))
        return reads[-1]

    monkeypatch.setattr(verifier, "read_board", read_board_spy)
    assert verify_board(board_raw_lines(board), manifest).overall
    [index] = reads
    assert bare(index) and index.texts == writer.texts
    assert [(index.ballot(k), index.proof(k)) for k in index.entries] == [
        (record.ballot, record.proof) for record in published]


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
    manifest = replace(result["manifest"], styles=(downtown, uptown))
    report = verify_board(board_raw_lines(result["board"]), manifest)
    assert [item.check for item in report.failures()] == ["tally"]
    assert "mayor defined differently" in report.failures()[0].detail


def test_verifier_and_format_modules_stay_independent() -> None:
    """The verifier and the format import no officials' code, and the board
    none of the polling place, scenario or CLI: the entry record is format-level."""
    officials = {"pollsite", "scenario", "cli"}
    for name, forbidden in (("verifier.py", officials | {"board"}),
                            ("boardformat.py", officials | {"board"}),
                            ("board.py", officials)):
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
