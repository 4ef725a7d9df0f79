"""Bulletin board: publication, chaining, aggregation, decryption, signing."""

import dataclasses
import hashlib
import json
import random

import pytest

from starlock.ballot import (
    BallotStyle,
    Contest,
    EncryptedBallot,
    PlaintextBallot,
    encrypt_ballot,
)
from starlock.board import (
    GENESIS_HASH,
    UNTALLIED,
    Board,
    TallyRecord,
    aggregate,
    decrypt_spoiled,
    decrypt_tally,
)
from starlock.boardformat import contest_columns, verify_board_signature
from starlock.elgamal import keygen
from starlock.errors import (
    BadShareProof,
    InsufficientShares,
    NotSpoiled,
    RejectInvalidProof,
    StarlockError,
)
from starlock.group import TEST_GROUP
from starlock.pollsite import CAST, SPOILED, EncryptedBallotRecord
from starlock.serialize import canonical_json
from starlock.trustees import dkg

GP = TEST_GROUP
EID = "board-test"

STYLE = BallotStyle(
    style_id="s",
    contests=(Contest(contest_id="mayor", options=("ada", "grace"), limit=1, writein_slot=True),),
)
STYLES = {"s": STYLE}


def setup_keys(seed=90):
    rng = random.Random(seed)
    jpk, trustees = dkg(3, 2, GP, rng)
    office = keygen(GP, rng)
    return jpk, trustees, office, rng


def make_record(pb, jpk, rng, terminal="T1", z=b"\x01" * 32, ts=1):
    eb, proof = encrypt_ballot(pb, STYLE, jpk.K, GP, rng, EID)
    return EncryptedBallotRecord(ballot=eb, proof=proof, terminal_id=terminal, z=z, timestamp=ts)


def ballot(*opts, writein=False):
    return PlaintextBallot(
        style_id="s",
        selections={"mayor": tuple(opts)},
        writeins={"mayor"} if writein else frozenset(),
    )


def test_publish_assigns_indices_and_omits_serial() -> None:
    jpk, _, _, rng = setup_keys()
    board = Board(EID)
    i0 = board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    i1 = board.publish_entry(
        make_record(ballot(), jpk, rng), SPOILED, STYLE, jpk.K, GP, reason="VOTER"
    )
    assert (i0, i1) == (0, 1)
    lines = board.lines()
    assert lines[0]["kind"] == "header"
    entry = lines[1]
    assert set(entry) == {
        "kind", "index", "terminal", "timestamp", "status", "z", "ballot", "proof", "prev",
    }
    assert entry["index"] == "0" and entry["status"] == CAST
    assert lines[2]["reason"] == "VOTER"
    for line in lines:
        assert "serial" not in canonical_json(line)


def test_publish_rejects_invalid_proof_and_bad_status() -> None:
    jpk, _, _, rng = setup_keys()
    board = Board(EID)
    record = make_record(ballot("ada"), jpk, rng)
    contest = record.ballot.contests[0]
    swapped = dataclasses.replace(contest, option_cts=tuple(reversed(contest.option_cts)))
    forged = dataclasses.replace(
        record, ballot=EncryptedBallot(style_id="s", contests=(swapped,))
    )
    with pytest.raises(RejectInvalidProof):
        board.publish_entry(forged, CAST, STYLE, jpk.K, GP)
    with pytest.raises(ValueError):
        board.publish_entry(record, "PENDING", STYLE, jpk.K, GP)


def test_line_chain_matches_manual_hashing() -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("grace"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.append_status(0, UNTALLIED, reason="lost paper")
    board.sign_board(office, GP)
    prev = GENESIS_HASH
    for line in board.lines():
        assert line["prev"] == prev
        prev = hashlib.sha256(canonical_json(line).encode()).hexdigest()
    assert board.last_hash == prev


def test_status_supersession_last_wins() -> None:
    jpk, _, _, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    assert board.effective_status(0) == CAST
    board.append_status(0, UNTALLIED)
    assert board.effective_status(0) == UNTALLIED
    board.append_status(0, CAST)
    assert board.effective_status(0) == CAST
    with pytest.raises(StarlockError):
        board.append_status(5, UNTALLIED)
    with pytest.raises(StarlockError):
        board.append_decryption(5, [], {})


def test_write_load_round_trip(tmp_path) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    path = tmp_path / "board.jsonl"
    board.write(path)
    reloaded = Board.load(path)
    assert reloaded.lines() == board.lines()
    assert reloaded.election_id == EID
    assert reloaded.last_hash == board.last_hash


def test_load_rejects_edited_or_reformatted_files(tmp_path) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    path = tmp_path / "board.jsonl"
    board.write(path)
    text = path.read_text().splitlines()

    edited = tmp_path / "edited.jsonl"
    line = json.loads(text[1])
    line["status"] = SPOILED
    edited.write_text("\n".join([text[0], canonical_json(line)] + text[2:]) + "\n")
    with pytest.raises(StarlockError):
        Board.load(edited)

    # same data, non-canonical whitespace on the last line
    pretty = tmp_path / "pretty.jsonl"
    last = json.loads(text[-1])
    pretty_last = json.dumps(last, sort_keys=True, separators=(", ", ": "))
    pretty.write_text("\n".join(text[:-1] + [pretty_last]) + "\n")
    with pytest.raises(StarlockError):
        Board.load(pretty)

    headless = tmp_path / "headless.jsonl"
    headless.write_text(canonical_json({"kind": "status", "ref": "0", "status": CAST,
                                        "prev": GENESIS_HASH}) + "\n")
    with pytest.raises(StarlockError):
        Board.load(headless)


def test_aggregate_counts_only_effective_cast() -> None:
    jpk, trustees, _, rng = setup_keys()
    board = Board(EID)
    for pb, status in [
        (ballot("ada"), CAST),
        (ballot("ada"), CAST),
        (ballot("grace"), CAST),
        (ballot(writein=True), CAST),
        (ballot("grace"), SPOILED),
    ]:
        board.publish_entry(make_record(pb, jpk, rng), status, STYLE, jpk.K, GP)
    tally = decrypt_tally(board, STYLES, trustees, jpk, GP, random.Random(1))
    assert tally.result == {
        "mayor": {"ada": 2, "grace": 1, "(abstain)": 1, "(write-in)": 1}
    }
    assert tally.cast_counts == {"mayor": 4}
    # demoting an entry removes it from the aggregate
    board.append_status(1, UNTALLIED)
    tally2 = decrypt_tally(board, STYLES, trustees, jpk, GP, random.Random(2))
    assert tally2.result["mayor"]["ada"] == 1
    assert tally2.cast_counts == {"mayor": 3}


def test_aggregate_of_empty_board_is_identity() -> None:
    jpk, trustees, _, _ = setup_keys()
    board = Board(EID)
    agg = aggregate(board, STYLES, GP)
    for ct in agg["mayor"]["columns"].values():
        assert (ct.a, ct.b) == (1, 1)
    tally = decrypt_tally(board, STYLES, trustees, jpk, GP, random.Random(3))
    assert tally.result == {
        "mayor": {"ada": 0, "grace": 0, "(abstain)": 0, "(write-in)": 0}
    }
    assert tally.cast_counts == {"mayor": 0}


def test_decrypt_tally_share_guards() -> None:
    jpk, trustees, _, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    with pytest.raises(InsufficientShares):
        decrypt_tally(board, STYLES, trustees[:1], jpk, GP, random.Random(4))
    forged = dataclasses.replace(
        trustees[0], secret_share=(trustees[0].secret_share + 1) % GP.q
    )
    with pytest.raises(BadShareProof) as exc:
        decrypt_tally(board, STYLES, [forged, trustees[1]], jpk, GP, random.Random(5))
    assert exc.value.trustee_id == 1


def test_decrypt_spoiled_recovers_plaintext() -> None:
    jpk, trustees, _, rng = setup_keys()
    board = Board(EID)
    pb = ballot("grace", writein=True)
    board.publish_entry(
        make_record(pb, jpk, rng), SPOILED, STYLE, jpk.K, GP, reason="CHALLENGE"
    )
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    columns, plaintext = decrypt_spoiled(board, 0, STYLES, trustees, jpk, GP, random.Random(6))
    assert PlaintextBallot.from_json(plaintext) == pb
    by_col = {c["column"]: int(c["bit"]) for c in columns}
    assert by_col == {"ada": 0, "grace": 1, "(pad0)": 0, "(write-in)": 1}
    with pytest.raises(NotSpoiled):
        decrypt_spoiled(board, 1, STYLES, trustees, jpk, GP, random.Random(7))
    # untallied entries are decrypted the same way
    board.append_status(1, UNTALLIED)
    _, plain2 = decrypt_spoiled(board, 1, STYLES, trustees, jpk, GP, random.Random(8))
    assert PlaintextBallot.from_json(plain2) == ballot("ada")


def test_tally_record_line_round_trip() -> None:
    jpk, trustees, _, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    tally = decrypt_tally(board, STYLES, trustees, jpk, GP, random.Random(9))
    line = tally.to_line()
    assert line["kind"] == "tally"
    assert line["result"]["mayor"]["ada"] == "1"  # numbers ride as strings
    assert line["cast"] == {"mayor": "1"}
    back = TallyRecord.from_line(line)
    assert back.result == tally.result
    assert back.cast_counts == tally.cast_counts


def test_signature_covers_the_whole_file() -> None:
    jpk, _, office, rng = setup_keys()
    other = keygen(GP, random.Random(91))
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    lines = board.lines()
    assert verify_board_signature(lines, office.pk, GP, EID)
    assert not verify_board_signature(lines, other.pk, GP, EID)
    assert not verify_board_signature(lines, office.pk, GP, "other-election")
    assert not verify_board_signature(lines[:-1], office.pk, GP, EID)
    assert not verify_board_signature([], office.pk, GP, EID)
    # a superseded mid-file signature stays valid at its own prefix
    board.append_status(0, UNTALLIED)
    board.sign_board(office, GP)
    full = board.lines()
    assert verify_board_signature(full, office.pk, GP, EID)
    assert verify_board_signature(full[: len(lines)], office.pk, GP, EID)


def test_contest_columns_layout_and_conflicts() -> None:
    layout = contest_columns(STYLES)
    assert list(layout) == ["mayor"]
    assert layout["mayor"][1] == ["ada", "grace", "(abstain)", "(write-in)"]
    shared = {
        "a": STYLE,
        "b": BallotStyle(style_id="b", contests=STYLE.contests),
    }
    assert list(contest_columns(shared)) == ["mayor"]
    conflict = {
        "a": STYLE,
        "b": BallotStyle(
            style_id="b",
            contests=(Contest(contest_id="mayor", options=("ada", "zed"), limit=1),),
        ),
    }
    with pytest.raises(StarlockError):
        contest_columns(conflict)


def test_entry_record_round_trip() -> None:
    jpk, _, _, rng = setup_keys()
    board = Board(EID)
    record = make_record(ballot("ada"), jpk, rng)
    board.publish_entry(record, CAST, STYLE, jpk.K, GP)
    eb, proof = board.entry_record(0)
    assert eb.canonical_bytes() == record.ballot.canonical_bytes()
    assert proof.canonical_bytes() == record.proof.canonical_bytes()
