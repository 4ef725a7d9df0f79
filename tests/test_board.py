"""Bulletin board: publication, chaining, aggregation, decryption, signing."""

import hashlib
import json
import random

import pytest

from helpers import MID_GROUP, board_lines, replace
from starlock.ballot import (
    BallotStyle,
    Contest,
    EncryptedBallot,
    PlaintextBallot,
    WellFormednessProof,
    encrypt_ballot,
)
from starlock.board import (
    UNTALLIED,
    Board,
    TallyRecord,
    aggregate,
    decrypt_spoiled,
    decrypt_tally,
)
from starlock.boardformat import CAST, GENESIS_HASH, SPOILED, EncryptedBallotRecord, contest_columns
from starlock.elgamal import keygen
from starlock.errors import (
    BadShareProof,
    ChainBroken,
    InsufficientShares,
    MalformedRecord,
    NotSpoiled,
    RejectInvalidProof,
    StarlockError,
)
from starlock.group import TEST_GROUP
from starlock.manifest import ElectionManifest
from starlock.serialize import canonical_json
from starlock.trustees import dkg
from starlock.verifier import verify_board

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


def manifest_for(jpk, office_pk, election_id=EID):
    return ElectionManifest(election_id=election_id, gp=GP, jpk=jpk, office_pk=office_pk,
                            styles=(STYLE,), terminal_seeds={}, salt=b"\x00" * 16, ttl=1)


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
    lines = board_lines(board)
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
    swapped = replace(contest, option_cts=tuple(reversed(contest.option_cts)))
    forged = replace(
        record, ballot=EncryptedBallot(style_id="s", contests=(swapped,))
    )
    with pytest.raises(RejectInvalidProof):
        board.publish_entry(forged, CAST, STYLE, jpk.K, GP)
    with pytest.raises(ValueError):
        board.publish_entry(record, "PENDING", STYLE, jpk.K, GP)


def test_board_refuses_a_status_outside_the_format() -> None:
    jpk, _, _, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    before = (len(board_lines(board)), board.last_hash)
    for status in ("VOID", "cast", "PENDING"):
        with pytest.raises(MalformedRecord) as exc:
            board.append_status(0, status)
        assert exc.value.detail == "status: not one of CAST, SPOILED, UNTALLIED"
    assert (len(board_lines(board)), board.last_hash) == before
    assert board.effective_status(0) == CAST


def test_line_chain_matches_manual_hashing() -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("grace"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.append_status(0, UNTALLIED, reason="lost paper")
    board.sign_board(office, GP)
    prev = GENESIS_HASH
    for line in board_lines(board):
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


def test_board_refuses_a_line_that_breaks_a_structure_rule() -> None:
    """The writer appends only what BoardIndex.add accepts: a line that
    breaks a structure rule is ChainBroken naming the rule, and the board's
    texts and head stay as they were."""
    jpk, trustees, _, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot(), jpk, rng), SPOILED, STYLE, jpk.K, GP)
    board.append_decryption(0, [], {})
    board.append_terminal_close("T1", b"\x01" * 32, 1)
    tally = decrypt_tally(board, STYLES, trustees, jpk, GP, random.Random(9))
    board.append_tally(tally)
    for append, rule in [
        (lambda: board.append_tally(tally), "second tally line"),
        (lambda: board.append_terminal_close("T1", b"\x02" * 32, 2), "terminal T1 closed twice"),
        (lambda: board.append_decryption(0, [], {}), "entry 0 decrypted twice"),
        (lambda: board.append_status(1, CAST), "status line refers to no entry 1"),
    ]:
        texts, head = list(board._index.texts), board.last_hash
        with pytest.raises(ChainBroken) as exc:
            append()
        assert (exc.value.lineno, exc.value.reason) == (len(texts), rule)
        assert (board._index.texts, board.last_hash) == (texts, head)


def test_write_load_round_trip(tmp_path) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    path = tmp_path / "board.jsonl"
    board.write(path)
    reloaded = Board.load(path, manifest_for(jpk, office.pk))
    assert board_lines(reloaded) == board_lines(board)
    assert reloaded.election_id == EID
    assert reloaded.last_hash == board.last_hash


def test_write_and_lines_reuse_each_line_text(tmp_path, monkeypatch) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    expected = "".join(canonical_json(line) + "\n" for line in board_lines(board))
    monkeypatch.setattr("starlock.board.canonical_json", None)  # no second serialisation
    path = tmp_path / "board.jsonl"
    board.write(path)
    Board.load(path, manifest_for(jpk, office.pk)).write(tmp_path / "again.jsonl")
    assert path.read_text() == (tmp_path / "again.jsonl").read_text() == expected


def test_load_rejects_edited_or_reformatted_files(tmp_path) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    path = tmp_path / "board.jsonl"
    board.write(path)
    text = path.read_text().splitlines()
    manifest = manifest_for(jpk, office.pk)

    edited = tmp_path / "edited.jsonl"
    line = json.loads(text[1])
    line["status"] = SPOILED
    edited.write_text("\n".join([text[0], canonical_json(line)] + text[2:]) + "\n")
    with pytest.raises(StarlockError):
        Board.load(edited, manifest)

    # same data, non-canonical whitespace on the last line
    pretty = tmp_path / "pretty.jsonl"
    last = json.loads(text[-1])
    pretty_last = json.dumps(last, sort_keys=True, separators=(", ", ": "))
    pretty.write_text("\n".join(text[:-1] + [pretty_last]) + "\n")
    with pytest.raises(StarlockError):
        Board.load(pretty, manifest)

    headless = tmp_path / "headless.jsonl"
    headless.write_text(canonical_json({"kind": "status", "ref": "0", "status": CAST,
                                        "prev": GENESIS_HASH}) + "\n")
    with pytest.raises(StarlockError):
        Board.load(headless, manifest)


def test_load_refuses_a_board_the_office_did_not_sign(tmp_path) -> None:
    jpk, _, office, rng = setup_keys()
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    path = tmp_path / "board.jsonl"
    board.write(path)
    with pytest.raises(ChainBroken, match="board line 1: final line is not a signature"):
        Board.load(path, manifest_for(jpk, office.pk))
    board.sign_board(office, GP)
    board.write(path)
    other = keygen(GP, random.Random(91))
    with pytest.raises(ChainBroken, match="board line 2: signature does not verify"):
        Board.load(path, manifest_for(jpk, other.pk))
    assert board_lines(Board.load(path, manifest_for(jpk, office.pk))) == board_lines(board)


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
    forged = replace(
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
    back = TallyRecord.from_json(line)
    assert back.result == tally.result
    assert back.cast_counts == tally.cast_counts


def test_publish_refuses_a_response_that_fails_only_its_equation() -> None:
    """In a large group the ballot's equations are batched; a response raised
    by 1 passes every other check, so the batch has to refuse it."""
    rng = random.Random(93)
    jpk, _ = dkg(1, 1, MID_GROUP, rng)
    eb, proof = encrypt_ballot(ballot("ada"), STYLE, jpk.K, MID_GROUP, rng, EID)
    cpr = proof.contests[0]
    first = cpr.option_proofs[0]
    bumped = replace(first, response0=(first.response0 + 1) % MID_GROUP.q)
    forged = WellFormednessProof(
        (replace(cpr, option_proofs=(bumped,) + cpr.option_proofs[1:]),))
    record = EncryptedBallotRecord(ballot=eb, proof=forged, terminal_id="T1", z=b"\x01" * 32,
                                   timestamp=1)
    board = Board(EID)
    with pytest.raises(RejectInvalidProof):
        board.publish_entry(record, CAST, STYLE, jpk.K, MID_GROUP)
    assert board.entry_count == 0
    honest = replace(record, proof=proof)
    assert board.publish_entry(honest, CAST, STYLE, jpk.K, MID_GROUP) == 0


def _forged(record: EncryptedBallotRecord, gp) -> EncryptedBallotRecord:
    """record with its first option proof's response0 raised by 1 mod q: a
    proof that passes every check but its equation."""
    cpr = record.proof.contests[0]
    first = cpr.option_proofs[0]
    bumped = replace(first, response0=(first.response0 + 1) % gp.q)
    return replace(record, proof=WellFormednessProof(
        (replace(cpr, option_proofs=(bumped,) + cpr.option_proofs[1:]),)))


def _records(gp, n, rng):
    """A joint key and n honest records under it, each on its own chain value."""
    jpk, _ = dkg(1, 1, gp, rng)
    records = []
    for i in range(n):
        eb, proof = encrypt_ballot(ballot(("ada", "grace")[i % 2]), STYLE, jpk.K, gp, rng, EID)
        records.append(EncryptedBallotRecord(ballot=eb, proof=proof, terminal_id="T1",
                                             z=bytes([i + 1]) * 32, timestamp=i + 1))
    return jpk, records


@pytest.mark.parametrize("gp", [GP, MID_GROUP], ids=["test", "mid"])
@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
def test_publish_entries_names_the_first_refused_ballot_and_appends_nothing(gp, at) -> None:
    """One false response among five ballots: the batch (in MID_GROUP) or the
    proof-by-proof check (in the test group) refuses the call, naming the
    entry that ballot would have taken, and the board is as it was."""
    jpk, records = _records(gp, 6, random.Random(94))
    board = Board(EID)
    assert board.publish_entries([(records[0], CAST, STYLE, None)], jpk.K, gp) == [0]
    texts = list(board._index.texts)
    entries = [(record, CAST, STYLE, None) for record in records[1:]]
    entries[at] = (_forged(records[1 + at], gp), CAST, STYLE, None)
    with pytest.raises(RejectInvalidProof, match=f"^entry {1 + at}: ") as refused:
        board.publish_entries(entries, jpk.K, gp)
    assert refused.value.entry == 1 + at
    assert board._index.texts == texts and board.entry_count == 1
    honest = [(record, CAST, STYLE, "r") for record in records[1:]]
    assert board.publish_entries(honest, jpk.K, gp) == [1, 2, 3, 4, 5]
    assert [json.loads(text).get("reason") for text in board._index.texts[2:]] == ["r"] * 5


def test_publish_entries_checks_every_status_before_any_proof() -> None:
    jpk, records = _records(MID_GROUP, 2, random.Random(95))
    board = Board(EID)
    with pytest.raises(ValueError, match="PENDING"):
        board.publish_entries([(_forged(records[0], MID_GROUP), CAST, STYLE, None),
                               (records[1], "PENDING", STYLE, None)], jpk.K, MID_GROUP)
    assert board.entry_count == 0


def _signature_holds(lines, jpk, office_pk, election_id=EID) -> bool:
    """The verdict of verify_board's one signature item on these lines."""
    report = verify_board([canonical_json(line) for line in lines],
                          manifest_for(jpk, office_pk, election_id))
    [item] = [item for item in report.items if item.check == "signature"]
    return item.ok


def test_signature_covers_the_whole_file() -> None:
    jpk, _, office, rng = setup_keys()
    other = keygen(GP, random.Random(91))
    board = Board(EID)
    board.publish_entry(make_record(ballot("ada"), jpk, rng), CAST, STYLE, jpk.K, GP)
    board.sign_board(office, GP)
    lines = board_lines(board)
    assert _signature_holds(lines, jpk, office.pk)
    assert not _signature_holds(lines, jpk, other.pk)
    assert not _signature_holds(lines, jpk, office.pk, "other-election")
    assert not _signature_holds(lines[:-1], jpk, office.pk)
    assert not _signature_holds([], jpk, office.pk)
    # a superseded mid-file signature stays valid at its own prefix
    board.append_status(0, UNTALLIED)
    board.sign_board(office, GP)
    full = board_lines(board)
    assert _signature_holds(full, jpk, office.pk)
    assert _signature_holds(full[: len(lines)], jpk, office.pk)


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
    board.publish_entry(record, CAST, STYLE, jpk.K, GP, reason="none")
    [(index, line)] = board.entries()
    assert EncryptedBallotRecord.from_json(line) == record
    assert line == {"kind": "entry", "index": str(index), "status": CAST, "reason": "none",
                    "prev": line["prev"], **record.to_json()}
