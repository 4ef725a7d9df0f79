"""Independent verification of a published election record.

Most cases start from the finished demo election. Tampered variants are
rebuilt with a fresh line chain and office signature, so only the deeper
checks (terminal chains, proofs, tally recomputation) can catch the edit.
"""

import json
from collections import Counter

import pytest

from helpers import board_raw_lines, demo_commands, demo_run, rechain, replace
from starlock.ballot import EncryptedBallot, PlaintextBallot, WellFormednessProof
from starlock.board import Board
from starlock.boardformat import (
    FOUND_CAST,
    FOUND_SPOILED,
    NOT_FOUND,
    ChainBroken,
    read_board,
    spoiled_plaintext,
)
from starlock.cli import main
from starlock.errors import AmbiguousReceipt
from starlock.serialize import canonical_json
from starlock.verifier import (
    check_line_chain,
    lookup_receipt,
    verify_board,
)

ALL_CHECKS = {
    "line_chain",
    "signature",
    "terminal_chain",
    "ballot_proofs",
    "decryptions",
    "tally",
    "sum_check",
}


EID = "starlock-demo"  # the demo election's id, which read_board takes


def demo_board():
    result, _ = demo_run()
    return result, board_raw_lines(result["board"])


def retamper(result, mutate):
    """Parse the demo lines, apply mutate(lines) in place, rechain, re-sign."""
    lines = result["board"].lines()
    mutate(lines)
    return rechain(
        lines, result["manifest"].election_id, result["office"], result["manifest"].gp
    )


def failing_checks(report):
    return {item.check for item in report.failures()}


def test_honest_board_passes_every_check() -> None:
    result, raw = demo_board()
    report = verify_board(raw, result["manifest"])
    assert report.overall
    assert {item.check for item in report.items} == ALL_CHECKS
    text = report.summary()
    assert "PASS overall" in text
    assert "FAIL" not in text


def test_edited_line_breaks_the_chain_at_the_next_line() -> None:
    result, raw = demo_board()
    target = 3
    line = json.loads(raw[target])
    line["timestamp"] = str(int(line["timestamp"]) + 1)
    raw = raw[:target] + [canonical_json(line)] + raw[target + 1 :]
    items = check_line_chain(read_board(raw, EID, canonical=True))
    assert not items[0].ok
    assert items[0].line == target + 1
    assert not verify_board(raw, result["manifest"]).overall


def test_deleted_and_reordered_lines_break_the_chain() -> None:
    result, raw = demo_board()
    deleted = raw[:5] + raw[6:]
    items = check_line_chain(read_board(deleted, EID, canonical=True))
    assert not items[0].ok and items[0].line == 5
    swapped = raw[:]
    swapped[2], swapped[3] = swapped[3], swapped[2]
    items = check_line_chain(read_board(swapped, EID, canonical=True))
    assert not items[0].ok and items[0].line == 2


def test_non_canonical_or_unparseable_lines_are_rejected() -> None:
    _, raw = demo_board()
    pretty = raw[:]
    pretty[1] = json.dumps(json.loads(raw[1]), sort_keys=True, separators=(", ", ": "))
    items = check_line_chain(read_board(pretty, EID, canonical=True))
    assert not items[0].ok and "canonical" in items[0].detail
    garbage = raw[:]
    garbage[4] = "not json {"
    items = check_line_chain(read_board(garbage, EID, canonical=True))
    assert not items[0].ok and items[0].line == 4


@pytest.mark.parametrize("bad", ["not json {", "[1]", "[" * 100000],
                         ids=["unparseable", "array", "nested-too-deep"])
def test_malformed_line_is_reported_and_the_other_lines_checked(bad, tmp_path) -> None:
    result, raw = demo_board()
    raw = raw[:5] + [bad] + raw[6:]
    report = verify_board(raw, result["manifest"])
    chain = report.items[0]
    assert chain.check == "line_chain" and not chain.ok and chain.line == 5
    assert {item.check for item in report.items} == ALL_CHECKS
    path = tmp_path / "board.jsonl"
    path.write_text("\n".join(raw) + "\n", encoding="utf-8")
    with pytest.raises(ChainBroken) as err:
        Board.load(path, result["manifest"])
    assert err.value.lineno == 5


@pytest.mark.parametrize(
    "status, field",
    [("CAST", "ballot"), ("CAST", "proof"), ("CAST", "style_id"), ("SPOILED", "style_id")],
    ids=["no-ballot", "no-proof", "cast-unknown-style", "spoiled-unknown-style"],
)
def test_malformed_entry_is_reported_and_named(status, field, tmp_path) -> None:
    result, _ = demo_board()
    board = result["board"]
    target = next(str(i) for i, _ in board.entries() if board.effective_status(i) == status)
    edited = []

    def mutate(lines):
        entry = next(l for l in lines if l["kind"] == "entry" and l["index"] == target)
        edited.append(lines.index(entry))
        if field == "style_id":
            entry["ballot"]["style_id"] = "nowhere"
        else:
            del entry[field]

    raw = retamper(result, mutate)
    report = verify_board(raw, result["manifest"])
    assert not report.overall
    assert edited[0] in {item.line for item in report.failures()}
    if field != "style_id":
        path = tmp_path / "board.jsonl"
        path.write_text("\n".join(raw) + "\n", encoding="utf-8")
        with pytest.raises(ChainBroken) as err:
            Board.load(path, result["manifest"])
        assert err.value.lineno == edited[0]


# Values no check reads, each set out of form on the first line it fits:
# (which line, key, value).
OUT_OF_FORM = {
    "timestamp-a-word": (lambda l: l["kind"] == "entry", "timestamp", "x"),
    "timestamp-a-list": (lambda l: l["kind"] == "entry", "timestamp", []),
    "reason-a-number": (lambda l: l["kind"] == "entry" and "reason" in l, "reason", 5),
    "version-a-word": (lambda l: l["kind"] == "header", "version", "zz"),
    "version-a-number": (lambda l: l["kind"] == "header", "version", 7),
}


@pytest.mark.parametrize("fits, key, value", OUT_OF_FORM.values(), ids=OUT_OF_FORM)
def test_out_of_form_value_is_malformed_at_its_line(fits, key, value, tmp_path, capsys) -> None:
    result, _ = demo_board()
    edited = []

    def mutate(lines):
        edited.append(next(i for i, line in enumerate(lines) if fits(line)))
        lines[edited[0]][key] = value

    raw = retamper(result, mutate)
    chain = verify_board(raw, result["manifest"]).items[0]
    assert (chain.check, chain.ok, chain.line) == ("line_chain", False, edited[0])
    assert chain.detail.startswith(f"malformed {key}: ")
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    for name in ("tally", "audit", "receipt-check"):
        assert main(commands[name]) == 2, name
    capsys.readouterr()


@pytest.mark.parametrize("edit", ["signer", "extra-key", "missing-key"])
def test_signature_line_is_the_offices_with_exactly_its_keys(edit) -> None:
    result, raw = demo_board()
    line = json.loads(raw[-1])
    if edit == "signer":
        line["signer"] = "someone-else"
    elif edit == "extra-key":
        line["note"] = "re-signed"
    else:
        del line["signer"]
    raw = raw[:-1] + [canonical_json(line)]
    report = verify_board(raw, result["manifest"])
    assert not report.overall
    assert (report.items[0].check, report.items[0].line) == ("line_chain", len(raw) - 1)


def test_board_cut_before_its_final_signature_names_its_last_line() -> None:
    result, raw = demo_board()
    report = verify_board(raw[:-1], result["manifest"])
    assert [(i.check, i.line) for i in report.failures()] == [("signature", len(raw) - 2)]


def test_malformed_ballot_fails_each_check_at_its_line_and_entry() -> None:
    result, _ = demo_board()
    where = []

    def mutate(lines):
        entry = next(l for l in lines if l.get("kind") == "entry")
        entry["ballot"]["contests"][1]["options"][2]["a"] = "0X1F"
        where.append((lines.index(entry), int(entry["index"])))

    report = verify_board(retamper(result, mutate), result["manifest"])
    malformed = [i for i in report.failures() if i.detail.startswith("malformed")]
    assert {i.check for i in malformed} == {"terminal_chain", "ballot_proofs", "tally"}
    assert {(i.line, i.entry) for i in malformed} == set(where)
    assert all(i.detail == "malformed ballot.contests[1].options[2].a: not lowercase hex"
               for i in malformed)


def test_verify_board_decodes_each_line_and_entry_once(monkeypatch) -> None:
    result, raw = demo_board()
    n_entries = sum(json.loads(line)["kind"] == "entry" for line in raw)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(json, "loads", counted("loads", json.loads))
    for cls in (EncryptedBallot, WellFormednessProof):
        monkeypatch.setattr(cls, "from_json", staticmethod(counted(cls.__name__, cls.from_json)))
    assert verify_board(raw, result["manifest"]).overall
    assert calls == {
        "loads": len(raw), "EncryptedBallot": n_entries, "WellFormednessProof": n_entries
    }


def test_rechained_substitution_is_caught_by_the_terminal_chain() -> None:
    result, _ = demo_board()
    entry_lines = [l for l in result["board"].lines() if l["kind"] == "entry"]
    same_terminal = [l for l in entry_lines if l["terminal"] == entry_lines[0]["terminal"]]
    assert len(same_terminal) >= 2
    donor, victim = same_terminal[0], same_terminal[1]
    victim_index = int(victim["index"])

    def mutate(lines):
        for line in lines:
            if line.get("kind") == "entry" and line["index"] == victim["index"]:
                line["ballot"] = donor["ballot"]
                line["proof"] = donor["proof"]

    raw = retamper(result, mutate)
    report = verify_board(raw, result["manifest"])
    assert not report.overall
    assert "line_chain" not in failing_checks(report)  # the rechain hid the edit there
    chain_fails = [i for i in report.failures() if i.check == "terminal_chain"]
    assert chain_fails and chain_fails[0].entry == victim_index


def test_forged_signature_key_is_rejected() -> None:
    result, raw = demo_board()

    manifest = replace(result["manifest"], office_pk=result["jpk"].K)
    report = verify_board(raw, manifest)
    assert "signature" in failing_checks(report)


def test_demotion_without_decryption_fails() -> None:
    result, _ = demo_board()
    cast_entry = next(
        i for i, line in result["board"].entries()
        if result["board"].effective_status(i) == "CAST"
    )

    def mutate(lines):
        lines.append({"kind": "status", "ref": str(cast_entry), "status": "UNTALLIED"})

    raw = retamper(result, mutate)
    report = verify_board(raw, result["manifest"])
    fails = failing_checks(report)
    assert "decryptions" in fails
    # the tally no longer matches the effective-CAST set either
    assert "tally" in fails


def test_forged_decryption_plaintext_fails() -> None:
    result, _ = demo_board()

    def mutate(lines):
        for line in lines:
            if line.get("kind") == "decryption":
                plain = line["plaintext"]
                cid = sorted(plain["selections"])[0]
                style = result["manifest"].style_map[plain["style_id"]]
                contest = next(c for c in style.contests if c.contest_id == cid)
                current = set(plain["selections"][cid])
                plain["selections"][cid] = sorted(
                    set(list(current)[:-1]) | {next(o for o in contest.options if o not in current)}
                )
                return

    raw = retamper(result, mutate)
    report = verify_board(raw, result["manifest"])
    fails = [i for i in report.failures() if i.check == "decryptions"]
    assert fails and "plaintext summary mismatch" in fails[0].detail


def test_tally_tampering_fails() -> None:
    result, _ = demo_board()

    def bump_result(lines):
        for line in lines:
            if line.get("kind") == "tally":
                cid = sorted(line["result"])[0]
                col = sorted(line["result"][cid])[0]
                line["result"][cid][col] = str(int(line["result"][cid][col]) + 1)

    report = verify_board(retamper(result, bump_result), result["manifest"])
    assert "tally" in failing_checks(report)

    def bump_cast(lines):
        for line in lines:
            if line.get("kind") == "tally":
                cid = sorted(line["cast"])[0]
                line["cast"][cid] = str(int(line["cast"][cid]) + 1)

    report = verify_board(retamper(result, bump_cast), result["manifest"])
    assert "tally" in failing_checks(report)


def test_decrypted_values_that_alias_mod_q_fail_their_bound() -> None:
    # Shares prove g^m, which fixes m only mod q: a spoiled bit of 1 + q, or
    # a tally count raised by q, opens the same shares.
    result, _ = demo_board()
    manifest = result["manifest"]
    q = manifest.gp.q
    where = {}

    def alias_spoiled_bit(lines):
        lineno, dec = next((n, l) for n, l in enumerate(lines) if l.get("kind") == "decryption"
                           and l["plaintext"]["selections"]["mayor"] == ["ada"])
        col = next(c for c in dec["columns"] if (c["contest"], c["column"]) == ("mayor", "ada"))
        col["bit"] = str(1 + q)
        bits = {(c["contest"], c["column"]): int(c["bit"]) for c in dec["columns"]}
        dec["plaintext"] = spoiled_plaintext(manifest.style_map[dec["plaintext"]["style_id"]], bits)
        assert dec["plaintext"]["selections"]["mayor"] == []  # the voter's mark is gone
        where.update(line=lineno, entry=int(dec["ref"]))

    report = verify_board(retamper(result, alias_spoiled_bit), manifest)
    [fail] = report.failures()
    assert (fail.check, fail.line, fail.entry) == ("decryptions", where["line"], where["entry"])
    assert f"claimed plaintext {1 + q} exceeds its bound 1" in fail.detail

    def alias_writein_count(lines):
        lineno, tally = next((n, l) for n, l in enumerate(lines) if l.get("kind") == "tally")
        col = next(c for c in tally["columns"]
                   if (c["contest"], c["column"]) == ("mayor", "(write-in)"))
        col["count"] = tally["result"]["mayor"]["(write-in)"] = str(int(col["count"]) + q)
        where.update(line=lineno, count=int(col["count"]), cast=int(tally["cast"]["mayor"]))

    report = verify_board(retamper(result, alias_writein_count), manifest)
    [fail] = report.failures()  # the write-in column is outside the sum identity
    assert (fail.check, fail.line) == ("tally", where["line"])
    assert (f"mayor/(write-in): claimed plaintext {where['count']} exceeds its bound "
            f"{where['cast']}") in fail.detail


def test_a_decryption_of_a_cast_entry_fails_at_its_line() -> None:
    result, _ = demo_board()
    where = {}

    def decrypt_a_cast_entry(lines):
        board = result["board"]
        k = next(k for k in range(board.entry_count) if board.effective_status(k) == "CAST")
        dec = next(line for line in lines if line.get("kind") == "decryption")
        lines.insert(len(lines) - 1, dict(dec, ref=str(k)))  # above the signature
        where.update(line=len(lines) - 2, entry=k)

    report = verify_board(retamper(result, decrypt_a_cast_entry), result["manifest"])
    [fail] = report.failures()
    assert fail.to_json() == {"check": "decryptions", "ok": False, "line": where["line"],
                              "entry": where["entry"],
                              "detail": f"entry {where['entry']} is CAST but was decrypted"}


def test_a_tally_count_within_its_bound_but_not_what_the_shares_open_fails() -> None:
    result, _ = demo_board()
    where = {}

    def recount_writein(lines):
        lineno, tally = next((n, l) for n, l in enumerate(lines) if l.get("kind") == "tally")
        col = next(c for c in tally["columns"]
                   if (c["contest"], c["column"]) == ("mayor", "(write-in)"))
        count = int(col["count"])
        count += 1 if count < int(tally["cast"]["mayor"]) else -1  # within its bound, cast
        col["count"] = tally["result"]["mayor"]["(write-in)"] = str(count)
        where.update(line=lineno, count=count)

    report = verify_board(retamper(result, recount_writein), result["manifest"])
    [fail] = report.failures()  # the write-in column is outside the sum identity
    assert fail.to_json() == {
        "check": "tally", "ok": False, "line": where["line"],
        "detail": f"mayor/(write-in): claimed plaintext {where['count']} inconsistent with shares"}


def test_terminal_bookkeeping_failures() -> None:
    result, _ = demo_board()

    def unknown_terminal(lines):
        for line in lines:
            if line.get("kind") == "entry":
                line["terminal"] = "TX"
                return

    report = verify_board(retamper(result, unknown_terminal), result["manifest"])
    fails = [i for i in report.failures() if i.check == "terminal_chain"]
    assert fails and "unknown terminal" in fails[0].detail

    def double_close(lines):
        at = next(i for i, l in enumerate(lines) if l.get("kind") == "terminal_close")
        lines.insert(at + 1, dict(lines[at]))
        where["line"] = at + 1

    where = {}
    report = verify_board(retamper(result, double_close), result["manifest"])
    fails = [i for i in report.failures() if i.check in ("line_chain", "terminal_chain")]
    assert [(i.check, i.line) for i in fails] == [("line_chain", where["line"])]
    assert fails[0].detail.endswith("closed twice")

    def drop_close(lines):
        idx = next(
            i for i, l in enumerate(lines) if l.get("kind") == "terminal_close"
        )
        del lines[idx]

    report = verify_board(retamper(result, drop_close), result["manifest"])
    fails = [i for i in report.failures() if i.check == "terminal_chain"]
    assert fails and "never closed" in fails[0].detail

    def wrong_final_z(lines):
        close = next(l for l in lines if l.get("kind") == "terminal_close")
        close["final_z"] = "00" * 32

    report = verify_board(retamper(result, wrong_final_z), result["manifest"])
    fails = [i for i in report.failures() if i.check == "terminal_chain"]
    assert fails and "final z mismatch" in fails[0].detail

    def wrong_produced(lines):
        close = next(l for l in lines if l.get("kind") == "terminal_close")
        close["produced"] = str(int(close["produced"]) + 1)

    report = verify_board(retamper(result, wrong_produced), result["manifest"])
    fails = [i for i in report.failures() if i.check == "terminal_chain"]
    assert fails and "produced count mismatch" in fails[0].detail


def test_every_scripted_receipt_resolves_to_its_status() -> None:
    result, raw = demo_board()
    index = read_board(raw, EID)
    scenario = result["scenario"]
    assert result["receipts"], "demo must hand out receipts"
    for row in result["receipts"]:
        status, plaintext = lookup_receipt(index, row["terminal"], row["code"])
        if row["status"] == "CAST":
            assert status == FOUND_CAST
            assert plaintext is None
        else:
            assert status == FOUND_SPOILED
            voter = scenario.voters[row["voter"]]
            raw_sel = voter.selections if row["session"] == "primary" else voter.revote
            intended = PlaintextBallot.from_raw_selections(voter.style, raw_sel)
            assert PlaintextBallot.from_json(plaintext) == intended


def test_receipt_misses() -> None:
    result, raw = demo_board()
    index = read_board(raw, EID)
    row = result["receipts"][0]
    other_terminal = "T2" if row["terminal"] == "T1" else "T1"
    assert lookup_receipt(index, other_terminal, row["code"]) == (NOT_FOUND, None)
    assert lookup_receipt(index, row["terminal"], "A" * 20) == (NOT_FOUND, None)


def test_colliding_receipts_are_flagged_ambiguous() -> None:
    result, raw = demo_board()
    manifest = result["manifest"]
    z = "ab" * 32
    header = {"kind": "header", "election_id": EID, "version": "1"}
    entry = {
        "kind": "entry", "index": "0", "terminal": "T1", "timestamp": "1",
        "status": "CAST", "z": z, "ballot": {}, "proof": {},
    }
    twin = dict(entry, index="1", timestamp="2")
    from starlock.chain import receipt_code

    code = receipt_code(bytes.fromhex(z))
    index = read_board(rechain([header, entry, twin], EID, result["office"], manifest.gp), EID)
    assert index.broken is None
    with pytest.raises(AmbiguousReceipt):
        lookup_receipt(index, "T1", code)
