"""The published board format: the one definition of every rule by which
the officials' tally tooling, the independent verifier and the audit read a
board file.

A board file is JSON lines, each in canonical form and carrying the SHA-256
of the previous line in `prev` (the first line carries GENESIS_HASH). Where
a line may stand follows seven rules, which BoardIndex.add alone decides:
1. line 0 is the header, and no other line is one;
2. the header names the manifest's election;
3. entry k is the k-th entry line, and says so in its `index` field;
4. a status or decryption line names an entry published above it;
5. an entry has at most one decryption line;
6. a terminal has at most one terminal_close line;
7. a board has at most one tally line.
A line that breaks a rule is kept out of the structure it would break, and so
is an entry line whose number is already published. An entry's effective
status is its own `status`, overridden by the status lines that follow it, in
file order. Only effective-CAST entries enter the homomorphic tally.
LINE_KEYS lists the keys of each line kind; the records below declare the
values of the entry, terminal_close and tally lines and of a decryption
line's columns.
A decrypted column's statement, the ColumnStatement row (ciphertext, bound,
context) that the tally and verify both read, comes from tally_statements or
spoiled_statements. Every signature line must verify under the office's
key, and the last line must be one. parse_lines, the one strict read,
refuses a board at the line where verify fails line_chain or signature, and
for the same reason, with one difference: a line out of canonical form whose
text the next line's prev hashes, on a board the office signed. tally, which
re-signs the board, refuses it; audit and receipt-check accept it, as they
test a line's form only at the chain's break and at the last line: testing
every line would double their parse (33 to 69 ms for 1,654 lines on a 2 vCPU
Xeon). lookup_receipt is the receipt rule.

A read decodes the entry keys its readers read (`decode`, of read_board and
parse_lines): verify "ballot" and "proof", tally (Board.load) "ballot". It
tests every line's form, keeps each line's text, and holds each entry's
records, decoded as the line is read; a MalformedRecord is held and raised
where the record is asked for. A structural read (audit, receipt-check)
decodes nothing, keeps no text and indexes each line without its BULK_KEYS.
No index keeps an entry line's ballot or proof JSON: the writer's (Board's)
is structural, and holds the very records it publishes.

This module is format-level: it never imports the polling-place, board,
scenario or CLI machinery, so the verifier can share it and stay
independent of the officials' code.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .ballot import (ABSTAIN_COLUMN, WRITE_IN_COLUMN, EncryptedBallot, PlaintextBallot,
                     WellFormednessProof)
from .chain import receipt_code
from .elgamal import Ciphertext, homomorphic_add, identity_ciphertext
from .errors import AmbiguousReceipt, ChainBroken, MalformedRecord
from .group import GroupParams
from .manifest import ElectionManifest
from .schnorr import SchnorrSignature, verify_sig
from .serialize import (
    DIGEST,
    NUMERAL,
    STR,
    Record,
    canonical_json,
    decode_field,
    dict_of,
    enc_bytes,
    enc_int,
    enc_str,
    one_of,
    record,
    sha256_hex,
    tuple_of,
)
from .trustees import DecryptionShare

CAST = "CAST"
SPOILED = "SPOILED"
UNTALLIED = "UNTALLIED"
STATUSES = (CAST, SPOILED, UNTALLIED)
STATUS = one_of(*STATUSES)  # BoardIndex.add refuses any other status
# An entry of these effective statuses carries exactly one decryption line.
DECRYPTED = (SPOILED, UNTALLIED)
VERSION = "1"  # the header's format version, which Board writes and BoardIndex.add decodes
GENESIS_HASH = "0" * 64
SIGNER = "election-office"
FOUND_CAST = "FOUND_CAST"  # lookup_receipt's verdicts
FOUND_SPOILED = "FOUND_SPOILED"
NOT_FOUND = "NOT_FOUND"


# -- line records and the keys of every line kind ----------------------------------


class EncryptedBallotRecord(Record):
    """What a terminal hands the judge's station, published as an entry line
    beside the entry's index and status (its serial is never published). The
    line is the ballot's one published copy: the station's event log names it
    by its chain value z alone."""

    FIELDS = (
        ("ballot", "ballot", record(EncryptedBallot)),
        ("proof", "proof", record(WellFormednessProof)),
        ("terminal", "terminal_id", STR),
        ("z", "z", DIGEST),
        ("timestamp", "timestamp", NUMERAL),
    )


class TerminalClose(Record):
    """A terminal_close line: the terminal's final chain value and how many
    ballots it produced."""

    FIELDS = (
        ("terminal", "terminal", STR),
        ("final_z", "final_z", DIGEST),
        ("produced", "produced", NUMERAL),
    )


class TallyColumn(Record):
    """One decrypted column of the tally line: the aggregate ciphertext, the
    trustees' proven decryption shares, and the count they open to."""

    FIELDS = (
        ("contest", "contest", STR),
        ("column", "column", STR),
        ("count", "value", NUMERAL),
        ("ciphertext", "ciphertext", record(Ciphertext)),
        ("shares", "shares", tuple_of(record(DecryptionShare))),
    )


class SpoiledColumn(TallyColumn):
    """One decrypted column of a decryption line: a ballot's own column
    ciphertext, opening to the bit published under "bit"."""

    FIELDS = (*TallyColumn.FIELDS[:2], ("bit", "value", NUMERAL), *TallyColumn.FIELDS[3:])


SPOILED_COLUMNS = tuple_of(record(SpoiledColumn))  # a decryption line's "columns"
TALLY_RESULT = dict_of(dict_of(NUMERAL))  # {contest: {column: count}}


class TallyRecord(Record):
    """The tally line: every decrypted aggregate column, the announced result
    and the number of ballots cast per contest."""

    FIELDS = (
        ("columns", "columns", tuple_of(record(TallyColumn))),
        ("result", "result", TALLY_RESULT),
        ("cast", "cast_counts", dict_of(NUMERAL)),
    )

    def to_line(self) -> dict:
        return {"kind": "tally", **self.to_json()}


# The keys of each line kind besides "kind" and "prev": those every such line
# carries, then those it may also carry.
LINE_KEYS = {
    "header": ({"election_id", "version"}, set()),
    "entry": ({"index", "status"} | {key for key, _, _ in EncryptedBallotRecord.FIELDS},
              {"reason"}),
    "status": ({"ref", "status"}, {"reason"}),
    "decryption": ({"ref", "columns", "plaintext"}, set()),
    "terminal_close": ({key for key, _, _ in TerminalClose.FIELDS}, set()),
    "tally": ({key for key, _, _ in TallyRecord.FIELDS}, set()),
    "signature": ({"signer", "sig"}, set()),
}

ALLOWED_KEYS = {kind: required | optional | {"kind", "prev"}
                for kind, (required, optional) in LINE_KEYS.items()}

# The keys a structural read indexes no line with; every index holds an
# entry's ballot and proof as the records ENTRY_RECORDS names, never as JSON.
BULK_KEYS = {"entry": ("ballot", "proof"), "decryption": ("columns",), "tally": ("columns",)}
ENTRY_RECORDS = {"ballot": EncryptedBallot, "proof": WellFormednessProof}

# The values BoardIndex.add decodes, where the line carries them, in that order.
CHECKED_KEYS = {
    "header": (("version", one_of(VERSION)), ("election_id", STR)),
    "entry": (("timestamp", NUMERAL), ("reason", STR), ("index", NUMERAL), ("status", STATUS)),
    "status": (("reason", STR), ("ref", NUMERAL), ("status", STATUS)),
    "decryption": (("ref", NUMERAL),),
    "terminal_close": (("terminal", STR),),
}


def line_fault(line: dict) -> str | None:
    """Why the line's keys do not fit its kind in LINE_KEYS, or None. A
    signature line must also be the election office's."""
    kind = line.get("kind")
    if type(kind) is not str or kind not in LINE_KEYS:
        return "unknown line kind"
    required, keys = LINE_KEYS[kind][0], line.keys()  # no set is built for a line that fits
    if not keys >= required:
        return f"{kind} line lacks {', '.join(sorted(required - keys))}"
    if not keys <= ALLOWED_KEYS[kind]:
        return f"{kind} line has unexpected {', '.join(sorted(keys - ALLOWED_KEYS[kind]))}"
    if kind == "signature" and line["signer"] != SIGNER:
        return f"signature line not by {SIGNER}"
    return None


def at_line(lineno: int, fn, *args, entry: int | None = None):
    """fn(*args), placing a MalformedRecord it raises at this board line (and entry)."""
    try:
        return fn(*args)
    except MalformedRecord as exc:
        raise exc.at(lineno, entry)


# -- spoiled plaintexts and the board signature ------------------------------------


def spoiled_plaintext(style, bits: dict) -> dict:
    """The published plaintext summary of a decrypted ballot of this style,
    from its proven column bits {(contest_id, column): bit}: the ballot's
    PlaintextBallot.to_json."""
    marked = {key for key, bit in bits.items() if bit == 1}
    selections = {c.contest_id: [opt for opt in c.options if (c.contest_id, opt) in marked]
                  for c in style.contests}
    writeins = {c.contest_id for c in style.contests if (c.contest_id, WRITE_IN_COLUMN) in marked}
    return PlaintextBallot(style.style_id, selections, writeins).to_json()


def signature_message(election_id: str, head: bytes) -> bytes:
    """What the election office signs: the hash of the line before the
    signature, which transitively covers every byte above it."""
    return enc_str(election_id) + enc_bytes(head)


# -- contest layout and the homomorphic fold ---------------------------------------


def contest_columns(style_map: dict):
    """Canonical tally columns per contest across all styles: options in
    contest order, then "(abstain)", then "(write-in)" when the slot exists.
    Contests shared between styles must be defined identically."""
    contests = {}
    for style in style_map.values():
        for contest in style.contests:
            seen = contests.setdefault(contest.contest_id, contest)
            if seen != contest:
                raise MalformedRecord(f"contest {contest.contest_id} defined differently "
                                      "across styles")
    out = {}
    for cid, contest in contests.items():
        columns = list(contest.options) + [ABSTAIN_COLUMN]
        if contest.writein_slot:
            columns.append(WRITE_IN_COLUMN)
        out[cid] = (contest, columns)
    return out


def fold_ballots(ballots, style_map: dict, gp: GroupParams):
    """Componentwise homomorphic fold of the given encrypted ballots.

    Returns {contest_id: {"columns": {column: Ciphertext}, "cast_count": int,
    "contest": Contest}}. All padding columns fold into one "(abstain)"
    ciphertext. No ballots leave the identity encryption (1, 1)."""
    agg = {
        cid: {
            "contest": contest,
            "columns": {col: identity_ciphertext() for col in columns},
            "cast_count": 0,
        }
        for cid, (contest, columns) in contest_columns(style_map).items()
    }
    for ballot in ballots:
        style = style_map.get(ballot.style_id)
        if style is None:
            raise MalformedRecord(f"unknown ballot style {ballot.style_id!r}")
        for contest, enc in zip(style.contests, ballot.contests):
            bucket = agg[contest.contest_id]
            bucket["cast_count"] += 1
            cols = bucket["columns"]
            for opt, ct in zip(contest.options, enc.option_cts):
                cols[opt] = homomorphic_add(cols[opt], ct, gp)
            for ct in enc.padding_cts:
                cols[ABSTAIN_COLUMN] = homomorphic_add(cols[ABSTAIN_COLUMN], ct, gp)
            if contest.writein_slot:
                if enc.writein_ct is None:
                    raise MalformedRecord("ballot lacks its write-in ciphertext")
                cols[WRITE_IN_COLUMN] = homomorphic_add(cols[WRITE_IN_COLUMN], enc.writein_ct, gp)
    return agg


# -- column statements: what the trustees prove of each decrypted column ------------

ColumnStatement = namedtuple("ColumnStatement", "contest column ciphertext bound context")


def tally_statements(election_id: str, agg: dict) -> list:
    """The tally line's rows, in fold_ballots' order: after `cast` ballots, an
    option or the write-in column holds at most `cast`, "(abstain)" at most
    `cast` times the contest's limit."""
    rows = []
    for cid, bucket in agg.items():
        cast, limit = bucket["cast_count"], bucket["contest"].limit
        prefix = enc_str(election_id) + enc_str("tally") + enc_str(cid)
        rows += [ColumnStatement(cid, column, ct, cast * limit if column == ABSTAIN_COLUMN
                                 else cast, prefix + enc_str(column))
                 for column, ct in bucket["columns"].items()]
    return rows


def spoiled_statements(election_id: str, entry_index: int, ballot, style) -> list:
    """A spoiled (or untallied) entry's rows: its ballot's column ciphertexts
    in canonical order, each opening to a bit."""
    prefix = enc_str(election_id) + enc_str("spoiled") + enc_int(entry_index)
    return [ColumnStatement(contest.contest_id, column, ct, 1,
                            prefix + enc_str(contest.contest_id) + enc_str(column))
            for contest, enc in zip(style.contests, ballot.contests)
            for column, ct in enc.all_columns(contest)]


# -- the one-pass reader and index -------------------------------------------------


class BoardIndex:
    """Board lines indexed in one pass, in file order, for the election
    election_id. `add` takes one line at a time, so a writer can keep the
    index current as it appends.

    texts lists the text of each indexed line as read or written (a
    structural read records none), and last is the line number of the last
    indexed line; head is the hash of the last line read; broken is
    read_board's (lineno, reason) for the first line that breaks the chain,
    its kind's keys or a structure rule, or None. entries maps an entry
    number, the line's own `index` field, to its (lineno, line) entry line in
    file order, and records maps it to the records (ballot, proof) held for
    it; statuses maps it to its effective status, decryptions to its
    (lineno, line) decryption line; closes maps a terminal to its (lineno,
    line) terminal_close line; tally is the tally line's (lineno, line) or
    None; signatures lists (lineno, line) pairs. add says which keys each
    indexed line keeps."""

    def __init__(self, election_id: str, decode=()):
        self.election_id = election_id
        self.decode = decode
        self.texts = []
        self.last = None
        self.head = GENESIS_HASH
        self.broken = None
        self.entries = {}
        self.statuses = {}
        self.decryptions = {}
        self.closes = {}
        self.tally = None
        self.signatures = []
        self.records = {}  # entry: {key: record, or the MalformedRecord its decode raised}

    def add(self, lineno: int, line: dict) -> str | None:
        """Index one line, decoding the values of CHECKED_KEYS it carries, and
        return the structure rule (see the module docstring) it breaks, or
        None; MalformedRecord leaves the line unindexed. A line that breaks a
        rule is kept out of the structure it would break: an entry after a gap
        is indexed under its own number, so that the entries after it are
        judged on their own, but an entry repeating an indexed number is not.
        The index keeps the line without the BULK_KEYS none of its readers
        read, and an entry's records under decode. The caller records the
        line's text; the writer refuses a line that faults."""
        kind, fault, full = line.get("kind"), None, line
        bulk = BULK_KEYS.get(kind, ()) if kind == "entry" or not self.decode else ()
        if bulk:
            line = {key: value for key, value in line.items() if key not in bulk}
        got = {key: decode_field(line, key, codec.decode)
               for key, codec in CHECKED_KEYS.get(kind, ()) if key in line}
        if kind == "header" and got["election_id"] != self.election_id:
            fault = f"header names election {got['election_id']!r}, not {self.election_id!r}"
        elif kind == "entry":
            k = got["index"]
            if k != len(self.entries):
                fault = "entry index out of sequence"
            if k not in self.entries:
                self.entries[k] = (lineno, line)
                self.statuses[k] = got["status"]
                self.records[k] = held = {}
                for key in self.decode:  # a MalformedRecord is held, to raise at each ask
                    try:
                        held[key] = decode_field(full, key, ENTRY_RECORDS[key].from_json)
                    except MalformedRecord as exc:
                        held[key] = exc.at(lineno, k)
        elif kind in ("status", "decryption"):
            ref = got["ref"]
            if ref not in self.statuses:
                fault = f"{kind} line refers to no entry {ref}"
            elif kind == "status":
                self.statuses[ref] = got["status"]
            elif self.decryptions.setdefault(ref, (lineno, line))[0] != lineno:
                fault = f"entry {ref} decrypted twice"
        elif kind == "terminal_close":
            if self.closes.setdefault(got["terminal"], (lineno, line))[0] != lineno:
                fault = f"terminal {got['terminal']} closed twice"
        elif kind == "tally":
            if self.tally:
                fault = "second tally line"
            else:
                self.tally = (lineno, line)
        elif kind == "signature":
            self.signatures.append((lineno, line))
        if (kind == "header") != (lineno == 0):
            fault = "header line not first" if lineno else "board file missing header line"
        return fault

    def entry_field(self, k: int, key: str, decode):
        """Entry k's key, decoded; a MalformedRecord names the line and the
        entry."""
        lineno, line = self.entries[k]
        return at_line(lineno, decode_field, line, key, decode, entry=k)

    def _record(self, k: int, key: str):
        if key not in (held := self.records[k]):  # a caller's fault, never the board's
            raise TypeError(f"entry {key} asked of a board index that does not hold it")
        if isinstance(held[key], MalformedRecord):
            raise held[key]
        return held[key]

    def ballot(self, k: int) -> EncryptedBallot:
        """Entry k's ballot."""
        return self._record(k, "ballot")

    def proof(self, k: int) -> WellFormednessProof:
        """Entry k's proof."""
        return self._record(k, "proof")

    def cast_ballots(self):
        """The encrypted ballots of effective-CAST entries, in entry order."""
        return [self.ballot(k) for k in self.entries if self.statuses[k] == CAST]


def read_board_lines(path) -> list:
    """Raw text lines (no trailing newline) straight from the file; bytes
    that are not UTF-8 read as U+FFFD, which no canonical line holds."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return [line.rstrip("\n") for line in fh]


def read_board(raw_lines, election_id: str, decode=()) -> BoardIndex:
    """Parse each raw line (no newline) once, check that it is a JSON object
    carrying the previous line's hash and that its text is the canonical
    encoding of that object, and index it for the election election_id. The
    first break, a structure rule that BoardIndex.add names included, goes
    to `broken`. Every object whose keys fit its kind (line_fault) and whose
    values add reads decode is indexed.

    A read that decodes (see the module docstring) tests every line's form,
    keeps its text, and holds each entry's records (BoardIndex.add). A
    structural read tests a line's form only where an honest board pays
    nothing, at the break (on "hash chain broken", at the line above first)
    and at the last line, which no later prev covers, both on the whole
    line, and keeps no text. A board with no line lacks its header at line 0."""
    index, previous = BoardIndex(election_id, decode), None
    uncanonical = lambda line, raw: canonical_json(line) != raw  # noqa: E731
    for lineno, raw in enumerate(raw_lines):
        try:
            line = json.loads(raw)
            reason = "line is not a JSON object"
        except (ValueError, RecursionError):  # RecursionError: nested too deep to parse
            line, reason = None, "unparseable line"
        if type(line) is dict:
            reason = None if line.get("prev") == index.head else "hash chain broken"
            fault = line_fault(line)
            if fault is None:
                try:
                    fault = index.add(lineno, line)
                except MalformedRecord as exc:
                    fault = f"malformed {exc.detail}"
                else:
                    if decode:
                        index.texts.append(raw)
                    index.last = lineno
            reason = reason or fault
            if index.broken is None and (decode or reason):
                if reason == "hash chain broken" and lineno and uncanonical(*previous):
                    index.broken = (lineno - 1, "line not in canonical form")
                elif uncanonical(line, raw):
                    reason = "line not in canonical form"
        if reason and index.broken is None:
            index.broken = (lineno, reason)
        index.head = sha256_hex(raw.encode("utf-8"))
        previous = line, raw
    if index.head == GENESIS_HASH:
        index.broken = (0, "board file missing header line")
    elif not (decode or index.broken) and uncanonical(*previous):
        index.broken = (lineno, "line not in canonical form")
    return index


def signature_fault(index: BoardIndex, manifest: ElectionManifest):
    """(lineno, reason) at the first of the index's signature lines (every
    reader checks them all) that does not verify under the manifest's office
    key, or at the last line when it is not a signature; MalformedRecord at a
    prev or sig out of form."""
    for lineno, line in index.signatures:
        prev = at_line(lineno, decode_field, line, "prev", DIGEST.decode)
        sig = at_line(lineno, decode_field, line, "sig", SchnorrSignature.from_json)
        message = signature_message(manifest.election_id, prev)
        if not verify_sig(message, sig, manifest.office_pk, manifest.gp):
            return lineno, "signature does not verify"
    if not index.signatures or index.signatures[-1][0] != index.last:
        return index.last, "final line is not a signature"
    return None


def parse_lines(raw_lines: list, manifest: ElectionManifest, decode=()) -> BoardIndex:
    """The strict read of every command that trusts a board: read_board for
    the manifest's election, decoding the entry keys named in decode, then
    ChainBroken at its break or at the signature_fault of any signature
    line. Only tally (Board.load) decodes, ballots alone, so its read tests
    every line's form and refuses one board more: a signed one holding a
    line out of canonical form that the next line's prev hashes (see the
    module docstring). audit and receipt-check take the structural read,
    whose index holds no ballot, proof or column."""
    index = read_board(raw_lines, manifest.election_id, decode)
    if index.broken:
        raise ChainBroken(*index.broken)
    fault = signature_fault(index, manifest)
    if fault:
        raise ChainBroken(*fault)
    return index


def lookup_receipt(index: BoardIndex, terminal_id: str, code: str):
    """Match a take-home receipt against an index of the board's lines.

    Returns (FOUND_CAST, None), (FOUND_SPOILED, plaintext or None), or
    (NOT_FOUND, None). Raises AmbiguousReceipt when the truncated code
    matches more than one entry of that terminal, and MalformedRecord at an
    entry of that terminal whose z is not a 32-byte digest."""
    matches = []
    for k, (_, line) in index.entries.items():
        if line.get("terminal") == terminal_id:
            if receipt_code(index.entry_field(k, "z", DIGEST.decode)) == code:
                matches.append(k)
    if not matches:
        return NOT_FOUND, None
    if len(matches) > 1:
        raise AmbiguousReceipt(f"receipt code matches entries {matches}")
    k = matches[0]
    if index.statuses[k] == CAST:
        return FOUND_CAST, None
    dec = index.decryptions.get(k)
    return FOUND_SPOILED, dec[1]["plaintext"] if dec else None
