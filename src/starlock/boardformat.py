"""The published board format: the one definition of every rule by which
the officials' tally tooling, the independent verifier and the audit read a
board file.

A board file is JSON lines, each in canonical form and carrying the SHA-256
of the previous line in `prev` (the first line carries GENESIS_HASH). Entry
k is the k-th entry line and says so in its `index` field. An entry's
effective status is its own `status`, overridden by the status lines that
reference it, in file order; a status line counts even when it precedes its
entry. Only effective-CAST entries enter the homomorphic tally.

This module is format-level: it never imports the polling-place, board,
scenario or CLI machinery, so the verifier can share it and stay
independent of the officials' code.
"""

from __future__ import annotations

import json

from .ballot import ABSTAIN_COLUMN, WRITE_IN_COLUMN, EncryptedBallot, WellFormednessProof
from .elgamal import homomorphic_add, identity_ciphertext
from .errors import StarlockError
from .group import GroupParams
from .schnorr import SchnorrSignature, verify_sig
from .serialize import canonical_json, enc_bytes, enc_int, enc_str, sha256_hex

CAST = "CAST"
SPOILED = "SPOILED"
UNTALLIED = "UNTALLIED"
GENESIS_HASH = "0" * 64
ENTRY_FIELDS = frozenset({"terminal", "z", "ballot", "proof"})  # what every entry check reads


class ChainBroken(StarlockError):
    """A board line that does not parse to a JSON object, is not canonical,
    does not link to the line before it, or lacks a field its kind needs."""

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"board line {lineno}: {reason}")


# -- decryption contexts and the board signature ----------------------------------


def tally_context(election_id: str, contest_id: str, column: str) -> bytes:
    return enc_str(election_id) + enc_str("tally") + enc_str(contest_id) + enc_str(column)


def spoiled_context(election_id: str, entry_index: int, contest_id: str, column: str) -> bytes:
    return (
        enc_str(election_id)
        + enc_str("spoiled")
        + enc_int(entry_index)
        + enc_str(contest_id)
        + enc_str(column)
    )


def spoiled_plaintext(style, bits: dict) -> dict:
    """The published plaintext summary of a decrypted ballot of this style,
    from its proven column bits {(contest_id, column): bit}."""
    def marked(cid, column):
        return bits.get((cid, column)) == 1

    return {
        "style_id": style.style_id,
        "selections": {
            c.contest_id: [opt for opt in sorted(c.options) if marked(c.contest_id, opt)]
            for c in style.contests
        },
        "writeins": sorted(
            c.contest_id for c in style.contests if marked(c.contest_id, WRITE_IN_COLUMN)
        ),
    }


def signature_message(election_id: str, head_hash: str) -> bytes:
    """What the election office signs: the hash of the line before the
    signature, which transitively covers every byte above it."""
    return enc_str(election_id) + enc_bytes(bytes.fromhex(head_hash))


def signature_verifies(line: dict, office_pk: int, gp: GroupParams, election_id: str) -> bool:
    message = signature_message(election_id, line["prev"])
    return verify_sig(message, SchnorrSignature.from_json(line["sig"]), office_pk, gp)


def verify_board_signature(lines: list, office_pk: int, gp: GroupParams, election_id: str) -> bool:
    """Check the last line is a signature over the chain head."""
    if not lines or lines[-1].get("kind") != "signature":
        return False
    return signature_verifies(lines[-1], office_pk, gp, election_id)


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
                raise StarlockError(
                    f"contest {contest.contest_id} defined differently across styles"
                )
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
            raise StarlockError(f"unknown ballot style {ballot.style_id!r}")
        for contest, enc in zip(style.contests, ballot.contests):
            bucket = agg[contest.contest_id]
            bucket["cast_count"] += 1
            cols = bucket["columns"]
            for opt, ct in zip(contest.options, enc.option_cts):
                cols[opt] = homomorphic_add(cols[opt], ct, gp)
            for ct in enc.padding_cts:
                cols[ABSTAIN_COLUMN] = homomorphic_add(cols[ABSTAIN_COLUMN], ct, gp)
            if contest.writein_slot:
                cols[WRITE_IN_COLUMN] = homomorphic_add(cols[WRITE_IN_COLUMN], enc.writein_ct, gp)
    return agg


# -- the one-pass reader and index -------------------------------------------------


class BoardIndex:
    """Board lines indexed in one pass, in file order. `add` takes one line
    at a time, so a writer can keep the index current as it appends.

    lines lists the indexed lines and head is the hash of the last line
    read; broken is read_board's (lineno, reason) for the first line that
    breaks the chain, or None. entries lists (index, lineno, line) of every
    entry line, the index taken from the line's own field; statuses maps an
    entry index to its effective status and decryptions to its decryption
    lines; closes, tallies and signatures list (lineno, line) pairs.
    misnumbered lists the line numbers of entries whose index field is not
    their position among the entries, and refs the (lineno, ref) of every
    status and decryption line."""

    def __init__(self):
        self.lines = []
        self.head = GENESIS_HASH
        self.broken = None
        self.entries = []
        self.statuses = {}
        self.decryptions = {}
        self.closes = []
        self.tallies = []
        self.signatures = []
        self.misnumbered = []
        self.refs = []
        self._overrides = {}
        self._ballots = {}
        self._proofs = {}

    def add(self, lineno: int, line: dict) -> None:
        """Index one line; a line lacking its kind's fields raises, unindexed."""
        kind = line.get("kind")
        if kind == "entry":
            k, status = int(line["index"]), line["status"]
            if k != len(self.entries):
                self.misnumbered.append(lineno)
            self.entries.append((k, lineno, line))
            self.statuses[k] = self._overrides.get(k, status)
        elif kind == "status":
            ref, status = int(line["ref"]), line["status"]
            self.refs.append((lineno, ref))
            self._overrides[ref] = status
            if ref in self.statuses:
                self.statuses[ref] = status
        elif kind == "decryption":
            ref = int(line["ref"])
            self.refs.append((lineno, ref))
            self.decryptions.setdefault(ref, []).append((lineno, line))
        elif kind == "terminal_close":
            self.closes.append((lineno, line))
        elif kind == "tally":
            self.tallies.append((lineno, line))
        elif kind == "signature":
            self.signatures.append((lineno, line))
        self.lines.append(line)

    def ballot(self, pos: int) -> EncryptedBallot:
        """The ballot of the pos-th entry line, decoded on first use only."""
        if pos not in self._ballots:
            self._ballots[pos] = EncryptedBallot.from_json(self.entries[pos][2]["ballot"])
        return self._ballots[pos]

    def proof(self, pos: int) -> WellFormednessProof:
        """The proof of the pos-th entry line, decoded on first use only."""
        if pos not in self._proofs:
            self._proofs[pos] = WellFormednessProof.from_json(self.entries[pos][2]["proof"])
        return self._proofs[pos]

    def cast_ballots(self):
        """The encrypted ballots of effective-CAST entries, in entry order."""
        return [
            self.ballot(pos)
            for pos, (k, _, _) in enumerate(self.entries)
            if self.statuses[k] == CAST
        ]


def index_lines(lines) -> BoardIndex:
    """Index already-parsed lines without checking the line chain."""
    index = BoardIndex()
    for lineno, line in enumerate(lines):
        index.add(lineno, line)
    return index


def read_board(raw_lines) -> BoardIndex:
    """Parse each raw line (no newline) once, check that it is a canonical JSON
    object carrying the previous line's hash, and index it. The first break
    goes to `broken`; every object with the fields its kind needs is indexed,
    and an entry also needs ENTRY_FIELDS."""
    index = BoardIndex()
    for lineno, raw in enumerate(raw_lines):
        try:
            line = json.loads(raw)
            reason = None if isinstance(line, dict) else "line is not a JSON object"
        except ValueError:
            reason = "unparseable line"
        if reason is None:
            if canonical_json(line) != raw:
                reason = "line not in canonical form"
            elif line.get("prev") != index.head:
                reason = "hash chain broken"
            if line.get("kind") == "entry" and not ENTRY_FIELDS <= line.keys():
                reason = reason or "entry lacks a ballot record field"
            else:
                try:
                    index.add(lineno, line)
                except (KeyError, TypeError, ValueError):
                    reason = reason or "malformed line"
        if reason and index.broken is None:
            index.broken = (lineno, reason)
        index.head = sha256_hex(raw.encode("utf-8"))
    return index
