"""The public bulletin board.

An append-only JSON-lines file. Every line carries the SHA-256 of the
previous line, so truncation or in-place edits are detectable independently
of the per-terminal ballot chains. Ballot records are published without
serial numbers. Status never mutates a published entry: changes are new
supersession lines referencing the entry index. The election office signs
the hash of the final line, which transitively covers every byte above it.

Line kinds: header, entry, status, decryption, terminal_close, tally,
signature.
"""

from __future__ import annotations

import json
import random

from .ballot import BallotStyle, verify_ballot
from .boardformat import (
    CAST,
    SIGNER,
    SPOILED,
    UNTALLIED,
    BoardIndex,
    EncryptedBallotRecord,
    SpoiledColumn,
    TallyColumn,
    TallyRecord,
    TerminalClose,
    at_line,
    fold_ballots,
    parse_lines,
    read_board_lines,
    signature_message,
    spoiled_plaintext,
    spoiled_statements,
    tally_statements,
)
from .chaum_pedersen import batched
from .elgamal import Keypair, dlog_search
from .errors import ChainBroken, MalformedRecord, NoDlogInRange, NotSpoiled, RejectInvalidProof
from .group import GroupParams
from .manifest import ElectionManifest
from .schnorr import sign
from .serialize import DIGEST, canonical_json, sha256_hex, write_text
from .trustees import JointPublicKey, combine_shares, partial_decrypt


class Board:
    """Single-writer append-only board. Readers get copies, never references."""

    def __init__(self, election_id: str):
        self.election_id = election_id
        self._index = BoardIndex(election_id)
        self._append({"kind": "header", "election_id": election_id, "version": "1"})

    # -- low-level chain ------------------------------------------------------

    def _append(self, obj: dict) -> int:
        line = dict(obj)
        line["prev"] = self._index.head
        text, lineno = canonical_json(line), len(self._index.texts)
        self._index.add(lineno, line, text)  # no line Board writes breaks a rule
        self._index.head = sha256_hex(text.encode("utf-8"))
        return lineno

    @property
    def last_hash(self) -> str:
        return self._index.head

    def lines(self):
        """Deep copies of every line, in order."""
        return [json.loads(text) for text in self._index.texts]

    def write(self, path) -> None:
        write_text(path, (text + "\n" for text in self._index.texts))

    @classmethod
    def load(cls, path, manifest: ElectionManifest) -> "Board":
        """Reload a board file by the strict read (boardformat.parse_lines),
        with the canonical form, for the manifest's election: ChainBroken
        names the line it refuses."""
        index = parse_lines(read_board_lines(path), manifest, canonical=True)
        board = cls.__new__(cls)
        board._index = index
        board.election_id = manifest.election_id
        return board

    # -- publication -----------------------------------------------------------

    def publish_entry(
        self,
        record: EncryptedBallotRecord,
        status: str,
        style: BallotStyle,
        joint_key: int,
        gp: GroupParams,
        reason: str | None = None,
    ) -> int:
        """Append a ballot record (serial never present) once its proofs
        verify, their equations batched per ballot in a large group. Returns
        the entry index used by status/decryption supersession lines."""
        if status not in (CAST, SPOILED, UNTALLIED):
            raise ValueError(f"cannot publish entry with status {status!r}")
        if not batched(gp, lambda: record.ballot.canonical_bytes() + record.proof.canonical_bytes(),
                       lambda eqs: verify_ballot(record.ballot, record.proof, style, joint_key,
                                                 gp, self.election_id, eqs)):
            raise RejectInvalidProof("ballot record failed proof verification")
        index = self.entry_count
        line = {"kind": "entry", "index": str(index), "status": status, **record.to_json()}
        if reason is not None:
            line["reason"] = reason
        self._append(line)
        return index

    def check_entry(self, entry_index: int) -> int:
        """entry_index, if the board has that entry; else MalformedRecord."""
        if entry_index not in self._index.statuses:
            raise MalformedRecord(f"no entry {entry_index}")
        return entry_index

    def append_status(self, entry_index: int, status: str, reason: str | None = None) -> int:
        self.check_entry(entry_index)
        line = {"kind": "status", "ref": str(entry_index), "status": status}
        if reason is not None:
            line["reason"] = reason
        return self._append(line)

    def append_decryption(self, entry_index: int, columns: list, plaintext: dict) -> int:
        self.check_entry(entry_index)
        return self._append(
            {
                "kind": "decryption",
                "ref": str(entry_index),
                "columns": columns,
                "plaintext": plaintext,
            }
        )

    def append_terminal_close(self, terminal_id: str, final_z: bytes, produced: int) -> int:
        close = TerminalClose(terminal=terminal_id, final_z=final_z, produced=produced)
        return self._append({"kind": "terminal_close", **close.to_json()})

    def append_tally(self, tally: TallyRecord) -> int:
        return self._append(tally.to_line())

    def sign_board(self, office: Keypair, gp: GroupParams) -> int:
        """Sign the running chain head; transitively covers the whole file."""
        message = signature_message(self.election_id, DIGEST.decode(self.last_hash))
        line = {"kind": "signature", "signer": SIGNER, "sig": sign(message, office, gp).to_json()}
        return self._append(line)

    # -- reading ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Entries are numbered 0 to entry_count - 1 in publication order."""
        return len(self._index.entries)

    def entries(self):
        """(entry_index, line dict) pairs in publication order."""
        texts = self._index.texts
        return [(k, json.loads(texts[lineno])) for k, (lineno, _) in self._index.entries.items()]

    def check_untallied(self) -> None:
        """Raise ChainBroken at the first decryption or tally line: a board is
        tallied once."""
        index = self._index
        tallied = [*index.decryptions.values(), *([index.tally] if index.tally else [])]
        if tallied:
            lineno, line = min(tallied, key=lambda pair: pair[0])
            raise ChainBroken(lineno, f"{line['kind']} line: the board is already tallied")

    def effective_status(self, entry_index: int) -> str:
        self.check_entry(entry_index)
        return self._index.statuses[entry_index]


# -- aggregation and decryption ----------------------------------------------------


def aggregate(board: Board, style_map: dict, gp: GroupParams):
    """Homomorphic fold over effective-CAST entries (see fold_ballots)."""
    return fold_ballots(board._index.cast_ballots(), style_map, gp)


def _decrypt_columns(cls, rows, trustee_shares, jpk: JointPublicKey, gp: GroupParams,
                     rng: random.Random):
    """Partial-decrypt each ColumnStatement row with every supplied trustee
    share, then verify and combine them all in one call (one batch of share
    proofs). Returns cls(contest, column, plaintext, ciphertext, shares) per
    row, in order; a NoDlogInRange names a row whose plaintext exceeds its bound."""
    shared = [tuple(partial_decrypt(row.ciphertext, ts, gp, rng, row.context)
                    for ts in trustee_shares) for row in rows]
    powers = combine_shares([(row.ciphertext, shares, row.context)
                             for row, shares in zip(rows, shared)], jpk, gp)
    out = []
    for row, g_m, shares in zip(rows, powers, shared):
        try:
            out.append(cls(row.contest, row.column, dlog_search(g_m, row.bound, gp),
                           row.ciphertext, shares))
        except NoDlogInRange as exc:
            raise exc.within(row.column).within(row.contest)
    return out


def decrypt_tally(
    board: Board,
    style_map: dict,
    trustee_shares,
    jpk: JointPublicKey,
    gp: GroupParams,
    rng: random.Random,
) -> TallyRecord:
    """Partial-decrypt every aggregate column with each supplied trustee
    share and combine. InsufficientShares/BadShareProof propagate from the
    combine step."""
    agg = aggregate(board, style_map, gp)
    columns = _decrypt_columns(TallyColumn, tally_statements(board.election_id, agg),
                               trustee_shares, jpk, gp, rng)
    result = {cid: {} for cid in agg}
    for col in columns:
        result[col.contest][col.column] = col.value
    return TallyRecord(columns=tuple(columns), result=result,
                       cast_counts={cid: bucket["cast_count"] for cid, bucket in agg.items()})


def decrypt_spoiled(
    board: Board,
    entry_index: int,
    style_map: dict,
    trustee_shares,
    jpk: JointPublicKey,
    gp: GroupParams,
    rng: random.Random,
):
    """Column-by-column verifiable decryption of a spoiled (or untallied)
    entry. Returns (columns, plaintext summary) ready for a decryption line.
    A MalformedRecord names the entry's board line."""
    status = board.effective_status(entry_index)
    if status not in (SPOILED, UNTALLIED):
        raise NotSpoiled(f"entry {entry_index} is {status}")
    ballot = board._index.ballot(entry_index)  # its proof stays undecoded
    lineno, _ = board._index.entries[entry_index]
    style = style_map.get(ballot.style_id)
    if style is None:
        raise MalformedRecord(f"unknown ballot style {ballot.style_id!r}").at(lineno, entry_index)
    rows = spoiled_statements(board.election_id, entry_index, ballot, style)
    columns = at_line(lineno, _decrypt_columns, SpoiledColumn, rows, trustee_shares, jpk, gp,
                      rng, entry=entry_index)
    bits = {(col.contest, col.column): col.value for col in columns}
    return [col.to_json() for col in columns], spoiled_plaintext(style, bits)
