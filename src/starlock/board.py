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

from .ballot import (
    ABSTAIN_COLUMN,
    BallotStyle,
    EncryptedBallot,
    WellFormednessProof,
    verify_ballot,
)
from .boardformat import (
    CAST,
    GENESIS_HASH,
    SPOILED,
    UNTALLIED,
    BoardIndex,
    fold_ballots,
    read_chain,
    signature_message,
    spoiled_context,
    spoiled_plaintext,
    tally_context,
)
from .elgamal import Keypair
from .errors import NotSpoiled, RejectInvalidProof, StarlockError
from .group import GroupParams
from .pollsite import EncryptedBallotRecord
from .schnorr import sign
from .serialize import canonical_json, sha256_hex
from .trustees import JointPublicKey, combine_shares, partial_decrypt


class Board:
    """Single-writer append-only board. Readers get copies, never references."""

    def __init__(self, election_id: str):
        self.election_id = election_id
        self._lines = []  # (line_dict, line_hash)
        self._index = BoardIndex()
        self._append({"kind": "header", "election_id": election_id, "version": "1"})

    # -- low-level chain ------------------------------------------------------

    def _append(self, obj: dict) -> int:
        prev = self._lines[-1][1] if self._lines else GENESIS_HASH
        line = dict(obj)
        line["prev"] = prev
        return self._push(line, sha256_hex(canonical_json(line).encode("utf-8")))

    def _push(self, line: dict, line_hash: str) -> int:
        self._lines.append((line, line_hash))
        self._index.add(len(self._lines) - 1, line)
        return len(self._lines) - 1

    @property
    def last_hash(self) -> str:
        return self._lines[-1][1]

    def lines(self):
        """Deep copies of every line, in order."""
        return [json.loads(canonical_json(line)) for line, _ in self._lines]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line, _ in self._lines:
                fh.write(canonical_json(line) + "\n")

    @classmethod
    def load(cls, path) -> "Board":
        """Reload a board file, refusing files whose line chain is broken."""
        board = cls.__new__(cls)
        board._lines = []
        board._index = BoardIndex()
        with open(path, encoding="utf-8") as fh:
            for line, line_hash in read_chain(raw.rstrip("\n") for raw in fh):
                board._push(line, line_hash)
        if not board._lines or board._lines[0][0]["kind"] != "header":
            raise StarlockError("board file missing header line")
        if board._index.misnumbered:
            lineno = board._index.misnumbered[0]
            raise StarlockError(f"board line {lineno}: entry index out of sequence")
        board.election_id = board._lines[0][0]["election_id"]
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
        """Append a ballot record (serial never present). Returns the entry
        index used by status/decryption supersession lines."""
        if status not in (CAST, SPOILED, UNTALLIED):
            raise ValueError(f"cannot publish entry with status {status!r}")
        if not verify_ballot(
            record.ballot, record.proof, style, joint_key, gp, self.election_id
        ):
            raise RejectInvalidProof("ballot record failed proof verification")
        index = len(self._index.entries)
        line = {
            "kind": "entry",
            "index": str(index),
            "terminal": record.terminal_id,
            "timestamp": str(record.timestamp),
            "status": status,
            "z": record.z.hex(),
            "ballot": record.ballot.to_json(),
            "proof": record.proof.to_json(),
        }
        if reason is not None:
            line["reason"] = reason
        self._append(line)
        return index

    def _check_entry(self, entry_index: int) -> None:
        if entry_index not in self._index.statuses:
            raise StarlockError(f"no entry {entry_index}")

    def append_status(self, entry_index: int, status: str, reason: str | None = None) -> int:
        self._check_entry(entry_index)
        line = {"kind": "status", "ref": str(entry_index), "status": status}
        if reason is not None:
            line["reason"] = reason
        return self._append(line)

    def append_decryption(self, entry_index: int, columns: list, plaintext: dict) -> int:
        self._check_entry(entry_index)
        return self._append(
            {
                "kind": "decryption",
                "ref": str(entry_index),
                "columns": columns,
                "plaintext": plaintext,
            }
        )

    def append_terminal_close(self, terminal_id: str, final_z_hex: str, produced: int) -> int:
        return self._append(
            {
                "kind": "terminal_close",
                "terminal": terminal_id,
                "final_z": final_z_hex,
                "produced": str(produced),
            }
        )

    def append_tally(self, tally: "TallyRecord") -> int:
        return self._append(tally.to_line())

    def sign_board(self, office: Keypair, gp: GroupParams) -> int:
        """Sign the running chain head; transitively covers the whole file."""
        sig = sign(signature_message(self.election_id, self.last_hash), office, gp)
        line = {"kind": "signature", "signer": "election-office", "sig": sig.to_json()}
        return self._append(line)

    # -- reading ------------------------------------------------------------------

    def entries(self):
        """(entry_index, line dict) pairs in publication order."""
        return [(i, json.loads(canonical_json(line))) for i, _, line in self._index.entries]

    def effective_status(self, entry_index: int) -> str:
        return self._index.statuses[entry_index]

    def entry_record(self, entry_index: int):
        line = self._index.entries[entry_index][2]
        return (
            EncryptedBallot.from_json(line["ballot"]),
            WellFormednessProof.from_json(line["proof"]),
        )


# -- aggregation and decryption ----------------------------------------------------


def aggregate(board: Board, style_map: dict, gp: GroupParams):
    """Homomorphic fold over effective-CAST entries (see fold_ballots)."""
    return fold_ballots(board._index.cast_ballots(), style_map, gp)


class TallyRecord:
    """Aggregate ciphertexts, decryption shares with proofs, and counts."""

    def __init__(self, columns: list, result: dict, cast_counts: dict):
        self.columns = columns  # dicts: contest, column, ciphertext, shares, count
        self.result = result  # {contest: {column: int}}
        self.cast_counts = cast_counts  # {contest: int}

    def to_line(self) -> dict:
        return {
            "kind": "tally",
            "columns": self.columns,
            "result": {
                cid: {col: str(n) for col, n in sorted(cols.items())}
                for cid, cols in sorted(self.result.items())
            },
            "cast": {cid: str(n) for cid, n in sorted(self.cast_counts.items())},
        }

    @classmethod
    def from_line(cls, line: dict) -> "TallyRecord":
        return cls(
            columns=line["columns"],
            result={
                cid: {col: int(n) for col, n in cols.items()}
                for cid, cols in line["result"].items()
            },
            cast_counts={cid: int(n) for cid, n in line["cast"].items()},
        )


def _decrypt_column(ct, trustee_shares, jpk: JointPublicKey, bound: int, gp: GroupParams,
                    rng: random.Random, context: bytes):
    """Partial-decrypt one column with every supplied trustee share and
    combine. Returns (plaintext, the column's published proof fields)."""
    shares = [partial_decrypt(ct, ts, gp, rng, context) for ts in trustee_shares]
    value = combine_shares(ct, shares, jpk, bound, gp, context)
    return value, {"ciphertext": ct.to_json(), "shares": [s.to_json() for s in shares]}


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
    columns, result, cast_counts = [], {}, {}
    for cid, bucket in agg.items():
        contest = bucket["contest"]
        n_cast = bucket["cast_count"]
        cast_counts[cid] = n_cast
        result[cid] = {}
        for column, ct in bucket["columns"].items():
            context = tally_context(board.election_id, cid, column)
            bound = n_cast * contest.limit if column == ABSTAIN_COLUMN else n_cast
            count, fields = _decrypt_column(ct, trustee_shares, jpk, bound, gp, rng, context)
            result[cid][column] = count
            columns.append({"contest": cid, "column": column, "count": str(count), **fields})
    return TallyRecord(columns=columns, result=result, cast_counts=cast_counts)


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
    entry. Returns (columns, plaintext summary) ready for a decryption line."""
    status = board.effective_status(entry_index)
    if status not in (SPOILED, UNTALLIED):
        raise NotSpoiled(f"entry {entry_index} is {status}")
    ballot, _ = board.entry_record(entry_index)
    style = style_map[ballot.style_id]
    columns, bits = [], {}
    for contest, enc in zip(style.contests, ballot.contests):
        cid = contest.contest_id
        for column, ct in enc.all_columns(contest):
            context = spoiled_context(board.election_id, entry_index, cid, column)
            bit, fields = _decrypt_column(ct, trustee_shares, jpk, 1, gp, rng, context)
            bits[(cid, column)] = bit
            columns.append({"contest": cid, "column": column, "bit": str(bit), **fields})
    return columns, spoiled_plaintext(style, bits)
