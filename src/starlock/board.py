"""The public bulletin board.

An append-only JSON-lines file. Every line carries the SHA-256 of the
previous line, so truncation or in-place edits are detectable independently
of the per-terminal ballot chains. Ballot records are published without
serial numbers. Status never mutates a published entry: changes are new
supersession lines referencing the entry index. The election office signs
the hash of the final line, which transitively covers every byte above it.

Line kinds: header, entry, status, decryption, terminal_close, tally,
signature.

finish_election, the officials' post-close step, is here beside the
decryptions and tally it publishes.
"""

from __future__ import annotations

import json
import random
from itertools import islice

from .audit import reconcile
from .ballot import BallotStyle, verify_ballot
from .boardformat import (
    DECRYPTED,
    SIGNER,
    STATUSES,
    UNTALLIED,
    VERSION,
    BoardIndex,
    EncryptedBallotRecord,
    SpoiledColumn,
    TallyColumn,
    TallyRecord,
    TerminalClose,
    at_line,
    fold_ballots,
    line_fault,
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
from .serialize import DIGEST, canonical_json, enc_bytes, sha256_hex, write_text
from .trustees import JointPublicKey, combine_shares, partial_decrypt


class Board:
    """Single-writer append-only board. Readers get copies, never references."""

    def __init__(self, election_id: str):
        self.election_id = election_id
        self._index = BoardIndex(election_id)
        self._append({"kind": "header", "election_id": election_id, "version": VERSION})

    # -- low-level chain ------------------------------------------------------

    def _append(self, obj: dict) -> int:
        """Chain the line to the head and append it once line_fault and
        BoardIndex.add accept it; else ChainBroken, the board unchanged."""
        index, line = self._index, dict(obj, prev=self._index.head)
        lineno = len(index.texts)
        if fault := line_fault(line) or index.add(lineno, line):
            raise ChainBroken(lineno, fault)
        index.texts.append(canonical_json(line))
        index.last, index.head = lineno, sha256_hex(index.texts[-1].encode("utf-8"))
        return lineno

    @property
    def last_hash(self) -> str:
        return self._index.head

    def write(self, path) -> None:
        write_text(path, (text + "\n" for text in self._index.texts))

    @classmethod
    def load(cls, path, manifest: ElectionManifest) -> "Board":
        """Reload a board file by the strict read (boardformat.parse_lines),
        decoding each entry's ballot (the tally reads no proof), for the
        manifest's election: ChainBroken names the line it refuses."""
        board = cls.__new__(cls)
        board._index = parse_lines(read_board_lines(path), manifest, ("ballot",))
        board.election_id = manifest.election_id
        return board

    # -- publication -----------------------------------------------------------

    def publish_entry(self, record: EncryptedBallotRecord, status: str, style: BallotStyle,
                      joint_key: int, gp: GroupParams, reason: str | None = None) -> int:
        """The one-record case of publish_entries. Returns the entry index
        used by status/decryption supersession lines."""
        return self.publish_entries([(record, status, style, reason)], joint_key, gp)[0]

    def publish_entries(self, entries, joint_key: int, gp: GroupParams) -> list:
        """Append each (record, status, style, reason) as an entry, in order,
        once every status is one an entry may carry and every ballot's proofs
        verify; their equations go to one batch in a large group
        (chaum_pedersen.batched), seeded from every ballot's and proof's
        canonical bytes, length-prefixed in publication order. Otherwise
        ValueError or RejectInvalidProof, naming the first ballot refused,
        before any line is appended. A record's serial is never published.
        Returns the entry indices."""
        entries = list(entries)
        for _, status, _, _ in entries:
            if status not in STATUSES:
                raise ValueError(f"cannot publish entry with status {status!r}")

        def seed() -> bytes:  # fixes every response the batch weighs
            return b"".join(enc_bytes(record.ballot.canonical_bytes())
                            + enc_bytes(record.proof.canonical_bytes())
                            for record, _, _, _ in entries)

        def first_refused(eqs):
            return next((k for k, (record, _, style, _) in enumerate(entries)
                         if not verify_ballot(record.ballot, record.proof, style, joint_key,
                                              gp, self.election_id, eqs)), None)

        refused = batched(gp, seed, first_refused)
        first = self.entry_count
        if refused is not None:
            raise RejectInvalidProof(first + refused)
        for index, (record, status, _, reason) in enumerate(entries, first):
            line = {"kind": "entry", "index": str(index), "status": status, **record.to_json()}
            if reason is not None:
                line["reason"] = reason
            self._append(line)
            self._index.records[index] = {"ballot": record.ballot, "proof": record.proof}
        return list(range(first, first + len(entries)))

    def append_status(self, entry_index: int, status: str, reason: str | None = None) -> int:
        line = {"kind": "status", "ref": str(entry_index), "status": status}
        if reason is not None:
            line["reason"] = reason
        return self._append(line)

    def append_decryption(self, entry_index: int, columns: list, plaintext: dict) -> int:
        return self._append({"kind": "decryption", "ref": str(entry_index), "columns": columns,
                             "plaintext": plaintext})

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
        if entry_index not in self._index.statuses:
            raise MalformedRecord(f"no entry {entry_index}")
        return self._index.statuses[entry_index]


# -- aggregation and decryption ----------------------------------------------------


def aggregate(board: Board, style_map: dict, gp: GroupParams):
    """Homomorphic fold over effective-CAST entries (see fold_ballots)."""
    return fold_ballots(board._index.cast_ballots(), style_map, gp)


def _columns(cls, decrypted, gp: GroupParams) -> list:
    """cls(contest, column, plaintext, ciphertext, shares) for each (row,
    |g^m|, shares); a NoDlogInRange names a row whose plaintext exceeds its
    bound."""
    out = []
    for row, g_m, shares in decrypted:
        try:
            out.append(cls(row.contest, row.column, dlog_search(g_m, row.bound, gp),
                           row.ciphertext, shares))
        except NoDlogInRange as exc:
            raise exc.within(row.column).within(row.contest)
    return out


def decrypt_all(board: Board, spoiled, style_map: dict, trustee_shares, jpk: JointPublicKey,
                gp: GroupParams, rng: random.Random) -> list:
    """Verifiable decryptions of the spoiled or untallied entries listed, in
    that order, then of the aggregate of the effective-CAST entries. Every
    column is partial-decrypted with each supplied trustee share, in that
    order, so rng is drawn as by one decryption after another; then every
    share is verified and combined in one combine_shares call (one batch of
    share proofs).

    Returns (columns, plaintext summary) per entry, ready for its decryption
    line, then the TallyRecord. NotSpoiled for a listed entry of another
    status; a MalformedRecord of an entry, and a NoDlogInRange of its
    column, names the entry's board line; InsufficientShares/BadShareProof
    propagate from the combine step."""
    groups = []  # (entry, lineno, style, rows) per listed entry
    for k in spoiled:
        if (status := board.effective_status(k)) not in DECRYPTED:
            raise NotSpoiled(f"entry {k} is {status}")
        ballot = board._index.ballot(k)
        lineno, _ = board._index.entries[k]
        style = style_map.get(ballot.style_id)
        if style is None:
            raise MalformedRecord(f"unknown ballot style {ballot.style_id!r}").at(lineno, k)
        groups.append((k, lineno, style, spoiled_statements(board.election_id, k, ballot, style)))
    agg = aggregate(board, style_map, gp)
    rows = [row for *_, group in groups for row in group] + tally_statements(board.election_id, agg)
    shared = [tuple(partial_decrypt(row.ciphertext, ts, gp, rng, row.context)
                    for ts in trustee_shares) for row in rows]
    powers = combine_shares([(row.ciphertext, shares, row.context)
                             for row, shares in zip(rows, shared)], jpk, gp)
    decrypted = zip(rows, powers, shared)
    out = []
    for k, lineno, style, group in groups:
        columns = at_line(lineno, _columns, SpoiledColumn, islice(decrypted, len(group)), gp,
                          entry=k)
        bits = {(col.contest, col.column): col.value for col in columns}
        out.append(([col.to_json() for col in columns], spoiled_plaintext(style, bits)))
    columns = _columns(TallyColumn, decrypted, gp)  # the rest: the aggregate's
    result = {cid: {} for cid in agg}
    for col in columns:
        result[col.contest][col.column] = col.value
    cast_counts = {cid: bucket["cast_count"] for cid, bucket in agg.items()}
    return [*out, TallyRecord(columns=tuple(columns), result=result, cast_counts=cast_counts)]


def decrypt_tally(board: Board, style_map: dict, trustee_shares, jpk: JointPublicKey,
                  gp: GroupParams, rng: random.Random) -> TallyRecord:
    """The tally alone, by decrypt_all."""
    return decrypt_all(board, (), style_map, trustee_shares, jpk, gp, rng)[0]


def decrypt_spoiled(board: Board, entry_index: int, style_map: dict, trustee_shares,
                    jpk: JointPublicKey, gp: GroupParams, rng: random.Random):
    """One spoiled (or untallied) entry's (columns, plaintext summary), ready
    for its decryption line, by decrypt_all, which decrypts the tally too."""
    return decrypt_all(board, (entry_index,), style_map, trustee_shares, jpk, gp, rng)[0]


def finish_election(board: Board, manifest: ElectionManifest, trustee_shares,
                    office: Keypair, cvrs, paper_rows, rng: random.Random) -> dict:
    """The officials' post-close step on an already-published board that
    carries no decryption or tally line yet (else ChainBroken at that line):
    reconcile the CVR store and the paper box with the board (audit.reconcile,
    whose MalformedRecord leaves the board unchanged), demote paper-less CAST
    records to UNTALLIED, publish verifiable decryptions of every spoiled or
    untallied record, publish the tally, and sign the extended board. The
    decryptions and the tally are made by one decrypt_all call, whose share
    proofs are checked in one batch in a large group, seeded from every
    column's context, ciphertext and shares (trustees.combine_shares); no
    decryption line is appended unless every one of them, and the tally,
    decrypts."""
    board.check_untallied()
    gp = manifest.gp
    style_map = manifest.style_map
    cast, compliance = reconcile(board._index.statuses, cvrs, paper_rows)
    index_of = {row["serial"]: i for i, row in cast.items()}
    for serial in compliance["cast_without_paper"]:
        board.append_status(index_of[serial], UNTALLIED, reason="cast-without-paper")

    spoiled = [index for index in range(board.entry_count)
               if board.effective_status(index) in DECRYPTED]
    *decryptions, tally = decrypt_all(board, spoiled, style_map, trustee_shares, manifest.jpk,
                                      gp, rng)
    for index, (columns, plaintext) in zip(spoiled, decryptions):
        board.append_decryption(index, columns, plaintext)
    board.append_tally(tally)
    board.sign_board(office, gp)
    return {"compliance": compliance, "tally": tally}
