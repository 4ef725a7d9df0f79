"""Ballot styles, plaintext encoding, encryption, and well-formedness proofs.

A contest with selection limit L gets one 0/1 ciphertext per option plus L
padding columns that absorb undervotes, so the homomorphic contest sum always
encrypts exactly L and a single equality proof replaces a range proof. A
contest with a write-in slot carries one extra 0/1 counter column that sits
outside the sum and does not consume a selection; registered write-in
candidates are ordinary option columns.

Every Fiat-Shamir transcript is bound to (election_id, style_id, contest_id,
column id), so no proof can be replayed for a different column, contest,
style, or election.
"""

from __future__ import annotations

import random

from .chaum_pedersen import (
    ChaumPedersenProof,
    ZeroOneProof,
    prove_eq_dlog,
    prove_zero_or_one,
    verify_eq_dlog,
    verify_zero_or_one,
)
from .elgamal import Ciphertext, add_many, encrypt_exp
from .errors import OvervoteRejected, UnknownOption
from .fiatshamir import DOMAIN_CONTEST_SUM
from .group import GroupParams
from .serialize import BOOL, INT, STR, Record, enc_str, optional, record, tuple_of

# Reserved column labels; option ids may not collide with these.
WRITE_IN_COLUMN = "(write-in)"
ABSTAIN_COLUMN = "(abstain)"
SUM_COLUMN = "(sum)"


def pad_column(j: int) -> str:
    return f"(pad{j})"


class Contest(Record):
    limit = 1
    writein_slot = False

    FIELDS = (
        ("contest_id", "contest_id", STR),
        ("options", "options", tuple_of(STR)),
        ("limit", "limit", INT),
        ("writein_slot", "writein_slot", BOOL),
    )

    def __post_init__(self):
        if not self.contest_id:
            raise ValueError("contest_id must be nonempty")
        if len(self.options) < 1:
            raise ValueError(f"contest {self.contest_id} has no options")
        if len(set(self.options)) != len(self.options):
            raise ValueError(f"contest {self.contest_id} has duplicate options")
        for opt in self.options:
            if not opt or opt.startswith("("):
                raise ValueError(f"option id {opt!r} is reserved or empty")
        if not 1 <= self.limit <= len(self.options):
            raise ValueError(
                f"contest {self.contest_id}: limit {self.limit} outside [1, {len(self.options)}]"
            )
        object.__setattr__(self, "options", tuple(self.options))

    def column_ids(self) -> list:
        """Column ids in canonical order: options, padding, then the write-in
        slot when the contest has one."""
        ids = list(self.options) + [pad_column(j) for j in range(self.limit)]
        if self.writein_slot:
            ids.append(WRITE_IN_COLUMN)
        return ids


class BallotStyle(Record):
    FIELDS = (("style_id", "style_id", STR), ("contests", "contests", tuple_of(record(Contest))))

    def __post_init__(self):
        if not self.style_id:
            raise ValueError("style_id must be nonempty")
        ids = [c.contest_id for c in self.contests]
        if len(set(ids)) != len(ids):
            raise ValueError(f"style {self.style_id} repeats a contest id")
        object.__setattr__(self, "contests", tuple(self.contests))


class PlaintextBallot:
    """The voter's selections: real option ids per contest, plus the set of
    contests where the write-in slot was used."""

    def __init__(self, style_id: str, selections: dict, writeins=frozenset()):
        self.style_id = style_id
        self.selections = {cid: tuple(sorted(set(opts))) for cid, opts in selections.items()}
        self.writeins = frozenset(writeins)

    def __eq__(self, other):
        if not isinstance(other, PlaintextBallot):
            return NotImplemented
        mine = {c: o for c, o in self.selections.items() if o}
        theirs = {c: o for c, o in other.selections.items() if o}
        return (
            self.style_id == other.style_id
            and mine == theirs
            and self.writeins == other.writeins
        )

    def to_json(self) -> dict:
        return {
            "style_id": self.style_id,
            "selections": {cid: list(opts) for cid, opts in sorted(self.selections.items())},
            "writeins": sorted(self.writeins),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlaintextBallot":
        return cls(
            style_id=obj["style_id"],
            selections={cid: tuple(opts) for cid, opts in obj["selections"].items()},
            writeins=frozenset(obj.get("writeins", [])),
        )

    @classmethod
    def from_raw_selections(cls, style_id: str, raw: dict) -> "PlaintextBallot":
        """Build from scenario-style selections where the write-in slot is the
        sentinel "(write-in)" inside a contest's selection list."""
        selections, writeins = {}, set()
        for cid, opts in raw.items():
            kept = []
            for opt in opts:
                if opt == WRITE_IN_COLUMN:
                    writeins.add(cid)
                else:
                    kept.append(opt)
            selections[cid] = tuple(kept)
        return cls(style_id=style_id, selections=selections, writeins=frozenset(writeins))


def encode(pb: PlaintextBallot, style: BallotStyle) -> dict:
    """Each contest's 0/1 bits in Contest.column_ids() order; padding absorbs
    undervotes so options and padding sum to exactly the contest limit."""
    if pb.style_id != style.style_id:
        raise UnknownOption(f"ballot for style {pb.style_id!r} against {style.style_id!r}")
    known = {c.contest_id for c in style.contests}
    for cid in pb.selections:
        if cid not in known and pb.selections[cid]:
            raise UnknownOption(f"selections name unknown contest {cid!r}")
    for cid in pb.writeins:
        if cid not in known:
            raise UnknownOption(f"write-in names unknown contest {cid!r}")

    rows = {}
    for contest in style.contests:
        chosen = set(pb.selections.get(contest.contest_id, ()))
        for opt in chosen:
            if opt not in contest.options:
                raise UnknownOption(f"contest {contest.contest_id}: unknown option {opt!r}")
        if len(chosen) > contest.limit:
            raise OvervoteRejected(
                f"contest {contest.contest_id}: {len(chosen)} selections exceed limit {contest.limit}"
            )
        writein_used = contest.contest_id in pb.writeins
        if writein_used and not contest.writein_slot:
            raise UnknownOption(f"contest {contest.contest_id} has no write-in slot")
        undervotes = contest.limit - len(chosen)
        bits = tuple(1 if opt in chosen else 0 for opt in contest.options)
        bits += tuple(1 if j < undervotes else 0 for j in range(contest.limit))
        if contest.writein_slot:
            bits += (1 if writein_used else 0,)
        rows[contest.contest_id] = bits
    return rows


def split_columns(contest: Contest, items) -> tuple:
    """(options, padding, write-in or None) of items in column_ids() order."""
    n, m = len(contest.options), len(contest.options) + contest.limit
    return tuple(items[:n]), tuple(items[n:m]), items[m] if contest.writein_slot else None


def join_columns(contest: Contest, options, padding, writein):
    """The items of a contest's parts as one list in column_ids() order, or
    None when a part does not fit the contest."""
    if len(options) != len(contest.options) or len(padding) != contest.limit:
        return None
    if contest.writein_slot != (writein is not None):
        return None
    return [*options, *padding] + ([writein] if contest.writein_slot else [])


def contest_sum_statement(contest: Contest, cts, gp: GroupParams) -> tuple:
    """(a, |b / g^limit|) of the product of the options and padding of cts (in
    column_ids() order): a DH pair under (g, K) exactly when they sum to limit."""
    total = add_many(cts[:len(contest.options) + contest.limit], gp)
    return total.a, gp.signed(total.b * pow(pow(gp.g, contest.limit, gp.p), -1, gp.p) % gp.p)


class EncryptedContest(Record):
    FIELDS = (
        ("contest_id", "contest_id", STR),
        ("options", "option_cts", tuple_of(record(Ciphertext))),
        ("padding", "padding_cts", tuple_of(record(Ciphertext))),
        ("writein", "writein_ct", optional(record(Ciphertext))),
    )

    def all_columns(self, contest: Contest):
        """(column id, ciphertext) pairs in canonical order."""
        cols = list(zip(contest.options, self.option_cts))
        cols += [(pad_column(j), ct) for j, ct in enumerate(self.padding_cts)]
        if self.writein_ct is not None:
            cols.append((WRITE_IN_COLUMN, self.writein_ct))
        return cols


class EncryptedBallot(Record):
    FIELDS = (
        ("style_id", "style_id", STR),
        ("contests", "contests", tuple_of(record(EncryptedContest))),
    )


class ContestProof(Record):
    FIELDS = (
        ("contest_id", "contest_id", STR),
        ("options", "option_proofs", tuple_of(record(ZeroOneProof))),
        ("padding", "padding_proofs", tuple_of(record(ZeroOneProof))),
        ("writein", "writein_proof", optional(record(ZeroOneProof))),
        ("sum", "sum_proof", record(ChaumPedersenProof)),
    )


class WellFormednessProof(Record):
    FIELDS = (("contests", "contests", tuple_of(record(ContestProof))),)


def column_context(election_id: str, style_id: str, contest_id: str, column: str) -> bytes:
    return enc_str(election_id) + enc_str(style_id) + enc_str(contest_id) + enc_str(column)


def encrypt_ballot(
    pb: PlaintextBallot,
    style: BallotStyle,
    K: int,
    gp: GroupParams,
    rng: random.Random,
    election_id: str,
):
    """Encrypt column by column with fresh randomness, prove each column is a
    0/1 encryption, and prove each contest sum (options + padding) encrypts
    exactly the selection limit. Returns (EncryptedBallot, WellFormednessProof)."""
    rows = encode(pb, style)
    enc_contests, proof_contests = [], []
    for contest in style.contests:
        cts, proofs, randomness = [], [], []
        for column, bit in zip(contest.column_ids(), rows[contest.contest_id]):
            r = rng.randrange(1, gp.q)
            ct = encrypt_exp(bit, r, K, gp)
            ctx = column_context(election_id, style.style_id, contest.contest_id, column)
            proofs.append(prove_zero_or_one(bit, r, ct, K, gp, rng, ctx))
            cts.append(ct)
            randomness.append(r)

        # The options+padding product encrypts exactly the limit; prove it.
        a, b = contest_sum_statement(contest, cts, gp)
        options_r, padding_r, _ = split_columns(contest, randomness)
        ctx = column_context(election_id, style.style_id, contest.contest_id, SUM_COLUMN)
        sum_proof = prove_eq_dlog(
            sum(options_r + padding_r) % gp.q, a, K, b, gp, rng,
            context=ctx, domain=DOMAIN_CONTEST_SUM,
        )
        enc_contests.append(EncryptedContest(contest.contest_id, *split_columns(contest, cts)))
        proof_contests.append(
            ContestProof(contest.contest_id, *split_columns(contest, proofs), sum_proof))
    eb = EncryptedBallot(style_id=style.style_id, contests=tuple(enc_contests))
    proof = WellFormednessProof(contests=tuple(proof_contests))
    return eb, proof


def verify_ballot(
    eb: EncryptedBallot,
    proof: WellFormednessProof,
    style: BallotStyle,
    K: int,
    gp: GroupParams,
    election_id: str,
    eqs=None,
) -> bool:
    """Recompute every Fiat-Shamir transcript and state every proof equation
    to eqs (chaum_pedersen; each is tested at once when None).

    Shape mismatches (wrong contest list, missing columns) are failures, not
    exceptions: a verifier must never crash on adversarial input.
    """
    if eb.style_id != style.style_id:
        return False
    if len(eb.contests) != len(style.contests) or len(proof.contests) != len(style.contests):
        return False
    for contest, enc, cpr in zip(style.contests, eb.contests, proof.contests):
        if enc.contest_id != contest.contest_id or cpr.contest_id != contest.contest_id:
            return False
        cts = join_columns(contest, enc.option_cts, enc.padding_cts, enc.writein_ct)
        proofs = join_columns(contest, cpr.option_proofs, cpr.padding_proofs, cpr.writein_proof)
        if cts is None or proofs is None:
            return False
        for column, ct, pr in zip(contest.column_ids(), cts, proofs):
            ctx = column_context(election_id, style.style_id, contest.contest_id, column)
            if not verify_zero_or_one(pr, ct, K, gp, ctx, eqs):
                return False

        # Products of the column ciphertexts just tested (a contest has at
        # least one column), under the K tested with them: no test of their own.
        a, b = contest_sum_statement(contest, cts, gp)
        ctx = column_context(election_id, style.style_id, contest.contest_id, SUM_COLUMN)
        if not verify_eq_dlog(cpr.sum_proof, a, K, b, gp, context=ctx,
                              domain=DOMAIN_CONTEST_SUM, eqs=eqs):
            return False
    return True
