"""The in-precinct protocol state machine.

One judge's station is the single serialization point: every state change
(token lifecycle, ballot registration, cast, spoil, adjudication) is one of
its steps, called directly, and is stamped with a logical clock tick.
Terminals hold only their own hash-chain state. A terminal hands the station
one record per ballot, the board's EncryptedBallotRecord, which also redeems
the voter's token; the ballot-box scanner hands it the serial of each scanned
paper. A scan whose serial is in dropped_scans never reaches the station: the
paper is boxed and its record stays PENDING.

Paper handling is modeled explicitly: the printed summary (always the
selections shown to the voter) becomes the paper ballot, which lands in the
box on a successful scan, stays out of it on a spoil, and lands nowhere if a
configured fault diverts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ballot import BallotStyle, PlaintextBallot, encode, encrypt_ballot
from .boardformat import CAST, SPOILED, EncryptedBallotRecord
from .chain import chain_hash, initial_chain_seed, new_serial, receipt_code
from .errors import (
    AlreadyFinalized,
    NotProvisional,
    PoolExhausted,
    StarlockError,
    UnknownOption,
    UnknownOrSpentToken,
    UnknownSerial,
)
from .group import GroupParams

TOKEN_POOL_SIZE = 100_000
DEFAULT_TTL = 600  # logical ticks a ballot may sit PENDING before a sweep spoils it

PENDING = "PENDING"
PROVISIONAL_PENDING = "PROVISIONAL_PENDING"

SPOIL_VOTER = "VOTER"
SPOIL_CHALLENGE = "CHALLENGE"
SPOIL_TIMEOUT = "TIMEOUT"
SPOIL_REJECTED = "REJECTED"
SPOIL_REASONS = (SPOIL_VOTER, SPOIL_CHALLENGE, SPOIL_TIMEOUT, SPOIL_REJECTED)

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass
class Token:
    code: str
    style_id: str
    provisional: bool


@dataclass
class BallotRecord:
    serial: str
    record: EncryptedBallotRecord
    status: str
    reason: str | None = None

    @property
    def produced_at(self) -> int:
        """The station's clock tick that registered the record."""
        return self.record.timestamp


@dataclass(frozen=True)
class Receipt:
    terminal_id: str
    timestamp: int
    code: str


@dataclass
class Terminal:
    terminal_id: str
    z_prev: bytes
    ballots_produced: int = 0


class PollSite:
    """Facade wiring terminals, the judge's station, and the scanner."""

    def __init__(
        self,
        election_id: str,
        gp: GroupParams,
        joint_key: int,
        styles: dict,
        terminal_ids,
        salt: bytes,
        rng: random.Random,
        ttl: int = DEFAULT_TTL,
        rigged_terminals=(),
    ):
        self.election_id = election_id
        self.gp = gp
        self.joint_key = joint_key
        self.styles = dict(styles)
        self.salt = salt
        self.rng = rng
        self.ttl = ttl
        self.rigged_terminals = set(rigged_terminals)
        self.terminals = {
            tid: Terminal(tid, initial_chain_seed(election_id, gp, joint_key, salt, tid))
            for tid in terminal_ids
        }
        self.initial_seeds = {tid: t.z_prev for tid, t in self.terminals.items()}

        self.clock = 0
        self.events = []
        self.active_tokens = {}  # code -> Token, while the token is unredeemed
        self.records = {}  # serial -> BallotRecord, in production order
        self.claimed = {}  # serial -> PlaintextBallot the terminal reported
        self.papers = {}  # serial -> PlaintextBallot printed on the summary
        self.box = []  # serials physically in the ballot box
        self.diverted_papers = set()  # serials whose paper vanishes after scan
        self.dropped_scans = set()  # serials whose scan never reaches the station
        self.closed = False

    # -- judge's station event log ------------------------------------------

    def _tick(self, event: str, **payload) -> int:
        self.clock += 1
        entry = {"event": event, "clock": self.clock}
        entry.update(payload)
        self.events.append(entry)
        return self.clock

    # -- token lifecycle ------------------------------------------------------

    def issue_token(self, style_id: str, provisional: bool = False) -> Token:
        if style_id not in self.styles:
            raise UnknownOption(f"no ballot style {style_id!r}")
        if len(self.active_tokens) >= TOKEN_POOL_SIZE:
            raise PoolExhausted(f"all {TOKEN_POOL_SIZE} codes active")
        code = None
        for _ in range(50):
            candidate = f"{self.rng.randrange(TOKEN_POOL_SIZE):05d}"
            if candidate not in self.active_tokens:
                code = candidate
                break
        if code is None:
            # Pool nearly full: pick uniformly from the sorted complement.
            free = sorted(
                set(f"{i:05d}" for i in range(TOKEN_POOL_SIZE)) - set(self.active_tokens)
            )
            code = free[self.rng.randrange(len(free))]
        token = Token(code=code, style_id=style_id, provisional=provisional)
        self.active_tokens[code] = token
        self._tick("token_issued", code=code, style=style_id, provisional=provisional)
        return token

    # -- voting session --------------------------------------------------------

    def vote_session(self, terminal_id: str, code: str, pb: PlaintextBallot):
        """Encrypt the ballot at the terminal in the style of the code's token,
        extend the terminal's hash chain, and hand the judge's station the one
        record that redeems the token. A ballot the terminal refuses (an
        unknown option, an overvote, another style) leaves the token active.

        Returns (BallotRecord, Receipt, printed_summary). The printed summary
        always shows the voter's own selections; a rigged terminal alters
        only what it encrypts and reports."""
        if self.closed:
            raise StarlockError("polls are closed")
        try:
            terminal = self.terminals[terminal_id]
        except KeyError:
            raise StarlockError(f"unknown terminal {terminal_id!r}") from None
        token = self.active_tokens.get(code)
        if token is None:
            raise UnknownOrSpentToken(f"code {code} is not active")
        style = self.styles[token.style_id]
        actual = pb
        if terminal_id in self.rigged_terminals:
            encode(pb, style)  # refuse the voter's own ballot before altering it
            actual = self._tamper(pb, style)
        eb, proof = encrypt_ballot(
            actual, style, self.joint_key, self.gp, self.rng, self.election_id
        )
        serial = new_serial(self.rng)
        while serial in self.records:
            serial = new_serial(self.rng)
        z = chain_hash(eb, proof, terminal_id, terminal.z_prev)
        record = self._register(code, serial, eb, proof, terminal_id, z, actual)
        terminal.z_prev = z
        terminal.ballots_produced += 1
        receipt = Receipt(
            terminal_id=terminal_id, timestamp=record.produced_at, code=receipt_code(z)
        )
        self.papers[serial] = pb
        summary = {"plaintext": pb.to_json(), "serial": serial}
        return record, receipt, summary

    def _tamper(self, pb: PlaintextBallot, style: BallotStyle) -> PlaintextBallot:
        """Deterministic cheat: shift the first contest's vote to a different
        option (or invent one if the voter abstained)."""
        contest = style.contests[0]
        selections = {cid: list(opts) for cid, opts in pb.selections.items()}
        current = list(selections.get(contest.contest_id, ()))
        if current:
            victim = current[0]
            idx = contest.options.index(victim)
            replacement = contest.options[(idx + 1) % len(contest.options)]
            if replacement in current:
                current.remove(victim)
            else:
                current[0] = replacement
        else:
            current = [contest.options[0]]
        selections[contest.contest_id] = current
        return PlaintextBallot(
            style_id=pb.style_id, selections=selections, writeins=pb.writeins
        )

    def _register(self, code, serial, ballot, proof, terminal_id, z, claimed):
        """Redeem the token (vote_session found it active) and register the
        terminal's record under its fresh serial, in one step of the station."""
        token = self.active_tokens.pop(code)
        self._tick("token_redeemed", code=token.code, style=token.style_id)
        clock = self._tick(
            "ballot_produced",
            serial=serial,
            terminal=terminal_id,
            z=z.hex(),
            provisional=token.provisional,
            ballot=ballot.to_json(),
            proof=proof.to_json(),
        )
        ebr = EncryptedBallotRecord(
            ballot=ballot, proof=proof, terminal_id=terminal_id, z=z, timestamp=clock
        )
        record = BallotRecord(
            serial=serial,
            record=ebr,
            status=PROVISIONAL_PENDING if token.provisional else PENDING,
        )
        self.records[serial] = record
        self.claimed[serial] = claimed
        return record

    # -- cast / spoil -----------------------------------------------------------

    def cast(self, serial: str) -> None:
        """Ballot-box scan: the paper enters the box and the station casts its
        record, unless the scan is dropped."""
        if serial not in self.papers:
            raise UnknownSerial(f"no printed ballot with serial {serial}")
        if serial not in self.dropped_scans:
            record = self._pending_record(serial)
            record.status = CAST
            self._tick("cast", serial=serial, terminal=record.record.terminal_id)
        # The paper is through the slot whether or not the station heard.
        self._box_paper(serial)

    def _box_paper(self, serial: str) -> None:
        """Box the paper once, unless it vanished between scanner and box."""
        if serial not in self.diverted_papers and serial not in self.box:
            self.box.append(serial)

    def _pending_record(self, serial: str) -> BallotRecord:
        """The record if a voter may still cast or spoil it, else raise."""
        record = self.records.get(serial)
        if record is None:
            raise UnknownSerial(f"no electronic record for serial {serial}")
        if record.status == PROVISIONAL_PENDING:
            raise NotProvisional("provisional records are finalized by adjudication")
        if record.status != PENDING:
            raise AlreadyFinalized(f"record {serial} is {record.status}")
        return record

    def spoil(self, serial: str, reason: str) -> None:
        if reason not in SPOIL_REASONS:
            raise ValueError(f"unknown spoil reason {reason!r}")
        self._spoil(self._pending_record(serial), reason)

    def _spoil(self, record: BallotRecord, reason: str) -> None:
        record.status = SPOILED
        record.reason = reason
        self._tick(
            "spoiled",
            serial=record.serial,
            terminal=record.record.terminal_id,
            reason=reason,
        )

    def _reject(self, record: BallotRecord) -> None:
        self._tick("provisional_adjudicated", serial=record.serial, decision=REJECT)
        self._spoil(record, SPOIL_REJECTED)

    def timeout_sweep(self):
        """Spoil every PENDING record older than the site's ttl. Ages are
        measured against the moment the sweep starts."""
        overdue = [
            r for r in self.records.values()
            if r.status == PENDING and self.clock - r.produced_at > self.ttl
        ]
        for record in overdue:
            self._spoil(record, SPOIL_TIMEOUT)
        self._tick("timeout_sweep", ttl=self.ttl, spoiled=[r.serial for r in overdue])
        return [r.serial for r in overdue]

    # -- provisional adjudication ------------------------------------------------

    def provisional_flow(self, serial: str, adjudication: str) -> str:
        if adjudication not in (ACCEPT, REJECT):
            raise ValueError(f"adjudication must be ACCEPT or REJECT, got {adjudication!r}")
        record = self.records.get(serial)
        if record is None:
            raise UnknownSerial(f"no electronic record for serial {serial}")
        if record.status != PROVISIONAL_PENDING:
            raise NotProvisional(f"record {serial} is {record.status}")
        if adjudication == ACCEPT:
            record.status = CAST
            self._box_paper(serial)
            self._tick("provisional_adjudicated", serial=serial, decision=ACCEPT)
        else:
            self._reject(record)
        return record.status

    # -- close -------------------------------------------------------------------

    def close_polls(self) -> dict:
        """Final sweep, forced resolution of stragglers, and chain closeout.
        Returns {terminal_id: final z}."""
        if self.closed:
            raise StarlockError("polls already closed")
        self.timeout_sweep()
        for record in list(self.records.values()):
            if record.status == PROVISIONAL_PENDING:
                # Unadjudicated at close: rejected by default.
                self._reject(record)
            elif record.status == PENDING:
                # Polls closed; the paper was never scanned.
                self._spoil(record, SPOIL_TIMEOUT)
        final_z = {tid: t.z_prev for tid, t in self.terminals.items()}
        self._tick(
            "close",
            final_z={tid: z.hex() for tid, z in sorted(final_z.items())},
            produced={tid: t.ballots_produced for tid, t in sorted(self.terminals.items())},
        )
        self.closed = True
        return final_z


def replay_event_log(events, initial_seeds: dict):
    """Independent replay of a site event log.

    Recomputes every z from the ballot/proof bytes embedded in
    ballot_produced events. Conservation holds when, at every prefix, each
    terminal's produced count equals the number of distinct serials it
    produced and every cast, spoil or adjudication names a produced serial.
    Returns (chains, conservation_ok) where chains maps terminal id to the
    list of recomputed z hex digests."""
    from .ballot import EncryptedBallot, WellFormednessProof

    z_prev = dict(initial_seeds)
    chains = {tid: [] for tid in initial_seeds}
    produced = set()
    conservation_ok = True

    for event in events:
        kind = event["event"]
        if kind == "ballot_produced":
            tid = event["terminal"]
            if tid not in z_prev:
                conservation_ok = False
                continue
            ballot = EncryptedBallot.from_json(event["ballot"])
            proof = WellFormednessProof.from_json(event["proof"])
            z = chain_hash(ballot, proof, tid, z_prev[tid])
            chains[tid].append(z.hex())
            z_prev[tid] = z
            if event["serial"] in produced:
                conservation_ok = False
            produced.add(event["serial"])
        elif kind in ("cast", "spoiled", "provisional_adjudicated"):
            if event["serial"] not in produced:
                conservation_ok = False
    return chains, conservation_ok
