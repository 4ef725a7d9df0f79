"""The in-precinct protocol state machine.

One judge's station is the single serialization point: every state change
(token lifecycle, ballot registration, cast, spoil, adjudication) flows
through its logical event loop and is stamped with a logical clock tick.
Terminals hold only their own hash-chain state. Terminals, the ballot-box
scanner, and the judge's station talk over an in-process ordered reliable
message bus with a pluggable fault injector; duplicate deliveries are made
harmless by idempotency keys.

Paper handling is modeled explicitly: the printed summary (always the
selections shown to the voter) becomes the paper ballot, which lands in the
box on a successful scan, in the spoiled pile on a spoil, and nowhere if a
configured fault diverts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ballot import BallotStyle, PlaintextBallot, encrypt_ballot
from .boardformat import CAST, SPOILED
from .chain import chain_hash, initial_chain_seed, new_serial, receipt_code
from .errors import (
    AlreadyFinalized,
    NotProvisional,
    PoolExhausted,
    StarlockError,
    TerminalBusy,
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

TOKEN_ACTIVE = "ACTIVE"
TOKEN_REDEEMED = "REDEEMED"


@dataclass
class Token:
    code: str
    style_id: str
    provisional: bool
    state: str = TOKEN_ACTIVE


@dataclass(frozen=True)
class EncryptedBallotRecord:
    """The tuple a terminal transmits to the judge's station (minus the
    serial, which rides alongside and is never published)."""

    ballot: object
    proof: object
    terminal_id: str
    z: bytes
    timestamp: int

    def to_json(self) -> dict:
        return {
            "ballot": self.ballot.to_json(),
            "proof": self.proof.to_json(),
            "terminal": self.terminal_id,
            "z": self.z.hex(),
            "timestamp": str(self.timestamp),
        }


@dataclass
class BallotRecord:
    serial: str
    record: EncryptedBallotRecord
    status: str
    produced_at: int
    provisional: bool = False
    reason: str | None = None


@dataclass(frozen=True)
class Receipt:
    terminal_id: str
    timestamp: int
    code: str

    def to_json(self) -> dict:
        return {
            "terminal": self.terminal_id,
            "timestamp": str(self.timestamp),
            "code": self.code,
        }


class FaultInjector:
    """Deterministic fault plan keyed by (message kind, occurrence index).

    drop: the delivery never happens. duplicate: delivered twice with the
    same idempotency key. delay: held back and delivered after the next
    normally delivered message (a one-slot reorder).
    """

    def __init__(self, drop=(), duplicate=(), delay=()):
        self.drop = set(drop)
        self.duplicate = set(duplicate)
        self.delay = set(delay)

    def plan(self, kind: str, occurrence: int) -> str:
        key = (kind, occurrence)
        if key in self.drop:
            return "drop"
        if key in self.duplicate:
            return "duplicate"
        if key in self.delay:
            return "delay"
        return "deliver"


class MessageBus:
    """In-process ordered reliable delivery to registered handlers."""

    def __init__(self, injector: FaultInjector | None = None):
        self.injector = injector or FaultInjector()
        self.handlers = {}
        self.counts = {}
        self.held = []

    def register(self, kind: str, handler) -> None:
        self.handlers[kind] = handler

    def send(self, kind: str, payload: dict, msg_id: str):
        """Synchronous send; handler errors propagate to the sender. Returns
        the handler's result, or None when the delivery was dropped/held."""
        occurrence = self.counts.get(kind, 0)
        self.counts[kind] = occurrence + 1
        plan = self.injector.plan(kind, occurrence)
        handler = self.handlers[kind]
        msg = {"payload": payload, "msg_id": msg_id}
        if plan == "drop":
            return None
        if plan == "delay":
            self.held.append((kind, msg))
            return None
        result = handler(msg["payload"], msg["msg_id"])
        if plan == "duplicate":
            handler(msg["payload"], msg["msg_id"])
        while self.held:
            held_kind, held_msg = self.held.pop(0)
            self.handlers[held_kind](held_msg["payload"], held_msg["msg_id"])
        return result


@dataclass
class Terminal:
    terminal_id: str
    z_prev: bytes
    ballots_produced: int = 0
    busy: bool = False


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
        injector: FaultInjector | None = None,
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
        self.active_tokens = {}
        self.records = {}  # serial -> BallotRecord, in production order
        self.claimed = {}  # serial -> PlaintextBallot the terminal reported
        self.papers = {}  # serial -> PlaintextBallot printed on the summary
        self.box = []  # serials physically in the ballot box
        self.spoiled_pile = []  # serials of spoiled papers kept out of the box
        self.diverted_papers = set()  # serials whose paper vanishes after scan
        self.closed = False

        self._seen_msgs = {}
        self._cast_calls = 0
        self.bus = MessageBus(injector)
        self.bus.register("redeem", self._handle_redeem)
        self.bus.register("record", self._handle_record)
        self.bus.register("cast_scan", self._handle_cast_scan)

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

    def redeem_token(self, code: str) -> str:
        result = self.bus.send("redeem", {"code": code}, msg_id=f"redeem:{code}:{self.clock}")
        if result is None:
            raise UnknownOrSpentToken("redemption message lost in transit")
        return result[0]

    def _handle_redeem(self, payload: dict, msg_id: str):
        if msg_id in self._seen_msgs:
            return self._seen_msgs[msg_id]
        code = payload["code"]
        token = self.active_tokens.get(code)
        if token is None or token.state != TOKEN_ACTIVE:
            raise UnknownOrSpentToken(f"code {code} is not active")
        token.state = TOKEN_REDEEMED
        del self.active_tokens[code]
        self._tick("token_redeemed", code=code, style=token.style_id)
        result = (token.style_id, token.provisional)
        self._seen_msgs[msg_id] = result
        return result

    # -- voting session --------------------------------------------------------

    def vote_session(self, terminal_id: str, code: str, pb: PlaintextBallot):
        """Redeem the token, encrypt at the terminal, extend the terminal's
        hash chain, and register the record with the judge's station.

        Returns (BallotRecord, Receipt, printed_summary). The printed summary
        always shows the voter's own selections; a rigged terminal alters
        only what it encrypts and reports."""
        if self.closed:
            raise StarlockError("polls are closed")
        try:
            terminal = self.terminals[terminal_id]
        except KeyError:
            raise StarlockError(f"unknown terminal {terminal_id!r}") from None
        if terminal.busy:
            raise TerminalBusy(f"terminal {terminal_id} has a session in progress")
        terminal.busy = True
        try:
            redeemed = self.bus.send(
                "redeem", {"code": code}, msg_id=f"redeem:{code}:{self.clock}"
            )
            if redeemed is None:
                raise UnknownOrSpentToken("redemption message lost in transit")
            style_id, provisional = redeemed
            style = self.styles[style_id]
            if pb.style_id != style_id:
                raise UnknownOption(
                    f"token is for style {style_id!r}, ballot claims {pb.style_id!r}"
                )
            actual = self._tamper(pb, style) if terminal_id in self.rigged_terminals else pb
            eb, proof = encrypt_ballot(
                actual, style, self.joint_key, self.gp, self.rng, self.election_id
            )
            serial = new_serial(self.rng)
            while serial in self.records:
                serial = new_serial(self.rng)
            z = chain_hash(eb, proof, terminal_id, terminal.z_prev)
            terminal.z_prev = z
            terminal.ballots_produced += 1
            record = self.bus.send(
                "record",
                {
                    "serial": serial,
                    "ballot": eb,
                    "proof": proof,
                    "terminal": terminal_id,
                    "z": z,
                    "provisional": provisional,
                    "claimed": actual,
                },
                msg_id=f"record:{serial}",
            )
            if record is None:
                raise StarlockError("ballot record lost in transit")
            receipt = Receipt(
                terminal_id=terminal_id, timestamp=record.produced_at, code=receipt_code(z)
            )
            self.papers[serial] = pb
            summary = {"plaintext": pb.to_json(), "serial": serial}
            return record, receipt, summary
        finally:
            terminal.busy = False

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

    def _handle_record(self, payload: dict, msg_id: str):
        if msg_id in self._seen_msgs:
            return self._seen_msgs[msg_id]
        serial = payload["serial"]
        if serial in self.records:
            raise StarlockError(f"serial collision on {serial}")
        clock = self._tick(
            "ballot_produced",
            serial=serial,
            terminal=payload["terminal"],
            z=payload["z"].hex(),
            provisional=payload["provisional"],
            ballot=payload["ballot"].to_json(),
            proof=payload["proof"].to_json(),
        )
        ebr = EncryptedBallotRecord(
            ballot=payload["ballot"],
            proof=payload["proof"],
            terminal_id=payload["terminal"],
            z=payload["z"],
            timestamp=clock,
        )
        record = BallotRecord(
            serial=serial,
            record=ebr,
            status=PROVISIONAL_PENDING if payload["provisional"] else PENDING,
            produced_at=clock,
            provisional=payload["provisional"],
        )
        self.records[serial] = record
        self.claimed[serial] = payload["claimed"]
        self._seen_msgs[msg_id] = record
        return record

    # -- cast / spoil -----------------------------------------------------------

    def cast(self, serial: str) -> None:
        """Ballot-box scan: the paper enters the box and the scan message
        travels to the judge's station (unless a fault interferes)."""
        if serial not in self.papers:
            raise UnknownSerial(f"no printed ballot with serial {serial}")
        self._cast_calls += 1
        self.bus.send(
            "cast_scan", {"serial": serial}, msg_id=f"cast:{serial}:{self._cast_calls}"
        )
        # The paper is already through the slot whether or not the message
        # arrived; a diverted paper disappears between scanner and box.
        if serial in self.diverted_papers:
            return
        if serial not in self.box:
            self.box.append(serial)

    def _handle_cast_scan(self, payload: dict, msg_id: str):
        if msg_id in self._seen_msgs:
            return self._seen_msgs[msg_id]
        serial = payload["serial"]
        record = self.records.get(serial)
        if record is None:
            raise UnknownSerial(f"no electronic record for serial {serial}")
        if record.status == PROVISIONAL_PENDING:
            raise NotProvisional("provisional records are finalized by adjudication")
        if record.status != PENDING:
            raise AlreadyFinalized(f"record {serial} is {record.status}")
        record.status = CAST
        self._tick("cast", serial=serial, terminal=record.record.terminal_id)
        self._seen_msgs[msg_id] = True
        return True

    def spoil(self, serial: str, reason: str) -> None:
        if reason not in SPOIL_REASONS:
            raise ValueError(f"unknown spoil reason {reason!r}")
        record = self.records.get(serial)
        if record is None:
            raise UnknownSerial(f"no electronic record for serial {serial}")
        if record.status == PROVISIONAL_PENDING:
            raise NotProvisional("provisional records are finalized by adjudication")
        if record.status != PENDING:
            raise AlreadyFinalized(f"record {serial} is {record.status}")
        self._spoil(record, reason)

    def _spoil(self, record: BallotRecord, reason: str) -> None:
        record.status = SPOILED
        record.reason = reason
        self.spoiled_pile.append(record.serial)
        self._tick(
            "spoiled",
            serial=record.serial,
            terminal=record.record.terminal_id,
            reason=reason,
        )

    def timeout_sweep(self, now: int | None = None, ttl: int | None = None):
        """Spoil every PENDING record older than ttl. Ages are measured
        against the moment the sweep starts."""
        now = self.clock if now is None else now
        ttl = self.ttl if ttl is None else ttl
        overdue = [
            r for r in self.records.values()
            if r.status == PENDING and now - r.produced_at > ttl
        ]
        for record in overdue:
            self._spoil(record, SPOIL_TIMEOUT)
        self._tick("timeout_sweep", ttl=ttl, spoiled=[r.serial for r in overdue])
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
            if serial not in self.diverted_papers and serial not in self.box:
                self.box.append(serial)
            self._tick("provisional_adjudicated", serial=serial, decision=ACCEPT)
        else:
            self._tick("provisional_adjudicated", serial=serial, decision=REJECT)
            self._spoil(record, SPOIL_REJECTED)
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
                self._tick(
                    "provisional_adjudicated", serial=record.serial, decision=REJECT
                )
                self._spoil(record, SPOIL_REJECTED)
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

    # -- accounting ----------------------------------------------------------------

    def status_counts(self) -> dict:
        """Per-terminal {status: count} plus produced counts."""
        out = {
            tid: {"produced": t.ballots_produced, PENDING: 0, CAST: 0, SPOILED: 0,
                  PROVISIONAL_PENDING: 0}
            for tid, t in self.terminals.items()
        }
        for record in self.records.values():
            out[record.record.terminal_id][record.status] += 1
        return out


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
