"""Scenario files and the deterministic end-to-end election runner.

A scenario is a JSON description of one simulated election day: group
choice, trustee threshold, ballot styles, terminals, a scripted voter
sequence, cheat and fault injections, and a mandatory RNG seed. Running a
scenario produces every artifact of a real election: the election manifest,
the signed bulletin board, the judge-station event log, the physical-box
paper summaries, the official's private vote-record store, the published
commitments, and the voters' receipts. Identical scenario bytes produce
byte-identical boards.

The officials' post-close step, finish_election, is board.py's, so that the
tally loads neither this module nor the polling place.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from .audit import PAPER_VIEWS, SALT_BYTES, build_cvrs, interpretation, published_commitments
from .ballot import ABSTAIN_COLUMN, WRITE_IN_COLUMN, BallotStyle, Contest, PlaintextBallot
# finish_election is re-exported: perfbench's tracer times it as scenario.finish_election
from .board import Board, finish_election
from .boardformat import CAST, contest_columns
from .chain import receipt_code
from .elgamal import keygen
from .errors import MalformedRecord, OvervoteRejected, ScenarioError, StarlockError, UnknownOption
from .group import GROUPS, resolve_group
from .manifest import ElectionManifest
from .pollsite import (
    ACCEPT,
    DEFAULT_TTL,
    REJECT,
    SPOIL_CHALLENGE,
    SPOIL_VOTER,
    PollSite,
)
from .serialize import (
    INTEGER,
    NUMBER,
    OBJECT,
    STR,
    Codec,
    FileRecord,
    decode_field,
    dict_of,
    dump_json,
    load_json,
    optional,
    record,
    tuple_of,
    write_text,
)
from .trustees import check_threshold, dkg

ACTIONS = ("cast", "spoil", "challenge", "abandon", "provisional")
FAULTS = ("lost_papers", "dropped_scans", "duplicated_scans")  # voter indices, under "faults"

# {contest id: [option id or "(write-in)", ...]}, lists as in the file
SELECTIONS = dict_of(Codec(list, lambda v: list(tuple_of(STR).decode(v))))


def _given(value, keys, decode) -> dict:
    """{key: decode(value[key])} for each of keys that the object value gives."""
    obj = OBJECT.decode(value)
    return {key: decode_field(obj, key, decode) for key in keys if key in obj}


@dataclass
class Voter(FileRecord):
    style: str
    selections: dict
    action: str = "cast"
    terminal: str | None = None
    revote: dict | None = None
    adjudication: str | None = None

    FIELDS = (
        ("style", "style", STR),
        ("selections", "selections", SELECTIONS),
        ("action", "action", STR),
        ("terminal", "terminal", optional(STR)),
        ("revote", "revote", optional(SELECTIONS)),
        ("adjudication", "adjudication", optional(STR)),
    )
    DEFAULTS = {"selections": {}}


@dataclass
class Scenario(FileRecord):
    election_id: str
    group: str
    trustees: tuple  # (n, k)
    seed: int
    styles: tuple
    terminals: tuple
    voters: tuple
    ttl: int = DEFAULT_TTL
    rigged_terminals: tuple = ()
    lost_papers: tuple = ()  # voter indices whose final paper vanishes
    dropped_scans: tuple = ()  # voter indices whose final scan never reaches the station
    # Voter indices whose scan is read twice. Validated only: the station acts
    # on a scan once, so the repeat changes no artifact.
    duplicated_scans: tuple = ()
    paper_overrides: tuple = ()  # ({"voter": i, "contests": {...}}, ...)
    paper_noise_rate: float = 0.0

    FIELDS = (
        ("election_id", "election_id", STR),
        ("group", "group", STR),
        ("trustees", "trustees", Codec(  # (n, k); either one left out is 1
            lambda t: {"n": t[0], "k": t[1]},
            lambda v: tuple(_given(v, "nk", INTEGER.decode).get(key, 1) for key in "nk"))),
        ("seed", "seed", INTEGER),
        ("ttl", "ttl", INTEGER),
        ("styles", "styles", tuple_of(record(BallotStyle))),
        ("terminals", "terminals", tuple_of(STR)),
        ("voters", "voters", tuple_of(record(Voter))),
        ("rigged_terminals", "rigged_terminals", tuple_of(STR)),
        ("faults", None, Codec(lambda s: {key: list(getattr(s, key)) for key in FAULTS},
                               lambda v: _given(v, FAULTS, tuple_of(INTEGER).decode))),
        ("paper_overrides", "paper_overrides", tuple_of(OBJECT)),  # views: see validate
        ("paper_noise_rate", "paper_noise_rate", NUMBER),
    )
    DEFAULTS = {"election_id": "starlock-election", "group": "test", "trustees": {},
                "terminals": ["T1"], "voters": []}

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.group not in GROUPS:
            raise ScenarioError(f"unknown group {self.group!r}")
        n, k = self.trustees
        if not (isinstance(n, int) and isinstance(k, int)):
            raise ScenarioError("trustee counts must be integers")
        if not isinstance(self.seed, int):
            raise ScenarioError("scenario seed is mandatory and must be an integer")
        if self.seed < 0:  # random.Random seeds from abs(seed): -n would repeat n's run
            raise ScenarioError(f"seed: {self.seed} is negative; a seed is a non-negative integer")
        if self.ttl < 0:  # the manifest would hold a ttl that no reader loads
            raise ScenarioError(f"ttl: {self.ttl} is negative; a ttl is a number of ticks")
        styles = {s.style_id: s for s in self.styles}
        if not styles or len(styles) != len(self.styles):
            raise ScenarioError("styles must be nonempty with unique ids")
        try:
            check_threshold(n, k, GROUPS[self.group])
            contest_columns(styles)
        except StarlockError as exc:  # InvalidThreshold, or a contest defined twice
            raise ScenarioError(str(exc)) from None
        if not self.terminals or len(set(self.terminals)) != len(self.terminals):
            raise ScenarioError("terminals must be nonempty and unique")
        if not set(self.rigged_terminals) <= set(self.terminals):
            raise ScenarioError("rigged_terminals: not all terminals")
        for i, voter in enumerate(self.voters):
            if voter.style not in styles:
                raise ScenarioError(f"voter {i} references unknown style {voter.style!r}")
            if voter.action not in ACTIONS:
                raise ScenarioError(f"voter {i} has unknown action {voter.action!r}")
            if voter.terminal is not None and voter.terminal not in self.terminals:
                raise ScenarioError(f"voter {i} references unknown terminal")
            if voter.revote is not None and voter.action not in ("spoil", "challenge"):
                raise ScenarioError(f"voter {i}: revote only follows a spoil or challenge")
            if voter.adjudication is not None:
                if voter.action != "provisional":
                    raise ScenarioError(f"voter {i}: adjudication requires a provisional vote")
                if voter.adjudication not in (ACCEPT, REJECT):
                    raise ScenarioError(f"voter {i}: adjudication must be ACCEPT or REJECT")
        indices = [(key, idx) for key in FAULTS for idx in getattr(self, key)]
        for j, override in enumerate(self.paper_overrides):
            try:
                decode_field(override, "contests", PAPER_VIEWS)
            except MalformedRecord as exc:
                raise ScenarioError(str(exc.within(j).within("paper_overrides"))) from None
            indices.append(("paper_overrides", override.get("voter")))
        for key, idx in indices:
            if not (isinstance(idx, int) and 0 <= idx < len(self.voters)):
                raise ScenarioError(f"{key}: voter index {idx!r} out of range")
        if not 0.0 <= self.paper_noise_rate <= 1.0:
            raise ScenarioError("paper_noise_rate must be in [0, 1]")


def load_scenario(path) -> Scenario:
    """The scenario in the file at path; ScenarioError names the file or field at fault."""
    try:
        return Scenario.from_json(load_json(path))
    except MalformedRecord as exc:
        raise ScenarioError(str(exc)) from None


def make_keys(scenario: Scenario):
    """Key material derived deterministically from the scenario seed (the
    library-convenience path; the CLI generates keys as a separate step)."""
    gp = resolve_group(scenario.group)
    rng = random.Random(("keys", scenario.seed).__repr__())
    n, k = scenario.trustees
    jpk, shares = dkg(n, k, gp, rng)
    office = keygen(gp, rng)
    return {"jpk": jpk, "trustee_shares": shares, "office": office}


def run_scenario(scenario: Scenario, keys=None) -> dict:
    """Simulate the full election day and publish the board.

    Returns the complete artifact set; write_artifacts serializes it. A
    ballot the voter's terminal refuses (an unknown option or an overvote)
    raises ScenarioError naming the voter's selections or revote, before any
    artifact exists."""
    styles = {s.style_id: s for s in scenario.styles}
    gp = resolve_group(scenario.group)
    if keys is None:
        keys = make_keys(scenario)
    jpk, office = keys["jpk"], keys["office"]
    rng = random.Random(scenario.seed)
    salt = rng.getrandbits(8 * SALT_BYTES).to_bytes(SALT_BYTES, "big")
    site = PollSite(
        election_id=scenario.election_id,
        gp=gp,
        joint_key=jpk.K,
        styles=styles,
        terminal_ids=scenario.terminals,
        salt=salt,
        rng=rng,
        ttl=scenario.ttl,
        rigged_terminals=scenario.rigged_terminals,
    )
    manifest = ElectionManifest(
        election_id=scenario.election_id,
        gp=gp,
        jpk=jpk,
        office_pk=office.pk,
        styles=tuple(scenario.styles),
        terminal_seeds=dict(site.initial_seeds),
        salt=salt,
        ttl=scenario.ttl,
    )

    receipts = []
    challenges = []
    final_serial = {}  # voter index -> serial of their last produced ballot
    lost = set(scenario.lost_papers)
    dropped = set(scenario.dropped_scans)

    def session(i, voter, terminal, which):
        key = "selections" if which == "primary" else "revote"
        pb = PlaintextBallot.from_raw_selections(voter.style, getattr(voter, key))
        token = site.issue_token(voter.style, provisional=(voter.action == "provisional"))
        try:
            record = site.vote_session(terminal, token.code, pb)
        except (UnknownOption, OvervoteRejected) as exc:
            raise ScenarioError(f"voters[{i}].{key}: {exc}") from None
        serial = record.serial
        final_serial[i] = serial
        if i in lost:
            site.diverted_papers.add(serial)
        receipts.append(
            {"voter": i, "session": which, "terminal": terminal,
             "code": receipt_code(record.record.z), "serial": serial}
        )
        return serial, pb

    def scan(i, serial):
        if i in dropped:
            site.dropped_scans.add(serial)
        site.cast(serial)

    for i, voter in enumerate(scenario.voters):
        terminal = voter.terminal or scenario.terminals[i % len(scenario.terminals)]
        serial, pb = session(i, voter, terminal, "primary")
        if voter.action == "cast":
            scan(i, serial)
        elif voter.action in ("spoil", "challenge"):
            reason = SPOIL_VOTER if voter.action == "spoil" else SPOIL_CHALLENGE
            site.spoil(serial, reason)
            if voter.action == "challenge":
                challenges.append({"voter": i, "serial": serial, "intended": pb.to_json()})
            if voter.revote is not None:
                serial, _ = session(i, voter, terminal, "revote")
                scan(i, serial)
        elif voter.action == "provisional":
            if voter.adjudication is not None:
                site.provisional_flow(serial, voter.adjudication)
        # "abandon": walk away; the close-of-polls sweep spoils it.

    final_z = site.close_polls()

    board = Board(scenario.election_id)
    index_by_serial = dict(zip(site.records, board.publish_entries(
        [(record.record, record.status, styles[record.record.ballot.style_id], record.reason)
         for record in site.records.values()], jpk.K, gp)))  # in production order
    for tid in sorted(final_z):
        board.append_terminal_close(tid, final_z[tid], site.terminals[tid].ballots_produced)
    board.sign_board(office, gp)

    for row in receipts:
        row["status"] = site.records[row["serial"]].status
        row["entry"] = index_by_serial[row["serial"]]
    for row in challenges:
        row["entry"] = index_by_serial[row["serial"]]

    cast_rows = [
        {"serial": s, "index": index_by_serial[s], "plaintext": site.claimed[s].to_json()}
        for s, record in site.records.items()
        if record.status == CAST
    ]
    cvrs = build_cvrs(cast_rows, manifest, rng)

    paper_rows = []
    for serial in site.box:
        pb = site.papers[serial]
        paper_rows.append(
            {"serial": serial, "contests": interpretation(pb.to_json(), styles[pb.style_id])}
        )
    rng.shuffle(paper_rows)  # a physical box has no order
    if scenario.paper_noise_rate > 0:
        layout = contest_columns(styles)
        for row in paper_rows:
            if rng.random() < scenario.paper_noise_rate:
                _stray_mark(row, layout, rng)
    overrides = {o["voter"]: o["contests"] for o in scenario.paper_overrides}
    for row in paper_rows:
        for voter_idx, contests in overrides.items():
            if final_serial.get(voter_idx) == row["serial"]:
                row["contests"] = {
                    cid: dict(view) for cid, view in {**row["contests"], **contests}.items()
                }

    return {
        "scenario": scenario,
        "manifest": manifest,
        "board": board,
        "site": site,
        "jpk": jpk,
        "trustee_shares": keys["trustee_shares"],
        "office": office,
        "receipts": receipts,
        "challenges": challenges,
        "index_by_serial": index_by_serial,
        "cvrs": cvrs,
        "commitments": published_commitments(cvrs),
        "papers": paper_rows,
        "events": list(site.events),
    }


def _stray_mark(row: dict, layout: dict, rng: random.Random) -> None:
    """Reinterpret one contest on a paper summary (layout is contest_columns'):
    a human reader sees a stray mark as a different (or an extra) selection."""
    candidates = [cid for cid in row["contests"]]
    if not candidates:
        return
    cid = rng.choice(sorted(candidates))
    contest, _ = layout[cid]
    view = dict(row["contests"][cid])
    selections = list(view["selections"])
    others = [opt for opt in contest.options if opt not in selections]
    if selections and others:
        selections[rng.randrange(len(selections))] = rng.choice(others)
    elif others:
        selections.append(rng.choice(others))
    elif selections:
        selections.pop(rng.randrange(len(selections)))
    view["selections"] = sorted(selections)
    row["contests"][cid] = view


# One encoder for every event line: json.dumps(event, sort_keys=True) would
# build one per call.
_EVENT_LINE = json.JSONEncoder(sort_keys=True)


def write_artifacts(result: dict, outdir) -> dict:
    """Serialize a run's artifact set under outdir. Returns {name: path}."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def path(name):
        paths[name] = os.path.join(outdir, name)
        return paths[name]

    result["manifest"].save(path("params.json"))
    result["board"].write(path("board.jsonl"))
    seeds = {tid: z.hex() for tid, z in result["manifest"].terminal_seeds.items()}
    events = [{"event": "init", "seeds": seeds}, *result["events"]]
    write_text(path("eventlog.jsonl"), (_EVENT_LINE.encode(event) + "\n" for event in events))
    for name in ("papers", "cvrs", "commitments", "receipts"):
        dump_json(result[name], path(f"{name}.json"))
    return paths


# -- scenario generators -------------------------------------------------------
#
# Test and demo scaffolding. The TEST group's exponent order is 11, so a
# homomorphic count only decodes exactly while every tally column stays at
# or below 10; every generator below keeps per-column counts within that
# bound by construction (few voters, or single-choice contests whose votes
# are dealt round-robin across enough options).


def make_demo_scenario(seed: int = 7) -> Scenario:
    """One small election exercising every voter-flow branch: cast,
    voter-spoil-and-revote, challenge, provisional accept, provisional
    reject, and a walk-away timeout."""
    styles = (
        BallotStyle(
            style_id="downtown",
            contests=(
                Contest("mayor", ("ada", "grace"), 1, True),
                Contest("council", ("ida", "joan", "mary"), 2, False),
            ),
        ),
    )
    voters = (
        Voter("downtown", {"mayor": ["ada"], "council": ["ida", "joan"]}, "cast"),
        Voter("downtown", {"mayor": ["grace"], "council": ["mary"]}, "cast"),
        Voter("downtown", {"mayor": ["ada"], "council": []}, "spoil",
              revote={"mayor": ["grace"], "council": ["ida"]}),
        Voter("downtown", {"mayor": ["grace"], "council": ["joan", "mary"]}, "challenge",
              revote={"mayor": ["grace"], "council": ["joan", "mary"]}),
        Voter("downtown", {"mayor": ["(write-in)"], "council": ["ida"]}, "cast"),
        Voter("downtown", {"mayor": ["ada"], "council": ["mary"]}, "provisional",
              adjudication=ACCEPT),
        Voter("downtown", {"mayor": ["grace"], "council": ["ida"]}, "provisional",
              adjudication=REJECT),
        Voter("downtown", {"mayor": ["ada"], "council": ["joan"]}, "abandon"),
    )
    return Scenario(
        election_id="starlock-demo",
        group="test",
        trustees=(3, 2),
        seed=seed,
        styles=styles,
        terminals=("T1", "T2"),
        voters=voters,
    )


def make_random_scenario(seed: int, max_voters: int = 200, max_contests: int = 4) -> Scenario:
    """Randomized-but-capacity-safe scenario for end-to-end trials."""
    rng = random.Random(("scenario", seed).__repr__())
    scale = rng.choice(["small", "small", "medium", "large"])
    if scale == "small":
        n_voters = rng.randint(1, min(8, max_voters))
    elif scale == "medium":
        n_voters = rng.randint(min(9, max_voters), min(60, max_voters))
    else:
        n_voters = rng.randint(min(61, max_voters), max_voters)
    n_contests = rng.randint(1, max_contests)
    small = n_voters <= 5

    contests = []
    for c in range(n_contests):
        if small:
            limit = rng.randint(1, 2)
            n_options = rng.randint(max(2, limit), 4)
            writein = rng.random() < 0.4
        else:
            limit = 1
            n_options = max(2, -(-n_voters // 10) + rng.randint(1, 3))
            writein = False
        options = tuple(f"c{c}x{o}" for o in range(n_options))
        contests.append(Contest(f"race{c}", options, limit, writein))

    styles = [BallotStyle(style_id="full", contests=tuple(contests))]
    if small and n_contests > 1 and rng.random() < 0.5:
        styles.append(BallotStyle(style_id="short", contests=(contests[0],)))

    # Deal each single-choice contest's votes round-robin so no option
    # column ever exceeds 10; small contests cannot overflow any column.
    assignments = {}
    for contest in contests:
        deck = [contest.options[v % len(contest.options)] for v in range(n_voters)]
        rng.shuffle(deck)
        assignments[contest.contest_id] = deck

    voters = []
    for i in range(n_voters):
        style = styles[0] if len(styles) == 1 else rng.choice(styles)
        selections = {}
        for contest in style.contests:
            if small:
                pool = list(contest.options)
                if contest.writein_slot and rng.random() < 0.3:
                    chosen = ["(write-in)"]
                    chosen += rng.sample(pool, rng.randint(0, contest.limit - 1))
                else:
                    chosen = rng.sample(pool, rng.randint(0, contest.limit))
                selections[contest.contest_id] = chosen
            else:
                selections[contest.contest_id] = [assignments[contest.contest_id][i]]
        if small:
            action = rng.choice(["cast", "cast", "cast", "spoil", "abandon", "provisional"])
        else:
            action = "cast"
        revote = None
        adjudication = None
        if action == "spoil":
            revote = selections if rng.random() < 0.7 else None
        if action == "provisional":
            adjudication = rng.choice([ACCEPT, REJECT, None])
        voters.append(
            Voter(style.style_id, selections, action, revote=revote,
                  adjudication=adjudication)
        )

    return Scenario(
        election_id=f"rand-{seed}",
        group="test",
        trustees=rng.choice([(1, 1), (3, 2), (5, 3)]),
        seed=rng.randrange(2**32),
        styles=tuple(styles),
        terminals=tuple(f"T{t}" for t in range(1, rng.randint(1, 3) + 1)),
        voters=tuple(voters),
    )


def expected_counts(scenario: Scenario) -> dict:
    """Plaintext oracle: per-contest column counts implied by the script,
    counting only ballots that end the day CAST (casts, revote casts, and
    accepted provisionals). Derived purely from the scenario text."""
    styles = {s.style_id: s for s in scenario.styles}
    layout = contest_columns(styles)
    counts = {cid: dict.fromkeys(columns, 0) for cid, (_, columns) in layout.items()}
    cast_counts = dict.fromkeys(counts, 0)

    for voter in scenario.voters:
        if voter.action == "cast":
            selections = voter.selections
        elif voter.action in ("spoil", "challenge") and voter.revote is not None:
            selections = voter.revote
        elif voter.action == "provisional" and voter.adjudication == ACCEPT:
            selections = voter.selections
        else:
            continue
        style = styles[voter.style]
        for contest in style.contests:
            cols = counts[contest.contest_id]
            cast_counts[contest.contest_id] += 1
            chosen = selections.get(contest.contest_id, [])
            real = {s for s in chosen if s != WRITE_IN_COLUMN}  # a repeat counts once
            for opt in real:
                cols[opt] += 1
            cols[ABSTAIN_COLUMN] += contest.limit - len(real)
            if contest.writein_slot and WRITE_IN_COLUMN in chosen:
                cols[WRITE_IN_COLUMN] += 1
    return {"counts": counts, "cast": cast_counts}
