"""Workload inputs: the elections each benchmark workload runs, generated
from the workload seed, plus the plaintext oracle's expectations.

The program under test only ever sees the scenario files written from these
objects and the key files its own `keygen` writes.
"""

from __future__ import annotations

import dataclasses
import random

from starlock.ballot import BallotStyle, Contest
from starlock.scenario import Scenario, Voter, expected_counts, make_random_scenario

WRITE_IN = "(write-in)"


@dataclasses.dataclass
class Election:
    """One election of a workload: its scenario, key ceremony and audit
    seeds, how many receipts it checks, and how often each audit and receipt
    check runs (they only read, so repeating one gives more samples of the
    same command)."""

    name: str
    scenario: Scenario
    keygen_seed: int
    audit_seed: str
    receipt_sample: int
    read_repeats: int = 1


# -- test-batch ----------------------------------------------------------------
#
# Elections come from make_random_scenario over consecutive seeds, but the
# batch has a fixed shape: a quota of elections per (voter count, contest
# count) class. Sizes vary so much from seed to seed that a plain seed range
# made the totals track the batch size rather than the program's speed; with
# the quotas the seed changes only the contents (options, selections, voter
# actions, trustees, terminals).

BATCH_SMALL_EACH = 2  # elections per class of 1..8 voters x 1..4 contests
BATCH_MEDIUM_VOTERS = 40  # the generator's largest scale at this cap is exactly 40 voters
BATCH_MEDIUM_EACH = 1  # 40-voter elections per contest count 1..4
BATCH_RECEIPTS = 5  # receipt checks per election; each re-parses the board
BATCH_SCAN_LIMIT = 50_000


def batch_elections(seed: int) -> list:
    rng = random.Random(("test-batch", seed).__repr__())
    quota = {(v, c): BATCH_SMALL_EACH for v in range(1, 9) for c in range(1, 5)}
    quota.update({(BATCH_MEDIUM_VOTERS, c): BATCH_MEDIUM_EACH for c in range(1, 5)})
    wanted = sum(quota.values())
    first = seed * 100_000
    out = []
    for s in range(first, first + BATCH_SCAN_LIMIT):
        if len(out) == wanted:
            break
        scenario = make_random_scenario(s, max_voters=BATCH_MEDIUM_VOTERS)
        shape = (len(scenario.voters), len(scenario.styles[0].contests))
        if not quota.get(shape):
            continue
        quota[shape] -= 1
        out.append(Election(
            name=f"e{s}",
            scenario=scenario,
            keygen_seed=rng.randrange(2**31),
            audit_seed=_audit_seed(rng),
            receipt_sample=BATCH_RECEIPTS,
        ))
    if len(out) != wanted:
        raise RuntimeError(f"test-batch seed {seed}: shape quotas not met")
    return out


# -- test-precincts ------------------------------------------------------------
#
# One long election. Every precinct has its own style and its own 1-of-4
# contest, so the test group's column limit of 10 holds per precinct while
# the board grows to thousands of lines. Final cast votes per precinct are
# dealt 10/8/6/4 (shuffled) so every contest has a positive margin even after
# the lost papers are removed.

PRECINCTS = 40
PRECINCT_OPTIONS = 4
PRECINCT_DEAL = (10, 8, 6, 4)
PRECINCT_EXTRA = 3  # voters per precinct whose ballot is never counted
PRECINCT_TERMINALS = 6
PRECINCT_RECEIPTS = 8
PRECINCT_READ_REPEATS = 2  # audit and receipt-check passes per round
PRECINCT_LOST = 3
PRECINCT_DUPLICATED = 3
PRECINCT_NOISE = 0.005


def precinct_elections(seed: int) -> list:
    rng = random.Random(("test-precincts", seed).__repr__())
    styles = []
    voters = []
    for p in range(PRECINCTS):
        cid = f"race{p:03d}"
        options = tuple(f"p{p:03d}c{o}" for o in range(PRECINCT_OPTIONS))
        style = BallotStyle(
            style_id=f"pct{p:03d}",
            contests=(Contest(contest_id=cid, options=options, limit=1,
                              writein_slot=False),),
        )
        styles.append(style)
        deal = list(PRECINCT_DEAL)
        rng.shuffle(deal)
        final = [opt for opt, n in zip(options, deal) for _ in range(n)]
        rng.shuffle(final)
        precinct_voters = []
        for choice in final:
            vote = {cid: [choice]}
            flow = rng.random()
            if flow < 0.08:
                other = {cid: [rng.choice(options)]}
                precinct_voters.append(Voter(style.style_id, other, "spoil", revote=vote))
            elif flow < 0.14:
                precinct_voters.append(Voter(style.style_id, vote, "challenge", revote=vote))
            else:
                precinct_voters.append(Voter(style.style_id, vote, "cast"))
        for _ in range(PRECINCT_EXTRA):
            vote = {cid: [rng.choice(options)]}
            action = rng.choice(("abandon", "challenge"))
            precinct_voters.append(Voter(style.style_id, vote, action))
        rng.shuffle(precinct_voters)
        voters.extend(precinct_voters)

    # At most one lost paper per precinct, always a counted ballot, so each
    # contest keeps a positive margin.
    by_precinct = {}
    for i, v in enumerate(voters):
        if v.action == "cast" or v.revote is not None:
            by_precinct.setdefault(v.style, []).append(i)
    chosen = rng.sample(sorted(by_precinct), min(PRECINCT_LOST, len(by_precinct)))
    lost = tuple(sorted(rng.choice(by_precinct[s]) for s in chosen))
    cast_voters = [i for i, v in enumerate(voters) if v.action == "cast" and i not in lost]
    duplicated = tuple(sorted(rng.sample(cast_voters, PRECINCT_DUPLICATED)))

    scenario = Scenario(
        election_id=f"precincts-{seed}",
        group="test",
        trustees=(3, 2),
        seed=rng.randrange(2**32),
        styles=tuple(styles),
        terminals=tuple(f"T{t}" for t in range(1, PRECINCT_TERMINALS + 1)),
        voters=tuple(voters),
        lost_papers=lost,
        duplicated_scans=duplicated,
        paper_noise_rate=PRECINCT_NOISE,
    )
    return [Election(
        name="precincts",
        scenario=scenario,
        keygen_seed=rng.randrange(2**31),
        audit_seed=_audit_seed(rng),
        receipt_sample=PRECINCT_RECEIPTS,
        read_repeats=PRECINCT_READ_REPEATS,
    )]


# -- prod-mini ------------------------------------------------------------------
#
# The demo's voter flows on one 1-of-2 contest in the 2048-bit group:
# 8 ballots, 3 columns each, so 24 zero-or-one proofs. Five ballots end CAST
# and every voter picks a candidate, so the margin is odd and never a tie.

PROD_GROUP = "prod"
PROD_RECEIPTS = 4
PROD_READ_REPEATS = 6  # audit and receipt-check take about 0.15 s, mostly interpreter start


def prod_elections(seed: int) -> list:
    rng = random.Random(("prod-mini", seed).__repr__())
    cid = "mayor"
    options = ("ada", "grace")
    style = BallotStyle(
        style_id="downtown",
        contests=(Contest(contest_id=cid, options=options, limit=1, writein_slot=False),),
    )

    def pick():
        return {cid: [rng.choice(options)]}

    voters = (
        Voter("downtown", pick(), "cast"),
        Voter("downtown", pick(), "cast"),
        Voter("downtown", pick(), "spoil", revote=pick()),
        Voter("downtown", pick(), "challenge", revote=pick()),
        Voter("downtown", pick(), "provisional", adjudication="ACCEPT"),
        Voter("downtown", pick(), "abandon"),
    )
    scenario = Scenario(
        election_id=f"prod-mini-{seed}",
        group=PROD_GROUP,
        trustees=(3, 2),
        seed=rng.randrange(2**32),
        styles=(style,),
        terminals=("T1", "T2"),
        voters=voters,
    )
    return [Election(
        name="prod-mini",
        scenario=scenario,
        keygen_seed=rng.randrange(2**31),
        audit_seed=_audit_seed(rng),
        receipt_sample=PROD_RECEIPTS,
        read_repeats=PROD_READ_REPEATS,
    )]


def _audit_seed(rng: random.Random) -> str:
    return str(rng.randrange(10**19, 10**20))


# -- oracle expectations -----------------------------------------------------------


def expected_tally(scenario: Scenario) -> dict:
    """expected_counts of the script with the lost-paper voters removed: their
    cast ballot is demoted to UNTALLIED at tally time."""
    lost = set(scenario.lost_papers)
    kept = tuple(
        dataclasses.replace(v, action="abandon", revote=None, adjudication=None)
        if i in lost else v
        for i, v in enumerate(scenario.voters)
    )
    return expected_counts(dataclasses.replace(
        scenario, voters=kept, lost_papers=(), dropped_scans=(), duplicated_scans=(),
        paper_overrides=(),
    ))


def expected_plaintext(scenario: Scenario, voter: int, session: str) -> dict:
    """The decrypted plaintext a receipt check must print for a ballot that
    is not counted: the selections the voter's script made in that session."""
    v = scenario.voters[voter]
    raw = v.revote if session == "revote" else v.selections
    style = next(s for s in scenario.styles if s.style_id == v.style)
    selections = {}
    writeins = []
    for contest in style.contests:
        chosen = raw.get(contest.contest_id, [])
        selections[contest.contest_id] = sorted(o for o in chosen if o != WRITE_IN)
        if contest.writein_slot and WRITE_IN in chosen:
            writeins.append(contest.contest_id)
    return {"selections": selections, "style_id": v.style, "writeins": sorted(writeins)}


def audit_margin(scenario: Scenario, counts: dict):
    """Smallest winner-loser margin of the reported counts over every contest
    with a loser, or None when no contest has one. The audit refuses to run
    unless this is positive."""
    contests = {}
    for style in scenario.styles:
        for contest in style.contests:
            contests.setdefault(contest.contest_id, contest)
    margin = None
    for cid, contest in contests.items():
        cols = counts[cid]
        ranked = sorted(contest.options, key=lambda o: (-cols[o], o))
        for w in ranked[: contest.limit]:
            for loser in ranked[contest.limit:]:
                m = cols[w] - cols[loser]
                margin = m if margin is None else min(margin, m)
    return margin
