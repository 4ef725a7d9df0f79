"""Polling-place protocol: tokens, sessions, casting, faults, and replay."""

import random

import pytest

from starlock.ballot import BallotStyle, Contest, PlaintextBallot, encode
from starlock.chain import chain_hash, receipt_code
from starlock.errors import (
    AlreadyFinalized,
    NotProvisional,
    OvervoteRejected,
    PoolExhausted,
    StarlockError,
    UnknownOption,
    UnknownOrSpentToken,
    UnknownSerial,
)
from starlock.group import TEST_GROUP
from starlock.pollsite import (
    CAST,
    PENDING,
    PROVISIONAL_PENDING,
    SPOILED,
    TOKEN_POOL_SIZE,
    PollSite,
    replay_event_log,
)
from starlock.trustees import dkg

GP = TEST_GROUP

STYLE = BallotStyle(
    style_id="s",
    contests=(Contest(contest_id="race", options=("ada", "bo", "cy"), limit=1),),
)
PB = PlaintextBallot(style_id="s", selections={"race": ("ada",)})


def make_site(seed=11, terminals=("T1", "T2"), ttl=600, rigged=()):
    rng = random.Random(seed)
    jpk, _ = dkg(1, 1, GP, rng)
    site = PollSite(
        election_id="poll-test",
        gp=GP,
        joint_key=jpk.K,
        styles={"s": STYLE},
        terminal_ids=terminals,
        salt=b"\x11" * 16,
        rng=rng,
        ttl=ttl,
        rigged_terminals=rigged,
    )
    return site


def vote(site, terminal="T1", pb=PB, provisional=False):
    token = site.issue_token("s", provisional=provisional)
    return site.vote_session(terminal, token.code, pb)


def test_token_issue_and_redeem_lifecycle() -> None:
    site = make_site()
    token = site.issue_token("s")
    assert len(token.code) == 5 and token.code.isdigit()
    record, receipt, summary = site.vote_session("T1", token.code, PB)
    assert record.status == PENDING
    # a token is single-use
    with pytest.raises(UnknownOrSpentToken):
        site.vote_session("T1", token.code, PB)
    with pytest.raises(UnknownOrSpentToken):
        site.vote_session("T1", "00000", PB)
    with pytest.raises(StarlockError):
        site.issue_token("nope")


def test_vote_session_outputs() -> None:
    site = make_site()
    record, receipt, summary = vote(site)
    assert len(record.record.z) == 32
    assert receipt.code == receipt_code(record.record.z)
    assert len(receipt.code) == 20
    assert receipt.terminal_id == "T1"
    assert summary["serial"] == record.serial
    assert len(record.serial) == 26
    assert summary["plaintext"] == PB.to_json()
    # the electronic record never carries the serial
    assert "serial" not in record.record.to_json()


def test_ballot_style_must_match_token() -> None:
    site = make_site()
    token = site.issue_token("s")
    wrong = PlaintextBallot(style_id="t", selections={})
    with pytest.raises(StarlockError):
        site.vote_session("T1", token.code, wrong)


def test_terminal_chains_link_in_production_order() -> None:
    site = make_site()
    r1, _, _ = vote(site, "T1")
    r2, _, _ = vote(site, "T1")
    r3, _, _ = vote(site, "T2")
    z0 = site.initial_seeds["T1"]
    assert r1.record.z == chain_hash(r1.record.ballot, r1.record.proof, "T1", z0)
    assert r2.record.z == chain_hash(r2.record.ballot, r2.record.proof, "T1", r1.record.z)
    assert r3.record.z == chain_hash(
        r3.record.ballot, r3.record.proof, "T2", site.initial_seeds["T2"]
    )
    assert site.terminals["T1"].z_prev == r2.record.z
    assert site.terminals["T2"].z_prev == r3.record.z


def test_cast_finalizes_and_boxes_the_paper() -> None:
    site = make_site()
    record, _, _ = vote(site)
    site.cast(record.serial)
    assert record.status == CAST
    assert site.box == [record.serial]
    with pytest.raises(AlreadyFinalized):
        site.cast(record.serial)
    with pytest.raises(UnknownSerial):
        site.cast("Q" * 26)


def test_spoil_keeps_paper_out_of_the_box() -> None:
    site = make_site()
    record, _, _ = vote(site)
    site.spoil(record.serial, "VOTER")
    assert record.status == SPOILED
    assert record.reason == "VOTER"
    assert site.box == []
    with pytest.raises(AlreadyFinalized):
        site.cast(record.serial)
    with pytest.raises(AlreadyFinalized):
        site.spoil(record.serial, "VOTER")


def test_spoil_reason_catalog() -> None:
    site = make_site()
    record, _, _ = vote(site)
    with pytest.raises(ValueError):
        site.spoil(record.serial, "LOST")
    with pytest.raises(UnknownSerial):
        site.spoil("Q" * 26, "VOTER")
    site.spoil(record.serial, "CHALLENGE")
    assert record.reason == "CHALLENGE"


def test_provisional_adjudication() -> None:
    site = make_site()
    record, _, _ = vote(site, provisional=True)
    assert record.status == PROVISIONAL_PENDING
    # provisional records resolve only through adjudication
    with pytest.raises(NotProvisional):
        site.cast(record.serial)
    with pytest.raises(NotProvisional):
        site.spoil(record.serial, "VOTER")
    with pytest.raises(ValueError):
        site.provisional_flow(record.serial, "MAYBE")
    assert site.provisional_flow(record.serial, "ACCEPT") == CAST
    assert record.serial in site.box
    with pytest.raises(NotProvisional):
        site.provisional_flow(record.serial, "ACCEPT")

    rejected, _, _ = vote(site, provisional=True)
    assert site.provisional_flow(rejected.serial, "REJECT") == SPOILED
    assert rejected.reason == "REJECTED"
    assert rejected.serial not in site.box

    normal, _, _ = vote(site)
    with pytest.raises(NotProvisional):
        site.provisional_flow(normal.serial, "ACCEPT")


def test_timeout_sweep_boundary() -> None:
    site = make_site(ttl=5)
    record, _, _ = vote(site)
    for _ in range(5):
        site.issue_token("s")  # one clock tick each
    assert site.clock == record.produced_at + 5
    assert site.timeout_sweep() == []  # and the sweep's own tick
    assert record.status == PENDING
    assert site.timeout_sweep() == [record.serial]
    assert record.status == SPOILED
    assert record.reason == "TIMEOUT"


def test_close_polls_resolves_stragglers() -> None:
    site = make_site()
    pending, _, _ = vote(site)
    prov, _, _ = vote(site, provisional=True)
    cast_rec, _, _ = vote(site)
    site.cast(cast_rec.serial)
    final = site.close_polls()
    assert pending.status == SPOILED and pending.reason == "TIMEOUT"
    assert prov.status == SPOILED and prov.reason == "REJECTED"
    assert cast_rec.status == CAST
    assert final == {tid: t.z_prev for tid, t in site.terminals.items()}
    with pytest.raises(StarlockError):
        site.close_polls()
    with pytest.raises(StarlockError):
        vote(site)


def test_terminal_guards() -> None:
    site = make_site()
    token = site.issue_token("s")
    with pytest.raises(StarlockError):
        site.vote_session("T9", token.code, PB)
    site.vote_session("T1", token.code, PB)


def test_token_pool_exhaustion_and_fallback() -> None:
    site = make_site()
    site.active_tokens = {f"{i:05d}": object() for i in range(TOKEN_POOL_SIZE)}
    free = ("00007", "31337", "99999")
    for code in free:
        del site.active_tokens[code]
    got = {site.issue_token("s").code for _ in range(3)}
    assert got == set(free)  # random probing gives way to the sorted complement
    with pytest.raises(PoolExhausted):
        site.issue_token("s")


def test_dropped_cast_scan_leaves_record_pending() -> None:
    site = make_site()
    record, _, _ = vote(site)
    site.dropped_scans.add(record.serial)
    site.cast(record.serial)
    assert record.serial in site.box  # the paper went through the slot
    assert record.status == PENDING  # but the station never heard
    site.close_polls()
    assert record.status == SPOILED and record.reason == "TIMEOUT"


@pytest.mark.parametrize("selections, error", [
    ({"race": ("ada", "bo")}, OvervoteRejected),
    ({"race": ("zed",)}, UnknownOption),
    (None, UnknownOption),  # a ballot of another style than the token's
], ids=["overvote", "unknown-option", "other-style"])
@pytest.mark.parametrize("rigged", [(), ("T1",)], ids=["honest", "rigged"])
def test_a_refused_ballot_leaves_the_token_active(selections, error, rigged) -> None:
    site = make_site(rigged=rigged)
    token = site.issue_token("s")
    refused = PlaintextBallot(style_id="t", selections={}) if selections is None \
        else PlaintextBallot(style_id="s", selections=selections)
    with pytest.raises(error):
        site.vote_session("T1", token.code, refused)
    assert token.code in site.active_tokens
    assert not site.records
    assert site.terminals["T1"].z_prev == site.initial_seeds["T1"]
    record, _, _ = site.vote_session("T1", token.code, PB)  # the retry, same code
    assert record.status == PENDING and token.code not in site.active_tokens
    assert [e["event"] for e in site.events] == ["token_issued", "token_redeemed",
                                                 "ballot_produced"]


def test_diverted_paper_leaves_box_empty() -> None:
    site = make_site()
    record, _, _ = vote(site)
    site.diverted_papers.add(record.serial)
    site.cast(record.serial)
    assert record.status == CAST
    assert record.serial not in site.box


def test_rigged_terminal_prints_truth_but_encrypts_a_lie() -> None:
    site = make_site(rigged=("T1",))
    record, _, summary = vote(site)
    serial = record.serial
    assert site.papers[serial] == PB  # the printed summary is honest
    assert summary["plaintext"] == PB.to_json()
    claimed = site.claimed[serial]
    assert claimed != PB  # what was encrypted is not
    encode(claimed, STYLE)  # and still a well-formed ballot for the style


@pytest.mark.parametrize("selections, error", [(("zed",), UnknownOption),
                                               (("ada", "bo"), OvervoteRejected)],
                         ids=["unknown-option", "overvote"])
def test_rigged_terminal_refuses_what_an_honest_one_refuses(selections, error) -> None:
    pb = PlaintextBallot(style_id="s", selections={"race": selections})
    for terminal in ("T1", "T2"):
        with pytest.raises(error):
            vote(make_site(rigged=("T1",)), terminal, pb)


def test_replay_event_log_matches_site_chains() -> None:
    site = make_site()
    r1, _, _ = vote(site, "T1")
    r2, _, _ = vote(site, "T2")
    r3, _, _ = vote(site, "T1", provisional=True)
    site.cast(r1.serial)
    site.spoil(r2.serial, "VOTER")
    site.provisional_flow(r3.serial, "ACCEPT")
    site.close_polls()
    chains, conservation_ok = replay_event_log(site.events, site.initial_seeds)
    assert conservation_ok
    produced = {"T1": [], "T2": []}
    for record in site.records.values():
        produced[record.record.terminal_id].append(record.record.z.hex())
    assert chains == produced


def test_replay_event_log_flags_unknown_and_repeated_serials() -> None:
    chains, conservation_ok = replay_event_log(
        [{"event": "cast", "serial": "ghost"}], {"T1": "00" * 32}
    )
    assert chains == {"T1": []}
    assert not conservation_ok
    site = make_site()
    vote(site, "T1")
    produced = next(e for e in site.events if e["event"] == "ballot_produced")
    _, conservation_ok = replay_event_log(site.events + [produced], site.initial_seeds)
    assert not conservation_ok
    stray = dict(produced, terminal="T9", serial="fresh")
    chains, conservation_ok = replay_event_log(site.events + [stray], site.initial_seeds)
    assert not conservation_ok
    assert set(chains) == {"T1", "T2"}
