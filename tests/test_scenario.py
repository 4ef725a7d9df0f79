"""Scripted election days: scenario validation, the demo run, fault knobs,
and the plaintext oracle they are all checked against."""

import dataclasses
import hashlib
import json
import random

import pytest

from helpers import board_raw_lines, demo_run, finish
from starlock.ballot import BallotStyle, Contest, PlaintextBallot
from starlock.errors import ScenarioError
from starlock.scenario import (
    Scenario,
    Voter,
    expected_counts,
    finish_election,
    load_scenario,
    make_demo_scenario,
    make_random_scenario,
    run_scenario,
    write_artifacts,
)

STYLE = BallotStyle(
    style_id="s", contests=(Contest(contest_id="race", options=("a", "b"), limit=1),)
)


def base(**overrides):
    kwargs = dict(
        election_id="e",
        group="test",
        trustees=(1, 1),
        seed=1,
        styles=(STYLE,),
        terminals=("T1",),
        voters=(Voter("s", {"race": ["a"]}),),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_scenario_validation_catalog() -> None:
    base()  # the template itself is valid
    cases = [
        dict(group="nonsense"),
        dict(trustees=("3", 2)),
        dict(seed="7"),
        dict(styles=()),
        dict(styles=(STYLE, STYLE)),
        dict(terminals=()),
        dict(terminals=("T1", "T1")),
        dict(rigged_terminals=("TX",)),
        dict(voters=(Voter("ghost", {}),)),
        dict(voters=(Voter("s", {}, action="dance"),)),
        dict(voters=(Voter("s", {}, terminal="TX"),)),
        dict(voters=(Voter("s", {}, action="cast", revote={"race": ["b"]}),)),
        dict(voters=(Voter("s", {}, action="cast", adjudication="ACCEPT"),)),
        dict(voters=(Voter("s", {}, action="provisional", adjudication="MAYBE"),)),
        dict(lost_papers=(5,)),
        dict(dropped_scans=(-1,)),
        dict(duplicated_scans=("0",)),
        dict(paper_overrides=({"voter": 9, "contests": {}},)),
        dict(paper_overrides=({"voter": 0},)),
        dict(paper_noise_rate=1.5),
    ]
    for overrides in cases:
        with pytest.raises(ScenarioError):
            base(**overrides)


def test_scenario_json_round_trip(tmp_path) -> None:
    scenario = make_demo_scenario()
    assert Scenario.from_json(scenario.to_json()) == scenario
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_json()), encoding="utf-8")
    assert load_scenario(path) == scenario

    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "broken.json")
    (tmp_path / "noseed.json").write_text('{"styles": []}', encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "noseed.json")


def test_demo_day_covers_every_flow() -> None:
    result, _ = demo_run()
    board = result["board"]
    entries = board.entries()
    assert len(entries) == 10  # 8 voters, 2 of whom revote
    statuses = [board.effective_status(i) for i, _ in entries]
    assert statuses.count("CAST") == 6
    assert statuses.count("SPOILED") == 4
    reasons = {line["reason"] for _, line in entries if "reason" in line}
    assert reasons == {"VOTER", "CHALLENGE", "TIMEOUT", "REJECTED"}

    assert len(result["receipts"]) == 10
    for row in result["receipts"]:
        assert set(row) == {"voter", "session", "terminal", "code", "serial", "status", "entry"}
        assert row["status"] == board.effective_status(row["entry"])
    assert [c["voter"] for c in result["challenges"]] == [3]
    intended = PlaintextBallot.from_json(result["challenges"][0]["intended"])
    voter = result["scenario"].voters[3]
    assert intended == PlaintextBallot.from_raw_selections(voter.style, voter.selections)


def test_run_scenario_is_deterministic() -> None:
    a = run_scenario(make_demo_scenario())
    b = run_scenario(make_demo_scenario())
    assert board_raw_lines(a["board"]) == board_raw_lines(b["board"])
    assert a["events"] == b["events"]
    assert a["papers"] == b["papers"]
    assert a["commitments"] == b["commitments"]


def test_demo_tally_matches_the_scripted_oracle() -> None:
    result, outcome = demo_run()
    assert outcome["compliance"]["clean"]
    expected = expected_counts(result["scenario"])
    assert expected["counts"] == {
        "mayor": {"ada": 2, "grace": 3, "(abstain)": 1, "(write-in)": 1},
        "council": {"ida": 3, "joan": 2, "mary": 3, "(abstain)": 4},
    }
    assert expected["cast"] == {"mayor": 6, "council": 6}
    assert outcome["tally"].result == expected["counts"]
    assert outcome["tally"].cast_counts == expected["cast"]


def test_lost_paper_is_demoted_and_excluded() -> None:
    scenario = dataclasses.replace(make_demo_scenario(), lost_papers=(0,))
    result = run_scenario(scenario)
    serial = next(r["serial"] for r in result["receipts"] if r["voter"] == 0)
    outcome = finish(result)
    assert outcome["compliance"]["cast_without_paper"] == [serial]
    board = result["board"]
    entry = result["index_by_serial"][serial]
    assert board.effective_status(entry) == "UNTALLIED"
    status_lines = [
        l for l in board.lines() if l["kind"] == "status" and int(l["ref"]) == entry
    ]
    assert status_lines and status_lines[-1]["reason"] == "cast-without-paper"
    # the demoted ballot gets a verifiable decryption and leaves the count
    assert any(
        l["kind"] == "decryption" and int(l["ref"]) == entry for l in board.lines()
    )
    assert outcome["tally"].result["mayor"]["ada"] == 1
    assert outcome["tally"].cast_counts["mayor"] == 5


def test_dropped_scan_times_out_as_orphan_paper() -> None:
    scenario = dataclasses.replace(make_demo_scenario(), dropped_scans=(0,))
    result = run_scenario(scenario)
    serial = next(r["serial"] for r in result["receipts"] if r["voter"] == 0)
    board = result["board"]
    entry = result["index_by_serial"][serial]
    assert board.effective_status(entry) == "SPOILED"
    line = dict(board.entries())[entry]
    assert line["reason"] == "TIMEOUT"
    # the paper went into the box but no electronic record backs it
    outcome = finish(result)
    assert outcome["compliance"]["paper_without_record"] == [serial]
    assert not outcome["compliance"]["clean"]
    assert outcome["tally"].result["mayor"]["ada"] == 1


def test_duplicated_scan_is_harmless() -> None:
    scenario = dataclasses.replace(make_demo_scenario(), duplicated_scans=(0, 1))
    result = run_scenario(scenario)
    outcome = finish(result)
    assert outcome["compliance"]["clean"]
    assert outcome["tally"].result == expected_counts(scenario)["counts"]


def test_rigged_terminal_is_exposed_by_a_challenge() -> None:
    scenario = Scenario(
        election_id="sting",
        group="test",
        trustees=(3, 2),
        seed=21,
        styles=(STYLE,),
        terminals=("T1",),
        rigged_terminals=("T1",),
        voters=(Voter("s", {"race": ["a"]}, action="challenge"),),
    )
    result = run_scenario(scenario)
    finish(result)
    challenge = result["challenges"][0]
    decryption = next(
        l for l in result["board"].lines()
        if l["kind"] == "decryption" and int(l["ref"]) == challenge["entry"]
    )
    revealed = decryption["plaintext"]["selections"]["race"]
    assert challenge["intended"]["selections"]["race"] == ["a"]
    assert revealed != ["a"]  # the terminal encrypted something else
    # while the printed paper still shows the voter's true choice
    assert result["papers"] == [] or all(
        p["contests"]["race"]["selections"] == ["a"] for p in result["papers"]
    )


def test_paper_overrides_rewrite_the_box() -> None:
    override = {"voter": 0, "contests": {"mayor": {"selections": ["grace"], "writein": False}}}
    scenario = dataclasses.replace(make_demo_scenario(), paper_overrides=(override,))
    result = run_scenario(scenario)
    serial = next(r["serial"] for r in result["receipts"] if r["voter"] == 0)
    row = next(p for p in result["papers"] if p["serial"] == serial)
    assert row["contests"]["mayor"]["selections"] == ["grace"]
    assert row["contests"]["council"]["selections"] == ["ida", "joan"]  # untouched


def test_full_paper_noise_touches_every_summary() -> None:
    clean = run_scenario(make_demo_scenario())
    noisy = run_scenario(
        dataclasses.replace(make_demo_scenario(), paper_noise_rate=1.0)
    )
    clean_by_serial = {p["serial"]: p["contests"] for p in clean["papers"]}
    assert len(noisy["papers"]) == len(clean["papers"]) == 6
    changed = sum(
        1 for p in noisy["papers"] if p["contests"] != clean_by_serial[p["serial"]]
    )
    assert changed == 6


def test_write_artifacts_emits_the_whole_set(tmp_path) -> None:
    result, _ = demo_run()
    paths = write_artifacts(result, tmp_path / "out")
    assert set(paths) == {
        "params.json", "board.jsonl", "eventlog.jsonl", "papers.json",
        "cvrs.json", "commitments.json", "receipts.json",
    }
    board_text = (tmp_path / "out" / "board.jsonl").read_text(encoding="utf-8")
    assert board_text.splitlines() == board_raw_lines(result["board"])
    published = json.loads((tmp_path / "out" / "commitments.json").read_text())
    for row in published:
        assert set(row) == {"serial", "index", "commitments"}  # no salts, no votes
    cvrs = json.loads((tmp_path / "out" / "cvrs.json").read_text())
    assert all("salt" in row and "contests" in row for row in cvrs)
    events = (tmp_path / "out" / "eventlog.jsonl").read_text().splitlines()
    assert json.loads(events[0])["event"] == "init"


# SHA-256 of every demo artifact. Any change to these bytes is a format
# change and must be made on purpose, never as a side effect of a refactor.
DEMO_DIGESTS = {
    "board.jsonl": "ee94f6c35b84ebe99fb47842c86f10c9c76d1f37c38dbc3cd9dbbb559b8b32ab",
    "receipts.json": "17530eba9e7bef42adad76bf1956a9b9b214f3cf2c6008a53d1fdb89209496f1",
    "commitments.json": "622c966bd99c1ee4f795970a343c492dca24d889ec394f425ffbfcc32879f1ed",
    "cvrs.json": "a8297ad83aef913ce6dcfeaec9ab69338cba752289aec945de0e1c9137727a3a",
    "papers.json": "4d5ef4f2d2c5c4edb57c821bfd6520b8c4cb2e9295e99c7b950aa4c7e7398dd3",
    "eventlog.jsonl": "6848a2578fcf49f20e015a6f75e0ffe005d0dda9e576f54a4cdf199ebc2365d3",
    "params.json": "7521875188c91cc9655d02180af139e4652e8e57c284981bfe4cc7c25630c77d",
}


def test_demo_artifact_bytes_are_pinned(tmp_path) -> None:
    result = run_scenario(make_demo_scenario())
    finish_election(result["board"], result["manifest"], result["trustee_shares"],
                    result["office"], result["cvrs"], result["papers"], random.Random(0))
    write_artifacts(result, tmp_path / "out")
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in DEMO_DIGESTS
    }
    assert digests == DEMO_DIGESTS


def test_random_scenarios_stay_inside_counting_range() -> None:
    for seed in range(6):
        scenario = make_random_scenario(seed, max_voters=40)
        assert scenario == make_random_scenario(seed, max_voters=40)
        result = run_scenario(scenario)
        outcome = finish(result)
        expected = expected_counts(scenario)
        assert outcome["tally"].result == expected["counts"]
        assert outcome["tally"].cast_counts == expected["cast"]
        for columns in expected["counts"].values():
            assert all(count <= 10 for count in columns.values())
