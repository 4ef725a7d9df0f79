"""Scripted election days: scenario validation, the demo run, fault knobs,
and the plaintext oracle they are all checked against."""

import copy
import dataclasses
import gc
import hashlib
import json
import random
import sys
import weakref
from collections import Counter

import pytest

from helpers import board_lines, board_raw_lines, demo_run, finish, mid_demo_run
from starlock.ballot import (
    BallotStyle,
    Contest,
    EncryptedBallot,
    PlaintextBallot,
    WellFormednessProof,
)
from starlock.board import finish_election
from starlock.cli import main
from starlock.errors import ScenarioError
from starlock.scenario import (
    Scenario,
    Voter,
    expected_counts,
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


def test_a_file_may_leave_out_every_optional_key(tmp_path) -> None:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 3, "styles": [STYLE.to_json()],
                                "voters": [{"style": "s"}], "trustees": {"n": 3}}))
    scenario = load_scenario(path)
    assert scenario == Scenario(election_id="starlock-election", group="test", trustees=(3, 1),
                                seed=3, styles=(STYLE,), terminals=("T1",),
                                voters=(Voter("s", {}),))
    assert (scenario.ttl, scenario.lost_papers, scenario.paper_noise_rate) == (600, (), 0.0)


def test_what_the_run_would_fail_on_is_refused_before_it_starts() -> None:
    # Each of these once passed validation and failed partway through the run.
    for trustees in ((2, 3), (11, 2)):  # k above n; n not below q = 11
        with pytest.raises(ScenarioError, match="^trustees: "):
            base(trustees=trustees)
    for voter in (
        Voter("s", {"race": ["c"]}),  # unknown option
        Voter("s", {"race": ["a", "b"]}),  # overvote
        Voter("s", {"race": ["(write-in)"]}),  # no write-in slot
        Voter("s", {}, "spoil", revote={"race": ["a", "b"]}),
    ):
        scenario = base(voters=(Voter("s", {"race": ["a"]}), voter))
        with pytest.raises(ScenarioError, match=r"^voters\[1\]\.(selections|revote): "):
            run_scenario(scenario)


def _edit(path, value):
    """An edit of a scenario's JSON that sets the value at path (a key or
    index sequence; the empty path replaces the whole document)."""
    def edit(obj):
        if not path:
            return value
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        return obj

    return edit


def _rigged(edit):
    """The edit, on a scenario whose terminal T1 (voters 0, 2, ...) is rigged."""
    return lambda obj: edit(_edit(("rigged_terminals",), ["T1"])(obj))


# Each edit of the demo scenario's JSON and the error that starlock simulate
# prints for it (exit 3): the field or voter it names, and why.
SCENARIO_EDITS = {
    "selections-a-number": (_edit(("voters", 0, "selections"), 5),
                            "voters[0].selections: not an object"),
    "terminals-a-string": (_edit(("terminals",), "T1"), "terminals: not a list"),
    "seed-true": (_edit(("seed",), True), "seed: not an integer"),
    "seed-negative": (_edit(("seed",), -7), "seed: -7 is negative"),
    "faults-a-list": (_edit(("faults",), []), "faults: not an object"),
    "trustees-a-list": (_edit(("trustees",), [3, 2]), "trustees: not an object"),
    "ttl-a-string": (_edit(("ttl",), "x"), "ttl: not an integer"),
    "ttl-negative": (_edit(("ttl",), -5), "ttl: -5 is negative"),
    "election-id-a-number": (_edit(("election_id",), 5), "election_id: not a string"),
    "paper-override-a-number": (_edit(("paper_overrides",), [5]),
                                "paper_overrides[0]: not an object"),
    "revote-a-number": (_edit(("voters", 2, "revote"), 5), "voters[2].revote: not an object"),
    "document-a-list": (_edit((), []), "ScenarioError: not an object"),
    "unknown-option": (_edit(("voters", 0, "selections", "mayor"), ["zed"]),
                       "voters[0].selections: contest mayor: unknown option 'zed'"),
    "overvote": (_edit(("voters", 1, "selections", "council"), ["ida", "joan", "mary"]),
                 "voters[1].selections: contest council: 3 selections exceed limit 2"),
    "rigged-unknown-option": (_rigged(_edit(("voters", 0, "selections", "mayor"), ["zed"])),
                              "voters[0].selections: contest mayor: unknown option 'zed'"),
    "rigged-overvote": (_rigged(_edit(("voters", 2, "selections", "mayor"), ["ada", "grace"])),
                        "voters[2].selections: contest mayor: 2 selections exceed limit 1"),
    "write-in-without-slot": (_edit(("voters", 2, "revote", "council"), ["(write-in)"]),
                              "voters[2].revote: contest council has no write-in slot"),
    "k-above-n": (_edit(("trustees",), {"n": 2, "k": 3}),
                  "trustees: need 1 <= k <= n, got k=3 n=2"),
    "not-json": (lambda obj: "{not json", "not a JSON document"),
}


@pytest.mark.parametrize("edit, message", SCENARIO_EDITS.values(), ids=SCENARIO_EDITS)
def test_simulate_refuses_a_malformed_scenario_by_name(edit, message, tmp_path, capsys) -> None:
    path = tmp_path / "scenario.json"
    obj = edit(make_demo_scenario().to_json())
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--outdir", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_finished_poll_site_is_freed_without_the_collector() -> None:
    """Nothing holds a PollSite in a reference cycle, so dropping a run's
    result frees its site, records and event log at once, also when the last
    scan before the close of polls (voter 4's) is dropped or duplicated."""
    demo = make_demo_scenario()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for scenario in (demo, dataclasses.replace(demo, dropped_scans=(4,)),
                         dataclasses.replace(demo, duplicated_scans=(4,))):
            site = weakref.ref(run_scenario(scenario)["site"])
            assert site() is None
    finally:
        if enabled:
            gc.enable()


def test_each_ballot_is_encoded_once_for_the_board() -> None:
    """During the demo's run_scenario the encoder runs once per ballot produced
    on its ballot and once on its proof (a profile hook counts the calls of
    the generated EncryptedBallot.to_json and WellFormednessProof.to_json):
    the board's entry line is the one encoding, and the event log names the
    ballot by z alone."""
    for sample in (EncryptedBallot("s", ()), WellFormednessProof(())):
        sample.to_json()  # a class's to_json is generated at its first call
    codes = {EncryptedBallot.to_json.__code__, WellFormednessProof.to_json.__code__}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[type(frame.f_locals["self"])] += 1

    sys.setprofile(count)
    try:
        result = run_scenario(make_demo_scenario())
    finally:
        sys.setprofile(None)
    records = result["site"].records
    assert records and calls[EncryptedBallot] == calls[WellFormednessProof] == len(records)


@pytest.mark.parametrize("faults", [{}, {"dropped_scans": (1,), "duplicated_scans": (0,),
                                         "lost_papers": (4,)}], ids=["demo", "faulted"])
def test_a_ballot_produced_event_names_its_board_entry_by_z(faults) -> None:
    result = run_scenario(dataclasses.replace(make_demo_scenario(), **faults))
    produced = [event for event in result["events"] if event["event"] == "ballot_produced"]
    assert len(produced) == len(result["site"].records)
    entries = dict(result["board"].entries())
    for event in produced:
        assert set(event) == {"event", "clock", "serial", "terminal", "z", "provisional"}
        entry = entries[result["index_by_serial"][event["serial"]]]
        assert event["z"] == entry["z"] and event["terminal"] == entry["terminal"]


MUTATION_SEED = 3
WRONG_VALUES = (5, "x", [], {}, None, True)
CLI_SHARE = 5  # about one mutant in 5 also runs through starlock simulate


def scenario_mutants():
    """The demo scenario's JSON, each time with one key or list item removed or
    one value replaced by a value of WRONG_VALUES, at every depth."""
    pristine = make_demo_scenario().to_json()

    def paths(obj, prefix=()):
        if isinstance(obj, (dict, list)):
            for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
                yield prefix + (key,)
                yield from paths(value, prefix + (key,))

    for path in paths(pristine):
        for value in ("(removed)", *WRONG_VALUES):
            obj = copy.deepcopy(pristine)
            parent = obj
            for step in path[:-1]:
                parent = parent[step]
            if value == "(removed)":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield f"{path} = {value!r}", obj


def test_every_scenario_mutant_loads_or_is_refused_never_raised(tmp_path, capsys) -> None:
    """Each mutant loads to a Scenario or is refused with ScenarioError, and
    simulate runs it (exit 0) or refuses it (exit 3, also for a ballot the
    terminal would not encode); nothing else is raised."""
    rng = random.Random(MUTATION_SEED)
    path = tmp_path / "scenario.json"
    loaded = {True: 0, False: 0}
    for label, obj in scenario_mutants():
        path.write_text(json.dumps(obj), encoding="utf-8")
        try:
            ok = isinstance(load_scenario(path), Scenario)
        except ScenarioError:
            ok = False
        loaded[ok] += 1
        if rng.randrange(CLI_SHARE) == 0:
            argv = ["simulate", "--scenario", str(path), "--outdir", str(tmp_path / "out")]
            assert main(argv) in ((0, 3) if ok else (3,)), label
    capsys.readouterr()
    assert loaded[True] > 100 and loaded[False] > 500


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
        l for l in board_lines(board) if l["kind"] == "status" and int(l["ref"]) == entry
    ]
    assert status_lines and status_lines[-1]["reason"] == "cast-without-paper"
    # the demoted ballot gets a verifiable decryption and leaves the count
    assert any(
        l["kind"] == "decryption" and int(l["ref"]) == entry for l in board_lines(board)
    )
    assert outcome["tally"].result["mayor"]["ada"] == 1
    assert outcome["tally"].cast_counts["mayor"] == 5


@pytest.mark.parametrize("voter, option, votes", [(0, "ada", 1), (2, "grace", 2)],
                         ids=["cast", "spoil-revote"])
def test_dropped_scan_times_out_as_orphan_paper(voter, option, votes) -> None:
    """The voter's final scan never reaches the station: that record stays
    PENDING until the close of polls spoils it TIMEOUT, and its paper is in
    the box with no record behind it. A ballot the voter spoiled first keeps
    its own reason."""
    scenario = dataclasses.replace(make_demo_scenario(), dropped_scans=(voter,))
    result = run_scenario(scenario)
    *spoiled, serial = [r["serial"] for r in result["receipts"] if r["voter"] == voter]
    assert len(spoiled) == (voter == 2)
    board = result["board"]
    lines = dict(board.entries())
    for first in spoiled:
        entry = result["index_by_serial"][first]
        assert board.effective_status(entry) == "SPOILED"
        assert lines[entry]["reason"] == "VOTER"
    entry = result["index_by_serial"][serial]
    assert board.effective_status(entry) == "SPOILED"
    assert lines[entry]["reason"] == "TIMEOUT"
    # no cast step ran: the record's next event is the close of polls' spoil
    events = [e for e in result["site"].events if e.get("serial") == serial]
    assert [(e["event"], e.get("reason")) for e in events] == [
        ("ballot_produced", None), ("spoiled", "TIMEOUT")]
    assert events[1]["clock"] > next(e["clock"] for e in result["site"].events
                                     if e["event"] == "timeout_sweep")
    # the paper went into the box but no electronic record backs it
    outcome = finish(result)
    assert outcome["compliance"]["paper_without_record"] == [serial]
    assert not outcome["compliance"]["clean"]
    assert outcome["tally"].result["mayor"][option] == votes


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
        l for l in board_lines(result["board"])
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
    "board.jsonl": "ed817ab115e7da478f2cfcde6b3a61a81af62ce5d713af7226183a131fb5b696",
    "receipts.json": "e2c040b84a4a082673f3ea1d9268130f1c1c061077efbbd2c5a506893433c684",
    "commitments.json": "622c966bd99c1ee4f795970a343c492dca24d889ec394f425ffbfcc32879f1ed",
    "cvrs.json": "a8297ad83aef913ce6dcfeaec9ab69338cba752289aec945de0e1c9137727a3a",
    "papers.json": "4d5ef4f2d2c5c4edb57c821bfd6520b8c4cb2e9295e99c7b950aa4c7e7398dd3",
    "eventlog.jsonl": "d5eee125b9cead81de4ef514d360d2e6cfc4aa99837713bd9f2de9cf3670b620",
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


FAULTED_DEMO_DIGESTS = {
    "eventlog.jsonl": "ffd12624d07c9352ad8b0d2ab23262f9fb1732a53615a05292177fdda2dc1c29",
    "board.jsonl": "043d93d664cb922acb3d89487d09033d6c26af397d780eb07b50a1744bebaaec",
    "receipts.json": "33982026517108549ca7ec4b7f4aa96b2e26c612713f1078e8ea281bcb79ceb1",
}


def test_faulted_demo_artifact_bytes_are_pinned(tmp_path) -> None:
    # A duplicated scan, a dropped scan and a lost paper exercise the
    # station's idempotent delivery, the close-of-polls sweep and demotion.
    scenario = dataclasses.replace(
        make_demo_scenario(), dropped_scans=(1,), duplicated_scans=(0,), lost_papers=(4,)
    )
    result = run_scenario(scenario)
    finish_election(result["board"], result["manifest"], result["trustee_shares"],
                    result["office"], result["cvrs"], result["papers"], random.Random(0))
    write_artifacts(result, tmp_path / "out")
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in FAULTED_DEMO_DIGESTS
    }
    assert digests == FAULTED_DEMO_DIGESTS


# The finished demo election in the 256-bit MID_GROUP (helpers.mid_demo_run),
# where ballots are proven through the combs and the tally's share proofs
# are batched: the same pin on the large-group paths.
MID_DEMO_DIGESTS = {
    "board.jsonl": "270da763b7fcc5d8b82a36ef46d3a88ff1b6b50c4d556323bb6d10e72a8c6011",
    "receipts.json": "147ed8e2a00db1de3766fed96388c11f16740ce035d73be9b07d9b26537ffe69",
    "eventlog.jsonl": "89fba7392c9e31dd6c5c679a96abc34077704d84bb9c38a5b679d8484e21ac88",
}


def test_mid_group_demo_artifact_bytes_are_pinned(tmp_path) -> None:
    result, _ = mid_demo_run()
    write_artifacts(result, tmp_path / "out")
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in MID_DEMO_DIGESTS
    }
    assert digests == MID_DEMO_DIGESTS


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
