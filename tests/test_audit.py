"""Ballot-level comparison audit: sampling, commitments, and the
Kaplan-Markov risk ledger.

The synthetic record from helpers gives a 100-ballot, two-option race with
a 55-45 reported result (N=100, V=10, U=20), so every risk number below is
a short closed-form product that was computed by hand first.
"""

import copy
import json
import math
from collections import Counter
from itertools import islice

import pytest

from helpers import (
    board_raw_lines,
    demo_commands,
    demo_run,
    finish,
    replace,
    synthetic_comparison_record,
    synthetic_entry,
)
from starlock import audit
from starlock.audit import (
    KMState,
    build_cvrs,
    check_seed,
    compliance_check,
    contest_commitment,
    hand_count,
    interpretation,
    margin_pairs,
    open_commitment,
    overstatement,
    prng_sequence,
    published_commitments,
    reconcile,
    run_audit,
)
from starlock.ballot import BallotStyle, Contest
from starlock.boardformat import read_board
from starlock.cli import main
from starlock.errors import CommitmentMismatch, MalformedRecord, MarginNotPositive, StarlockError
from starlock.scenario import Scenario, Voter, run_scenario

SEED_A = "09876543210987654321"
SEED_B = "00000000000000000001"


def take(seed, n, k=5):
    return list(islice(prng_sequence(seed, n), k))


def test_sampling_sequence_is_frozen() -> None:
    assert take(SEED_A, 100) == [80, 99, 54, 45, 90]
    assert take(SEED_A, 1000) == [980, 899, 954, 645, 690]
    assert take(SEED_B, 100) == [59, 40, 78, 29, 66]


def test_seed_validation() -> None:
    assert check_seed(SEED_A) == SEED_A
    for bad in ("123", "1" * 19, "1" * 21, "1234567890123456789x", "", "１" * 20, "٠" * 20):
        with pytest.raises(ValueError):
            check_seed(bad)
    with pytest.raises(ValueError):
        next(prng_sequence(SEED_A, 0))


def test_contest_commitment_is_frozen_and_order_free() -> None:
    salt = bytes.fromhex("00112233445566778899aabbccddeeff")
    digest = contest_commitment("mayor", ["ada"], False, salt)
    assert digest == "87bf86bdfb97bc066119e1a33f2d02a4633b6efb923e1c11addea09dbf2d2437"
    two = contest_commitment("council", ["b", "a"], False, salt)
    assert two == contest_commitment("council", ["a", "b"], False, salt)
    assert contest_commitment("mayor", ["ada"], True, salt) != digest
    assert contest_commitment("mayor", ["ada"], False, b"\x01" * 16) != digest
    assert contest_commitment("clerk", ["ada"], False, salt) != digest


def test_interpretation_covers_every_contest_of_the_style() -> None:
    style = BallotStyle(
        style_id="s",
        contests=(
            Contest(contest_id="a", options=("x", "y"), limit=1, writein_slot=True),
            Contest(contest_id="b", options=("p", "q"), limit=1),
        ),
    )
    plain = {"style_id": "s", "selections": {"a": ["y"]}, "writeins": ["a", "b"]}
    view = interpretation(plain, style)
    assert view == {
        "a": {"selections": ["y"], "writein": True},
        # contest b has no write-in slot, so its write-in claim is dropped
        "b": {"selections": [], "writein": False},
    }


def test_cvr_store_opens_against_its_published_digests() -> None:
    _, _, cvrs, _ = synthetic_comparison_record()
    published = published_commitments(cvrs)
    assert len(published) == len(cvrs) == 100
    salts = {row["salt"] for row in cvrs}
    assert len(salts) == 100
    for pub in published:
        assert set(pub) == {"serial", "index", "commitments"}
    for row, pub in zip(cvrs, published):
        open_commitment(row, pub["commitments"])


def test_opening_a_tampered_row_fails() -> None:
    _, _, cvrs, _ = synthetic_comparison_record()
    published = published_commitments(cvrs)
    row = copy.deepcopy(cvrs[0])
    row["contests"]["race"]["selections"] = ["B"]
    with pytest.raises(CommitmentMismatch):
        open_commitment(row, published[0]["commitments"])
    row = copy.deepcopy(cvrs[0])
    row["salt"] = "ff" * 16
    with pytest.raises(CommitmentMismatch):
        open_commitment(row, published[0]["commitments"])
    with pytest.raises(CommitmentMismatch):
        open_commitment(cvrs[0], dict(published[0]["commitments"], extra="00" * 32))


def test_compliance_check_reports_both_directions() -> None:
    report = compliance_check(["a", "b", "c"], ["b", "c", "d"])
    assert report["cast_without_paper"] == ["a"]
    assert report["paper_without_record"] == ["d"]
    assert not report["clean"]
    assert compliance_check(["a", "b"], ["b", "a"])["clean"]


def test_reconcile_keys_the_cast_rows_by_their_decoded_entry_in_entry_order() -> None:
    """A CVR store in any row order, its indices JSON ints or decimal
    strings: the rows of the CAST entries come back keyed by entry, in entry
    order, and a non-CAST entry's row is left out of them and of the report."""
    statuses = {0: "CAST", 1: "SPOILED", 2: "CAST", 3: "UNTALLIED"}
    cvrs = [{"serial": "c", "index": "2"}, {"serial": "d", "index": 3},
            {"serial": "a", "index": 0}]
    cast, report = reconcile(statuses, cvrs, [{"serial": "c"}, {"serial": "e"}])
    assert cast == {0: cvrs[2], 2: cvrs[0]}
    assert list(cast) == [0, 2]
    assert report == {"cast_records": 2, "papers": 2, "cast_without_paper": ["a"],
                      "paper_without_record": ["e"], "clean": False}


def test_margin_pairs_ranks_and_measures() -> None:
    _, manifest, _, _ = synthetic_comparison_record()
    winners, pairs, v = margin_pairs(manifest, {"race": {"A": "55", "B": "45"}})
    assert winners == {"race": ["A"]}
    assert pairs == {"race": [("A", "B")]}
    assert v == 10
    with pytest.raises(MarginNotPositive):
        margin_pairs(manifest, {"race": {"A": "50", "B": "50"}})


def test_margin_pairs_multiwinner_and_uncontested() -> None:
    style = BallotStyle(
        style_id="s",
        contests=(
            Contest(contest_id="council", options=("ida", "joan", "mary"), limit=2),
        ),
    )
    manifest = replace(demo_run()[0]["manifest"], styles=(style,))
    result = {"council": {"ida": "3", "joan": "2", "mary": "3"}}
    winners, pairs, v = margin_pairs(manifest, result)
    assert winners == {"council": ["ida", "mary"]}
    assert pairs == {"council": [("ida", "joan"), ("mary", "joan")]}
    assert v == 1

    solo = BallotStyle(
        style_id="u", contests=(Contest(contest_id="sole", options=("only",), limit=1),)
    )
    uncontested = replace(manifest, styles=(solo,))
    with pytest.raises(MarginNotPositive):
        margin_pairs(uncontested, {"sole": {"only": "9"}})


def test_overstatement_covers_its_whole_range() -> None:
    pairs = {"race": [("A", "B")]}

    def interp(sel):
        return {"race": {"selections": sel, "writein": False}}

    assert overstatement(interp(["A"]), interp(["A"]), pairs) == 0
    assert overstatement(interp(["A"]), interp([]), pairs) == 1
    assert overstatement(interp(["A"]), interp(["B"]), pairs) == 2
    assert overstatement(interp([]), interp(["A"]), pairs) == -1
    assert overstatement(interp(["B"]), interp(["A"]), pairs) == -2
    two = {**pairs, "other": [("X", "Y")]}
    reported = {"race": {"selections": ["A"]}, "other": {"selections": []}}
    manual = {"race": {"selections": ["A"]}, "other": {"selections": ["Y"]}}
    assert overstatement(reported, manual, two) == 1  # worst pair wins
    assert overstatement(interp(["A"]), interp(["A"]), {}) == 0


def walk_every_pair(reported, manual, pairs):
    """overstatement as first written: every pair scored on every draw."""

    def vote(interp, cid, opt):
        view = interp.get(cid)
        return 1 if view and opt in view.get("selections", []) else 0

    worst = None
    for cid, w, l in pairs:
        e = vote(reported, cid, w) - vote(reported, cid, l) - vote(manual, cid, w) \
            + vote(manual, cid, l)
        worst = e if worst is None else max(worst, e)
    return worst if worst is not None else 0


def precinct_run():
    """Four precincts, each with its own style and 1-of-3 contest, and noisy
    paper reads, so a draw carries one contest of four."""
    styles, voters = [], []
    for p in range(4):
        cid, options = f"race{p}", (f"p{p}a", f"p{p}b", f"p{p}c")
        styles.append(BallotStyle(style_id=f"pct{p}", contests=(Contest(cid, options),)))
        for opt, n in zip(options, (4, 2, 1)):
            voters += [Voter(f"pct{p}", {cid: [opt]})] * n
    scenario = Scenario(election_id="precincts", group="test", trustees=(1, 1), seed=3,
                        styles=tuple(styles), terminals=("T1", "T2"), voters=tuple(voters),
                        paper_noise_rate=0.3)
    result = run_scenario(scenario)
    return result, finish(result)


@pytest.mark.parametrize("run", [demo_run, precinct_run], ids=["demo", "precincts"])
def test_overstatement_walks_only_the_drawn_contests(run) -> None:
    result, outcome = run()
    _, pairs, _ = margin_pairs(result["manifest"], outcome["tally"].result)
    papers = {paper["serial"]: paper["contests"] for paper in result["papers"]}
    reported = [row["contests"] for row in result["cvrs"]]
    manual = [papers[row["serial"]] for row in result["cvrs"] if row["serial"] in papers]
    assert len(manual) > 1
    triples = [(cid, w, l) for cid, contest_pairs in pairs.items() for w, l in contest_pairs]
    seen = set()
    # every draw as sampled (row against its own paper), and every row
    # against every other paper, which mixes contests
    for rep in reported:
        for man in manual:
            e = walk_every_pair(rep, man, triples)
            assert overstatement(rep, man, pairs) == e
            seen.add(e)
    assert len(seen) >= 3
    assert overstatement(reported[0], manual[0], {}) == 0


def test_km_state_guards() -> None:
    with pytest.raises(MarginNotPositive):
        KMState(N=100, V=0)
    with pytest.raises(MarginNotPositive):
        KMState(N=100, V=-3)
    with pytest.raises(ValueError):
        KMState(N=0, V=5)
    with pytest.raises(MarginNotPositive):
        KMState(N=5, V=10)  # U = 1 cannot shrink the risk
    assert KMState(N=100, V=10).U == 20.0


def test_km_risk_factors() -> None:
    pairs = {"race": [("A", "B")]}

    def interp(sel):
        return {"race": {"selections": sel, "writein": False}}

    def km_risk(state, draws):
        for reported, manual in draws:
            state.observe(overstatement(reported, manual, pairs))
        return state.p_value

    clean = (interp(["A"]), interp(["A"]))
    state = KMState(N=100, V=10)
    assert km_risk(state, [clean]) == pytest.approx(0.95)
    assert km_risk(state, [(interp(["A"]), interp([]))]) == pytest.approx(0.95 * 1.9)
    understate = KMState(N=100, V=10)
    assert km_risk(understate, [(interp([]), interp(["A"]))]) == pytest.approx(0.95 / 1.5)
    assert km_risk(understate, [(interp(["B"]), interp(["A"]))]) == pytest.approx(
        0.95 / 1.5 * 0.475
    )
    poisoned = KMState(N=100, V=10)
    assert km_risk(poisoned, [(interp(["A"]), interp(["B"]))]) == math.inf
    assert km_risk(poisoned, [clean]) == math.inf  # no recovery after e = 2
    assert poisoned.discrepancies == {2: 1, 0: 1}

    fortyfive = KMState(N=100, V=10)
    p = km_risk(fortyfive, [clean] * 44)
    assert p > 0.1
    p = km_risk(fortyfive, [clean])
    assert abs(p - 0.09944025698709225) <= 1e-9
    assert p <= 0.1
    assert fortyfive.draws == 45


def test_hand_count_ignores_unknown_marks() -> None:
    _, manifest, _, papers = synthetic_comparison_record(n=10, winner_votes=6)
    papers.append({"serial": "junk", "contests": {"ghost": {"selections": ["A"]}}})
    papers.append({"serial": "junk2", "contests": {"race": {"selections": ["Z"]}}})
    manual = hand_count(papers, manifest)
    assert manual["counts"] == {"race": {"A": 6, "B": 4}}
    assert manual["winners"] == {"race": ["A"]}


@pytest.mark.parametrize("selections, counts, winner", [
    (["B", "B", "B", "B", "B"], {"A": 5, "B": 5}, "A"),  # one B, named five times
    (["A", "B"], {"A": 5, "B": 4}, "A"),  # an overvote counts for neither
], ids=["repeated-selection", "overvote"])
def test_hand_count_counts_each_option_once_and_no_overvote(selections, counts, winner) -> None:
    _, manifest, _, papers = synthetic_comparison_record(n=10, winner_votes=6)
    papers[0]["contests"]["race"]["selections"] = selections  # an A ballot
    manual = hand_count(papers, manifest)
    assert manual["counts"] == {"race": counts}
    assert manual["winners"] == {"race": [winner]}


def test_honest_audit_confirms_in_45_draws() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    out = run_audit(board, manifest, cvrs, papers, SEED_A, 0.1)
    assert out["verdict"] == "CONFIRMED"
    assert out["draws"] == 45
    assert abs(out["p_value"] - 0.09944025698709225) <= 1e-9
    assert (out["N"], out["V"], out["U"]) == (100, 10, 20.0)
    assert out["reported_winners"] == {"race": ["A"]}
    assert out["discrepancies"] == {"0": 45}
    assert [row["index"] for row in out["trajectory"][:5]] == [80, 99, 54, 45, 90]
    assert out["trajectory"][0]["draw_j"] == 1
    assert all(row["e_j"] == 0 for row in out["trajectory"])
    assert out["trajectory"][-1]["P_j"] == out["p_value"]
    assert "result" not in out and "winners" not in out


def test_audit_works_out_each_draws_overstatement_once(monkeypatch) -> None:
    result, _ = demo_run()
    calls = []

    def counted(*args):
        calls.append(args)
        return overstatement(*args)

    monkeypatch.setattr(audit, "overstatement", counted)
    out = run_audit(read_board(board_raw_lines(result["board"]), result["board"].election_id),
                    result["manifest"], result["cvrs"], result["papers"], SEED_A, 0.1)
    assert out["draws"] > 0
    assert len(calls) == out["draws"]


def test_audit_is_reproducible() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    first = run_audit(board, manifest, cvrs, papers, SEED_A, 0.1)
    second = run_audit(board, manifest, cvrs, papers, SEED_A, 0.1)
    assert first == second


def test_flipped_papers_force_a_full_hand_count() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record(flips=55)
    out = run_audit(board, manifest, cvrs, papers, SEED_B, 0.1)
    assert out["verdict"] == "FULL_HAND_COUNT"
    assert out["p_value"] == math.inf
    assert out["draws"] == 100
    assert out["discrepancies"]["2"] >= 1
    # the manual count overturns the reported outcome
    assert out["winners"] == {"race": ["B"]}
    assert out["result"] == {"race": {"A": 0, "B": 100}}


# Wrong reported outcomes of the default 55-45 record: (papers edited, seats).
# Blank papers are 1-vote overstatements, flipped papers 2-vote ones; with
# seats=2 every ballot also marks a sure winner, so margin_pairs walks two pairs.
WRONG_OUTCOMES = {
    "blank-papers": ({"blanks": 11}, 1),  # true result 44-45
    "flipped-papers": ({"flips": 6}, 1),  # true result 49-51
    "tie": ({"blanks": 10}, 1),  # true result 45-45
    "two-seats": ({"blanks": 11}, 2),  # true result S1 100, A 44, B 45
}
RISK_TRIALS = 250
RISK_ALPHA = 0.1


@pytest.mark.parametrize("edit, seats", WRONG_OUTCOMES.values(), ids=WRONG_OUTCOMES.keys())
def test_a_wrong_outcome_is_confirmed_at_most_alpha_of_the_time(edit, seats) -> None:
    """The risk limit as a property: over RISK_TRIALS seeds, an audit confirms
    a wrong outcome in at most alpha of them, plus three standard deviations
    of a Binomial(RISK_TRIALS, alpha) count (39 of 250), and escalates to a
    full hand count otherwise; the correct record confirms on every seed."""
    board, manifest, cvrs, papers = synthetic_comparison_record(seats=seats, **edit)
    verdicts = Counter(run_audit(board, manifest, cvrs, papers, f"{seed:020d}", RISK_ALPHA)[
        "verdict"] for seed in range(RISK_TRIALS))
    margin = 3 * math.sqrt(RISK_TRIALS * RISK_ALPHA * (1 - RISK_ALPHA))
    assert verdicts["CONFIRMED"] <= RISK_TRIALS * RISK_ALPHA + margin, verdicts
    assert verdicts["CONFIRMED"] + verdicts["FULL_HAND_COUNT"] == RISK_TRIALS
    board, manifest, cvrs, papers = synthetic_comparison_record(seats=seats)
    for seed in range(20):
        out = run_audit(board, manifest, cvrs, papers, f"{seed:020d}", RISK_ALPHA)
        assert out["verdict"] == "CONFIRMED", seed


def test_audit_accepts_the_separately_published_digests() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    published = published_commitments(cvrs)
    out = run_audit(board, manifest, cvrs, papers, SEED_A, 0.1, published=published)
    assert out["verdict"] == "CONFIRMED"


def test_tampered_cvr_row_is_caught_on_its_first_draw() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    published = published_commitments(cvrs)
    cooked = copy.deepcopy(cvrs)
    cooked[80]["contests"]["race"]["selections"] = ["A"]  # first draw of SEED_A
    with pytest.raises(CommitmentMismatch):
        run_audit(board, manifest, cooked, papers, SEED_A, 0.1, published=published)


def test_missing_published_row_is_caught() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    published = [row for row in published_commitments(cvrs) if row["index"] != 80]
    with pytest.raises(CommitmentMismatch):
        run_audit(board, manifest, cvrs, papers, SEED_A, 0.1, published=published)


def test_a_serial_published_twice_is_refused_whichever_row_comes_first() -> None:
    """A commitment file that gives one serial two rows is ambiguous: an audit
    that opened only the last row would pass over a contradicting first one."""
    board, manifest, cvrs, papers = synthetic_comparison_record()
    published = published_commitments(cvrs)
    bogus = dict(published[80], commitments=dict.fromkeys(published[80]["commitments"], "00" * 32))
    for rows, where in (([bogus, *published], "[81].serial: repeats commitments[0]"),
                        ([*published, bogus], "[100].serial: repeats commitments[80]")):
        with pytest.raises(MalformedRecord) as exc:
            run_audit(board, manifest, cvrs, papers, SEED_A, 0.1, published=rows)
        assert exc.value.detail == f"commitments{where}.serial"


def test_audit_preconditions() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    with pytest.raises(StarlockError):
        run_audit(board, manifest, cvrs[:-1], papers, SEED_A, 0.1)  # CVR gap
    with pytest.raises(StarlockError):
        run_audit(board, manifest, cvrs, papers + [dict(papers[0])], SEED_A, 0.1)
    with pytest.raises(StarlockError):
        run_audit(board, manifest, cvrs, papers[:-1], SEED_A, 0.1)  # lost paper
    with pytest.raises(ValueError):
        run_audit(board, manifest, cvrs, papers, SEED_A, 0.0)
    with pytest.raises(ValueError):
        run_audit(board, manifest, cvrs, papers, SEED_A, 1.0)
    with pytest.raises(ValueError):
        run_audit(board, manifest, cvrs, papers, "42", 0.1)
    untallied, *_ = synthetic_comparison_record(tallied=False)
    with pytest.raises(StarlockError):
        run_audit(untallied, manifest, cvrs, papers, SEED_A, 0.1)  # no tally line


def test_spoiled_entries_stay_out_of_the_population() -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record(
        extra=[synthetic_entry(100, "SPOILED")])
    out = run_audit(board, manifest, cvrs, papers, SEED_A, 0.1)
    assert out["N"] == 100
    assert out["verdict"] == "CONFIRMED"


@pytest.mark.parametrize("file, key", [("cvrs", "index"), ("papers", "contests"),
                                       ("commitments", "serial")])
def test_a_row_without_its_field_is_a_malformed_record(file, key, tmp_path, capsys) -> None:
    board, manifest, cvrs, papers = synthetic_comparison_record()
    files = copy.deepcopy({"cvrs": cvrs, "papers": papers,
                           "commitments": published_commitments(cvrs)})
    del files[file][7][key]
    with pytest.raises(MalformedRecord) as exc:
        run_audit(board, manifest, files["cvrs"], files["papers"], SEED_A, 0.1,
                  published=files["commitments"])
    assert exc.value.detail == f"{file}[7].{key}: missing"

    argv = ["audit", "--seed", SEED_A]
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    (tmp_path / "board.jsonl").write_text("".join(text + "\n" for text in board.texts))
    manifest.save(tmp_path / "params.json")
    argv += ["--board", str(tmp_path / "board.jsonl"), "--manifest", str(tmp_path / "params.json")]
    assert main(argv) == 2
    assert f"{file}[7].{key}: missing" in capsys.readouterr().out


# Each edit replaces the mayor view of the first drawn CVR row or of its paper.
MALFORMED_VIEWS = (
    ("cvrs", lambda view: {"writein": view["writein"]}, ".selections: missing"),
    ("cvrs", lambda view: [], ": not an object"),
    ("papers", lambda view: [], ": not an object"),
    ("papers", lambda view: dict(view, selections=5), ".selections: not a list"),
)


@pytest.mark.parametrize("file, edit, fault", MALFORMED_VIEWS,
                         ids=["cvr-without-selections", "cvr-view-a-list", "paper-view-a-list",
                              "paper-selections-a-number"])
def test_a_malformed_contest_view_aborts_the_audit(file, edit, fault, tmp_path, capsys) -> None:
    seed = "12345678901234567890"
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    files = {name: json.loads((tmp_path / f"{name}.json").read_text())
             for name in ("cvrs", "papers")}
    row = next(prng_sequence(seed, len(files["cvrs"])))  # every demo CVR row is cast
    if file == "papers":
        serial = files["cvrs"][row]["serial"]
        row = [paper["serial"] for paper in files["papers"]].index(serial)
    views = files[file][row]["contests"]
    views["mayor"] = edit(views["mayor"])
    (tmp_path / f"{file}.json").write_text(json.dumps(files[file]), encoding="utf-8")
    argv = commands["audit"]
    argv[argv.index("--seed") + 1] = seed
    capsys.readouterr()
    assert main(argv) == 2
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"verdict": "ABORTED", "reason": f"{file}[{row}].contests.mayor{fault}"}
