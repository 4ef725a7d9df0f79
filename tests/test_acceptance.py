"""Release gate: one test per core guarantee of the toolkit.

Each test name states the property; run with -v to read the gate as a
checklist. Tolerances and trial counts are pinned in the asserts, and the
statistical fixtures carry their closed-form expectations next to the
numbers they check.
"""

import dataclasses
import random
import time

from helpers import (
    board_lines,
    board_raw_lines,
    demo_run,
    finish,
    hundred_entry_board,
    margin_scenario,
    rechain,
    replace,
    synthetic_comparison_record,
)
from starlock.audit import KMState, overstatement, published_commitments, run_audit
from starlock.ballot import (
    BallotStyle,
    Contest,
    PlaintextBallot,
    encrypt_ballot,
    verify_ballot,
)
from starlock.boardformat import FOUND_CAST, FOUND_SPOILED, NOT_FOUND, read_board
from starlock.group import TEST_GROUP
from starlock.scenario import (
    Scenario,
    Voter,
    expected_counts,
    make_demo_scenario,
    make_random_scenario,
    run_scenario,
)
from starlock.trustees import dkg
from starlock.verifier import (
    lookup_receipt,
    verify_board,
    verify_chain,
)


def test_criterion_1_fifty_random_elections_tally_exactly() -> None:
    started = time.monotonic()
    for seed in range(50):
        scenario = make_random_scenario(seed)
        assert len(scenario.voters) <= 200
        assert all(len(s.contests) <= 4 for s in scenario.styles)
        result = run_scenario(scenario)
        outcome = finish(result)
        expected = expected_counts(scenario)
        assert outcome["tally"].result == expected["counts"], f"seed {seed}"
        assert outcome["tally"].cast_counts == expected["cast"], f"seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 1: 50/50 tallies exact in {elapsed:.1f}s")


def test_criterion_2_verifier_tally_and_audit_agree_on_honest_runs() -> None:
    rng = random.Random(2024)
    for trial in range(20):
        scenario = margin_scenario(trial, rng)
        result = run_scenario(scenario)
        outcome = finish(result)
        raw = board_raw_lines(result["board"])
        report = verify_board(raw, result["manifest"])
        assert report.overall, f"trial {trial}: {report.summary()}"
        expected = expected_counts(scenario)
        assert outcome["tally"].result == expected["counts"], f"trial {trial}"
        seed = f"{rng.randrange(10 ** 20):020d}"
        audit = run_audit(
            read_board(raw, scenario.election_id), result["manifest"], result["cvrs"],
            result["papers"], seed, 0.1, result["commitments"],
        )
        assert audit["verdict"] == "CONFIRMED", f"trial {trial}"
    print("criterion 2: 20/20 runs pass verifier, oracle tally, and audit together")


def test_criterion_3_every_challenged_ballot_exposes_a_rigged_terminal() -> None:
    detected = 0
    for trial in range(100):
        rng = random.Random(3000 + trial)
        options = tuple(f"cand{j}" for j in range(rng.randint(2, 4)))
        style = BallotStyle(
            style_id="s",
            contests=(Contest(contest_id="race", options=options, limit=1),),
        )
        scenario = Scenario(
            election_id=f"sting-{trial}",
            group="test",
            trustees=(1, 1),
            seed=trial,
            styles=(style,),
            terminals=("T1",),
            rigged_terminals=("T1",),
            voters=(Voter("s", {"race": [rng.choice(options)]}, action="challenge"),),
        )
        result = run_scenario(scenario)
        finish(result)
        challenge = result["challenges"][0]
        decryption = next(
            l for l in board_lines(result["board"])
            if l["kind"] == "decryption" and int(l["ref"]) == challenge["entry"]
        )
        revealed = decryption["plaintext"]["selections"].get("race", [])
        if revealed != challenge["intended"]["selections"]["race"]:
            detected += 1
    assert detected == 100
    print("criterion 3: 100/100 challenges revealed the mis-encryption")


def test_criterion_4_chain_tampering_is_caught_and_named() -> None:
    board, manifest, office = hundred_entry_board()
    entry_pos = {
        int(line["index"]): pos
        for pos, line in enumerate(board_lines(board))
        if line.get("kind") == "entry"
    }

    def first_failure(lines):
        index = read_board(rechain(lines, manifest.election_id, office, manifest.gp),
                           manifest.election_id, ("ballot", "proof"))
        bad = [item for item in verify_chain(index, manifest) if not item.ok]
        assert bad, "tampering went unnoticed"
        return bad[0]

    rng = random.Random(4004)
    checked = 0
    for i in rng.sample(range(100), 10):  # substitution: swap in another entry's ballot
        lines = board_lines(board)
        donor = lines[entry_pos[(i + 37) % 100]]
        victim = lines[entry_pos[i]]
        victim["ballot"], victim["proof"] = donor["ballot"], donor["proof"]
        assert first_failure(lines).entry == i
        checked += 1
    for i in rng.sample(range(99), 10):  # deletion: the next entry's link breaks
        lines = board_lines(board)
        del lines[entry_pos[i]]
        assert first_failure(lines).entry == i + 1
        checked += 1
    for i in rng.sample(range(99), 10):  # reorder: adjacent swap
        lines = board_lines(board)
        a, b = entry_pos[i], entry_pos[i + 1]
        lines[a], lines[b] = lines[b], lines[a]
        assert first_failure(lines).entry == i + 1
        checked += 1
    assert checked == 30
    print("criterion 4: 30/30 tampered boards failed with the first bad entry named")


def test_criterion_5_risk_product_desk_check() -> None:
    # N=100, V=10 gives U=20; each clean draw multiplies P by 1-1/20=0.95,
    # and 0.95^45 = 0.09944... is the first value at or under alpha=0.1.
    pairs = {"race": [("A", "B")]}
    clean = (
        {"race": {"selections": ["A"], "writein": False}},
        {"race": {"selections": ["A"], "writein": False}},
    )
    state = KMState(N=100, V=10)
    for _ in range(44):
        state.observe(overstatement(*clean, pairs))
    assert state.p_value > 0.1
    p45 = state.observe(overstatement(*clean, pairs))
    assert abs(p45 - 0.09944025698709225) <= 1e-9
    assert p45 <= 0.1
    assert state.draws == 45

    board, manifest, cvrs, papers = synthetic_comparison_record()
    out = run_audit(board, manifest, cvrs, papers, "09876543210987654321", 0.1,
                    published_commitments(cvrs))
    assert out["verdict"] == "CONFIRMED"
    assert out["draws"] == 45
    assert abs(out["p_value"] - 0.09944025698709225) <= 1e-9
    assert out["discrepancies"] == {"0": 45}
    print(f"criterion 5: CONFIRMED at draw 45 with P={p45:.17f}")


def test_criterion_6_wrong_outcomes_rarely_survive_the_audit() -> None:
    # 10 of 100 papers flip A->B, so B actually won 55-45 while the board
    # says A. A wrong confirmation needs 45 draws that all miss the 10
    # flipped ballots: 0.9^45 ~= 0.0087, far under the 0.13 ceiling.
    board, manifest, cvrs, papers = synthetic_comparison_record(flips=10)
    published = published_commitments(cvrs)
    confirmed = escalated = 0
    for i in range(1000):
        out = run_audit(board, manifest, cvrs, papers, f"{i:020d}", 0.1, published)
        if out["verdict"] == "CONFIRMED":
            confirmed += 1
        else:
            escalated += 1
            assert out["winners"] == {"race": ["B"]}
    assert confirmed + escalated == 1000
    assert confirmed / 1000 <= 0.13
    print(f"criterion 6: wrong outcome confirmed {confirmed}/1000 times "
          f"(bound 130, analytic mean ~8.7)")


def test_criterion_7_missing_paper_is_reported_demoted_and_decrypted() -> None:
    for trial in range(10):
        victim = trial % 5  # rotate over the demo's five cast-or-revote voters
        scenario = dataclasses.replace(
            make_demo_scenario(seed=trial), lost_papers=(victim,)
        )
        result = run_scenario(scenario)
        outcome = finish(result)
        serial = max(
            (r for r in result["receipts"] if r["voter"] == victim),
            key=lambda r: r["session"] != "primary",
        )["serial"]
        assert outcome["compliance"]["cast_without_paper"] == [serial], f"trial {trial}"
        board = result["board"]
        entry = result["index_by_serial"][serial]
        assert board.effective_status(entry) == "UNTALLIED"
        decryption = next(
            l for l in board_lines(board)
            if l["kind"] == "decryption" and int(l["ref"]) == entry
        )
        voter = scenario.voters[victim]
        final = voter.revote if voter.revote is not None else voter.selections
        assert PlaintextBallot.from_json(decryption["plaintext"]) == \
            PlaintextBallot.from_raw_selections(voter.style, final)
        assert all(n == 5 for n in outcome["tally"].cast_counts.values())
    print("criterion 7: 10/10 lost papers reported, demoted to UNTALLIED, decrypted")


def test_criterion_8_proof_battery_accepts_honest_and_rejects_perturbed() -> None:
    gp = TEST_GROUP
    style = BallotStyle(
        style_id="downtown",
        contests=(
            Contest(contest_id="mayor", options=("ada", "grace"), limit=1,
                    writein_slot=True),
            Contest(contest_id="council", options=("ida", "joan", "mary"), limit=2),
        ),
    )
    rng = random.Random(88)
    jpk, _ = dkg(1, 1, gp, rng)
    election_id = "battery"
    element_fields = {"commit0_g", "commit0_k", "commit1_g", "commit1_k",
                      "commit1", "commit2"}

    def random_ballot():
        return PlaintextBallot.from_raw_selections("downtown", {
            "mayor": rng.choice([[], ["ada"], ["grace"], ["(write-in)"]]),
            "council": rng.sample(["ida", "joan", "mary"], rng.randint(0, 2)),
        })

    def perturb_one_field(proof):
        cidx = rng.randrange(len(proof.contests))
        cp = proof.contests[cidx]
        spots = [("option", i) for i in range(len(cp.option_proofs))]
        spots += [("padding", i) for i in range(len(cp.padding_proofs))]
        if cp.writein_proof is not None:
            spots.append(("writein", 0))
        spots.append(("sum", 0))
        kind, i = rng.choice(spots)
        target = {
            "option": lambda: cp.option_proofs[i],
            "padding": lambda: cp.padding_proofs[i],
            "writein": lambda: cp.writein_proof,
            "sum": lambda: cp.sum_proof,
        }[kind]()
        name = rng.choice([attr for _, attr, _ in target.FIELDS])
        old = getattr(target, name)
        new = old * gp.g % gp.p if name in element_fields else (old + 1) % gp.q
        bent = replace(target, **{name: new})
        if kind == "option":
            seq = list(cp.option_proofs)
            seq[i] = bent
            new_cp = replace(cp, option_proofs=tuple(seq))
        elif kind == "padding":
            seq = list(cp.padding_proofs)
            seq[i] = bent
            new_cp = replace(cp, padding_proofs=tuple(seq))
        elif kind == "writein":
            new_cp = replace(cp, writein_proof=bent)
        else:
            new_cp = replace(cp, sum_proof=bent)
        contests = list(proof.contests)
        contests[cidx] = new_cp
        return replace(proof, contests=tuple(contests))

    honest = rejected = 0
    for trial in range(1000):
        eb, proof = encrypt_ballot(random_ballot(), style, jpk.K, gp, rng, election_id)
        assert verify_ballot(eb, proof, style, jpk.K, gp, election_id), f"trial {trial}"
        honest += 1
        bad = perturb_one_field(proof)
        assert not verify_ballot(eb, bad, style, jpk.K, gp, election_id), f"trial {trial}"
        rejected += 1
    assert (honest, rejected) == (1000, 1000)
    print("criterion 8: 1000/1000 honest proofs verify, 1000/1000 perturbed fail")


def test_criterion_9_receipts_resolve_and_fabrications_do_not() -> None:
    result, _ = demo_run()
    index = read_board(board_raw_lines(result["board"]), result["manifest"].election_id)
    for row in result["receipts"]:
        assert len(row["code"]) == 20
        status, _ = lookup_receipt(index, row["terminal"], row["code"])
        expected = FOUND_CAST if row["status"] == "CAST" else FOUND_SPOILED
        assert status == expected, row
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
    rng = random.Random(99)
    false_positives = 0
    for _ in range(10_000):
        code = "".join(rng.choices(alphabet, k=20))
        terminal = rng.choice(["T1", "T2"])
        status, _ = lookup_receipt(index, terminal, code)
        if status != NOT_FOUND:
            false_positives += 1
    assert false_positives == 0
    print(f"criterion 9: {len(result['receipts'])}/"
          f"{len(result['receipts'])} scripted receipts resolved; "
          "0/10000 fabricated codes matched")
