"""Ballot encoding, encryption, and well-formedness verification."""

import random

import pytest

from helpers import decrypt_dlog, replace
from starlock.ballot import (
    BallotStyle,
    Contest,
    EncryptedBallot,
    PlaintextBallot,
    WellFormednessProof,
    encode,
    encrypt_ballot,
    verify_ballot,
)
from starlock.elgamal import add_many, keygen
from starlock.errors import OvervoteRejected, UnknownOption
from starlock.group import TEST_GROUP

GP = TEST_GROUP
EID = "ballot-test"

STYLE = BallotStyle(
    style_id="downtown",
    contests=(
        Contest(contest_id="mayor", options=("ada", "grace"), limit=1, writein_slot=True),
        Contest(contest_id="council", options=("ida", "joan", "mary"), limit=2),
    ),
)


def make_key(seed=3):
    return keygen(GP, random.Random(seed))


def test_contest_validation() -> None:
    with pytest.raises(ValueError):
        Contest(contest_id="", options=("a",), limit=1)
    with pytest.raises(ValueError):
        Contest(contest_id="c", options=(), limit=1)
    with pytest.raises(ValueError):
        Contest(contest_id="c", options=("a", "a"), limit=1)
    with pytest.raises(ValueError):
        Contest(contest_id="c", options=("a", "(sum)"), limit=1)  # reserved name
    with pytest.raises(ValueError):
        Contest(contest_id="c", options=("a", "b"), limit=0)
    with pytest.raises(ValueError):
        Contest(contest_id="c", options=("a", "b"), limit=3)


def test_style_rejects_duplicate_contests() -> None:
    c = Contest(contest_id="c", options=("a", "b"), limit=1)
    with pytest.raises(ValueError):
        BallotStyle(style_id="s", contests=(c, c))


def test_encode_pads_undervotes() -> None:
    pb = PlaintextBallot(
        style_id="downtown", selections={"mayor": ("ada",), "council": ("ida",)}
    )
    rows = encode(pb, STYLE)
    assert rows["mayor"] == (1, 0, 0, 0)  # ada, grace, (pad0), (write-in)
    assert rows["council"] == (1, 0, 0, 1, 0)  # ida, joan, mary, (pad0), (pad1)


def test_encode_abstention_is_all_padding() -> None:
    pb = PlaintextBallot(style_id="downtown", selections={})
    rows = encode(pb, STYLE)
    assert rows["mayor"] == (0, 0, 1, 0)
    assert rows["council"] == (0, 0, 0, 1, 1)


def test_encode_rows_always_sum_to_limit() -> None:
    rng = random.Random(71)
    for _ in range(100):
        selections = {
            "mayor": tuple(rng.sample(["ada", "grace"], rng.randint(0, 1))),
            "council": tuple(rng.sample(["ida", "joan", "mary"], rng.randint(0, 2))),
        }
        writeins = {"mayor"} if rng.random() < 0.3 else set()
        pb = PlaintextBallot(style_id="downtown", selections=selections, writeins=writeins)
        rows = encode(pb, STYLE)
        for contest in STYLE.contests:
            row = rows[contest.contest_id]
            assert len(row) == len(contest.column_ids())
            assert sum(row[:len(contest.options) + contest.limit]) == contest.limit


def test_write_in_does_not_consume_a_selection() -> None:
    pb = PlaintextBallot(
        style_id="downtown", selections={"mayor": ("ada",)}, writeins={"mayor"}
    )
    assert encode(pb, STYLE)["mayor"] == (1, 0, 0, 1)


def test_encode_error_catalog() -> None:
    with pytest.raises(OvervoteRejected):
        encode(
            PlaintextBallot(
                style_id="downtown", selections={"council": ("ida", "joan", "mary")}
            ),
            STYLE,
        )
    with pytest.raises(UnknownOption):
        encode(PlaintextBallot(style_id="downtown", selections={"mayor": ("zed",)}), STYLE)
    with pytest.raises(UnknownOption):
        encode(PlaintextBallot(style_id="downtown", selections={"senate": ("ada",)}), STYLE)
    with pytest.raises(UnknownOption):
        encode(
            PlaintextBallot(style_id="downtown", selections={}, writeins={"council"}), STYLE
        )  # council has no write-in slot
    with pytest.raises(UnknownOption):
        encode(PlaintextBallot(style_id="uptown", selections={}), STYLE)


def test_plaintext_ballot_normalization_and_equality() -> None:
    a = PlaintextBallot(style_id="s", selections={"c": ("y", "x", "x")})
    assert a.selections == {"c": ("x", "y")}
    b = PlaintextBallot(style_id="s", selections={"c": ("x", "y"), "d": ()})
    assert a == b  # empty contests are ignored by equality
    c = PlaintextBallot(style_id="s", selections={"c": ("x",)})
    assert a != c
    d = PlaintextBallot(style_id="s", selections={"c": ("x", "y")}, writeins={"c"})
    assert a != d


def test_from_raw_selections_splits_write_in_sentinel() -> None:
    pb = PlaintextBallot.from_raw_selections(
        "downtown", {"mayor": ["ada", "(write-in)"], "council": ["ida"]}
    )
    assert pb.selections["mayor"] == ("ada",)
    assert pb.writeins == frozenset({"mayor"})
    assert pb.selections["council"] == ("ida",)


def test_plaintext_json_round_trip() -> None:
    pb = PlaintextBallot(
        style_id="downtown", selections={"mayor": ("grace",)}, writeins={"mayor"}
    )
    assert PlaintextBallot.from_json(pb.to_json()) == pb


def test_encrypt_verify_round_trip() -> None:
    kp = make_key()
    rng = random.Random(72)
    picks = [
        {},
        {"mayor": ("ada",)},
        {"mayor": ("grace",), "council": ("ida", "mary")},
        {"council": ("joan",)},
    ]
    for selections in picks:
        pb = PlaintextBallot(style_id="downtown", selections=selections)
        eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, rng, EID)
        assert verify_ballot(eb, proof, STYLE, kp.pk, GP, EID)


def test_encrypted_shape_matches_style() -> None:
    kp = make_key()
    pb = PlaintextBallot(style_id="downtown", selections={"mayor": ("ada",)})
    eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(73), EID)
    mayor, council = eb.contests
    assert (mayor.contest_id, council.contest_id) == ("mayor", "council")
    assert len(mayor.option_cts) == 2
    assert len(mayor.padding_cts) == 1
    assert mayor.writein_ct is not None
    assert len(council.option_cts) == 3
    assert len(council.padding_cts) == 2
    assert council.writein_ct is None
    cols = dict(mayor.all_columns(STYLE.contests[0]))
    assert set(cols) == {"ada", "grace", "(pad0)", "(write-in)"}


def test_columns_decrypt_to_the_encoded_bits() -> None:
    kp = make_key()
    pb = PlaintextBallot(
        style_id="downtown",
        selections={"mayor": ("grace",), "council": ("ida", "mary")},
        writeins={"mayor"},
    )
    eb, _ = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(74), EID)
    rows = encode(pb, STYLE)
    for contest, enc in zip(STYLE.contests, eb.contests, strict=True):
        columns = enc.all_columns(contest)
        assert [column for column, _ in columns] == contest.column_ids()
        for (_, ct), bit in zip(columns, rows[contest.contest_id], strict=True):
            assert decrypt_dlog(ct, kp.sk, 1, GP) == bit


def test_homomorphic_column_totals_match_counts() -> None:
    kp = make_key()
    rng = random.Random(75)
    tallies = {"ada": 0, "grace": 0}
    column_cts = {"ada": [], "grace": []}
    for _ in range(8):
        choice = rng.choice(["ada", "grace", None])
        selections = {"mayor": (choice,)} if choice else {}
        pb = PlaintextBallot(style_id="downtown", selections=selections)
        eb, _ = encrypt_ballot(pb, STYLE, kp.pk, GP, rng, EID)
        if choice:
            tallies[choice] += 1
        for name, ct in zip(("ada", "grace"), eb.contests[0].option_cts):
            column_cts[name].append(ct)
    for name in tallies:
        total = add_many(column_cts[name], GP)
        assert decrypt_dlog(total, kp.sk, 8, GP) == tallies[name]


def test_verify_rejects_swapped_columns() -> None:
    kp = make_key()
    pb = PlaintextBallot(style_id="downtown", selections={"mayor": ("ada",)})
    eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(76), EID)
    mayor = eb.contests[0]
    swapped = replace(mayor, option_cts=tuple(reversed(mayor.option_cts)))
    forged = EncryptedBallot(style_id=eb.style_id, contests=(swapped, eb.contests[1]))
    assert not verify_ballot(forged, proof, STYLE, kp.pk, GP, EID)


# Misfits that keep a contest's column count: (contest, (options, padding,
# write-in) -> the same items in parts that do not fit the contest).
LAYOUT_MISFITS = (
    ("mayor", lambda options, padding, writein: (options[:-1], options[-1:] + padding, writein)),
    ("council", lambda options, padding, writein: (options + padding[:1], padding[1:], writein)),
    ("council", lambda options, padding, writein: (options, padding[:-1], padding[-1])),
    ("mayor", lambda options, padding, writein: (options, padding + (writein,), None)),
)


@pytest.mark.parametrize("part", ["ciphertexts", "proofs"])
@pytest.mark.parametrize("contest_id, misfit", LAYOUT_MISFITS,
                         ids=["option-into-padding", "padding-into-options",
                              "write-in-without-slot", "slot-without-write-in"])
def test_verify_rejects_columns_out_of_layout(contest_id, misfit, part) -> None:
    kp = make_key()
    pb = PlaintextBallot(style_id="downtown", selections={"mayor": ("ada",)}, writeins={"mayor"})
    eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(76), EID)
    assert verify_ballot(eb, proof, STYLE, kp.pk, GP, EID)
    record, fields = ((eb, ("option_cts", "padding_cts", "writein_ct")) if part == "ciphertexts"
                      else (proof, ("option_proofs", "padding_proofs", "writein_proof")))
    contests = tuple(
        replace(c, **dict(zip(fields, misfit(*(getattr(c, f) for f in fields)))))
        if c.contest_id == contest_id else c
        for c in record.contests
    )
    forged = replace(record, contests=contests)
    pair = (forged, proof) if part == "ciphertexts" else (eb, forged)
    assert verify_ballot(*pair, STYLE, kp.pk, GP, EID) is False


def test_verify_rejects_transplanted_proof() -> None:
    kp = make_key()
    pb = PlaintextBallot(style_id="downtown", selections={"mayor": ("ada",)})
    eb1, _ = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(77), EID)
    _, proof2 = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(78), EID)
    assert not verify_ballot(eb1, proof2, STYLE, kp.pk, GP, EID)


def test_verify_binds_election_and_key_and_style() -> None:
    kp = make_key()
    other = make_key(seed=5)
    assert other.pk != kp.pk
    pb = PlaintextBallot(style_id="downtown", selections={"council": ("joan",)})
    eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(79), EID)
    assert not verify_ballot(eb, proof, STYLE, kp.pk, GP, "other-election")
    assert not verify_ballot(eb, proof, STYLE, other.pk, GP, EID)
    reordered = BallotStyle(style_id="downtown", contests=tuple(reversed(STYLE.contests)))
    assert not verify_ballot(eb, proof, reordered, kp.pk, GP, EID)


def test_encrypted_ballot_json_preserves_canonical_bytes() -> None:
    kp = make_key()
    pb = PlaintextBallot(
        style_id="downtown", selections={"mayor": ("ada",)}, writeins={"mayor"}
    )
    eb, proof = encrypt_ballot(pb, STYLE, kp.pk, GP, random.Random(80), EID)
    eb2 = EncryptedBallot.from_json(eb.to_json())
    proof2 = WellFormednessProof.from_json(proof.to_json())
    assert eb2.canonical_bytes() == eb.canonical_bytes()
    assert proof2.canonical_bytes() == proof.canonical_bytes()
    assert verify_ballot(eb2, proof2, STYLE, kp.pk, GP, EID)


def test_style_json_round_trip() -> None:
    assert BallotStyle.from_json(STYLE.to_json()) == STYLE
