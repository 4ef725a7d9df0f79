"""Batched proof equations (chaum_pedersen.Collect) against the per-equation
sink, in the 256-bit MID_GROUP, where every batching caller turns them on."""

import dataclasses
import json
import random

import pytest

from helpers import (
    MID_GROUP,
    MODP_GROUP,
    board_lines,
    board_raw_lines,
    demo_commands,
    demo_run,
    entry_board,
    finish,
    mid_demo_run,
    rechain,
    replace,
    run_mid_demo,
)
from starlock import ballot, chaum_pedersen, elgamal, group, trustees, verifier
from starlock.ballot import BallotStyle, Contest, PlaintextBallot, encrypt_ballot, verify_ballot
from starlock.boardformat import spoiled_statements
from starlock.chaum_pedersen import (
    Collect,
    Immediate,
    batched,
    prove_eq_dlog,
    prove_zero_or_one,
    verify_eq_dlog,
    verify_zero_or_one,
)
from starlock.cli import main
from starlock.errors import BadShareProof
from starlock.elgamal import Ciphertext, encrypt_exp, keygen
from starlock.fiatshamir import DOMAIN_CONTEST_SUM, DOMAIN_DECRYPT_SHARE, fiat_shamir_challenge
from starlock.group import COMB_TABLES, PROD_GROUP, TEST_GROUP, GroupParams, multi_exp
from starlock.scenario import make_demo_scenario, run_scenario
from starlock.trustees import (
    DecryptionShare,
    combine_shares,
    dkg,
    partial_decrypt,
    verification_key,
    verify_decryption_share,
)
from starlock.verifier import verify_board
from test_fuzz import corpus


def test_mid_group_is_a_large_safe_prime_group() -> None:
    MID_GROUP.validate()
    assert MID_GROUP.p.bit_length() == 256 and MID_GROUP.large


@pytest.mark.parametrize("gp", [TEST_GROUP, MID_GROUP, PROD_GROUP], ids=["test", "mid", "prod"])
def test_multi_exp_is_the_product_of_powers(gp) -> None:
    rng = random.Random(gp.p.bit_length())
    bases = [rng.randrange(1, gp.p) for _ in range(4)]
    for trial in range(3 if gp is PROD_GROUP else 60):
        pairs = [(rng.choice(bases), rng.choice([0, 1, 2, rng.getrandbits(64), rng.randrange(gp.q)]))
                 for _ in range(rng.randrange(7))]
        expected = 1
        for base, e in pairs:
            expected = expected * pow(base, e, gp.p) % gp.p
        assert multi_exp(pairs, gp.p) == expected, (trial, pairs)
    assert multi_exp([], gp.p) == multi_exp([(bases[0], 0)], gp.p) == 1


def test_encrypting_a_ballot_makes_no_full_size_power(monkeypatch) -> None:
    # Every large power of encrypt_ballot goes through the g and joint-key
    # combs; builtin pow is left only the small ones (g^m, g^limit, inverses).
    exponent_bits = []

    def counting_pow(base, exp, mod=None):
        exponent_bits.append(abs(exp).bit_length())
        return pow(base, exp, mod)

    for module in (chaum_pedersen, ballot, elgamal, group):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    rng = random.Random(8)
    key = keygen(MID_GROUP, rng).pk
    exponent_bits.clear()
    contests = (Contest("mayor", ("ada", "grace"), 1, True),
                Contest("council", ("ida", "joan", "mary"), 2))
    style = BallotStyle("s", contests)
    pb = PlaintextBallot("s", {"mayor": ("grace",), "council": ("ida",)})
    eb, proof = encrypt_ballot(pb, style, key, MID_GROUP, rng, "ops")
    assert exponent_bits and max(exponent_bits) <= 64
    monkeypatch.undo()
    assert verify_ballot(eb, proof, style, key, MID_GROUP, "ops")


SHORT_EXPONENT_BITS = 64 + 256 + 8  # a weight times a challenge, summed over a few equations


def test_a_batch_raises_only_response_bases_to_full_size(monkeypatch) -> None:
    # In the 2048-bit safe-prime group, where q is above 2^256, holds() makes
    # three multi-exponentiations. The right-hand product (commits and y's)
    # and the membership product take exponents of a 64-bit weight times a
    # challenge below 2^256 at most; only the left-hand product, whose bases
    # are exactly those raised to responses, keeps full-size exponents.
    gp, rng = MODP_GROUP, random.Random(13)
    calls = []

    def recording_multi_exp(pairs, p):
        pairs = list(pairs)
        calls.append(pairs)
        return multi_exp(pairs, p)

    def left_bases(run):
        """The left-hand product's bases, once each product's exponents are
        checked short."""
        del calls[:]
        assert run()
        assert len(calls) == 3  # a Collect batch ran and held
        left, *short = calls
        bits = [e.bit_length() for pairs in short for _, e in pairs]
        assert max(bits) <= SHORT_EXPONENT_BITS, bits
        return {base for base, _ in left}

    monkeypatch.setattr(chaum_pedersen, "multi_exp", recording_multi_exp)
    jpk, shares = dkg(3, 2, gp, rng)
    style = BallotStyle("s", (Contest("mayor", ("ada", "grace"), 1),))
    eb, proof = encrypt_ballot(PlaintextBallot("s", {"mayor": ("grace",)}), style, jpk.K, gp,
                               rng, "ops")
    assert left_bases(lambda: batched(gp, lambda: b"ballot", lambda eqs: verify_ballot(
        eb, proof, style, jpk.K, gp, "ops", eqs))) == {gp.g, jpk.K}
    ct = encrypt_exp(1, rng.randrange(1, gp.q), jpk.K, gp)
    dshares = [partial_decrypt(ct, share, gp, rng, b"col") for share in shares[:2]]
    assert left_bases(lambda: combine_shares([(ct, dshares, b"col")], jpk, gp) == [gp.g]) == {
        gp.g, ct.a}


@pytest.mark.parametrize("gp, bump, sinks", [
    (TEST_GROUP, 0, ["Immediate"]), (TEST_GROUP, 1, ["Immediate"]),
    (MID_GROUP, 0, ["Collect"]), (MID_GROUP, 1, ["Collect", "Immediate"]),
], ids=["test-honest", "test-false", "mid-honest", "mid-false"])
def test_batched_runs_again_per_proof_only_when_the_batch_fails(gp, bump, sinks) -> None:
    rng = random.Random(9)
    x, h = rng.randrange(1, gp.q), pow(gp.g, rng.randrange(1, gp.q), gp.p)
    y1, y2 = pow(gp.g, x, gp.p), pow(h, x, gp.p)
    proof = prove_eq_dlog(x, y1, h, y2, gp, rng, b"ctx", DOMAIN_CONTEST_SUM)
    proof = replace(proof, response=(proof.response + bump) % gp.q)
    seeds, seen = [], []

    def run(eqs):
        seen.append(type(eqs).__name__)
        return len(seen), verify_eq_dlog(proof, y1, h, y2, gp, b"ctx", DOMAIN_CONTEST_SUM, eqs=eqs)

    result = batched(gp, lambda: seeds.append(1) or b"seed", run)
    assert seen == sinks and len(seeds) == (sinks[0] == "Collect")
    assert result == (len(sinks), not bump)  # the last run's result: Immediate's after a failure


BAD = 1  # the index of the proof with a non-member among four


def _zero_one_checks(gp, rng, bad_key):
    """Four zero-or-one checks (functions of a sink) under a joint key; the
    BAD one is under bad_key, with randomness 0, which keeps all four of its
    equations exact whatever bad_key's order."""
    key, checks = keygen(gp, rng).pk, []
    for i in range(4):
        bit = i % 2
        if i == BAD:
            k, r, ct = bad_key, 0, Ciphertext(1, gp.signed(pow(gp.g, bit, gp.p)))
        else:
            k, r = key, rng.randrange(1, gp.q)
            ct = encrypt_exp(bit, r, k, gp)
        proof = prove_zero_or_one(bit, r, ct, k, gp, rng, b"cell")
        checks.append(lambda eqs, proof=proof, ct=ct, k=k:
                      verify_zero_or_one(proof, ct, k, gp, b"cell", eqs))
    return checks


def _eq_dlog_checks(gp, rng, bad_base):
    """Four decryption-share checks, each by trustee 1 of a one-coefficient
    commitment g^x, of a ciphertext whose a is h; the BAD one is an honest
    share of bad_base with x = 0, which keeps both of its proof's equations
    exact. verify_decryption_share tests h for membership, verify_eq_dlog
    only its commits."""
    checks = []
    for i in range(4):
        x, h = (0, bad_base) if i == BAD else (
            rng.randrange(1, gp.q), gp.signed(pow(gp.g, rng.randrange(1, gp.q), gp.p)))
        y1, y2 = gp.signed(pow(gp.g, x, gp.p)), gp.signed(pow(h, x, gp.p))
        proof = prove_eq_dlog(x, y1, h, y2, gp, rng, b"ctx", DOMAIN_DECRYPT_SHARE)
        share = DecryptionShare(trustee_id=1, share_value=y2, proof=proof)
        checks.append(lambda eqs, share=share, ct=Ciphertext(h, 1), y1=y1:
                      verify_decryption_share(share, ct, (y1,), gp, b"ctx", eqs))
    return checks


def _non_member_cases():
    """{case: four checks}: in the prod group, z = 2^(2q) has order m, so
    |K*z| and |a*z| are signed forms outside the order-q subgroup; p - a is
    the other representative of a's class, which once failed its Legendre
    symbol (-1 is no square, as p = 3 mod 4) and now fails the range."""
    gp, rng = PROD_GROUP, random.Random(17)
    p, q = gp.p, gp.q
    z = pow(2, 2 * q, p)
    assert z != 1 and pow(z, (p - 1) // (2 * q), p) == 1 and p % 4 == 3
    K = keygen(gp, rng).pk
    a = gp.signed(pow(gp.g, rng.randrange(1, q), p))
    return {
        "joint-key-K*z": _zero_one_checks(gp, rng, gp.signed(K * z % p)),
        "eq-dlog-base-a*z": _eq_dlog_checks(gp, rng, gp.signed(a * z % p)),
        "legendre-p-a": _eq_dlog_checks(gp, rng, p - a),
    }


@pytest.fixture(scope="module")
def non_member_cases():
    return _non_member_cases()


@pytest.mark.parametrize("case", ["joint-key-K*z", "eq-dlog-base-a*z", "legendre-p-a"])
def test_a_non_member_that_meets_every_equation_is_refused_and_named(
        non_member_cases, case, monkeypatch) -> None:
    gp, checks = PROD_GROUP, non_member_cases[case]
    named = [i != BAD for i in range(4)]

    def run(eqs):
        return [check(eqs) for check in checks]

    everyone = Immediate(gp)
    everyone.member = lambda x: True
    assert run(everyone) == [True] * 4  # only membership stands in the way
    assert run(Immediate(gp)) == named
    batch = Collect(gp, b"seed")
    verdicts = run(batch)
    if case.startswith("legendre"):  # refused at once, by the range check
        assert verdicts == named and batch.holds()
    else:  # every signed form passes; the batch's q-th power refuses them together
        assert verdicts == [True] * 4 and not batch.holds()
    assert batched(gp, lambda: b"seed", run) == named

    # An honest batch holds; it range-checks each distinct element once and
    # makes one membership test, of the weighted product, in holds().
    tested = []
    is_element = GroupParams.is_element
    monkeypatch.setattr(GroupParams, "is_element",
                        lambda gp, x: tested.append(x) or is_element(gp, x))
    honest = Collect(gp, b"seed")
    assert [check(honest) for i, check in enumerate(checks) if i != BAD] == [True] * 3
    assert not tested and honest.members
    assert honest.holds() and len(tested) == 1


def _order_m_commit_checks(gp, rng, z):
    """Four decryption-share checks (functions of a sink), as _eq_dlog_checks
    makes them with honest members; the BAD one's commit2 is published, and
    hashed, as |t2 * z|, its challenge and response made over that value."""
    checks = []
    for i in range(4):
        x, h = rng.randrange(1, gp.q), gp.signed(pow(gp.g, rng.randrange(1, gp.q), gp.p))
        y1, y2 = gp.signed(pow(gp.g, x, gp.p)), gp.signed(pow(h, x, gp.p))
        proof = prove_eq_dlog(x, y1, h, y2, gp, rng, b"ctx", DOMAIN_DECRYPT_SHARE)
        if i == BAD:
            t2 = gp.signed(proof.commit2 * z % gp.p)
            e = fiat_shamir_challenge(DOMAIN_DECRYPT_SHARE, b"ctx",
                                      (gp.g, y1, h, y2, proof.commit1, t2), gp)
            w = (proof.response - proof.challenge * x) % gp.q
            proof = chaum_pedersen.ChaumPedersenProof(proof.commit1, t2, e, (w + e * x) % gp.q)
        share = DecryptionShare(trustee_id=1, share_value=y2, proof=proof)
        checks.append(lambda eqs, share=share, ct=Ciphertext(h, 1), y1=y1:
                      verify_decryption_share(share, ct, (y1,), gp, b"ctx", eqs))
    return checks


@pytest.mark.parametrize("waived", [False, True], ids=["members-tested", "members-waived"])
def test_a_commit_with_an_order_m_part_is_refused_by_its_equation(waived, monkeypatch) -> None:
    """In the prod group z = 2^(2q) has order m, so |t * z| is a signed form
    outside the order-q subgroup. A share proof whose commit is that value,
    its challenge re-derived over it, fails its equation: Immediate refuses
    it, a Collect batch fails and batched names it. With every membership
    test waived the same holds, so the equation alone refuses it, which is
    why a commit needs no order test of its own (chaum_pedersen)."""
    gp, rng = PROD_GROUP, random.Random(19)
    z = pow(2, 2 * gp.q, gp.p)
    checks = _order_m_commit_checks(gp, rng, z)
    if waived:
        monkeypatch.setattr(GroupParams, "is_element", lambda gp, x: True)
        monkeypatch.setattr(Collect, "member", lambda self, x: True)
    named = [i != BAD for i in range(4)]

    def run(eqs):
        return [check(eqs) for check in checks]

    assert run(Immediate(gp)) == named
    batch = Collect(gp, b"seed")
    assert run(batch) == [True] * 4 and not batch.holds()
    assert batched(gp, lambda: b"seed", run) == named


# (line kind, path to a published element, the check that must refuse it): a
# column's a, a contest-sum commit, a decryption share and a share-proof commit.
ELEMENTS = (
    ("entry", ("ballot", "contests", 0, "options", 0, "a"), "ballot_proofs"),
    ("entry", ("proof", "contests", 0, "sum", "commit1"), "ballot_proofs"),
    ("decryption", ("columns", 0, "shares", 0, "share_value"), "decryptions"),
    ("decryption", ("columns", 0, "shares", 0, "proof", "commit2"), "decryptions"),
)


def _finished_in(name):
    """A finished election in the MID_GROUP (the demo) or the prod group (its
    first voter, who casts, and its third, who spoils and votes again)."""
    if name == "mid":
        return mid_demo_run()[0]
    demo = make_demo_scenario()
    result = run_scenario(dataclasses.replace(demo, group=name,
                                              voters=(demo.voters[0], demo.voters[2])))
    finish(result)
    return result


@pytest.mark.parametrize("name", ["mid", "prod"])
def test_each_kind_of_published_element_outside_the_subgroup_is_refused_by_entry(name) -> None:
    """p - x is the other representative of x's class, not its signed form, so
    no element; a board with one such element, re-chained and re-signed,
    fails the check that reads it, at its line and entry alone. Each value is
    also in its proof's Fiat-Shamir transcript, so this guards where a
    refusal is named; the re-proved cases below guard the membership tests."""
    result = _finished_in(name)
    manifest = result["manifest"]
    p = manifest.gp.p
    assert p % 4 == 3
    for kind, path, check in ELEMENTS:
        lines = board_lines(result["board"])
        lineno, line = next((n, line) for n, line in enumerate(lines) if line["kind"] == kind)
        entry = int(line["index"] if kind == "entry" else line["ref"])
        *parents, key = path
        obj = line
        for step in parents:
            obj = obj[step]
        x = int(obj[key], 16)
        assert not manifest.gp.is_element(p - x)
        obj[key] = format(p - x, "x")
        report = verify_board(rechain(lines, manifest.election_id, result["office"],
                                      manifest.gp), manifest)
        failing = [(item.line, item.entry) for item in report.failures() if item.check == check]
        assert failing == [(lineno, entry)], (kind, path)


def _eq_dlog_with_commit(witness, y1, g2, y2, gp, context, domain, which, twist=None):
    """An eq-dlog proof whose commit `which` (1 or 2) is published, and hashed,
    as twist(t); by default p - t, the other representative of t's class, so
    that every equation still holds up to sign."""
    w = random.Random(which).randrange(1, gp.q)
    commits = [gp.signed(pow(gp.g, w, gp.p)), gp.signed(pow(g2, w, gp.p))]
    commits[which - 1] = (twist or (lambda t: gp.p - t))(commits[which - 1])
    e = fiat_shamir_challenge(domain, context, (gp.g, y1, g2, y2, *commits), gp)
    return chaum_pedersen.ChaumPedersenProof(*commits, e, (w + e * witness) % gp.q)


def _sum_commit(result, seen, lines):
    """A cast entry's first contest-sum proof, made again with commit1 = p - t1.
    Returns (the check, the line number, the entry)."""
    manifest = result["manifest"]
    gp, K, election_id = manifest.gp, manifest.jpk.K, manifest.election_id
    lineno, line = next((n, line) for n, line in enumerate(lines)
                        if line["kind"] == "entry" and line["status"] == "CAST")
    eb = ballot.EncryptedBallot.from_json(line["ballot"])
    style = manifest.style_map[eb.style_id]
    contest, enc = style.contests[0], eb.contests[0]
    cts = ballot.join_columns(contest, enc.option_cts, enc.padding_cts, enc.writein_ct)
    witness = sum(seen[ct][1] for ct in (*enc.option_cts, *enc.padding_cts)) % gp.q
    a, b = ballot.contest_sum_statement(contest, cts, gp)
    context = ballot.column_context(election_id, style.style_id, contest.contest_id,
                                    ballot.SUM_COLUMN)
    proof = _eq_dlog_with_commit(witness, a, K, b, gp, context, DOMAIN_CONTEST_SUM, 1)
    line["proof"]["contests"][0]["sum"] = proof.to_json()
    return "ballot_proofs", lineno, int(line["index"])


def _share(result, lines, which, twist=None):
    """The first decryption line's first share, made again over p - x: its
    share value (which = 0) or its proof's commit2 (which = 2), which twist
    gives instead when named."""
    manifest = result["manifest"]
    gp = manifest.gp
    lineno, line = next((n, line) for n, line in enumerate(lines) if line["kind"] == "decryption")
    k = int(line["ref"])
    entry = next(line for line in lines if line["kind"] == "entry" and line["index"] == str(k))
    eb = ballot.EncryptedBallot.from_json(entry["ballot"])
    column = line["columns"][0]
    row = next(row for row in spoiled_statements(manifest.election_id, k, eb,
                                                 manifest.style_map[eb.style_id])
               if (row.contest, row.column) == (column["contest"], column["column"]))
    share = DecryptionShare.from_json(column["shares"][0])
    x = next(t.secret_share for t in result["trustee_shares"] if t.trustee_id == share.trustee_id)
    vk = verification_key(share.trustee_id, manifest.jpk.commitments, gp)
    value, rng = share.share_value, random.Random(3)
    if which == 0:
        value = gp.p - value
        proof = prove_eq_dlog(x, vk, row.ciphertext.a, value, gp, rng, row.context,
                              DOMAIN_DECRYPT_SHARE)
    else:
        proof = _eq_dlog_with_commit(x, vk, row.ciphertext.a, value, gp, row.context,
                                     DOMAIN_DECRYPT_SHARE, which, twist)
    column["shares"][0] = DecryptionShare(share.trustee_id, value, proof).to_json()
    return "decryptions", lineno, k


REPROVED = {
    "sum-commit": _sum_commit,
    "share-value": lambda result, seen, lines: _share(result, lines, 0),
    "share-commit": lambda result, seen, lines: _share(result, lines, 2),
}


@pytest.fixture(scope="module", params=["mid", "prod"])
def recorded_run(request):
    """The demo's first and third voters in the group, tallied, with the
    (bit, r) of every column encryption of the run, keyed by ciphertext."""
    seen = {}

    def recording(m, r, K, gp):
        ct = encrypt_exp(m, r, K, gp)
        seen[ct] = (m, r)
        return ct

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ballot, "encrypt_exp", recording)
        monkeypatch.setitem(group.GROUPS, "mid", MID_GROUP)
        demo = make_demo_scenario()
        result = run_scenario(dataclasses.replace(demo, group=request.param,
                                                  voters=(demo.voters[0], demo.voters[2])))
    finish(result)
    return result, seen


def test_a_negated_column_whose_proofs_hold_over_it_is_refused_by_membership(
        recorded_run) -> None:
    """One cast column's a becomes p - a, the other representative of its
    class. Its zero-or-one proof is made again over p - a with the column's
    own r; the contest sum, signed, is the same value, so its proof stands.
    Every equation (compared up to sign) and transcript holds, and only the
    range check of the column's a refuses the entry."""
    result, seen = recorded_run
    manifest = result["manifest"]
    gp, K, election_id = manifest.gp, manifest.jpk.K, manifest.election_id
    lines = board_lines(result["board"])
    lineno, line = next((n, line) for n, line in enumerate(lines)
                        if line["kind"] == "entry" and line["status"] == "CAST")
    eb = ballot.EncryptedBallot.from_json(line["ballot"])
    proof = ballot.WellFormednessProof.from_json(line["proof"])
    style = manifest.style_map[eb.style_id]
    contest, enc, cpr = style.contests[0], eb.contests[0], proof.contests[0]
    bit, r = seen[enc.option_cts[0]]
    negated = Ciphertext(gp.p - enc.option_cts[0].a, enc.option_cts[0].b)
    assert not gp.is_element(negated.a)
    context = ballot.column_context(election_id, style.style_id, contest.contest_id,
                                    contest.options[0])
    column_proof = prove_zero_or_one(bit, r, negated, K, gp, random.Random(23), context)
    cts = ballot.join_columns(contest, enc.option_cts, enc.padding_cts, enc.writein_ct)
    statement = ballot.contest_sum_statement(contest, cts, gp)
    enc = replace(enc, option_cts=(negated, *enc.option_cts[1:]))
    cts = ballot.join_columns(contest, enc.option_cts, enc.padding_cts, enc.writein_ct)
    assert ballot.contest_sum_statement(contest, cts, gp) == statement
    cpr = replace(cpr, option_proofs=(column_proof, *cpr.option_proofs[1:]))
    eb = replace(eb, contests=(enc, *eb.contests[1:]))
    proof = replace(proof, contests=(cpr, *proof.contests[1:]))
    everyone = Immediate(gp)
    everyone.member = lambda x: True  # only membership stands in the way
    assert verify_ballot(eb, proof, style, K, gp, election_id, everyone)

    line["ballot"], line["proof"] = eb.to_json(), proof.to_json()
    report = verify_board(rechain(lines, election_id, result["office"], gp), manifest)
    failing = [(item.line, item.entry) for item in report.failures()
               if item.check == "ballot_proofs"]
    assert failing == [(lineno, int(line["index"]))]


@pytest.mark.parametrize("kind", REPROVED)
def test_a_non_canonical_element_whose_proof_holds_over_it_is_refused_by_its_range(
        recorded_run, kind, monkeypatch) -> None:
    """A contest-sum commit, a decryption share or a share-proof commit is
    published as p - x, the other representative of its class, and its proof
    is made again over that value, so that every transcript and every
    equation (compared up to sign) holds; the board is re-chained and
    re-signed. Only the membership test of that one element (a commit's:
    its range check) refuses it, at its line and entry; with both waived,
    the check passes."""
    result, seen = recorded_run
    manifest = result["manifest"]
    lines = board_lines(result["board"])
    check, lineno, entry = REPROVED[kind](result, seen, lines)
    raw = rechain(lines, manifest.election_id, result["office"], manifest.gp)
    failing = [(item.line, item.entry) for item in verify_board(raw, manifest).failures()
               if item.check == check]
    assert failing == [(lineno, entry)]

    monkeypatch.setattr(GroupParams, "is_element", lambda gp, x: True)
    monkeypatch.setattr(GroupParams, "is_signed", lambda gp, x: True)  # a sink's in_range
    monkeypatch.setattr(Collect, "member", lambda self, x: True)
    assert check not in {item.check for item in verify_board(raw, manifest).failures()}


@pytest.mark.parametrize("recorded_run", ["prod"], indirect=True)
def test_a_share_commit_with_an_order_m_part_fails_decryptions_at_its_line(
        recorded_run, batch_verdicts) -> None:
    """A decryption line's first share proof, made again with commit2 =
    |t2 * z| for z of order m and re-chained and re-signed, fails verify's
    decryptions check at that line and entry: the one batch fails, then that
    check's own batch, and its per-proof re-run names it by its equation."""
    result, _ = recorded_run
    manifest = result["manifest"]
    gp = manifest.gp
    z = pow(2, 2 * gp.q, gp.p)
    lines = board_lines(result["board"])
    check, lineno, entry = _share(result, lines, 2, lambda t: gp.signed(t * z % gp.p))
    raw = rechain(lines, manifest.election_id, result["office"], gp)
    del batch_verdicts[:]
    failing = [(item.line, item.entry) for item in verify_board(raw, manifest).failures()
               if item.check == check]
    assert failing == [(lineno, entry)]
    assert batch_verdicts == [False, True, False, True]  # verify's batch, then each check's


def _bump_response(line: dict, key: str, nth: int = 0) -> None:
    """Add 1 (mod q) to the nth value under `key` inside a line, in key order:
    a proof response that still passes every check but its equation."""
    found = []

    def walk(obj):
        for k, value in sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj):
            if isinstance(value, (dict, list)):
                walk(value)
            elif k == key:
                found.append(obj)

    walk(line)
    found[nth][key] = format((int(found[nth][key], 16) + 1) % MID_GROUP.q, "x")


@pytest.fixture
def batch_verdicts(monkeypatch):
    """The verdict of every Collect batch tested while the fixture is active."""
    verdicts = []
    holds = Collect.holds
    monkeypatch.setattr(Collect, "holds", lambda self: verdicts.append(holds(self)) or verdicts[-1])
    return verdicts


def _per_proof_report(raw, manifest, monkeypatch) -> dict:
    with monkeypatch.context() as m:
        m.setattr(verifier, "batched", lambda gp, seed, run, retry=None: run(Immediate(gp)))
        return verify_board(raw, manifest).to_json()


def test_a_tampered_response_among_102_proofs_is_named(batch_verdicts) -> None:
    board, manifest, office = entry_board(MID_GROUP, 34, 2)  # 3 zero-or-one proofs per entry
    lines = board_lines(board)
    target = [i for i, line in enumerate(lines) if line["kind"] == "entry"][27]
    _bump_response(lines[target], "response0", nth=1)
    raw = rechain(lines, manifest.election_id, office, manifest.gp)
    report = verify_board(raw, manifest)
    failing = [(item.line, item.entry) for item in report.failures()
               if item.check == "ballot_proofs"]
    assert failing == [(target, 27)]
    assert False in batch_verdicts  # the proof passed its own checks; the batch refused it


# (line kind, key, nth, the check that must fail): an entry's contest-sum
# proof, a decryption share and a tally share.
TARGETS = (("entry", "response", 0, "ballot_proofs"), ("decryption", "response", 0, "decryptions"),
           ("tally", "response", 1, "tally"))


def _targeted(result) -> list:
    """The mid demo board with one response bumped, for each of TARGETS."""
    manifest, office = result["manifest"], result["office"]
    out = []
    for kind, key, nth, _ in TARGETS:
        lines = board_lines(result["board"])
        _bump_response(next(line for line in lines if line["kind"] == kind), key, nth)
        out.append(rechain(lines, manifest.election_id, office, manifest.gp))
    return out


PROOF_CHECKS = ("ballot_proofs", "decryptions", "tally")  # verify's batched checks, in order


def test_batch_and_per_proof_reports_agree(batch_verdicts, monkeypatch) -> None:
    result, _ = mid_demo_run()
    manifest = result["manifest"]
    for kind, rechained, raw in corpus(mid_demo_run, edits=3):
        if rechained:
            report = verify_board(raw, manifest).to_json()
            assert report == _per_proof_report(raw, manifest, monkeypatch), kind
    for raw, (_, _, _, check) in zip(_targeted(result), TARGETS):
        del batch_verdicts[:]
        report = verify_board(raw, manifest)
        assert check in {item.check for item in report.failures()}
        # verify's one batch fails; then each check is batched on its own, and
        # only the failing one runs per proof
        assert batch_verdicts == [False] + [c != check for c in PROOF_CHECKS]
        assert report.to_json() == _per_proof_report(raw, manifest, monkeypatch)


@pytest.mark.parametrize("name", ["mid", "prod"])
def test_an_honest_board_is_verified_in_one_batch(name, batch_verdicts) -> None:
    """ballot_proofs, decryptions and tally state their equations to one
    batch, which holds."""
    result = mid_demo_run()[0] if name == "mid" else _finished_in("prod")
    del batch_verdicts[:]  # simulate's and tally's
    assert verify_board(board_raw_lines(result["board"]), result["manifest"]).overall
    assert batch_verdicts == [True]


def test_a_batch_builds_no_comb_table() -> None:
    """verify's one batch raises g and the joint key inside its
    multi-exponentiations: an honest board costs no fixed-base entry, chain or
    comb table."""
    result, _ = mid_demo_run()
    group._fixed.cache_clear()
    assert verify_board(board_raw_lines(result["board"]), result["manifest"]).overall
    assert group._fixed.cache_info().currsize == 0


def test_a_tally_column_ciphertext_is_never_promoted_to_a_comb(monkeypatch) -> None:
    """With k = 2, decrypt_all raises each column's c.a 2k = 4 times, all by
    its squaring chain; g, raised for every share proof, is promoted."""
    promoted = []
    promote = group.FixedBase.promote
    monkeypatch.setattr(group.FixedBase, "promote",
                        lambda self: promoted.append(self.chain[0]) or promote(self))
    result = run_mid_demo()
    assert result["manifest"].jpk.k == 2
    group._fixed.cache_clear()
    del promoted[:]
    finish(result, seed=99)
    lines = map(json.loads, board_raw_lines(result["board"]))
    decrypted = {int(col["ciphertext"]["a"], 16) for line in lines
                 if line["kind"] in ("decryption", "tally") for col in line["columns"]}
    assert len(decrypted) > COMB_TABLES and MID_GROUP.g in promoted
    assert decrypted.isdisjoint(promoted)


def test_the_writer_and_the_tally_each_check_in_one_batch(batch_verdicts) -> None:
    """run_scenario states every ballot's proofs to one batch, and
    finish_election the share proofs of every decrypted column, the spoiled
    ballots' and the tally's, to one more."""
    del batch_verdicts[:]
    result = run_mid_demo()
    assert batch_verdicts == [True]
    finish(result, seed=99)
    assert batch_verdicts == [True, True]
    assert board_raw_lines(result["board"]) == board_raw_lines(mid_demo_run()[0]["board"])


def test_a_forged_trustee_share_fails_the_tally_batch_and_is_named(batch_verdicts) -> None:
    """Trustee 2's secret share raised by 1: its decryption shares carry
    proofs that pass every check but their equations, so the one batch fails
    and the per-proof re-run names trustee 2, as a batch per decryption did."""
    result = run_mid_demo()
    shares = [replace(share, secret_share=(share.secret_share + 1) % MID_GROUP.q)
              if share.trustee_id == 2 else share for share in result["trustee_shares"]]
    del batch_verdicts[:]
    with pytest.raises(BadShareProof) as refused:
        finish({**result, "trustee_shares": shares}, seed=99)
    assert refused.value.trustee_id == 2
    assert batch_verdicts == [False]


def test_a_verification_key_is_computed_once(monkeypatch) -> None:
    """k small powers for a trustee's first verification key, none after."""
    jpk, shares = dkg(3, 2, MID_GROUP, random.Random(96))
    powers = []
    monkeypatch.setattr(trustees, "pow", lambda *args: powers.append(args) or pow(*args),
                        raising=False)
    keys = [verification_key(share.trustee_id, list(jpk.commitments), MID_GROUP)
            for _ in range(3) for share in shares]
    assert len(powers) == len(shares) * jpk.k
    assert keys == 3 * [MID_GROUP.signed(pow(MID_GROUP.g, share.secret_share, MID_GROUP.p))
                        for share in shares]


def test_two_runs_write_byte_identical_reports(tmp_path, capsys) -> None:
    result, _ = mid_demo_run()
    board, commands = demo_commands(tmp_path, run=mid_demo_run)
    board.write_text("\n".join(_targeted(result)[0]) + "\n", encoding="utf-8")
    reports = []
    for n in range(2):
        assert main([*commands["verify"], "--report", str(tmp_path / f"{n}.json")]) == 2
        reports.append((tmp_path / f"{n}.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert not json.loads(reports[0])["overall"]


def test_the_test_group_never_collects(monkeypatch) -> None:
    def refuse(gp, seed):
        raise AssertionError("a Collect sink in the test group")

    monkeypatch.setattr(chaum_pedersen, "Collect", refuse)
    result = run_scenario(make_demo_scenario())
    finish(result)
    assert verify_board(board_raw_lines(result["board"]), result["manifest"]).overall
    assert verify_board(board_raw_lines(demo_run()[0]["board"]), demo_run()[0]["manifest"]).overall
