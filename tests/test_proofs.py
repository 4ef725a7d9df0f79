"""Signature and zero-knowledge proof layers.

Each proof kind gets three treatments: honest instances verify, every field
of a dishonest variant is rejected, and the statement binding (context
strings, public keys, ciphertexts) is enforced.
"""

import dataclasses
import random

import pytest

from helpers import MID_GROUP, MODP_GROUP
from starlock.chaum_pedersen import (
    ChaumPedersenProof,
    Immediate,
    ZeroOneProof,
    _eq_dlog_transcript,
    _zero_one_transcript,
    prove_eq_dlog,
    prove_zero_or_one,
    verify_eq_dlog,
    verify_zero_or_one,
)
from starlock.elgamal import add_many, encrypt_exp, keygen
from starlock.fiatshamir import (
    DOMAIN_CONTEST_SUM,
    DOMAIN_DECRYPT_SHARE,
    DOMAIN_ZERO_ONE,
    fiat_shamir_challenge,
)
from starlock.group import PROD_GROUP, TEST_GROUP
from starlock.schnorr import SchnorrSignature, sign, verify_sig

GP = TEST_GROUP
K = 18  # public key for secret 3 in the test group


def test_schnorr_sign_verify_round_trip() -> None:
    kp = keygen(GP, random.Random(21))
    for message in (b"", b"hello", bytes(range(64))):
        sig = sign(message, kp, GP)
        assert len(sig.commit_hash) == 32
        assert verify_sig(message, sig, kp.pk, GP)


def test_schnorr_signature_is_deterministic() -> None:
    kp = keygen(GP, random.Random(22))
    assert sign(b"msg", kp, GP) == sign(b"msg", kp, GP)
    assert sign(b"msg", kp, GP) != sign(b"msh", kp, GP)


def test_schnorr_rejects_tampering() -> None:
    kp = keygen(GP, random.Random(23))
    other = keygen(GP, random.Random(24))
    sig = sign(b"payload", kp, GP)
    assert not verify_sig(b"payloae", sig, kp.pk, GP)
    assert not verify_sig(b"payload", sig, other.pk, GP)
    bad_resp = SchnorrSignature(sig.commit_hash, (sig.response + 1) % GP.q)
    assert not verify_sig(b"payload", bad_resp, kp.pk, GP)
    flipped = bytes([sig.commit_hash[0] ^ 1]) + sig.commit_hash[1:]
    assert not verify_sig(b"payload", SchnorrSignature(flipped, sig.response), kp.pk, GP)
    short = SchnorrSignature(sig.commit_hash[:31], sig.response)
    assert not verify_sig(b"payload", short, kp.pk, GP)


def test_schnorr_signature_json_round_trip() -> None:
    kp = keygen(GP, random.Random(25))
    sig = sign(b"line", kp, GP)
    assert SchnorrSignature.from_json(sig.to_json()) == sig


def test_eq_dlog_completeness() -> None:
    rng = random.Random(31)
    for trial in range(50):
        w = rng.randrange(1, GP.q)
        g2 = pow(GP.g, rng.randrange(1, GP.q), GP.p)
        y1 = pow(GP.g, w, GP.p)
        y2 = pow(g2, w, GP.p)
        proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, f"ctx-{trial}".encode(), DOMAIN_CONTEST_SUM)
        assert verify_eq_dlog(proof, y1, g2, y2, GP, f"ctx-{trial}".encode(), DOMAIN_CONTEST_SUM)


def test_eq_dlog_rejects_every_tampered_field() -> None:
    rng = random.Random(32)
    w = 5
    g2 = pow(GP.g, 3, GP.p)
    y1 = pow(GP.g, w, GP.p)
    y2 = pow(g2, w, GP.p)
    proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
    variants = [
        dataclasses.replace(proof, commit1=proof.commit1 * GP.g % GP.p),
        dataclasses.replace(proof, commit2=proof.commit2 * GP.g % GP.p),
        dataclasses.replace(proof, challenge=(proof.challenge + 1) % GP.q),
        dataclasses.replace(proof, response=(proof.response + 1) % GP.q),
    ]
    for bad in variants:
        assert not verify_eq_dlog(bad, y1, g2, y2, GP, b"ctx", DOMAIN_CONTEST_SUM)


def test_eq_dlog_rejects_false_statement() -> None:
    rng = random.Random(33)
    g2 = pow(GP.g, 3, GP.p)
    y1 = pow(GP.g, 5, GP.p)
    y2 = pow(g2, 6, GP.p)  # unequal exponents
    proof = prove_eq_dlog(5, y1, g2, y2, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
    assert not verify_eq_dlog(proof, y1, g2, y2, GP, b"ctx", DOMAIN_CONTEST_SUM)


def test_eq_dlog_binds_context_and_domain() -> None:
    rng = random.Random(34)
    w = 7
    g2 = pow(GP.g, 9, GP.p)
    y1 = pow(GP.g, w, GP.p)
    y2 = pow(g2, w, GP.p)
    proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, b"ctx-a", DOMAIN_CONTEST_SUM)
    assert not verify_eq_dlog(proof, y1, g2, y2, GP, b"ctx-b", DOMAIN_CONTEST_SUM)
    assert not verify_eq_dlog(proof, y1, g2, y2, GP, b"ctx-a", DOMAIN_DECRYPT_SHARE)


def test_eq_dlog_rejects_non_subgroup_inputs() -> None:
    rng = random.Random(35)
    w = 4
    y1 = pow(GP.g, w, GP.p)
    proof = prove_eq_dlog(w, y1, GP.g, y1, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
    # 5 is not in the order-11 subgroup of Z_23*
    assert not verify_eq_dlog(proof, y1, GP.g, 5, GP, b"ctx", DOMAIN_CONTEST_SUM)


def test_zero_or_one_completeness_both_branches() -> None:
    rng = random.Random(41)
    for trial in range(60):
        bit = rng.randrange(2)
        r = rng.randrange(1, GP.q)
        ct = encrypt_exp(bit, r, K, GP)
        proof = prove_zero_or_one(bit, r, ct, K, GP, rng, f"cell-{trial}".encode())
        assert verify_zero_or_one(proof, ct, K, GP, f"cell-{trial}".encode())


def test_zero_or_one_rejects_other_messages() -> None:
    rng = random.Random(42)
    with pytest.raises(ValueError):
        prove_zero_or_one(2, 3, encrypt_exp(2, 3, K, GP), K, GP, rng, b"cell")
    # a proof transplanted onto a ciphertext of 2 must not verify
    r = 5
    ct0 = encrypt_exp(0, r, K, GP)
    proof = prove_zero_or_one(0, r, ct0, K, GP, rng, b"cell")
    ct2 = encrypt_exp(2, r, K, GP)
    assert not verify_zero_or_one(proof, ct2, K, GP, b"cell")


def test_zero_or_one_rejects_every_tampered_field() -> None:
    rng = random.Random(43)
    for bit in (0, 1):
        r = 7
        ct = encrypt_exp(bit, r, K, GP)
        proof = prove_zero_or_one(bit, r, ct, K, GP, rng, b"cell")
        element_fields = ("commit0_g", "commit0_k", "commit1_g", "commit1_k")
        exponent_fields = ("challenge0", "challenge1", "response0", "response1")
        for field in element_fields:
            bad = dataclasses.replace(proof, **{field: getattr(proof, field) * GP.g % GP.p})
            assert not verify_zero_or_one(bad, ct, K, GP, b"cell"), field
        for field in exponent_fields:
            bad = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % GP.q})
            assert not verify_zero_or_one(bad, ct, K, GP, b"cell"), field


def test_zero_or_one_challenge_split_is_enforced() -> None:
    # shifting both challenges while preserving their sum still breaks the
    # per-branch verification equations
    rng = random.Random(44)
    ct = encrypt_exp(1, 9, K, GP)
    proof = prove_zero_or_one(1, 9, ct, K, GP, rng, b"cell")
    shifted = dataclasses.replace(
        proof,
        challenge0=(proof.challenge0 + 1) % GP.q,
        challenge1=(proof.challenge1 - 1) % GP.q,
    )
    assert not verify_zero_or_one(shifted, ct, K, GP, b"cell")


def test_zero_or_one_binds_ciphertext_key_and_context() -> None:
    rng = random.Random(45)
    r = 4
    ct = encrypt_exp(1, r, K, GP)
    proof = prove_zero_or_one(1, r, ct, K, GP, rng, b"cell")
    other_ct = encrypt_exp(1, (r + 1) % GP.q, K, GP)
    assert not verify_zero_or_one(proof, other_ct, K, GP, b"cell")
    other_key = pow(GP.g, 5, GP.p)
    assert not verify_zero_or_one(proof, ct, other_key, GP, b"cell")
    assert not verify_zero_or_one(proof, ct, K, GP, b"other-cell")


def test_proof_json_round_trips() -> None:
    rng = random.Random(46)
    w = 6
    y1 = pow(GP.g, w, GP.p)
    cp = prove_eq_dlog(w, y1, GP.g, y1, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
    assert ChaumPedersenProof.from_json(cp.to_json()) == cp
    ct = encrypt_exp(0, 2, K, GP)
    zo = prove_zero_or_one(0, 2, ct, K, GP, rng, b"cell")
    assert ZeroOneProof.from_json(zo.to_json()) == zo


def _ciphertext_formula_zero_or_one(bit, r, ct, public_key, gp, rng, context):
    """The zero-or-one prover with its simulated branch raised from the
    ciphertext (a^-c and (b / g^sim)^-c by pow): the reference that the
    witness-built branch must equal. Branch challenges lie in [0, M)."""
    p, q, g, space = gp.p, gp.q, gp.g, gp.challenge_space
    fixed = gp.comb
    sim = 1 - bit
    c_sim = rng.randrange(0, space)
    v_sim = rng.randrange(0, q)
    target_b_sim = ct.b * pow(pow(g, sim, p), -1, p) % p
    a_sim_commit = fixed(g, v_sim, p) * pow(pow(ct.a, c_sim, p), -1, p) % p
    b_sim_commit = fixed(public_key, v_sim, p) * pow(pow(target_b_sim, c_sim, p), -1, p) % p

    w = rng.randrange(0, q)
    a_real_commit = fixed(g, w, p)
    b_real_commit = fixed(public_key, w, p)

    if bit == 0:
        a0c, b0c, a1c, b1c = a_real_commit, b_real_commit, a_sim_commit, b_sim_commit
    else:
        a0c, b0c, a1c, b1c = a_sim_commit, b_sim_commit, a_real_commit, b_real_commit

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE, _zero_one_transcript(context, public_key, ct, a0c, b0c, a1c, b1c), gp
    )
    c_real = (e - c_sim) % space
    v_real = (w + c_real * r) % q

    if bit == 0:
        c0, c1, v0, v1 = c_real, c_sim, v_real, v_sim
    else:
        c0, c1, v0, v1 = c_sim, c_real, v_sim, v_real
    return ZeroOneProof(
        commit0_g=a0c, commit0_k=b0c, commit1_g=a1c, commit1_k=b1c,
        challenge0=c0, challenge1=c1, response0=v0, response1=v1,
    )


def _plain_pow_eq_dlog(witness, y1, g2, y2, gp, rng, context, domain):
    """The eq-dlog prover with g2 raised by pow: the reference for the comb of g2."""
    fixed = gp.comb
    w = rng.randrange(0, gp.q)
    t1 = fixed(gp.g, w, gp.p)
    t2 = pow(g2, w, gp.p)
    e = fiat_shamir_challenge(domain, _eq_dlog_transcript(context, gp.g, y1, g2, y2, t1, t2), gp)
    s = (w + e * witness) % gp.q
    return ChaumPedersenProof(commit1=t1, commit2=t2, challenge=e, response=s)


GROUPS_BY_SIZE = pytest.mark.parametrize(
    "gp", [TEST_GROUP, MID_GROUP, PROD_GROUP], ids=["test", "mid", "prod"])


@GROUPS_BY_SIZE
@pytest.mark.parametrize("bit", [0, 1])
def test_zero_or_one_from_the_witness_is_the_same_proof(gp, bit) -> None:
    rng = random.Random(gp.p.bit_length() + bit)
    key = keygen(gp, rng).pk
    for trial in range(2 if gp is PROD_GROUP else 20):
        r = rng.randrange(1, gp.q)
        ct = encrypt_exp(bit, r, key, gp)
        ctx = f"cell-{trial}".encode()
        seed = rng.getrandbits(64)
        proof = prove_zero_or_one(bit, r, ct, key, gp, random.Random(seed), ctx)
        assert proof == _ciphertext_formula_zero_or_one(bit, r, ct, key, gp,
                                                         random.Random(seed), ctx)
        assert verify_zero_or_one(proof, ct, key, gp, ctx)


@GROUPS_BY_SIZE
def test_contest_sum_with_the_key_fixed_is_the_same_proof(gp) -> None:
    rng = random.Random(gp.p.bit_length())
    key = keygen(gp, rng).pk
    for trial in range(2 if gp is PROD_GROUP else 20):
        bits = [rng.randrange(2) for _ in range(3)]
        rs = [rng.randrange(1, gp.q) for _ in bits]
        total = add_many([encrypt_exp(b, r, key, gp) for b, r in zip(bits, rs)], gp)
        target_b = total.b * pow(pow(gp.g, sum(bits), gp.p), -1, gp.p) % gp.p
        args = (sum(rs) % gp.q, total.a, key, target_b, gp)
        ctx, seed = f"sum-{trial}".encode(), rng.getrandbits(64)
        proof = prove_eq_dlog(*args, random.Random(seed), ctx, DOMAIN_CONTEST_SUM)
        assert proof == _plain_pow_eq_dlog(*args, random.Random(seed), ctx, DOMAIN_CONTEST_SUM)
        statement = (total.a, key, target_b, gp, ctx, DOMAIN_CONTEST_SUM)
        assert verify_eq_dlog(proof, *statement, fixed=True)
        assert verify_eq_dlog(proof, *statement)


def _old_rule_zero_or_one(bit, r, ct, public_key, gp, rng, context, draw=None):
    """prove_zero_or_one as it was before branch challenges were short, word
    for word: c_sim from [0, q), c_real = (e - c_sim) mod q. draw, when
    given, replaces q as c_sim's bound only."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    p, q, g = gp.p, gp.q, gp.g
    fixed = gp.comb

    sim = 1 - bit
    c_sim = rng.randrange(0, draw or q)
    v_sim = rng.randrange(0, q)
    u = (v_sim - r * c_sim) % q
    a_sim_commit = fixed(g, u, p)
    b_sim_commit = fixed(public_key, u, p) * fixed(g, (sim - bit) * c_sim % q, p) % p

    w = rng.randrange(0, q)
    a_real_commit = fixed(g, w, p)
    b_real_commit = fixed(public_key, w, p)

    if bit == 0:
        a0c, b0c, a1c, b1c = a_real_commit, b_real_commit, a_sim_commit, b_sim_commit
    else:
        a0c, b0c, a1c, b1c = a_sim_commit, b_sim_commit, a_real_commit, b_real_commit

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE, _zero_one_transcript(context, public_key, ct, a0c, b0c, a1c, b1c), gp
    )
    c_real = (e - c_sim) % q
    v_real = (w + c_real * r) % q

    if bit == 0:
        c0, c1, v0, v1 = c_real, c_sim, v_real, v_sim
    else:
        c0, c1, v0, v1 = c_sim, c_real, v_sim, v_real
    return ZeroOneProof(
        commit0_g=a0c, commit0_k=b0c, commit1_g=a1c, commit1_k=b1c,
        challenge0=c0, challenge1=c1, response0=v0, response1=v1,
    )


class _AcceptEveryEquation(Immediate):
    """A sink that holds every equation: a proof refused with it was refused
    by its membership, range, Fiat-Shamir or challenge-sum checks."""

    def check(self, *args, **kwargs) -> bool:
        return True


def _equations_hold(proof, ct, key, gp) -> bool:
    """The zero-or-one proof's four equations, each tested at once."""
    eqs = Immediate(gp)
    return all(eqs.check(gp.g, v, commit_g, ct.a, c) and eqs.check(key, v, commit_k, ct.b, c, m)
               for m, commit_g, commit_k, c, v in (
                   (0, proof.commit0_g, proof.commit0_k, proof.challenge0, proof.response0),
                   (1, proof.commit1_g, proof.commit1_k, proof.challenge1, proof.response1)))


def _modp_statement(seed):
    rng = random.Random(seed)
    key = keygen(MODP_GROUP, rng).pk
    r = rng.randrange(1, MODP_GROUP.q)
    return rng, key, r, encrypt_exp(1, r, key, MODP_GROUP)


@pytest.mark.parametrize("gp, space", [
    (TEST_GROUP, TEST_GROUP.q), (MID_GROUP, MID_GROUP.q), (PROD_GROUP, PROD_GROUP.q),
    (MODP_GROUP, 2**256)], ids=["test", "mid", "prod", "modp"])
def test_the_challenge_space_is_q_below_2_256_and_2_256_above(gp, space) -> None:
    assert gp.challenge_space == space


def test_a_branch_challenge_of_2_256_or_more_is_refused_in_the_modp_group() -> None:
    rng, key, r, ct = _modp_statement(51)
    proof = prove_zero_or_one(1, r, ct, key, MODP_GROUP, rng, b"cell")
    assert max(proof.challenge0, proof.challenge1) < 2**256
    accept = _AcceptEveryEquation(MODP_GROUP)
    for field in ("challenge0", "challenge1"):
        # The sum mod 2^256 is unchanged; only the range rule refuses it.
        bad = dataclasses.replace(proof, **{field: getattr(proof, field) + 2**256})
        assert not verify_zero_or_one(bad, ct, key, MODP_GROUP, b"cell", accept)
    assert verify_zero_or_one(proof, ct, key, MODP_GROUP, b"cell", accept)


def test_branch_challenges_that_sum_to_e_mod_q_but_not_mod_2_256_are_refused() -> None:
    # Short draws with the sum kept mod q: the real branch's challenge wraps
    # to near q whenever c_sim > e, which would reveal the vote.
    rng, key, r, ct = _modp_statement(52)
    wrapped = 0
    for trial in range(4):
        proof = _old_rule_zero_or_one(1, r, ct, key, MODP_GROUP, rng, f"cell-{trial}".encode(),
                                      draw=2**256)
        e = (proof.challenge0 + proof.challenge1) % MODP_GROUP.q
        assert _equations_hold(proof, ct, key, MODP_GROUP)
        valid = verify_zero_or_one(proof, ct, key, MODP_GROUP, f"cell-{trial}".encode())
        wrapped += (proof.challenge0 + proof.challenge1) % 2**256 != e
        assert valid == ((proof.challenge0 + proof.challenge1) % 2**256 == e)
    assert 0 < wrapped < 4  # some proofs wrapped, and those that did not are valid


def test_a_proof_from_the_old_prover_is_refused_in_the_modp_group() -> None:
    rng, key, r, ct = _modp_statement(53)
    proof = _old_rule_zero_or_one(1, r, ct, key, MODP_GROUP, rng, b"cell")
    assert _equations_hold(proof, ct, key, MODP_GROUP)
    assert not verify_zero_or_one(proof, ct, key, MODP_GROUP, b"cell")


@pytest.mark.parametrize("gp", [TEST_GROUP, MID_GROUP, PROD_GROUP], ids=["test", "mid", "prod"])
def test_the_old_prover_is_the_prover_below_2_256(gp) -> None:
    rng = random.Random(54)
    key = keygen(gp, rng).pk
    for trial in range(10):
        bit, r = trial % 2, rng.randrange(1, gp.q)
        ct, seed = encrypt_exp(bit, r, key, gp), rng.getrandbits(64)
        proof = prove_zero_or_one(bit, r, ct, key, gp, random.Random(seed), b"cell")
        assert proof == _old_rule_zero_or_one(bit, r, ct, key, gp, random.Random(seed), b"cell")
