"""Signature and zero-knowledge proof layers.

Each proof kind gets three treatments: honest instances verify, every field
of a dishonest variant is rejected, and the statement binding (context
strings, public keys, ciphertexts) is enforced.
"""

import random

import pytest

from helpers import MID_GROUP, MODP_GROUP, replace
from starlock.chaum_pedersen import (
    ChaumPedersenProof,
    Immediate,
    ZeroOneProof,
    prove_eq_dlog,
    prove_zero_or_one,
    verify_eq_dlog,
    verify_zero_or_one,
)
from starlock.elgamal import Ciphertext, add_many, encrypt_exp, keygen
from starlock.fiatshamir import (
    DOMAIN_CONTEST_SUM,
    DOMAIN_DECRYPT_SHARE,
    DOMAIN_ZERO_ONE,
    fiat_shamir_challenge,
)
from starlock.group import PROD_GROUP, TEST_GROUP
from starlock.schnorr import SchnorrSignature, sign, verify_sig
from starlock.trustees import DecryptionShare, verify_decryption_share

GP = TEST_GROUP
K = 5  # public key for secret 3 in the test group: |4^3 mod 23| = |18|

# A proof checked against a changed context, domain or statement is refused
# by its Fiat-Shamir challenge, which the changed transcript's meets with
# probability 1/11 in the test group (q = 11), and by its equations. Tests of
# such a change assert the verdict these two give, over several draws, so no
# change of encoding can turn a collision into a failing test.


def _eq_dlog_collides(proof, y1, g2, y2, context, domain) -> bool:
    """Whether the eq-dlog challenge over this statement is the proof's own."""
    elements = (GP.g, y1, g2, y2, proof.commit1, proof.commit2)
    return fiat_shamir_challenge(domain, context, elements, GP) == proof.challenge


def _zero_one_collides(proof, ct, key, context) -> bool:
    """Whether the zero-or-one challenge over this statement is the sum of
    the proof's branch challenges."""
    e = fiat_shamir_challenge(DOMAIN_ZERO_ONE, context, (
        key, ct.a, ct.b, proof.commit0_g, proof.commit0_k, proof.commit1_g, proof.commit1_k), GP)
    return e == (proof.challenge0 + proof.challenge1) % GP.q


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
        g2 = GP.signed(pow(GP.g, rng.randrange(1, GP.q), GP.p))
        y1 = GP.signed(pow(GP.g, w, GP.p))
        y2 = GP.signed(pow(g2, w, GP.p))
        proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, f"ctx-{trial}".encode(), DOMAIN_CONTEST_SUM)
        assert verify_eq_dlog(proof, y1, g2, y2, GP, f"ctx-{trial}".encode(), DOMAIN_CONTEST_SUM)


def test_eq_dlog_rejects_every_tampered_field() -> None:
    rng = random.Random(32)
    w = 5
    g2 = GP.signed(pow(GP.g, 3, GP.p))
    y1 = GP.signed(pow(GP.g, w, GP.p))
    y2 = GP.signed(pow(g2, w, GP.p))
    proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
    commit1 = GP.signed(proof.commit1 * GP.g % GP.p)
    commit2 = GP.signed(proof.commit2 * GP.g % GP.p)
    variants = [
        replace(proof, commit1=commit1),
        replace(proof, commit2=commit2),
        replace(proof, challenge=(proof.challenge + 1) % GP.q),
        replace(proof, response=(proof.response + 1) % GP.q),
    ]
    for bad in variants:
        assert not verify_eq_dlog(bad, y1, g2, y2, GP, b"ctx", DOMAIN_CONTEST_SUM)
    # a commit times g misses its equation by that factor, whatever the
    # challenge: the refusal does not rest on the transcript's hash
    eqs, e, s = Immediate(GP), proof.challenge, proof.response
    assert not eqs.check(GP.g, s, commit1, y1, e) and not eqs.check(g2, s, commit2, y2, e)


def test_eq_dlog_rejects_false_statement() -> None:
    rng = random.Random(33)
    g2 = GP.signed(pow(GP.g, 3, GP.p))
    y1 = GP.signed(pow(GP.g, 5, GP.p))
    y2 = GP.signed(pow(g2, 6, GP.p))  # unequal exponents
    verdicts = []
    for _ in range(20):
        proof = prove_eq_dlog(5, y1, g2, y2, GP, rng, b"ctx", DOMAIN_CONTEST_SUM)
        # g2^s = t2 * y2^e holds only if g2^e = 1: with q = 11, a challenge of 0
        verdicts.append(verify_eq_dlog(proof, y1, g2, y2, GP, b"ctx", DOMAIN_CONTEST_SUM))
        assert verdicts[-1] == (proof.challenge == 0)
    assert not all(verdicts)


def test_eq_dlog_binds_context_and_domain() -> None:
    rng = random.Random(34)
    w = 7
    g2 = GP.signed(pow(GP.g, 9, GP.p))
    y1 = GP.signed(pow(GP.g, w, GP.p))
    y2 = GP.signed(pow(g2, w, GP.p))
    proof = prove_eq_dlog(w, y1, g2, y2, GP, rng, b"ctx-a", DOMAIN_CONTEST_SUM)
    # the statement holds, so only the challenge can refuse
    verdicts = []
    for context, domain in ((b"ctx-b", DOMAIN_CONTEST_SUM), (b"ctx-a", DOMAIN_DECRYPT_SHARE),
                            (b"ctx-c", DOMAIN_CONTEST_SUM), (b"ctx-b", DOMAIN_DECRYPT_SHARE)):
        verdicts.append(verify_eq_dlog(proof, y1, g2, y2, GP, context, domain))
        assert verdicts[-1] == _eq_dlog_collides(proof, y1, g2, y2, context, domain), context
    assert not all(verdicts)


def test_eq_dlog_rejects_non_subgroup_inputs() -> None:
    """12 = 23 - 11 is the other representative of 11's class, not a signed
    form, so no element. Over the base 12 with witness 0 both equations hold
    up to sign, so only membership stands in the way: verify_decryption_share,
    which tests its statement, refuses the base 12; and verify_eq_dlog
    refuses a proof whose commit is published, and hashed, as p - t, by the
    commit's range check."""
    rng = random.Random(35)
    everyone = Immediate(GP)
    everyone.member = everyone.in_range = lambda x: True
    for _ in range(20):
        proof = prove_eq_dlog(0, 1, 12, 1, GP, rng, b"ctx", DOMAIN_DECRYPT_SHARE)
        assert GP.is_element(proof.commit1) and GP.is_element(proof.commit2)
        assert verify_eq_dlog(proof, 1, 12, 1, GP, b"ctx", DOMAIN_DECRYPT_SHARE)
        share = DecryptionShare(trustee_id=1, share_value=1, proof=proof)
        assert not verify_decryption_share(share, Ciphertext(12, 1), (1,), GP, b"ctx")
        assert verify_decryption_share(share, Ciphertext(12, 1), (1,), GP, b"ctx", everyone)

        t1, t2 = proof.commit1, GP.p - proof.commit2
        e = fiat_shamir_challenge(DOMAIN_DECRYPT_SHARE, b"ctx", (GP.g, 1, 11, 1, t1, t2), GP)
        negated = ChaumPedersenProof(t1, t2, e, proof.response)  # response = w, witness 0
        assert not verify_eq_dlog(negated, 1, 11, 1, GP, b"ctx", DOMAIN_DECRYPT_SHARE)
        assert verify_eq_dlog(negated, 1, 11, 1, GP, b"ctx", DOMAIN_DECRYPT_SHARE, everyone)


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
    ct2 = encrypt_exp(2, r, K, GP)
    verdicts = []
    for _ in range(20):
        proof = prove_zero_or_one(0, r, ct0, K, GP, rng, b"cell")
        verdicts.append(verify_zero_or_one(proof, ct2, K, GP, b"cell"))
        assert verdicts[-1] == (_zero_one_collides(proof, ct2, K, b"cell")
                                and _equations_hold(proof, ct2, K, GP))
    assert not all(verdicts)


def test_zero_or_one_rejects_every_tampered_field() -> None:
    rng = random.Random(43)
    for bit in (0, 1):
        r = 7
        ct = encrypt_exp(bit, r, K, GP)
        proof = prove_zero_or_one(bit, r, ct, K, GP, rng, b"cell")
        element_fields = ("commit0_g", "commit0_k", "commit1_g", "commit1_k")
        exponent_fields = ("challenge0", "challenge1", "response0", "response1")
        for field in element_fields:
            bad = replace(
                proof, **{field: GP.signed(getattr(proof, field) * GP.g % GP.p)})
            assert not verify_zero_or_one(bad, ct, K, GP, b"cell"), field
            # its equation misses by a factor of g, whatever the challenge
            assert not _equations_hold(bad, ct, K, GP), field
        for field in exponent_fields:
            bad = replace(proof, **{field: (getattr(proof, field) + 1) % GP.q})
            assert not verify_zero_or_one(bad, ct, K, GP, b"cell"), field


def test_zero_or_one_challenge_split_is_enforced() -> None:
    # shifting both challenges while preserving their sum still breaks the
    # per-branch verification equations
    rng = random.Random(44)
    ct = encrypt_exp(1, 9, K, GP)
    proof = prove_zero_or_one(1, 9, ct, K, GP, rng, b"cell")
    shifted = replace(
        proof,
        challenge0=(proof.challenge0 + 1) % GP.q,
        challenge1=(proof.challenge1 - 1) % GP.q,
    )
    assert not verify_zero_or_one(shifted, ct, K, GP, b"cell")


def test_zero_or_one_binds_ciphertext_key_and_context() -> None:
    rng = random.Random(45)
    r = 4
    ct = encrypt_exp(1, r, K, GP)
    other_ct = encrypt_exp(1, (r + 1) % GP.q, K, GP)
    other_key = GP.signed(pow(GP.g, 5, GP.p))
    # another ciphertext also misses the equations unless both branch
    # challenges are 0, and another key unless both responses are
    verdicts = []
    for _ in range(20):
        proof = prove_zero_or_one(1, r, ct, K, GP, rng, b"cell")
        for name, stated, key in (("other_ct", other_ct, K), ("other_key", ct, other_key)):
            verdicts.append(verify_zero_or_one(proof, stated, key, GP, b"cell"))
            assert verdicts[-1] == (_zero_one_collides(proof, stated, key, b"cell")
                                    and _equations_hold(proof, stated, key, GP)), name
    assert not all(verdicts)
    # another context binds another challenge, and the equations still hold
    verdicts = []
    for context in (b"other-cell", b"cell-2", b"cell-3"):
        verdicts.append(verify_zero_or_one(proof, ct, K, GP, context))
        assert verdicts[-1] == _zero_one_collides(proof, ct, K, context), context
    assert not all(verdicts)


def test_proof_json_round_trips() -> None:
    rng = random.Random(46)
    w = 6
    y1 = GP.signed(pow(GP.g, w, GP.p))
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
    a_sim_commit = gp.signed(fixed(g, v_sim, p) * pow(pow(ct.a, c_sim, p), -1, p) % p)
    b_sim_commit = gp.signed(
        fixed(public_key, v_sim, p) * pow(pow(target_b_sim, c_sim, p), -1, p) % p)

    w = rng.randrange(0, q)
    a_real_commit = gp.signed(fixed(g, w, p))
    b_real_commit = gp.signed(fixed(public_key, w, p))

    if bit == 0:
        a0c, b0c, a1c, b1c = a_real_commit, b_real_commit, a_sim_commit, b_sim_commit
    else:
        a0c, b0c, a1c, b1c = a_sim_commit, b_sim_commit, a_real_commit, b_real_commit

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE, context, (public_key, ct.a, ct.b, a0c, b0c, a1c, b1c), gp)
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
    t1 = gp.signed(fixed(gp.g, w, gp.p))
    t2 = gp.signed(pow(g2, w, gp.p))
    e = fiat_shamir_challenge(domain, context, (gp.g, y1, g2, y2, t1, t2), gp)
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
        target_b = gp.signed(total.b * pow(pow(gp.g, sum(bits), gp.p), -1, gp.p) % gp.p)
        args = (sum(rs) % gp.q, total.a, key, target_b, gp)
        ctx, seed = f"sum-{trial}".encode(), rng.getrandbits(64)
        proof = prove_eq_dlog(*args, random.Random(seed), ctx, DOMAIN_CONTEST_SUM)
        assert proof == _plain_pow_eq_dlog(*args, random.Random(seed), ctx, DOMAIN_CONTEST_SUM)
        statement = (total.a, key, target_b, gp, ctx, DOMAIN_CONTEST_SUM)
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
    a_sim_commit = gp.signed(fixed(g, u, p))
    b_sim_commit = gp.signed(fixed(public_key, u, p) * fixed(g, (sim - bit) * c_sim % q, p) % p)

    w = rng.randrange(0, q)
    a_real_commit = gp.signed(fixed(g, w, p))
    b_real_commit = gp.signed(fixed(public_key, w, p))

    if bit == 0:
        a0c, b0c, a1c, b1c = a_real_commit, b_real_commit, a_sim_commit, b_sim_commit
    else:
        a0c, b0c, a1c, b1c = a_sim_commit, b_sim_commit, a_real_commit, b_real_commit

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE, context, (public_key, ct.a, ct.b, a0c, b0c, a1c, b1c), gp)
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
        bad = replace(proof, **{field: getattr(proof, field) + 2**256})
        assert not verify_zero_or_one(bad, ct, key, MODP_GROUP, b"cell", accept)
    assert verify_zero_or_one(proof, ct, key, MODP_GROUP, b"cell", accept)


def test_branch_challenges_that_sum_to_e_mod_q_but_not_mod_2_256_are_refused() -> None:
    # Short draws with the sum kept mod q: the real branch's challenge wraps
    # to near q whenever c_sim > e, which would reveal the vote. A proof wraps
    # with probability about one half, so trials are drawn until both kinds
    # have occurred; 64 trials all of one kind would happen about once in 2^63.
    rng, key, r, ct = _modp_statement(52)
    seen = set()
    for trial in range(64):
        proof = _old_rule_zero_or_one(1, r, ct, key, MODP_GROUP, rng, f"cell-{trial}".encode(),
                                      draw=2**256)
        e = (proof.challenge0 + proof.challenge1) % MODP_GROUP.q
        assert _equations_hold(proof, ct, key, MODP_GROUP)
        valid = verify_zero_or_one(proof, ct, key, MODP_GROUP, f"cell-{trial}".encode())
        seen.add((proof.challenge0 + proof.challenge1) % 2**256 != e)
        assert valid == ((proof.challenge0 + proof.challenge1) % 2**256 == e)
        if len(seen) == 2:
            break
    assert seen == {True, False}  # some proofs wrapped, and those that did not are valid


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
