"""Chaum-Pedersen proofs: equality of discrete logs, plus the disjunctive
zero-or-one variant that ballot columns carry.

Challenges are Fiat-Shamir derived over the full transcript: a caller-supplied
context (election, style, contest, column identifiers), the statement
elements, and the commitments. Binding the statement into the hash is what
stops a proof from being replayed against any other statement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .elgamal import Ciphertext
from .fiatshamir import DOMAIN_EQ_DLOG, DOMAIN_ZERO_ONE, fiat_shamir_challenge
from .group import GroupParams, fixed_pow
from .serialize import HEX, Record, enc_bytes, enc_int


@dataclass(frozen=True)
class ChaumPedersenProof(Record):
    """Proof that log_{g1}(y1) = log_{g2}(y2)."""

    commit1: int
    commit2: int
    challenge: int
    response: int

    FIELDS = tuple((name, name, HEX) for name in ("commit1", "commit2", "challenge", "response"))

    def canonical_bytes(self) -> bytes:
        return (
            enc_int(self.commit1)
            + enc_int(self.commit2)
            + enc_int(self.challenge)
            + enc_int(self.response)
        )


def _eq_dlog_transcript(context: bytes, g1, y1, g2, y2, t1, t2) -> bytes:
    return (
        enc_bytes(context)
        + enc_int(g1)
        + enc_int(y1)
        + enc_int(g2)
        + enc_int(y2)
        + enc_int(t1)
        + enc_int(t2)
    )


def prove_eq_dlog(
    witness: int,
    g1: int,
    y1: int,
    g2: int,
    y2: int,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
    domain: bytes = DOMAIN_EQ_DLOG,
) -> ChaumPedersenProof:
    fixed = fixed_pow if gp.large else pow  # g1 is g at every caller
    w = rng.randrange(0, gp.q)
    t1 = fixed(g1, w, gp.p)
    t2 = pow(g2, w, gp.p)
    e = fiat_shamir_challenge(domain, _eq_dlog_transcript(context, g1, y1, g2, y2, t1, t2), gp)
    s = (w + e * witness) % gp.q
    return ChaumPedersenProof(commit1=t1, commit2=t2, challenge=e, response=s)


def verify_eq_dlog(
    proof: ChaumPedersenProof,
    g1: int,
    y1: int,
    g2: int,
    y2: int,
    gp: GroupParams,
    context: bytes,
    domain: bytes = DOMAIN_EQ_DLOG,
) -> bool:
    for el in (g1, y1, g2, y2, proof.commit1, proof.commit2):
        if not gp.is_element(el):
            return False
    if not gp.is_exponent(proof.response) or not gp.is_exponent(proof.challenge):
        return False
    expected = fiat_shamir_challenge(
        domain,
        _eq_dlog_transcript(context, g1, y1, g2, y2, proof.commit1, proof.commit2),
        gp,
    )
    if proof.challenge != expected:
        return False
    fixed = fixed_pow if gp.large else pow  # g1 is g at every caller
    e, s = proof.challenge, proof.response
    if fixed(g1, s, gp.p) != proof.commit1 * pow(y1, e, gp.p) % gp.p:
        return False
    if pow(g2, s, gp.p) != proof.commit2 * pow(y2, e, gp.p) % gp.p:
        return False
    return True


@dataclass(frozen=True)
class ZeroOneProof(Record):
    """Disjunctive proof that a ciphertext encrypts 0 or 1.

    One branch is proved honestly, the other simulated; the two branch
    challenges must add up to the Fiat-Shamir challenge of the whole
    transcript, so at least one branch is sound.
    """

    commit0_g: int
    commit0_k: int
    commit1_g: int
    commit1_k: int
    challenge0: int
    challenge1: int
    response0: int
    response1: int

    FIELDS = tuple((name, name, HEX) for name in (
        "commit0_g", "commit0_k", "commit1_g", "commit1_k",
        "challenge0", "challenge1", "response0", "response1",
    ))

    def canonical_bytes(self) -> bytes:
        return b"".join(
            enc_int(v)
            for v in (
                self.commit0_g,
                self.commit0_k,
                self.commit1_g,
                self.commit1_k,
                self.challenge0,
                self.challenge1,
                self.response0,
                self.response1,
            )
        )


def _zero_one_transcript(context: bytes, public_key: int, ct: Ciphertext,
                         a0, b0, a1, b1) -> bytes:
    return (
        enc_bytes(context)
        + enc_int(public_key)
        + enc_int(ct.a)
        + enc_int(ct.b)
        + enc_int(a0)
        + enc_int(b0)
        + enc_int(a1)
        + enc_int(b1)
    )


def prove_zero_or_one(
    bit: int,
    r: int,
    ct: Ciphertext,
    public_key: int,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
) -> ZeroOneProof:
    """Prove ct = Enc(bit; r) with bit in {0, 1} without revealing which."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    p, q, g = gp.p, gp.q, gp.g
    fixed = fixed_pow if gp.large else pow

    # Branch m claims (ct.a, ct.b / g^m) is a DH pair under (g, public_key).
    # Simulate the branch for the other bit, prove the real one honestly.
    sim = 1 - bit
    c_sim = rng.randrange(0, q)
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


def verify_zero_or_one(
    proof: ZeroOneProof,
    ct: Ciphertext,
    public_key: int,
    gp: GroupParams,
    context: bytes,
) -> bool:
    p, q, g = gp.p, gp.q, gp.g
    fixed = fixed_pow if gp.large else pow
    elements = (
        ct.a, ct.b, public_key,
        proof.commit0_g, proof.commit0_k, proof.commit1_g, proof.commit1_k,
    )
    if not all(gp.is_element(el) for el in elements):
        return False
    exponents = (proof.challenge0, proof.challenge1, proof.response0, proof.response1)
    if not all(gp.is_exponent(x) for x in exponents):
        return False

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE,
        _zero_one_transcript(
            context, public_key, ct,
            proof.commit0_g, proof.commit0_k, proof.commit1_g, proof.commit1_k,
        ),
        gp,
    )
    if (proof.challenge0 + proof.challenge1) % q != e:
        return False

    for m, commit_g, commit_k, c, v in (
        (0, proof.commit0_g, proof.commit0_k, proof.challenge0, proof.response0),
        (1, proof.commit1_g, proof.commit1_k, proof.challenge1, proof.response1),
    ):
        target_b = ct.b * pow(pow(g, m, p), -1, p) % p
        if fixed(g, v, p) != commit_g * pow(ct.a, c, p) % p:
            return False
        if fixed(public_key, v, p) != commit_k * pow(target_b, c, p) % p:
            return False
    return True
