"""Threshold key generation and decryption for a panel of trustees.

A trusted dealer runs Feldman verifiable secret sharing: a random degree
k-1 polynomial f over Z_q with f(0) = sk, share i = f(i) for trustee ids
1..n, and public commitments A_j = g^(a_j) to every coefficient. Any k
trustees reconstruct the decryption in the exponent via Lagrange
interpolation; fewer than k cannot. Every published element (commitment,
key, share) is a signed form (GroupParams.signed). Each partial decryption
ships with a Chaum-Pedersen proof tying it to the trustee's public
verification key, which anyone can derive from the commitments.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .chaum_pedersen import ChaumPedersenProof, Immediate, batched, prove_eq_dlog, verify_eq_dlog
from .elgamal import Ciphertext
from .errors import BadShareProof, InsufficientShares, InvalidThreshold, MalformedRecord
from .fiatshamir import DOMAIN_DECRYPT_SHARE
from .group import GroupParams
from .serialize import HEX, INT, Record, enc_bytes, enc_int, record, tuple_of

# Dealer ceremonies beyond this size are outside the supported envelope.
MAX_TRUSTEES = 16


class TrusteeShare(Record):
    FIELDS = (
        ("trustee_id", "trustee_id", INT),
        ("secret_share", "secret_share", HEX),
        ("commitments", "commitments", tuple_of(HEX)),
    )


class JointPublicKey(Record):
    """Public output of the key ceremony: K = g^sk plus the coefficient
    commitments every observer needs to check decryption shares."""

    FIELDS = (
        ("K", "K", HEX),
        ("n", "n", INT),
        ("k", "k", INT),
        ("commitments", "commitments", tuple_of(HEX)),
    )


class DecryptionShare(Record):
    FIELDS = (
        ("trustee_id", "trustee_id", INT),
        ("share_value", "share_value", HEX),
        ("proof", "proof", record(ChaumPedersenProof)),
    )


def check_threshold(n: int, k: int, gp: GroupParams, error=InvalidThreshold) -> None:
    """Raise error (InvalidThreshold by default) unless 1 <= k <= n <=
    MAX_TRUSTEES and n < q."""
    if k < 1 or k > n:
        raise error(f"trustees: need 1 <= k <= n, got k={k} n={n}")
    if n > MAX_TRUSTEES:
        raise error(f"trustees: n={n} exceeds supported maximum {MAX_TRUSTEES}")
    if n >= gp.q:
        raise error(f"trustees: n={n} collides share points modulo q={gp.q}")


def check_joint_key(jpk: JointPublicKey, gp: GroupParams) -> None:
    """MalformedRecord unless the key's threshold passes check_threshold, it has
    exactly k commitments, and K and each commitment are signed
    representatives: the one rule for a joint key read from a file, since
    Lagrange coefficients exist only for distinct share points modulo q."""
    check_threshold(jpk.n, jpk.k, gp, MalformedRecord)
    if len(jpk.commitments) != jpk.k:
        raise MalformedRecord(f"need exactly k={jpk.k}, got {len(jpk.commitments)}").within(
            "commitments")
    for field, values in (("K", (jpk.K,)), ("commitments", jpk.commitments)):
        if not all(map(gp.is_signed, values)):
            raise MalformedRecord("not a signed representative").within(field)


def dkg(n: int, k: int, gp: GroupParams, rng: random.Random):
    """Dealer-based distributed key generation.

    Returns (JointPublicKey, [TrusteeShare]). k = n degenerates to additive
    style sharing; k = 1, n = 1 yields a single share equal to sk itself.
    The dealer's polynomial lives only inside this call.
    """
    check_threshold(n, k, gp)
    coeffs = [rng.randrange(1, gp.q)] + [rng.randrange(0, gp.q) for _ in range(k - 1)]
    commitments = tuple(gp.signed(pow(gp.g, a, gp.p)) for a in coeffs)

    def f(x: int) -> int:
        acc = 0
        for a in reversed(coeffs):
            acc = (acc * x + a) % gp.q
        return acc

    shares = [
        TrusteeShare(trustee_id=i, secret_share=f(i), commitments=commitments)
        for i in range(1, n + 1)
    ]
    joint = JointPublicKey(K=commitments[0], n=n, k=k, commitments=commitments)
    return joint, shares


def verification_key(trustee_id: int, commitments, gp: GroupParams) -> int:
    """|g^f(trustee_id)| from the public commitments: |prod A_j^(id^j)|,
    computed once per trustee, commitments and group, and kept."""
    return gp.signed(_commitment_product(trustee_id, tuple(commitments), gp.p, gp.q))


@lru_cache(maxsize=2 * MAX_TRUSTEES)
def _commitment_product(trustee_id: int, commitments: tuple, p: int, q: int) -> int:
    """prod A_j^(id^j) mod p, keyed by p and q, which hash faster than the group."""
    acc = 1
    power = 1
    for a_j in commitments:
        acc = acc * pow(a_j, power, p) % p
        power = power * trustee_id % q
    return acc


def partial_decrypt(
    c: Ciphertext,
    share: TrusteeShare,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
) -> DecryptionShare:
    """share_value = a^f(i), proved equal in exponent to the verification key.
    Both powers of a (the share and the proof's commitment) go through a's
    fixed-base entry in a large group: the k trustees of a column raise it 2k
    times, each by a's squaring chain, since a comb table would not repay
    itself in so few powers (group.PROMOTE_AFTER)."""
    value = gp.signed(gp.comb(c.a, share.secret_share, gp.p))
    vk = verification_key(share.trustee_id, share.commitments, gp)
    proof = prove_eq_dlog(
        share.secret_share, vk, c.a, value, gp, rng,
        context=context, domain=DOMAIN_DECRYPT_SHARE,
    )
    return DecryptionShare(trustee_id=share.trustee_id, share_value=value, proof=proof)


def verify_decryption_share(
    dshare: DecryptionShare,
    c: Ciphertext,
    commitments,
    gp: GroupParams,
    context: bytes,
    eqs=None,
) -> bool:
    """The share's proof, its statement's membership tests (the verification
    key, c.a and the share) and its equations stated to eqs (see
    verify_eq_dlog)."""
    eqs = eqs or Immediate(gp)
    vk = verification_key(dshare.trustee_id, commitments, gp)
    return all(eqs.member(x) for x in (vk, c.a, dshare.share_value)) and verify_eq_dlog(
        dshare.proof, vk, c.a, dshare.share_value, gp,
        context=context, domain=DOMAIN_DECRYPT_SHARE, eqs=eqs,
    )


def lagrange_coeff(i: int, subset, q: int) -> int:
    """Lagrange basis polynomial for point i evaluated at 0, over Z_q."""
    num, den = 1, 1
    for j in subset:
        if j == i:
            continue
        num = num * j % q
        den = den * (j - i) % q
    return num * pow(den, -1, q) % q


def combine_in_exponent(c: Ciphertext, shares, jpk: JointPublicKey, gp: GroupParams,
                        context: bytes, eqs) -> int:
    """Verify k decryption shares and interpolate them in the exponent.
    Returns |g^m| for the plaintext m of c. The share proofs' equations go to
    the sink eqs, which the caller tests (see combine_shares).

    Raises InsufficientShares when fewer than k distinct trustees
    contributed, BadShareProof naming the first trustee whose proof fails
    or who is not one of the n.
    """
    by_id = {}
    for ds in shares:
        if not 1 <= ds.trustee_id <= jpk.n:
            raise BadShareProof(ds.trustee_id, f"no trustee {ds.trustee_id}")
        by_id.setdefault(ds.trustee_id, ds)
    if len(by_id) < jpk.k:
        raise InsufficientShares(f"have {len(by_id)} shares, need {jpk.k}")
    chosen = [by_id[i] for i in sorted(by_id)][: jpk.k]
    for ds in chosen:
        if not verify_decryption_share(ds, c, jpk.commitments, gp, context, eqs):
            raise BadShareProof(ds.trustee_id)
    subset = [ds.trustee_id for ds in chosen]
    combined = 1
    for ds in chosen:
        # The signed representative: for ids 1..k the coefficients are
        # +-binomials, so a negative one costs an inverse, not a full-size power.
        lam = lagrange_coeff(ds.trustee_id, subset, gp.q)
        if lam > gp.q // 2:
            lam -= gp.q
        combined = combined * pow(ds.share_value, lam, gp.p) % gp.p
    return gp.signed(c.b * pow(combined, -1, gp.p) % gp.p)


def combine_shares(columns, jpk: JointPublicKey, gp: GroupParams) -> list:
    """Verify and interpolate each column, given as (ciphertext, shares,
    context); the share proofs' equations of every column go to one batch
    (chaum_pedersen.batched). Returns |g^m| for each column's plaintext m, in
    order, and raises what combine_in_exponent raises for the first column
    at fault.
    """
    def seed() -> bytes:  # fixes every response the batch weighs
        return b"".join(enc_bytes(context) + enc_int(c.a) + b"".join(
            enc_int(ds.share_value) + ds.proof.canonical_bytes() for ds in shares)
            for c, shares, context in columns)

    return batched(gp, seed, lambda eqs: [combine_in_exponent(c, shares, jpk, gp, context, eqs)
                                          for c, shares, context in columns])
