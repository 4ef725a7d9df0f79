"""Threshold key generation and decryption for a panel of trustees.

A trusted dealer runs Feldman verifiable secret sharing: a random degree
k-1 polynomial f over Z_q with f(0) = sk, share i = f(i) for trustee ids
1..n, and public commitments A_j = g^(a_j) to every coefficient. Any k
trustees reconstruct the decryption in the exponent via Lagrange
interpolation; fewer than k cannot. Each partial decryption ships with a
Chaum-Pedersen proof tying it to the trustee's public verification key,
which anyone can derive from the commitments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chaum_pedersen import ChaumPedersenProof, batched, prove_eq_dlog, verify_eq_dlog
from .elgamal import Ciphertext
from .errors import BadShareProof, InsufficientShares, InvalidThreshold
from .fiatshamir import DOMAIN_DECRYPT_SHARE
from .group import GroupParams
from .serialize import HEX, INT, Record, enc_bytes, enc_int, record, tuple_of

# Dealer ceremonies beyond this size are outside the supported envelope.
MAX_TRUSTEES = 16


@dataclass(frozen=True)
class TrusteeShare(Record):
    trustee_id: int
    secret_share: int
    commitments: tuple

    FIELDS = (
        ("trustee_id", "trustee_id", INT),
        ("secret_share", "secret_share", HEX),
        ("commitments", "commitments", tuple_of(HEX)),
    )


@dataclass(frozen=True)
class JointPublicKey(Record):
    """Public output of the key ceremony: K = g^sk plus the coefficient
    commitments every observer needs to check decryption shares."""

    K: int
    n: int
    k: int
    commitments: tuple

    FIELDS = (
        ("K", "K", HEX),
        ("n", "n", INT),
        ("k", "k", INT),
        ("commitments", "commitments", tuple_of(HEX)),
    )


@dataclass(frozen=True)
class DecryptionShare(Record):
    trustee_id: int
    share_value: int
    proof: ChaumPedersenProof

    FIELDS = (
        ("trustee_id", "trustee_id", INT),
        ("share_value", "share_value", HEX),
        ("proof", "proof", record(ChaumPedersenProof)),
    )


def check_threshold(n: int, k: int, gp: GroupParams) -> None:
    """InvalidThreshold unless 1 <= k <= n <= MAX_TRUSTEES and n < q."""
    if k < 1 or k > n:
        raise InvalidThreshold(f"trustees: need 1 <= k <= n, got k={k} n={n}")
    if n > MAX_TRUSTEES:
        raise InvalidThreshold(f"trustees: n={n} exceeds supported maximum {MAX_TRUSTEES}")
    if n >= gp.q:
        raise InvalidThreshold(f"trustees: n={n} collides share points modulo q={gp.q}")


def dkg(n: int, k: int, gp: GroupParams, rng: random.Random):
    """Dealer-based distributed key generation.

    Returns (JointPublicKey, [TrusteeShare]). k = n degenerates to additive
    style sharing; k = 1, n = 1 yields a single share equal to sk itself.
    The dealer's polynomial lives only inside this call.
    """
    check_threshold(n, k, gp)
    coeffs = [rng.randrange(1, gp.q)] + [rng.randrange(0, gp.q) for _ in range(k - 1)]
    commitments = tuple(pow(gp.g, a, gp.p) for a in coeffs)

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
    """g^f(trustee_id) from the public commitments: prod A_j^(id^j)."""
    acc = 1
    power = 1
    for a_j in commitments:
        acc = acc * pow(a_j, power, gp.p) % gp.p
        power = power * trustee_id % gp.q
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
    comb table in a large group: the k trustees of a column raise it 2k times."""
    value = gp.comb(c.a, share.secret_share, gp.p)
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
    """The share's proof, its equations stated to eqs (see verify_eq_dlog)."""
    vk = verification_key(dshare.trustee_id, commitments, gp)
    return verify_eq_dlog(
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
    Returns g^m for the plaintext m of c. The share proofs' equations go to
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
    return c.b * pow(combined, -1, gp.p) % gp.p


def combine_shares(columns, jpk: JointPublicKey, gp: GroupParams) -> list:
    """Verify and interpolate each column, given as (ciphertext, shares,
    context); the share proofs' equations of every column go to one batch
    (chaum_pedersen.batched). Returns g^m for each column's plaintext m, in
    order, and raises what combine_in_exponent raises for the first column
    at fault.
    """
    def seed() -> bytes:  # fixes every response the batch weighs
        return b"".join(enc_bytes(context) + enc_int(c.a) + b"".join(
            enc_int(ds.share_value) + ds.proof.canonical_bytes() for ds in shares)
            for c, shares, context in columns)

    return batched(gp, seed, lambda eqs: [combine_in_exponent(c, shares, jpk, gp, context, eqs)
                                          for c, shares, context in columns])
