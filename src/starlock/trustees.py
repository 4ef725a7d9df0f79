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

from .chaum_pedersen import ChaumPedersenProof, prove_eq_dlog, verify_eq_dlog
from .elgamal import Ciphertext, dlog_search
from .errors import BadShareProof, InsufficientShares, InvalidThreshold
from .fiatshamir import DOMAIN_DECRYPT_SHARE
from .group import GroupParams
from .serialize import hex_to_int, int_to_hex

# Dealer ceremonies beyond this size are outside the supported envelope.
MAX_TRUSTEES = 16


@dataclass(frozen=True)
class TrusteeShare:
    trustee_id: int
    secret_share: int
    commitments: tuple

    def to_json(self) -> dict:
        return {
            "trustee_id": self.trustee_id,
            "secret_share": int_to_hex(self.secret_share),
            "commitments": [int_to_hex(c) for c in self.commitments],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrusteeShare":
        return cls(
            trustee_id=int(obj["trustee_id"]),
            secret_share=hex_to_int(obj["secret_share"]),
            commitments=tuple(hex_to_int(c) for c in obj["commitments"]),
        )


@dataclass(frozen=True)
class JointPublicKey:
    """Public output of the key ceremony: K = g^sk plus the coefficient
    commitments every observer needs to check decryption shares."""

    K: int
    n: int
    k: int
    commitments: tuple

    def to_json(self) -> dict:
        return {
            "K": int_to_hex(self.K),
            "n": self.n,
            "k": self.k,
            "commitments": [int_to_hex(c) for c in self.commitments],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JointPublicKey":
        return cls(
            K=hex_to_int(obj["K"]),
            n=int(obj["n"]),
            k=int(obj["k"]),
            commitments=tuple(hex_to_int(c) for c in obj["commitments"]),
        )


@dataclass(frozen=True)
class DecryptionShare:
    trustee_id: int
    share_value: int
    proof: ChaumPedersenProof

    def to_json(self) -> dict:
        return {
            "trustee_id": self.trustee_id,
            "share_value": int_to_hex(self.share_value),
            "proof": self.proof.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecryptionShare":
        return cls(
            trustee_id=int(obj["trustee_id"]),
            share_value=hex_to_int(obj["share_value"]),
            proof=ChaumPedersenProof.from_json(obj["proof"]),
        )


def dkg(n: int, k: int, gp: GroupParams, rng: random.Random):
    """Dealer-based distributed key generation.

    Returns (JointPublicKey, [TrusteeShare]). k = n degenerates to additive
    style sharing; k = 1, n = 1 yields a single share equal to sk itself.
    The dealer's polynomial lives only inside this call.
    """
    if k < 1 or k > n:
        raise InvalidThreshold(f"need 1 <= k <= n, got k={k} n={n}")
    if n > MAX_TRUSTEES:
        raise InvalidThreshold(f"n={n} exceeds supported maximum {MAX_TRUSTEES}")
    if n >= gp.q:
        raise InvalidThreshold(f"n={n} collides share points modulo q={gp.q}")
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


def verify_share(share: TrusteeShare, gp: GroupParams) -> bool:
    """Feldman consistency check a trustee runs on receipt of its share."""
    expected = verification_key(share.trustee_id, share.commitments, gp)
    return pow(gp.g, share.secret_share, gp.p) == expected


def partial_decrypt(
    c: Ciphertext,
    share: TrusteeShare,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
) -> DecryptionShare:
    """share_value = a^f(i), proved equal in exponent to the verification key."""
    value = pow(c.a, share.secret_share, gp.p)
    vk = pow(gp.g, share.secret_share, gp.p)
    proof = prove_eq_dlog(
        share.secret_share, gp.g, vk, c.a, value, gp, rng,
        context=context, domain=DOMAIN_DECRYPT_SHARE,
    )
    return DecryptionShare(trustee_id=share.trustee_id, share_value=value, proof=proof)


def verify_decryption_share(
    dshare: DecryptionShare,
    c: Ciphertext,
    commitments,
    gp: GroupParams,
    context: bytes,
) -> bool:
    vk = verification_key(dshare.trustee_id, commitments, gp)
    return verify_eq_dlog(
        dshare.proof, gp.g, vk, c.a, dshare.share_value, gp,
        context=context, domain=DOMAIN_DECRYPT_SHARE,
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
                        context: bytes) -> int:
    """Verify k decryption shares and interpolate them in the exponent.
    Returns g^m for the plaintext m of c.

    Raises InsufficientShares when fewer than k distinct trustees
    contributed, BadShareProof naming the first trustee whose proof fails.
    """
    by_id = {}
    for ds in shares:
        by_id.setdefault(ds.trustee_id, ds)
    if len(by_id) < jpk.k:
        raise InsufficientShares(f"have {len(by_id)} shares, need {jpk.k}")
    chosen = [by_id[i] for i in sorted(by_id)][: jpk.k]
    for ds in chosen:
        if not verify_decryption_share(ds, c, jpk.commitments, gp, context):
            raise BadShareProof(ds.trustee_id)
    subset = [ds.trustee_id for ds in chosen]
    combined = 1
    for ds in chosen:
        lam = lagrange_coeff(ds.trustee_id, subset, gp.q)
        combined = combined * pow(ds.share_value, lam, gp.p) % gp.p
    return c.b * pow(combined, -1, gp.p) % gp.p


def combine_shares(
    c: Ciphertext,
    shares,
    jpk: JointPublicKey,
    max_m: int,
    gp: GroupParams,
    context: bytes,
) -> int:
    """Verify k decryption shares, interpolate in the exponent, decrypt.

    Raises what combine_in_exponent raises, and NoDlogInRange when the
    plaintext exceeds max_m.
    """
    return dlog_search(combine_in_exponent(c, shares, jpk, gp, context), max_m, gp)
