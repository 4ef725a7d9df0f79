"""Schnorr signatures over the shared group, hash-commitment variant.

The signature stores the challenge digest rather than the commitment R, so a
verifier recomputes R = |g^s * pk^e| (GroupParams.signed) and checks that it
hashes back to the stored digest. The nonce is derived deterministically from
the secret key and message, which keeps signing free of ambient randomness
and makes repeated pipeline runs byte-identical.
"""

from __future__ import annotations

from .elgamal import Keypair
from .fiatshamir import DOMAIN_NONCE, DOMAIN_SIGNATURE
from .group import GroupParams, multi_exp
from .serialize import DIGEST, HEX, Record, enc_bytes, enc_int, sha256


class SchnorrSignature(Record):
    FIELDS = (("commit_hash", "commit_hash", DIGEST), ("response", "response", HEX))


def _nonce(sk: int, msg: bytes, gp: GroupParams) -> int:
    digest = sha256(DOMAIN_NONCE + enc_int(sk) + enc_bytes(msg))
    return 1 + int.from_bytes(digest, "big") % (gp.q - 1)


def _challenge_digest(commit: int, pk: int, msg: bytes) -> bytes:
    return sha256(DOMAIN_SIGNATURE + enc_int(commit) + enc_int(pk) + enc_bytes(msg))


def sign(msg: bytes, kp: Keypair, gp: GroupParams) -> SchnorrSignature:
    r = _nonce(kp.sk, msg, gp)
    commit = gp.signed(gp.comb(gp.g, r, gp.p))
    digest = _challenge_digest(commit, kp.pk, msg)
    e = int.from_bytes(digest, "big") % gp.q
    s = (r - e * kp.sk) % gp.q
    return SchnorrSignature(commit_hash=digest, response=s)


def verify_sig(msg: bytes, sig: SchnorrSignature, pk: int, gp: GroupParams) -> bool:
    """Whether sig is pk's signature of msg. The caller passes a key already
    tested for membership in the order-q subgroup (ElectionManifest's decode
    tests the office key)."""
    if not gp.is_exponent(sig.response):
        return False
    if len(sig.commit_hash) != 32:
        return False
    e = int.from_bytes(sig.commit_hash, "big") % gp.q
    # Not g's comb: for the one check a receipt-check makes, the table costs more than it saves.
    commit = gp.signed(multi_exp([(gp.g, sig.response), (pk, e)], gp.p))
    return _challenge_digest(commit, pk, msg) == sig.commit_hash
