"""Fiat-Shamir challenge derivation.

Every non-interactive proof in the toolkit hashes a domain tag and its full
transcript: enc_bytes of the context (the column, contest or decryption it is
bound to), then enc_int of each statement element and commitment, in the
proof's order. The digest is read big-endian and reduced mod q, so a
challenge lies in [0, M) with M = gp.challenge_space = min(q, 2^256), which
is q in the prod group (a 256-bit q). A zero-or-one proof splits its
challenge into two branch challenges in the same space. Distinct domain tags
keep a transcript valid for one proof type only; an eq-dlog proof is a
contest sum or a decryption share, each with its own.
"""

from __future__ import annotations

from .group import GroupParams
from .serialize import enc_bytes, enc_int, sha256

DOMAIN_ZERO_ONE = b"starlock/v1/zero-or-one"
DOMAIN_CONTEST_SUM = b"starlock/v1/contest-sum"
DOMAIN_DECRYPT_SHARE = b"starlock/v1/decrypt-share"
DOMAIN_SIGNATURE = b"starlock/v1/signature"
DOMAIN_NONCE = b"starlock/v1/nonce"
DOMAIN_CHAIN_SEED = b"starlock/v1/chain-seed"
DOMAIN_COMMITMENT = b"starlock/v1/cvr-commitment"


def fiat_shamir_challenge(domain_tag: bytes, context: bytes, elements, gp: GroupParams) -> int:
    """SHA-256(domain_tag || enc_bytes(context) || enc_int(x) for x in
    elements), big-endian, reduced mod q."""
    transcript = enc_bytes(context) + b"".join(map(enc_int, elements))
    return int.from_bytes(sha256(domain_tag + transcript), "big") % gp.q
