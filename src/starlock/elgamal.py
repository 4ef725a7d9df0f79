"""Exponential ElGamal over a Schnorr group.

Enc(m; r) = (g^r, g^m * K^r). Putting the message in the exponent makes the
scheme additively homomorphic: componentwise multiplication of ciphertexts
adds plaintexts. Decryption recovers g^m and then walks the bounded exponent
range, which is fine here because tallies are small integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NoDlogInRange
from .group import GroupParams
from .serialize import HEX, Record, enc_int


@dataclass(frozen=True)
class Keypair(Record):
    sk: int
    pk: int

    FIELDS = (("sk", "sk", HEX), ("pk", "pk", HEX))


@dataclass(frozen=True)
class Ciphertext(Record):
    a: int
    b: int

    FIELDS = (("a", "a", HEX), ("b", "b", HEX))

    def canonical_bytes(self) -> bytes:
        return enc_int(self.a) + enc_int(self.b)


def keygen(gp: GroupParams, rng: random.Random) -> Keypair:
    sk = rng.randrange(1, gp.q)
    return Keypair(sk=sk, pk=pow(gp.g, sk, gp.p))


def identity_ciphertext() -> Ciphertext:
    """Encryption of 0 with zero randomness; the homomorphic fold's unit."""
    return Ciphertext(1, 1)


def encrypt_exp(m: int, r: int, public_key: int, gp: GroupParams) -> Ciphertext:
    if not 0 <= m < gp.q:
        raise ValueError(f"message {m} outside [0, q)")
    if not 1 <= r < gp.q:
        raise ValueError("encryption randomness must lie in [1, q)")
    fixed = gp.comb
    a = fixed(gp.g, r, gp.p)
    b = pow(gp.g, m, gp.p) * fixed(public_key, r, gp.p) % gp.p
    return Ciphertext(a, b)


def homomorphic_add(c1: Ciphertext, c2: Ciphertext, gp: GroupParams) -> Ciphertext:
    return Ciphertext(c1.a * c2.a % gp.p, c1.b * c2.b % gp.p)


def add_many(cts, gp: GroupParams) -> Ciphertext:
    acc = identity_ciphertext()
    for ct in cts:
        acc = homomorphic_add(acc, ct, gp)
    return acc


def dlog_search(target: int, max_m: int, gp: GroupParams) -> int:
    """Smallest m in [0, max_m] with g^m = target, else NoDlogInRange."""
    cur = 1
    for m in range(max_m + 1):
        if cur == target:
            return m
        cur = cur * gp.g % gp.p
    raise NoDlogInRange(f"no exponent in [0, {max_m}] matches")


def decrypt_dlog(c: Ciphertext, sk: int, max_m: int, gp: GroupParams) -> int:
    shared = pow(c.a, sk, gp.p)
    target = c.b * pow(shared, -1, gp.p) % gp.p
    return dlog_search(target, max_m, gp)
