"""Schnorr group parameters: a safe prime p = 2q + 1 and a generator of the
order-q subgroup.

Two built-in groups: TEST_GROUP is intentionally tiny (p = 23) so that test
suites can run thousands of encryptions and the bounded dlog search stays
instant; PROD_GROUP is the 2048-bit MODP safe prime with g = 4, which is a
quadratic residue and therefore generates the subgroup of order q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .serialize import enc_int

# Miller-Rabin witnesses: the first twelve primes. Together they decide
# primality exactly below 3.1e23; above that a composite passes all twelve
# with probability at most 4^-12 (and far less for a random one).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to every base in MR_BASES."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    p: int
    q: int
    g: int

    def is_element(self, x: int) -> bool:
        """Membership in the order-q subgroup (the identity counts)."""
        return 0 < x < self.p and pow(x, self.q, self.p) == 1

    def is_exponent(self, x: int) -> bool:
        return 0 <= x < self.q

    def canonical_bytes(self) -> bytes:
        return enc_int(self.p) + enc_int(self.q) + enc_int(self.g)

    def validate(self) -> None:
        """Structural desk-check; raises ValueError on any violation."""
        if not is_probable_prime(self.p):
            raise ValueError("p is not prime")
        if not is_probable_prime(self.q):
            raise ValueError("q is not prime")
        if self.p != 2 * self.q + 1:
            raise ValueError("p != 2q + 1")
        if not (1 < self.g < self.p) or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not generate the order-q subgroup")

    def to_json(self) -> dict:
        # Decimal strings: big integers survive any JSON parser untouched.
        return {"p": str(self.p), "q": str(self.q), "g": str(self.g)}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupParams":
        return cls(p=int(obj["p"]), q=int(obj["q"]), g=int(obj["g"]))


TEST_GROUP = GroupParams(p=23, q=11, g=4)

# 2048-bit MODP safe prime (the widely deployed Diffie-Hellman group).
_P_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183"
    "995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

PROD_GROUP = GroupParams(p=_P_2048, q=(_P_2048 - 1) // 2, g=4)

GROUPS = {"test": TEST_GROUP, "prod": PROD_GROUP}


def resolve_group(name: str) -> GroupParams:
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected one of {sorted(GROUPS)}")
