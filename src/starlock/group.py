"""Schnorr group parameters: a safe prime p = 2q + 1 and a generator of the
order-q subgroup.

Two built-in groups: TEST_GROUP is intentionally tiny (p = 23) so that test
suites can run thousands of encryptions and the bounded dlog search stays
instant; PROD_GROUP is the 2048-bit MODP safe prime with g = 4, which is a
quadratic residue and therefore generates the subgroup of order q.

In a safe-prime group the order-q subgroup is exactly the quadratic
residues, so membership is a Legendre symbol; bases that recur (g, the
joint key, a ciphertext a tally column decrypts) are raised through a
fixed-base comb table. Both beat `pow` from about 64-bit p on and lose to it
in the tiny test group, so a group decides once, from the size of p, which
way it goes (`GroupParams.large`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidGroup, MalformedRecord
from .serialize import NUMERAL, Record, enc_int

LARGE_GROUP_BITS = 128  # p of at least this many bits: Legendre membership and combs
COMB_WINDOW = 8  # comb rows; a table holds 2^8 products, about 70 KB for 2048-bit p
COMB_TABLES = 8  # tables kept, one per (base, p): g, K, and a tally column's c.a (2k powers)
CHALLENGE_BITS = 256  # a Fiat-Shamir challenge is a SHA-256 digest

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


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0, by the binary algorithm; for a
    prime n it is the Legendre symbol: 1 on a nonzero square mod n, -1 on a
    non-square, 0 on a multiple of n."""
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1  # (2 | n) = -1 exactly when n = 3, 5 mod 8
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:  # reciprocity: both 3 mod 4
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


@lru_cache(maxsize=COMB_TABLES)
def _comb(base: int, p: int):
    """Lim-Lee comb table for base mod p (Lim and Lee, CRYPTO 1994; HAC
    14.6.3). An exponent below 2^(COMB_WINDOW * cols) is cut into COMB_WINDOW
    rows of `cols` bits; the table maps each column of row bits, top row
    first, to the product of base^(2^(i * cols)) over the rows i whose bit is
    set. Returns (table, cols)."""
    cols = -(-(p >> 1).bit_length() // COMB_WINDOW)
    row_bases = [base % p]
    for _ in range(COMB_WINDOW - 1):
        x = row_bases[-1]
        for _ in range(cols):
            x = x * x % p
        row_bases.append(x)
    products = [1]  # products[j]: rows i with bit i of j set
    for x in row_bases:
        products += [y * x % p for y in products]
    return {tuple(format(j, f"0{COMB_WINDOW}b")): v for j, v in enumerate(products)}, cols


def fixed_pow(base: int, e: int, p: int) -> int:
    """base^e mod p through base's comb table: a squaring and a product per
    column, a quarter of pow's work on a full-size exponent once the table
    (built on first use, one per (base, p)) is there. Only for a base that
    recurs, in a large group: g, the joint key, or a ciphertext's c.a, which
    the k trustees of a tally column raise 2k times. The table costs about
    one pow, so two powers of a base already pay for it. An exponent outside
    [0, p >> 1), which is [0, q) in a safe-prime group, goes to pow."""
    if not 0 <= e < p >> 1:
        return pow(base, e, p)
    table, cols = _comb(base, p)
    bits = format(e, f"0{COMB_WINDOW * cols}b")
    acc = 1
    for column in zip(*[bits[i:i + cols] for i in range(0, len(bits), cols)]):
        acc = acc * acc % p * table[column] % p
    return acc


def multi_exp(pairs, p: int) -> int:
    """The product of base^e mod p over (base, e) pairs with e >= 0, by
    Straus's simultaneous method with interleaved sliding windows (Moller,
    "Algorithms for multi-exponentiation", SAC 2001): all bases share one
    squaring per bit of the longest exponent, and each base pays a table of
    its odd powers and one product per window of its own exponent, with
    the window width sized to that exponent (OpenSSL's thresholds)."""
    due = {}  # bit position -> table entries multiplied in there
    top = 0
    for base, e in pairs:
        n = e.bit_length()
        if not n:
            continue
        w = 6 if n > 671 else 5 if n > 239 else 4 if n > 79 else 3 if n > 23 else 1
        odd, square = [base % p], base * base % p  # odd[i] = base^(2i + 1)
        for _ in range((1 << (w - 1)) - 1):
            odd.append(odd[-1] * square % p)
        bits, i = bin(e)[2:], 0
        while i < n:
            j = min(i + w, n)
            while bits[j - 1] == "0":
                j -= 1
            due.setdefault(n - j, []).append(odd[int(bits[i:j], 2) >> 1])
            i = bits.find("1", j)
            if i < 0:
                break
        top = max(top, n)
    acc = 1
    for position in range(top - 1, -1, -1):
        acc = acc * acc % p
        for x in due.get(position, ()):
            acc = acc * x % p
    return acc


@dataclass(frozen=True)
class GroupParams(Record):
    p: int
    q: int
    g: int
    # Decided once per group: Legendre membership and fixed-base combs when
    # True, pow otherwise. Callers raising g or the joint key bind
    # `fixed_pow if gp.large else pow`, so the small group pays no extra call.
    large: bool = field(init=False, repr=False, compare=False)
    # M = min(q, 2^256), the proof format's challenge space: every
    # Fiat-Shamir challenge lies in [0, M), and so does each branch challenge
    # of a zero-or-one proof. M = q in a group of q below 2^256.
    challenge_space: int = field(init=False, repr=False, compare=False)

    # Decimal strings: big integers survive any JSON parser untouched.
    FIELDS = tuple((name, name, NUMERAL) for name in "pqg")

    def __post_init__(self):
        object.__setattr__(self, "large", self.p.bit_length() >= LARGE_GROUP_BITS)
        object.__setattr__(self, "challenge_space", min(self.q, 1 << CHALLENGE_BITS))

    def is_element(self, x: int) -> bool:
        """Membership in the order-q subgroup (the identity counts): the
        quadratic residues, since p = 2q + 1 with both prime."""
        if not 0 < x < self.p:
            return False
        if self.large:
            return jacobi(x, self.p) == 1
        return pow(x, self.q, self.p) == 1

    def is_exponent(self, x: int) -> bool:
        return 0 <= x < self.q

    def canonical_bytes(self) -> bytes:
        return enc_int(self.p) + enc_int(self.q) + enc_int(self.g)

    def validate(self) -> None:
        """Structural desk-check; raises InvalidGroup (a ValueError) on any
        violation."""
        if not is_probable_prime(self.p):
            raise InvalidGroup("p is not prime")
        if not is_probable_prime(self.q):
            raise InvalidGroup("q is not prime")
        if self.p != 2 * self.q + 1:
            raise InvalidGroup("p != 2q + 1")
        if not (1 < self.g < self.p) or pow(self.g, self.q, self.p) != 1:
            raise InvalidGroup("g does not generate the order-q subgroup")

    @classmethod
    def from_json(cls, obj: dict) -> "GroupParams":
        """A built-in group as itself; any other only if it validates, since
        membership by the Legendre symbol is exact only in a safe-prime group.
        Raises InvalidGroup."""
        try:
            gp = super().from_json(obj)
        except MalformedRecord as exc:
            raise InvalidGroup(f"group is not three integers p, q, g ({exc})") from None
        for known in GROUPS.values():
            if gp == known:
                return known
        gp.validate()
        return gp


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
