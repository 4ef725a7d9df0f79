"""Schnorr group parameters: a prime p = 2qm + 1, with q prime and m = 1 or
a prime above 2^64, and a generator g of the order-q subgroup.

Two built-in groups: TEST_GROUP is intentionally tiny (p = 23) so that test
suites can run thousands of encryptions and the bounded dlog search stays
instant; PROD_GROUP is a 2048-bit Lim-Lee prime p = 2qm + 1 with a 256-bit q
and a 1791-bit prime m (Lim and Lee, CRYPTO 1997; the FIPS 186-4 sizes
L = 2048, N = 256), so every secret, nonce and response is a 256-bit
exponent. scripts/derive_prod_group.py derives its constants from fixed
seeds.

Membership in the order-q subgroup is a Legendre symbol, which leaves the
quadratic residues (the subgroup of order qm), and then x^q = 1 when m > 1
(GroupParams.is_element); a proof batch tests the second half for all its
elements at once (chaum_pedersen.Collect). Bases that recur (g, the joint
key, a ciphertext a tally column decrypts) are raised through a fixed-base
comb table sized to q. The Legendre symbol and the combs beat `pow` from
about 64-bit p on and lose to it in the tiny test group, so a group decides
once, from the size of p, which way it goes (`GroupParams.large`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

from .errors import InvalidGroup, MalformedRecord
from .serialize import NUMERAL, Record, enc_int

LARGE_GROUP_BITS = 128  # p of at least this many bits: Legendre membership and combs
COMB_WINDOW = 8  # comb rows; a table holds 2^8 products, about 70 KB for 2048-bit p
COMB_TABLES = 8  # tables kept, one per (base, p): g, K, and a tally column's c.a (2k powers)
CHALLENGE_BITS = 256  # a Fiat-Shamir challenge is a SHA-256 digest
MIN_COFACTOR = 1 << 64  # a cofactor m > 1 must be a prime above this

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
def _comb(base: int, p: int, cols: int) -> dict:
    """Lim-Lee comb table for base mod p (Lim and Lee, CRYPTO 1994; HAC
    14.6.3). An exponent below 2^(COMB_WINDOW * cols) is cut into COMB_WINDOW
    rows of `cols` bits; the table maps each column of row bits, top row
    first, to the product of base^(2^(i * cols)) over the rows i whose bit is
    set."""
    row_bases = [base % p]
    for _ in range(COMB_WINDOW - 1):
        x = row_bases[-1]
        for _ in range(cols):
            x = x * x % p
        row_bases.append(x)
    products = [1]  # products[j]: rows i with bit i of j set
    for x in row_bases:
        products += [y * x % p for y in products]
    return {tuple(format(j, f"0{COMB_WINDOW}b")): v for j, v in enumerate(products)}


def fixed_pow(base: int, e: int, p: int, bits: int) -> int:
    """base^e mod p through base's comb table: a squaring and a product per
    column, a quarter of pow's work once the table (built on first use, one
    per (base, p, bits)) is there. Only for a base that recurs, in a large
    group: g, the joint key, or a ciphertext's c.a, which the k trustees of a
    tally column raise 2k times. The table costs about one pow, so two powers
    of a base already pay for it. A table holds exponents of `bits` bits, a
    group's q's (GroupParams.comb): about 1.1 ms a power in the prod group
    against 4.8 for pow, on a 2 vCPU Xeon. Any other exponent goes to pow."""
    cols = -(-bits // COMB_WINDOW)
    if not 0 <= e < 1 << (COMB_WINDOW * cols):
        return pow(base, e, p)
    table = _comb(base, p, cols)
    digits = format(e, f"0{COMB_WINDOW * cols}b")
    acc = 1
    for column in zip(*[digits[i:i + cols] for i in range(0, len(digits), cols)]):
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
    # True, pow otherwise.
    large: bool = field(init=False, repr=False, compare=False)
    # fixed_pow with tables that hold exponents of q's size; pow's signature.
    _comb: partial = field(init=False, repr=False, compare=False)
    # p = 2q + 1 (m = 1): the order-q subgroup is the quadratic residues.
    safe: bool = field(init=False, repr=False, compare=False)
    # M = min(q, 2^256), the proof format's challenge space: every
    # Fiat-Shamir challenge lies in [0, M), and so does each branch challenge
    # of a zero-or-one proof. M = q in a group of q below 2^256, the prod
    # group's included.
    challenge_space: int = field(init=False, repr=False, compare=False)

    # Decimal strings: big integers survive any JSON parser untouched.
    FIELDS = tuple((name, name, NUMERAL) for name in "pqg")

    def __post_init__(self):
        object.__setattr__(self, "large", self.p.bit_length() >= LARGE_GROUP_BITS)
        object.__setattr__(self, "safe", self.p == 2 * self.q + 1)
        object.__setattr__(self, "challenge_space", min(self.q, 1 << CHALLENGE_BITS))
        object.__setattr__(self, "_comb", partial(fixed_pow, bits=self.q.bit_length()))

    @property
    def comb(self) -> Callable:
        """The power of a base that recurs (g, the joint key, a c.a), with
        pow's signature: through its comb table in a large group, pow in the
        small one. pow is looked up here at each use, not bound once, so that
        perfbench's tracer, which shadows the name, still counts the power."""
        return self._comb if self.large else pow

    def is_element(self, x: int) -> bool:
        """Membership in the order-q subgroup (the identity counts), exactly:
        a quadratic residue (the order-qm subgroup) whose q-th power is 1.
        In a safe-prime group the residues are the subgroup."""
        if not 0 < x < self.p:
            return False
        if self.large:
            return jacobi(x, self.p) == 1 and (self.safe or pow(x, self.q, self.p) == 1)
        return pow(x, self.q, self.p) == 1

    @cached_property
    def residues(self) -> "GroupParams":
        """The quadratic residues mod p, of order (p - 1) / 2, as a group of
        its own: its is_element is the Legendre symbol alone. A proof batch
        tests its elements with it and leaves x^q = 1 to one product of them
        all (chaum_pedersen.Collect)."""
        return self if self.safe else GroupParams(p=self.p, q=(self.p - 1) // 2, g=self.g)

    def is_exponent(self, x: int) -> bool:
        return 0 <= x < self.q

    def canonical_bytes(self) -> bytes:
        return enc_int(self.p) + enc_int(self.q) + enc_int(self.g)

    def validate(self) -> None:
        """Structural desk-check; raises InvalidGroup (a ValueError) on any
        violation. The cofactor m = (p - 1) / 2q must be 1 or a prime above
        2^64, which a batch's 64-bit weights cannot cancel (Collect)."""
        if not is_probable_prime(self.p):
            raise InvalidGroup("p is not prime")
        if not is_probable_prime(self.q):
            raise InvalidGroup("q is not prime")
        m, rest = divmod(self.p - 1, 2 * self.q)
        if rest:
            raise InvalidGroup("2q does not divide p - 1")
        if m != 1 and (m <= MIN_COFACTOR or not is_probable_prime(m)):
            raise InvalidGroup("p - 1 = 2qm with m neither 1 nor a prime above 2^64")
        if not (1 < self.g < self.p) or pow(self.g, self.q, self.p) != 1:
            raise InvalidGroup("g does not generate the order-q subgroup")

    @classmethod
    def from_json(cls, obj: dict) -> "GroupParams":
        """A built-in group as itself; any other only if it validates, since
        membership and the proof batch are exact only for the shape that
        validate() checks. Raises InvalidGroup."""
        try:
            gp = super().from_json(obj)
        except MalformedRecord as exc:
            raise InvalidGroup(f"not three integers p, q, g ({exc})") from None
        for known in GROUPS.values():
            if gp == known:
                return known
        gp.validate()
        return gp


TEST_GROUP = GroupParams(p=23, q=11, g=4)

# The Lim-Lee prime p = 2qm + 1 that scripts/derive_prod_group.py derives:
# q a 256-bit prime, m a 1791-bit prime, g = 2^(2m) mod p.
_Q_256 = int("e4cf177d54b7cf72dd050acbbedf0b94be8d85f2906f2201b752b90409cdc85f", 16)
_M_1791 = int(
    "62428b64eee3206ba6c0235c39da364d93ad0a62ae5b84efde7983828d34563f"
    "1c27ca60f3aee0cf407bf92511cb4c221991828a27f41ac58d70057113efe552"
    "2edbb9dd325894f78884a625f60da348cb1e9100bf20071ecd64a85153b430b9"
    "b97b9f6878bcdbeee5b59ad88f8f9eae76d7070e96797b585990d7745fe24bc7"
    "2f8d98867daf9e20575498a1c2a8b279b7c2bad34c31c063834b32aa67f5784e"
    "8038c7e54f9ca05d8ddb3726c6b3072c31bd2463596a38b5ab5c69e204065667"
    "adff159c88033ebbe13f3e01afa9ecdb159ac2818eb8c66d372ce43cacea34df",
    16,
)
_G_2048 = int(
    "6d7e3397ede6746fea1fc34088f44fa24d1ec1cafa863c92889eae4228197c0e"
    "2c49fbf3b58b31b41e691b452b92119c130a26ff7d8fd54375658e7c8e17cb27"
    "f7229a5d18aeca480e9aa5aaae4e58830a6dab09039f7b3bd11e6cb7549881f4"
    "7a30ed7ccec81ab726de4f5ffc9a761a202a9683a83eb9e01fa1ca94a6d914a1"
    "8299eaaf2c8a3e6b2fc2f7ccf1f4fec4e50ecf142b693050871abe0f5e2c73fe"
    "849b963b88d1cf373ff0a042c63c90581dafe0ab0ead9300e1850969aa19bb7b"
    "f941ee24ff275cad7d2eec650957a4cb5cc2c66bf7d5345eb387a4ca21bd9a84"
    "4ba509287f161b9cc4a10ee881dd392984d20ed47fbb23b78db72caaf0b17b25",
    16,
)

PROD_GROUP = GroupParams(p=2 * _Q_256 * _M_1791 + 1, q=_Q_256, g=_G_2048)

GROUPS = {"test": TEST_GROUP, "prod": PROD_GROUP}


def resolve_group(name: str) -> GroupParams:
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected one of {sorted(GROUPS)}")
