"""Schnorr group parameters: a prime p = 2qm + 1, with q prime and m = 1 or
a prime above 2^64, and a generator g of the order-q subgroup.

Two built-in groups: TEST_GROUP is intentionally tiny (p = 23) so that test
suites can run thousands of encryptions and the bounded dlog search stays
instant; PROD_GROUP is a 2048-bit Lim-Lee prime p = 2qm + 1 with a 256-bit q
and a 1791-bit prime m (Lim and Lee, CRYPTO 1997; the FIPS 186-4 sizes
L = 2048, N = 256), so every secret, nonce and response is a 256-bit
exponent. scripts/derive_prod_group.py derives its constants from fixed
seeds.

Elements are published as signed quadratic residues (Hofheinz and Kiltz,
CRYPTO 2009): every built-in group has p = 3 mod 4, so exactly one of x and
p - x is a quadratic residue, and the group is Z_p^*/{+-1}, each class
written as its representative |x| = min(x, p - x) in [1, (p - 1) / 2]
(GroupParams.signed). Products and powers are taken mod p as usual and
signed where a value is published, hashed or compared. Membership in the
order-q subgroup is then a range check and x^q = +-1
(GroupParams.is_element), and the range check alone when p = 2q + 1; a
proof batch makes the range check per element and one q-th power of a
weighted product for them all (chaum_pedersen.Collect). Bases that recur (g,
the joint key, a ciphertext a tally column decrypts) are raised through a
fixed-base entry sized to q (fixed_pow): a squaring chain that serves each
power by Yao's method, promoted to a Lim-Lee comb table once the base has
been raised PROMOTE_AFTER times, so a tally column's ciphertext, raised 2k
times, never pays for a table while g and the joint key do. Fixed-base
powers beat `pow` from about 64-bit p on and lose to it in the tiny test
group, so a group decides once, from the size of p, which way it goes
(`GroupParams.large`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

from .errors import InvalidGroup, MalformedRecord
from .serialize import NUMERAL, Record

LARGE_GROUP_BITS = 128  # p of at least this many bits: fixed-base powers and batched proofs
COMB_WINDOW = 8  # comb rows; a table holds 2^8 products, about 70 KB for 2048-bit p
COMB_TABLES = 8  # fixed-base entries kept, one per (base, p): g, K, a tally column's c.a
# A base's powers before its comb table is built. Over a 256-bit exponent a
# chain power takes about 75 products (one per non-zero 4-bit digit of 64,
# plus 15) and a comb power 32 squarings and 32 products, about 12 fewer; the
# table's 255 products are then repaid after about 255 / 12 = 21 more powers.
# (Timed, a squaring costs less than a product, and the break-even is nearer
# 15: see fixed_pow.) So a base is promoted once it has been raised 20 times,
# and a tally column's c.a, raised 2k times with k <= 10, never builds a table.
PROMOTE_AFTER = 20
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


class FixedBase:
    """A base that recurs, mod p: its squaring chain base^(2^(4i)), i below
    2 * cols, and, once the base has been raised PROMOTE_AFTER times, its
    comb table. An exponent below 2^(8 * cols) has 2 * cols 4-bit digits."""

    __slots__ = ("p", "cols", "chain", "table", "uses")

    def __init__(self, base: int, p: int, cols: int):
        chain = [base % p]
        for _ in range(2 * cols - 1):
            x = chain[-1]
            x = x * x % p
            x = x * x % p
            x = x * x % p
            chain.append(x * x % p)
        self.p, self.cols, self.chain, self.table, self.uses = p, cols, chain, None, 0

    def __call__(self, e: int) -> int:
        if self.table is None:
            if self.uses < PROMOTE_AFTER:
                self.uses += 1
                return self.yao(e)
            self.promote()
        return self.comb(e)

    def yao(self, e: int) -> int:
        """base^e by Yao's method (Yao, "On the evaluation of powers", SIAM J.
        Comput. 1976): the chain entries of each 4-bit digit d multiplied into
        a bucket, then prod of bucket_d^d as 15 running products, about one
        product per non-zero digit plus 15."""
        p, buckets = self.p, {}
        for x, d in zip(self.chain, format(e, "x")[::-1]):  # digit i of 16^i
            if d != "0":
                buckets[d] = buckets[d] * x % p if d in buckets else x
        acc = y = 1
        for d in "fedcba987654321":
            if d in buckets:
                y = y * buckets[d] % p
            acc = acc * y % p
        return acc

    def promote(self) -> None:
        """The Lim-Lee comb table (Lim and Lee, CRYPTO 1994; HAC 14.6.3): an
        exponent is cut into COMB_WINDOW rows of `cols` bits, and the table
        maps each column of row bits, top row first, to the product of
        base^(2^(i * cols)) over the rows i whose bit is set. Those row bases
        are the chain entries at multiples of cols / 4, so it takes the 255
        products of the table and no squaring."""
        p, products = self.p, [1]  # products[j]: rows i with bit i of j set
        for x in self.chain[::self.cols // 4][:COMB_WINDOW]:
            products += [y * x % p for y in products]
        self.table = {tuple(format(j, f"0{COMB_WINDOW}b")): v for j, v in enumerate(products)}

    def comb(self, e: int) -> int:
        """base^e through the comb table: a squaring and a product per column."""
        p, cols, table = self.p, self.cols, self.table
        digits = format(e, f"0{COMB_WINDOW * cols}b")
        acc = 1
        for column in zip(*[digits[i:i + cols] for i in range(0, len(digits), cols)]):
            acc = acc * acc % p * table[column] % p
        return acc


# The fixed-base entries of the COMB_TABLES bases raised last, by (base, p, cols).
_fixed = lru_cache(maxsize=COMB_TABLES)(FixedBase)


def fixed_pow(base: int, e: int, p: int, bits: int) -> int:
    """base^e mod p through base's fixed-base entry (one per (base, p), built
    on first use): by Yao's method over the squaring chain for its first
    PROMOTE_AFTER powers, then through its comb table. Only for a base that
    recurs, in a large group: g, the joint key, or a ciphertext's c.a, which
    the k trustees of a tally column raise 2k times and so never promote. An
    entry holds exponents of `bits` bits rounded up to a multiple of 32, a
    group's q's (GroupParams.comb); any other exponent goes to pow. In the
    prod group on a 2 vCPU Xeon (median of 31), the chain costs 2.6 ms, less
    than one pow (3.3 ms), a chain power 0.94 ms, promotion 3.2 ms and a comb
    power 0.72 ms: four powers of a fresh base take 6.3 ms, against 8.4 ms
    through a comb table built for them and 13.1 ms for four pow calls."""
    cols = -(-bits // (4 * COMB_WINDOW)) * 4
    if not 0 <= e < 1 << (COMB_WINDOW * cols):
        return pow(base, e, p)
    return _fixed(base, p, cols)(e)


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


class GroupParams(Record):
    # Decimal strings: big integers survive any JSON parser untouched.
    FIELDS = tuple((name, name, NUMERAL) for name in "pqg")

    def __post_init__(self):
        # Decided once per group: fixed-base powers and batched proof equations
        # when large, pow and proof-by-proof equations otherwise.
        object.__setattr__(self, "large", self.p.bit_length() >= LARGE_GROUP_BITS)
        # (p - 1) / 2: the largest signed representative.
        object.__setattr__(self, "half", (self.p - 1) // 2)
        # M = min(q, 2^256), the proof format's challenge space: every
        # Fiat-Shamir challenge lies in [0, M), and so does each branch
        # challenge of a zero-or-one proof. M = q in a group of q below 2^256,
        # the prod group's included.
        object.__setattr__(self, "challenge_space", min(self.q, 1 << CHALLENGE_BITS))
        # A safe prime p = 2q + 1 (m = 1): every signed representative is a
        # member, since x^q = x^((p - 1) / 2) is the Legendre symbol, +-1.
        object.__setattr__(self, "safe", self.p == 2 * self.q + 1)
        # fixed_pow for exponents of q's size; pow's signature.
        object.__setattr__(self, "_fixed_pow", partial(fixed_pow, bits=self.q.bit_length()))

    @property
    def comb(self) -> Callable:
        """The power of a base that recurs (g, the joint key, a c.a), with
        pow's signature: through its fixed-base entry in a large group (a
        squaring chain, promoted to a comb table once the base recurs often
        enough; fixed_pow), pow in the small one. pow is looked up here at
        each use, not bound once, so that perfbench's tracer, which shadows
        the name, still counts the power."""
        return self._fixed_pow if self.large else pow

    def signed(self, x: int) -> int:
        """|x| = min(x, p - x) for x in [0, p): the one representative of x's
        class in Z_p^*/{+-1} that is published, hashed or compared."""
        return x if x <= self.half else self.p - x

    def is_signed(self, x: int) -> bool:
        """Whether x is a signed representative, in [1, (p - 1) / 2]: the
        range check of membership, which refuses p - x of every element."""
        return 0 < x <= self.half

    def is_element(self, x: int) -> bool:
        """Membership in the order-q subgroup (the identity counts), exactly:
        a signed representative whose q-th power is +-1. p - x of a member is
        refused by the range, an element with an order-m part by the power.
        In a safe-prime group (m = 1) the range alone decides, and the power
        is skipped."""
        return self.is_signed(x) and (self.safe or pow(x, self.q, self.p) in (1, self.p - 1))

    def is_exponent(self, x: int) -> bool:
        return 0 <= x < self.q

    def validate(self) -> None:
        """Structural desk-check; raises InvalidGroup (a ValueError) on any
        violation. p must be 3 mod 4, so that -1 is no square and |x| names
        one class of Z_p^*/{+-1}; the cofactor m = (p - 1) / 2q must be 1 or
        a prime above 2^64, which a batch's 64-bit weights cannot cancel
        (Collect); g must be a signed representative of order q."""
        if not is_probable_prime(self.p):
            raise InvalidGroup("p is not prime")
        if not is_probable_prime(self.q):
            raise InvalidGroup("q is not prime")
        if self.p % 4 != 3:
            raise InvalidGroup("p is not 3 mod 4")
        m, rest = divmod(self.p - 1, 2 * self.q)
        if rest:
            raise InvalidGroup("2q does not divide p - 1")
        if m != 1 and (m <= MIN_COFACTOR or not is_probable_prime(m)):
            raise InvalidGroup("p - 1 = 2qm with m neither 1 nor a prime above 2^64")
        if not 2 <= self.g <= self.half:
            raise InvalidGroup("g is not a signed representative in [2, (p - 1) / 2]")
        if not self.is_element(self.g):
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
# q a 256-bit prime, m a 1791-bit prime, g = |2^(2m) mod p|.
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
    "42274e5973e979f9b00de152aca0ef3608dc7c8ead38c522a91220dde3d1447a"
    "1205b7dcd1d9bde5b0ee15f625689425afbfb98a4f711ec19f6e19d57fb3001b"
    "5c715b694217628902f287bdd493a07a45d1f79941a5cd47721f0d6866d2a5ff"
    "e776cf127ed27c38e1bd3f8d7a7c670082e1087ef2100fd5bd774e4c309a19ca"
    "e2adfd3166c16705c01158ff57a042901abcfa1169a2aa921c6709731a3695ca"
    "58bb3de8be1cca000be721d05a15375774bbd16cf7e894fa04f1a0e35e22b3cb"
    "5f922a9eb378b3318ce8f59a3b0a92d7e36b858e69b614d61a6a6c2fdf4ef3a3"
    "e1251eec796eed73e2d0ee8d120f3105cc66e30776dc64adf0266253b2e4325e",
    16,
)

PROD_GROUP = GroupParams(p=2 * _Q_256 * _M_1791 + 1, q=_Q_256, g=_G_2048)

GROUPS = {"test": TEST_GROUP, "prod": PROD_GROUP}


def resolve_group(name: str) -> GroupParams:
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected one of {sorted(GROUPS)}")
