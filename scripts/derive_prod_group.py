"""Derive the prod group's constants: p = 2qm + 1 with q a 256-bit prime and
m a 1791-bit prime (a Lim-Lee prime; Lim and Lee, CRYPTO 1997), and
g = |h^(2m) mod p| for the least h >= 2 with h^(2m) != 1, in the signed form
min(x, p - x) that starlock publishes every element in.

    PYTHONPATH=src python3 scripts/derive_prod_group.py

Runs offline, once; src/starlock/group.py commits what it prints. Every
candidate comes from a fixed seed, and primality is starlock's own
Miller-Rabin test (group.is_probable_prime):

  * m is the first prime from the 1791-bit expansion of M_SEED, stepping by 2;
  * q is the first 256-bit prime from the expansion of Q_SEED, stepping by 2,
    for which p = 2qm + 1 is also prime.

Both expansions have their top two bits set, so 2qm + 1 has exactly 2048
bits. Searching m first and then q takes well under a minute on a laptop
core; a joint search for both is about twenty times slower.
"""

from __future__ import annotations

import hashlib
import sys
import time

from starlock.group import GroupParams, is_probable_prime

M_SEED = b"starlock prod group m"
Q_SEED = b"starlock prod group q"
M_BITS, Q_BITS = 1791, 256
SIEVE = [n for n in range(3, 4000, 2) if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]


def expand(seed: bytes, bits: int) -> int:
    """An odd `bits`-bit integer with its top two bits set, read from
    SHA-256(seed || counter) blocks."""
    blocks = b"".join(hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
                      for i in range(-(-bits // 256)))
    x = int.from_bytes(blocks, "big") >> (len(blocks) * 8 - bits)
    return x | (3 << (bits - 2)) | 1


def derive_m() -> int:
    m = expand(M_SEED, M_BITS)
    while any(m % s == 0 for s in SIEVE) or not is_probable_prime(m):
        m += 2
    return m


def derive_q(m: int) -> int:
    q = expand(Q_SEED, Q_BITS)
    m_mod = [m % s for s in SIEVE]
    while True:
        if all(q % s and (2 * (q % s) * ms + 1) % s for s, ms in zip(SIEVE, m_mod)):
            if is_probable_prime(q) and is_probable_prime(2 * q * m + 1):
                return q
        q += 2


def main() -> int:
    start = time.perf_counter()
    m = derive_m()
    q = derive_q(m)
    p = 2 * q * m + 1
    h = 2
    while pow(h, 2 * m, p) == 1:
        h += 1
    g = GroupParams(p=p, q=q, g=1).signed(pow(h, 2 * m, p))
    assert m.bit_length() == M_BITS and q.bit_length() == Q_BITS and p.bit_length() == 2048
    assert pow(g, q, p) in (1, p - 1)
    print(f"# derived in {time.perf_counter() - start:.1f} s; h = {h}", file=sys.stderr)
    for name, value in (("q", q), ("m", m), ("g", g)):
        print(f"{name} = {value:#x}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
