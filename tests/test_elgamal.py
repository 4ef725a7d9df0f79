"""Exponential-form encryption over the small test group.

The frozen vectors were computed by hand in Z_23 with generator 4 and secret
key 3, each value in its signed form |x| = min(x, 23 - x) (public key
|4^3 mod 23| = |18| = 5).
"""

import random

import pytest

from helpers import decrypt_dlog
from starlock.elgamal import (
    Ciphertext,
    add_many,
    dlog_search,
    encrypt_exp,
    homomorphic_add,
    identity_ciphertext,
    keygen,
)
from starlock.errors import NoDlogInRange
from starlock.group import TEST_GROUP

SK = 3
K = 5  # 23 - 4**3 % 23


def test_keygen_matches_exponentiation() -> None:
    kp = keygen(TEST_GROUP, random.Random(5))
    assert kp.pk == TEST_GROUP.signed(pow(TEST_GROUP.g, kp.sk, TEST_GROUP.p))
    assert TEST_GROUP.is_element(kp.pk)
    assert 1 <= kp.sk < TEST_GROUP.q


def test_encrypt_frozen_vectors() -> None:
    # a = |4^r mod 23|, b = |4^m * 5^r mod 23|
    assert encrypt_exp(0, 1, K, TEST_GROUP) == Ciphertext(4, 5)
    assert encrypt_exp(1, 2, K, TEST_GROUP) == Ciphertext(7, 8)
    assert encrypt_exp(5, 7, K, TEST_GROUP) == Ciphertext(8, 3)
    assert encrypt_exp(10, 4, K, TEST_GROUP) == Ciphertext(3, 1)


def test_encrypt_rejects_out_of_range_arguments() -> None:
    with pytest.raises(ValueError):
        encrypt_exp(11, 1, K, TEST_GROUP)  # message must be below q
    with pytest.raises(ValueError):
        encrypt_exp(-1, 1, K, TEST_GROUP)
    with pytest.raises(ValueError):
        encrypt_exp(0, 0, K, TEST_GROUP)  # randomizer must be nonzero
    with pytest.raises(ValueError):
        encrypt_exp(0, 11, K, TEST_GROUP)


def test_decrypt_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(0, 11)
        r = rng.randrange(1, 11)
        ct = encrypt_exp(m, r, K, TEST_GROUP)
        assert decrypt_dlog(ct, SK, 10, TEST_GROUP) == m


def test_homomorphic_sum_frozen_vector() -> None:
    # Enc(2;3) = (5,1) and Enc(4;5) = (11,9); componentwise product is (9,9)
    c1 = encrypt_exp(2, 3, K, TEST_GROUP)
    c2 = encrypt_exp(4, 5, K, TEST_GROUP)
    assert c1 == Ciphertext(5, 1)
    assert c2 == Ciphertext(11, 9)
    total = homomorphic_add(c1, c2, TEST_GROUP)
    assert total == Ciphertext(9, 9)
    assert decrypt_dlog(total, SK, 10, TEST_GROUP) == 6


def test_add_many_sums_messages() -> None:
    rng = random.Random(9)
    for _ in range(50):
        ms = [rng.randrange(0, 4) for _ in range(3)]
        cts = [encrypt_exp(m, rng.randrange(1, 11), K, TEST_GROUP) for m in ms]
        total = add_many(cts, TEST_GROUP)
        assert decrypt_dlog(total, SK, 10, TEST_GROUP) == sum(ms)


def test_identity_is_neutral() -> None:
    ct = encrypt_exp(4, 6, K, TEST_GROUP)
    one = identity_ciphertext()
    assert homomorphic_add(ct, one, TEST_GROUP) == ct
    assert add_many([], TEST_GROUP) == one
    assert decrypt_dlog(one, SK, 10, TEST_GROUP) == 0


def test_dlog_search_bounds() -> None:
    assert dlog_search(11, 5, TEST_GROUP) == 5  # |4^5 mod 23| = |12|
    assert dlog_search(1, 0, TEST_GROUP) == 0
    with pytest.raises(NoDlogInRange):
        dlog_search(TEST_GROUP.signed(pow(4, 7, 23)), 6, TEST_GROUP)
    with pytest.raises(NoDlogInRange):  # the other representative matches nothing
        dlog_search(12, 10, TEST_GROUP)
    assert sorted(dlog_search(x, 10, TEST_GROUP) for x in range(1, 12)) == list(range(11))


def test_decrypt_out_of_bound_raises() -> None:
    ct = encrypt_exp(7, 2, K, TEST_GROUP)
    with pytest.raises(NoDlogInRange):
        decrypt_dlog(ct, SK, 6, TEST_GROUP)


def test_ciphertext_json_round_trip() -> None:
    ct = encrypt_exp(3, 8, K, TEST_GROUP)
    obj = ct.to_json()
    assert set(obj) == {"a", "b"}
    assert Ciphertext.from_json(obj) == ct
