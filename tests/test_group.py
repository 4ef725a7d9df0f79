"""Group parameter sanity for the built-in Schnorr groups."""

import pytest

from starlock.group import (
    GROUPS,
    PROD_GROUP,
    TEST_GROUP,
    GroupParams,
    is_probable_prime,
    resolve_group,
)


def test_test_group_constants() -> None:
    assert (TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g) == (23, 11, 4)
    assert TEST_GROUP.p == 2 * TEST_GROUP.q + 1


def test_test_group_validates() -> None:
    TEST_GROUP.validate()


def test_test_group_membership_is_quadratic_residues() -> None:
    # the order-11 subgroup of Z_23* is exactly the quadratic residues
    residues = sorted({pow(x, 2, 23) for x in range(1, 23)})
    assert residues == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
    for x in range(-1, 25):
        assert TEST_GROUP.is_element(x) == (x in residues)


def test_exponent_range() -> None:
    assert TEST_GROUP.is_exponent(0)
    assert TEST_GROUP.is_exponent(10)
    assert not TEST_GROUP.is_exponent(11)
    assert not TEST_GROUP.is_exponent(-1)


def test_prod_group_shape() -> None:
    assert PROD_GROUP.p.bit_length() == 2048
    assert PROD_GROUP.q == (PROD_GROUP.p - 1) // 2
    assert PROD_GROUP.p == 2 * PROD_GROUP.q + 1
    assert PROD_GROUP.g == 4
    hexp = f"{PROD_GROUP.p:x}"
    assert hexp.startswith("ffffffffffffffff")
    assert hexp.endswith("ffffffffffffffff")


def test_prod_group_validates() -> None:
    PROD_GROUP.validate()


def test_validate_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        GroupParams(p=15, q=7, g=4).validate()  # p composite
    with pytest.raises(ValueError):
        GroupParams(p=23, q=7, g=4).validate()  # p != 2q+1
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=5).validate()  # 5 generates the full group, not the subgroup


def test_primality_rejects_strong_pseudoprimes() -> None:
    small_primes = [n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert [n for n in range(200) if is_probable_prime(n)] == small_primes
    assert not is_probable_prime(2047)  # 23 * 89, strong pseudoprime to base 2
    assert not is_probable_prime(3215031751)  # 151 * 751 * 28351, bases 2, 3, 5, 7
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime((2**61 - 1) * (2**89 - 1))
    # a safe-prime shape with a composite p is refused
    with pytest.raises(ValueError):
        GroupParams(p=2 * 3215031751 + 1, q=3215031751, g=4).validate()


def test_resolve_group() -> None:
    assert resolve_group("test") is TEST_GROUP
    assert resolve_group("prod") is PROD_GROUP
    assert sorted(GROUPS) == ["prod", "test"]
    with pytest.raises(ValueError):
        resolve_group("huge")


def test_json_round_trip() -> None:
    for gp in (TEST_GROUP, PROD_GROUP):
        obj = gp.to_json()
        assert obj == {"p": str(gp.p), "q": str(gp.q), "g": str(gp.g)}
        assert GroupParams.from_json(obj) == gp


def test_canonical_bytes_separates_groups() -> None:
    assert TEST_GROUP.canonical_bytes() != PROD_GROUP.canonical_bytes()
