"""Group parameter sanity for the built-in Schnorr groups, and the group
arithmetic (membership, fixed-base exponentiation) in both of them."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from helpers import replace
from starlock.ballot import BallotStyle, Contest, PlaintextBallot, encrypt_ballot, verify_ballot
from starlock.elgamal import keygen
from starlock.errors import InvalidGroup
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
    # the order-11 subgroup of Z_23* is exactly the quadratic residues, and
    # their signed forms min(x, 23 - x) are exactly 1..11
    residues = sorted({pow(x, 2, 23) for x in range(1, 23)})
    assert residues == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
    signed = sorted(TEST_GROUP.signed(x) for x in residues)
    assert signed == list(range(1, 12))
    for x in range(-1, 25):
        assert TEST_GROUP.is_element(x) == (x in signed)
    assert [TEST_GROUP.signed(x) for x in range(23)] == [min(x, 23 - x) for x in range(23)]


def test_exponent_range() -> None:
    assert TEST_GROUP.is_exponent(0)
    assert TEST_GROUP.is_exponent(10)
    assert not TEST_GROUP.is_exponent(11)
    assert not TEST_GROUP.is_exponent(-1)


def test_prod_group_shape() -> None:
    # p = 2qm + 1: a 2048-bit p, a 256-bit q, a 1791-bit prime cofactor m,
    # and g = 2^(2m) of order q.
    p, q, g = PROD_GROUP.p, PROD_GROUP.q, PROD_GROUP.g
    assert p.bit_length() == 2048 and q.bit_length() == 256
    m, rest = divmod(p - 1, 2 * q)
    assert rest == 0 and m.bit_length() == 1791 and is_probable_prime(m)
    assert g == PROD_GROUP.signed(pow(2, 2 * m, p)) != 1 and pow(g, q, p) in (1, p - 1)
    assert g <= (p - 1) // 2 != pow(2, 2 * m, p) and PROD_GROUP.challenge_space == q


def test_prod_group_validates() -> None:
    PROD_GROUP.validate()


def test_prod_group_cofactor_is_the_first_prime_from_its_seed() -> None:
    # The cofactor search of scripts/derive_prod_group.py takes about 0.3 s
    # and is re-run here; the search for q (about 10 s) is not, but q lies
    # at or above its seed's expansion.
    path = Path(__file__).resolve().parent.parent / "scripts" / "derive_prod_group.py"
    spec = importlib.util.spec_from_file_location("derive_prod_group", path)
    derive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(derive)
    m = derive.derive_m()
    assert PROD_GROUP.p == 2 * PROD_GROUP.q * m + 1
    assert 0 <= PROD_GROUP.q - derive.expand(derive.Q_SEED, 256) < 2**32


def test_validate_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        GroupParams(p=15, q=7, g=4).validate()  # p composite
    with pytest.raises(ValueError):
        GroupParams(p=23, q=7, g=4).validate()  # p != 2q+1
    with pytest.raises(ValueError):
        GroupParams(p=23, q=11, g=12).validate()  # 12 = 23 - 11: not a signed form


# (p, q, g, the reason validate() names): p = 1 mod 4, where -1 is a square and
# |x| names no class; a g that is not a signed representative; and, with
# p = 2qm + 1 for q = 811 and the prime m = 2^64 + 13, the signed form of
# z = 2^(2q), which has order m.
_P_811 = 2 * 811 * (2**64 + 13) + 1
_Z = pow(2, 2 * 811, _P_811)
REFUSED = {
    "p-5-mod-4": (5, 2, 2, "p is not 3 mod 4"),
    "p-13-mod-4": (13, 3, 3, "p is not 3 mod 4"),
    "g-1": (23, 11, 1, "g is not a signed representative"),
    "unsigned-prod-g": (PROD_GROUP.p, PROD_GROUP.q, PROD_GROUP.p - PROD_GROUP.g,
                        "g is not a signed representative"),
    "g-of-order-m": (_P_811, 811, min(_Z, _P_811 - _Z), "g does not generate"),
}


@pytest.mark.parametrize("p, q, g, reason", REFUSED.values(), ids=REFUSED)
def test_validate_refuses_p_1_mod_4_and_a_g_outside_the_signed_range(p, q, g, reason) -> None:
    with pytest.raises(InvalidGroup, match=reason):
        GroupParams(p=p, q=q, g=g).validate()
    with pytest.raises(InvalidGroup, match=reason):
        GroupParams.from_json({"p": str(p), "q": str(q), "g": str(g)})


# (q, m) with p = 2qm + 1 prime: a cofactor m > 1 must be a prime above 2^64.
COFACTORS = {
    "small-prime": (11, 3, False),
    "prime-below-2^64": (3, 2**64 - 59, False),
    "composite": (821, (2**61 - 1) * (2**89 - 1), False),
    "prime-above-2^64": (811, 2**64 + 13, True),
}


@pytest.mark.parametrize("q, m, valid", COFACTORS.values(), ids=COFACTORS)
def test_validate_takes_a_cofactor_only_if_it_is_a_prime_above_2_64(q, m, valid) -> None:
    p = 2 * q * m + 1
    assert is_probable_prime(p) and is_probable_prime(q)
    g = next(x for x in (pow(h, 2 * m, p) for h in range(2, 10)) if x != 1)
    gp = GroupParams(p=p, q=q, g=min(g, p - g))
    if valid:
        gp.validate()
        assert GroupParams.from_json(gp.to_json()) == gp
        return
    with pytest.raises(InvalidGroup, match="m neither 1 nor a prime above 2"):
        gp.validate()
    with pytest.raises(InvalidGroup):
        GroupParams.from_json(gp.to_json())


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


def test_from_json_returns_built_in_groups_and_validates_others() -> None:
    for gp in (TEST_GROUP, PROD_GROUP):
        assert GroupParams.from_json(gp.to_json()) is gp
    other = GroupParams.from_json({"p": "47", "q": "23", "g": "4"})
    assert other == GroupParams(p=47, q=23, g=4) and not other.large
    for bad in ({"p": "15", "q": "7", "g": "4"},  # p = 2q + 1 composite
                {"p": "23", "q": "11", "g": "12"},  # 12 = 23 - 11: not a signed form
                {"p": "x", "q": "11", "g": "4"},
                {"p": "23", "q": "11"},
                {"p": 23.9, "q": "11", "g": "4"},
                {"p": "23", "q": " 11", "g": "+4"},
                {"p": "23", "q": "1_1", "g": "4"}):
        with pytest.raises(InvalidGroup):
            GroupParams.from_json(bad)


def test_method_is_chosen_from_the_size_of_p() -> None:
    assert not TEST_GROUP.large
    assert PROD_GROUP.large


@pytest.mark.parametrize("gp", [TEST_GROUP, PROD_GROUP], ids=["test", "prod"])
def test_membership_agrees_with_pow(gp) -> None:
    rng = random.Random(5)
    p, q = gp.p, gp.q
    members = [gp.signed(pow(gp.g, rng.randrange(q), p)) for _ in range(3)]
    others = [rng.randrange(2, p - 1) for _ in range(4)]
    # residues outside the order-q subgroup: a member times an element of order m
    residues = [gp.signed(x * pow(2, 2 * q, p) % p) for x in members]
    for x in members + others + residues + [0, 1, 2, p - 1, p, p + 1, -1, -p]:
        expected = 0 < x <= (p - 1) // 2 and pow(x, q, p) in (1, p - 1)
        assert gp.is_element(x) == expected, x
        assert gp.is_element(x) == (0 < x < p and gp.signed(x) == x
                                    and pow(x * x % p, q, p) == 1), x
    assert all(gp.is_element(x) for x in members)
    assert not any(gp.is_element(p - x) for x in members)  # the other representative
    assert gp is TEST_GROUP or not any(gp.is_element(x) for x in residues)


@pytest.mark.parametrize("gp", [TEST_GROUP, PROD_GROUP], ids=["test", "prod"])
def test_the_signed_form_is_a_homomorphism(gp) -> None:
    # |x| names x's class in Z_p^*/{+-1}: products and powers of signed forms,
    # signed again, equal those of any representatives.
    rng = random.Random(7)
    p = gp.p
    for _ in range(20):
        x, y, e = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(gp.q)
        assert gp.signed(x) == gp.signed(p - x) <= (p - 1) // 2
        assert gp.signed(gp.signed(x) * gp.signed(y) % p) == gp.signed(x * y % p)
        assert gp.signed(pow(gp.signed(x), e, p)) == gp.signed(pow(x, e, p))


def test_comb_agrees_with_pow_in_the_prod_group() -> None:
    rng = random.Random(6)
    p, q = PROD_GROUP.p, PROD_GROUP.q
    K = PROD_GROUP.signed(pow(PROD_GROUP.g, rng.randrange(1, q), p))
    for base in (PROD_GROUP.g, K):
        for e in (0, 1, 2, q - 1, rng.randrange(q), rng.randrange(2**256)):
            assert PROD_GROUP.comb(base, e, p) == pow(base, e, p)
    # the table holds exponents of q's 256 bits; any other goes to pow
    assert PROD_GROUP.comb(K, q, p) in (1, p - 1)
    assert PROD_GROUP.comb(K, -1, p) == pow(K, -1, p)
    for e in (2**256, 2**256 + q - 1, rng.randrange(p)):
        assert PROD_GROUP.comb(K, e, p) == pow(K, e, p)


PINNED_PROD_BALLOT = "e357433aca705f4ed384bdb746ec49628aa267e0178bd90932e30fb888233e0e"


def test_prod_group_ballot_is_pinned_and_verifies() -> None:
    rng = random.Random(2024)
    K = keygen(PROD_GROUP, rng).pk
    style = BallotStyle(style_id="s", contests=(Contest(contest_id="race", options=("A",)),))
    pb = PlaintextBallot(style_id="s", selections={"race": ("A",)})
    eb, proof = encrypt_ballot(pb, style, K, PROD_GROUP, rng, "pinned")
    digest = hashlib.sha256(eb.canonical_bytes() + proof.canonical_bytes()).hexdigest()
    assert digest == PINNED_PROD_BALLOT
    assert verify_ballot(eb, proof, style, K, PROD_GROUP, "pinned")
    elements = [ct.a for ct in eb.contests[0].option_cts + eb.contests[0].padding_cts]
    elements += [getattr(zp, f"commit{i}_{k}") for zp in proof.contests[0].option_proofs
                 for i in "01" for k in "gk"]
    assert all(PROD_GROUP.is_element(x) for x in elements)  # each in its signed form

    contest = proof.contests[0]
    first = contest.option_proofs[0]
    bent = replace(first, response0=(first.response0 + 1) % PROD_GROUP.q)
    tampered = replace(proof, contests=(replace(contest, option_proofs=(bent,)),))
    assert not verify_ballot(eb, tampered, style, K, PROD_GROUP, "pinned")
