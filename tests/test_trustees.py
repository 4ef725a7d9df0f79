"""Threshold key ceremony, share verification, and combined decryption."""

import dataclasses
import itertools
import random

import pytest

from helpers import MID_GROUP
from starlock.chaum_pedersen import Immediate
from starlock.elgamal import encrypt_exp
from starlock.errors import BadShareProof, InsufficientShares, InvalidThreshold
from starlock.group import PROD_GROUP, TEST_GROUP
from starlock.trustees import (
    JointPublicKey,
    TrusteeShare,
    combine_in_exponent,
    combine_shares,
    dkg,
    lagrange_coeff,
    partial_decrypt,
    verification_key,
    verify_decryption_share,
    verify_share,
)

GP = TEST_GROUP
CTX = b"tally:race:col"


def shares_for(ct, trustee_shares, seed=0):
    rng = random.Random(seed)
    return [partial_decrypt(ct, s, GP, rng, CTX) for s in trustee_shares]


def test_single_trustee_share_is_the_secret() -> None:
    jpk, shares = dkg(1, 1, GP, random.Random(61))
    assert jpk.n == 1 and jpk.k == 1
    assert len(shares) == 1
    assert shares[0].trustee_id == 1
    assert pow(GP.g, shares[0].secret_share, GP.p) == jpk.K
    assert jpk.commitments == (jpk.K,)


def test_every_share_passes_feldman_check() -> None:
    jpk, shares = dkg(5, 3, GP, random.Random(62))
    assert len(jpk.commitments) == 3
    for share in shares:
        assert verify_share(share, GP)
        assert verification_key(share.trustee_id, jpk.commitments, GP) == pow(
            GP.g, share.secret_share, GP.p
        )


def test_tampered_share_fails_feldman_check() -> None:
    _, shares = dkg(3, 2, GP, random.Random(63))
    bad = dataclasses.replace(shares[0], secret_share=(shares[0].secret_share + 1) % GP.q)
    assert not verify_share(bad, GP)


def test_threshold_bounds_rejected() -> None:
    rng = random.Random(64)
    with pytest.raises(InvalidThreshold):
        dkg(3, 0, GP, rng)
    with pytest.raises(InvalidThreshold):
        dkg(2, 3, GP, rng)
    with pytest.raises(InvalidThreshold):
        dkg(17, 2, GP, rng)  # above the supported trustee maximum
    with pytest.raises(InvalidThreshold):
        dkg(11, 2, GP, rng)  # share points would collide modulo q = 11
    dkg(11, 2, PROD_GROUP, rng)  # same n is fine when q is large


def test_lagrange_coefficients_frozen() -> None:
    # interpolating f(x) = 3 + 2x at 0 from points {1, 2} over Z_11
    assert lagrange_coeff(1, [1, 2], 11) == 2
    assert lagrange_coeff(2, [1, 2], 11) == 10
    assert (2 * 5 + 10 * 7) % 11 == 3  # f(1) = 5, f(2) = 7, recovers f(0) = 3


def test_any_two_of_three_decrypt_alike() -> None:
    jpk, trustees = dkg(3, 2, GP, random.Random(65))
    ct = encrypt_exp(7, 4, jpk.K, GP)
    all_shares = shares_for(ct, trustees)
    for pair in itertools.combinations(all_shares, 2):
        assert combine_shares(ct, list(pair), jpk, 10, GP, CTX) == 7


def test_any_three_of_five_decrypt_alike() -> None:
    jpk, trustees = dkg(5, 3, GP, random.Random(66))
    ct = encrypt_exp(9, 6, jpk.K, GP)
    all_shares = shares_for(ct, trustees)
    for trio in itertools.combinations(all_shares, 3):
        assert combine_shares(ct, list(trio), jpk, 10, GP, CTX) == 9


def test_combine_uses_first_k_and_dedupes() -> None:
    jpk, trustees = dkg(3, 2, GP, random.Random(67))
    ct = encrypt_exp(4, 9, jpk.K, GP)
    all_shares = shares_for(ct, trustees)
    # duplicates of one trustee do not count toward the threshold
    with pytest.raises(InsufficientShares):
        combine_shares(ct, [all_shares[0], all_shares[0]], jpk, 10, GP, CTX)
    with pytest.raises(InsufficientShares):
        combine_shares(ct, all_shares[:1], jpk, 10, GP, CTX)
    # extra shares beyond k are tolerated
    assert combine_shares(ct, all_shares, jpk, 10, GP, CTX) == 4


@pytest.mark.parametrize("gp", [TEST_GROUP, MID_GROUP], ids=["test", "mid"])
def test_bad_share_proof_names_trustee(gp) -> None:
    rng = random.Random(68)
    jpk, trustees = dkg(3, 2, gp, rng)
    ct = encrypt_exp(2, 5, jpk.K, gp)
    good = [partial_decrypt(ct, s, gp, rng, CTX) for s in trustees]
    # A forged value fails its proof's Fiat-Shamir check; a response raised by
    # 1 fails only its equation, which a large group tests in a batch first.
    value_forged = dataclasses.replace(good[0], share_value=good[0].share_value * gp.g % gp.p)
    proof = good[1].proof
    response_forged = dataclasses.replace(
        good[1], proof=dataclasses.replace(proof, response=(proof.response + 1) % gp.q))
    for forged, other in ((value_forged, good[1]), (response_forged, good[0])):
        with pytest.raises(BadShareProof) as exc:
            combine_shares(ct, [forged, other], jpk, 10, gp, CTX)
        assert exc.value.trustee_id == forged.trustee_id


def test_decryption_share_binds_context() -> None:
    jpk, trustees = dkg(2, 2, GP, random.Random(69))
    ct = encrypt_exp(1, 3, jpk.K, GP)
    ds = partial_decrypt(ct, trustees[0], GP, random.Random(1), CTX)
    assert verify_decryption_share(ds, ct, jpk.commitments, GP, CTX)
    assert not verify_decryption_share(ds, ct, jpk.commitments, GP, b"other:context")


def test_share_and_key_json_round_trips() -> None:
    jpk, trustees = dkg(3, 2, GP, random.Random(70))
    assert JointPublicKey.from_json(jpk.to_json()) == jpk
    for share in trustees:
        assert TrusteeShare.from_json(share.to_json()) == share


@pytest.mark.parametrize("gp, n, k, trials", [(TEST_GROUP, 5, 3, 20), (PROD_GROUP, 2, 2, 1)],
                         ids=["test", "prod"])
def test_signed_lagrange_coefficients_give_the_plain_interpolation(gp, n, k, trials) -> None:
    """Raising a share to lam - q when lam > q // 2 gives what raising it to
    lam did, over random ciphertexts and trustee subsets (in the prod group,
    ids 1 and 2, where lam_2 = q - 1)."""
    rng = random.Random(71)
    for _ in range(trials):
        jpk, trustees = dkg(n, k, gp, rng)
        ct = encrypt_exp(rng.randrange(2), rng.randrange(1, gp.q), jpk.K, gp)
        shares = [partial_decrypt(ct, t, gp, rng, CTX) for t in trustees]
        for subset in itertools.combinations(shares, k):
            ids = [ds.trustee_id for ds in subset]
            combined = 1
            for ds in subset:
                lam = lagrange_coeff(ds.trustee_id, ids, gp.q)
                combined = combined * pow(ds.share_value, lam, gp.p) % gp.p
            expected = ct.b * pow(combined, -1, gp.p) % gp.p
            g_m = combine_in_exponent(ct, list(subset), jpk, gp, CTX, Immediate(gp))
            assert g_m == expected, ids
