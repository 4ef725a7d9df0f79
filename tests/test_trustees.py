"""Threshold key ceremony, share verification, and combined decryption."""

import itertools
import random

import pytest

from helpers import MID_GROUP, replace
from starlock.chaum_pedersen import Collect, Immediate
from starlock.elgamal import dlog_search, encrypt_exp
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
)

GP = TEST_GROUP
CTX = b"tally:race:col"


def shares_for(ct, trustee_shares, seed=0):
    rng = random.Random(seed)
    return [partial_decrypt(ct, s, GP, rng, CTX) for s in trustee_shares]


def combine_one(ct, shares, jpk, gp=GP):
    """combine_shares on the one column (ct, shares), its plaintext at most 10."""
    [g_m] = combine_shares([(ct, shares, CTX)], jpk, gp)
    return dlog_search(g_m, 10, gp)


def verify_share(share: TrusteeShare, gp) -> bool:
    """Feldman consistency check a trustee runs on receipt of its share."""
    expected = verification_key(share.trustee_id, share.commitments, gp)
    return gp.signed(pow(gp.g, share.secret_share, gp.p)) == expected


def test_single_trustee_share_is_the_secret() -> None:
    jpk, shares = dkg(1, 1, GP, random.Random(61))
    assert jpk.n == 1 and jpk.k == 1
    assert len(shares) == 1
    assert shares[0].trustee_id == 1
    assert GP.signed(pow(GP.g, shares[0].secret_share, GP.p)) == jpk.K
    assert jpk.commitments == (jpk.K,)


def test_every_share_passes_feldman_check() -> None:
    jpk, shares = dkg(5, 3, GP, random.Random(62))
    assert len(jpk.commitments) == 3
    for share in shares:
        assert verify_share(share, GP)
        assert verification_key(share.trustee_id, jpk.commitments, GP) == GP.signed(pow(
            GP.g, share.secret_share, GP.p
        ))


def test_tampered_share_fails_feldman_check() -> None:
    _, shares = dkg(3, 2, GP, random.Random(63))
    bad = replace(shares[0], secret_share=(shares[0].secret_share + 1) % GP.q)
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
        assert combine_one(ct, list(pair), jpk) == 7


def test_any_three_of_five_decrypt_alike() -> None:
    jpk, trustees = dkg(5, 3, GP, random.Random(66))
    ct = encrypt_exp(9, 6, jpk.K, GP)
    all_shares = shares_for(ct, trustees)
    for trio in itertools.combinations(all_shares, 3):
        assert combine_one(ct, list(trio), jpk) == 9


def test_combine_uses_first_k_and_dedupes() -> None:
    jpk, trustees = dkg(3, 2, GP, random.Random(67))
    ct = encrypt_exp(4, 9, jpk.K, GP)
    all_shares = shares_for(ct, trustees)
    # duplicates of one trustee do not count toward the threshold
    with pytest.raises(InsufficientShares):
        combine_one(ct, [all_shares[0], all_shares[0]], jpk)
    with pytest.raises(InsufficientShares):
        combine_one(ct, all_shares[:1], jpk)
    # extra shares beyond k are tolerated
    assert combine_one(ct, all_shares, jpk) == 4


@pytest.mark.parametrize("gp", [TEST_GROUP, MID_GROUP], ids=["test", "mid"])
def test_bad_share_proof_names_trustee(gp) -> None:
    rng = random.Random(68)
    jpk, trustees = dkg(3, 2, gp, rng)
    ct = encrypt_exp(2, 5, jpk.K, gp)
    good = [partial_decrypt(ct, s, gp, rng, CTX) for s in trustees]
    # A forged value fails its proof's Fiat-Shamir check; a response raised by
    # 1 fails only its equation, which a large group tests in a batch first.
    value_forged = replace(good[0], share_value=good[0].share_value * gp.g % gp.p)
    proof = good[1].proof
    response_forged = replace(
        good[1], proof=replace(proof, response=(proof.response + 1) % gp.q))
    for forged, other in ((value_forged, good[1]), (response_forged, good[0])):
        with pytest.raises(BadShareProof) as exc:
            combine_one(ct, [forged, other], jpk, gp)
        assert exc.value.trustee_id == forged.trustee_id


def test_prod_shares_are_the_integers_pow_gives() -> None:
    """A share and its proof's commitments, raised through the combs, are the
    signed forms of the builtin pow of the same base and exponent."""
    gp = PROD_GROUP
    rng = random.Random(72)
    jpk, trustees = dkg(3, 2, gp, rng)
    ct = encrypt_exp(1, rng.randrange(1, gp.q), jpk.K, gp)
    for share in trustees[:2]:
        clone = random.Random()
        clone.setstate(rng.getstate())
        w = clone.randrange(0, gp.q)  # the proof's one draw
        ds = partial_decrypt(ct, share, gp, rng, CTX)
        assert ds.share_value == gp.signed(pow(ct.a, share.secret_share, gp.p))
        assert ds.proof.commit1 == gp.signed(pow(gp.g, w, gp.p))
        assert ds.proof.commit2 == gp.signed(pow(ct.a, w, gp.p))
        assert verify_decryption_share(ds, ct, jpk.commitments, gp, CTX)


def mid_columns(rng, jpk, trustees, plaintexts):
    """One (ciphertext, shares, context) column per plaintext, in MID_GROUP."""
    columns = []
    for j, m in enumerate(plaintexts):
        ct = encrypt_exp(m, rng.randrange(1, MID_GROUP.q), jpk.K, MID_GROUP)
        context = CTX + bytes([j])
        columns.append((ct, [partial_decrypt(ct, t, MID_GROUP, rng, context) for t in trustees],
                        context))
    return columns


def test_one_batch_over_three_columns_decrypts_each_as_alone(monkeypatch) -> None:
    rng = random.Random(73)
    jpk, trustees = dkg(3, 2, MID_GROUP, rng)
    columns = mid_columns(rng, jpk, trustees, (0, 1, 7))
    batches = []
    holds = Collect.holds
    monkeypatch.setattr(Collect, "holds", lambda self: batches.append(self.n) or holds(self))
    powers = [MID_GROUP.signed(pow(MID_GROUP.g, m, MID_GROUP.p)) for m in (0, 1, 7)]
    assert combine_shares(columns, jpk, MID_GROUP) == powers
    assert batches == [3 * 2 * 2]  # one batch: 3 columns, k = 2 shares, 2 equations each
    assert [combine_shares([col], jpk, MID_GROUP)[0] for col in columns] == powers


def test_a_forged_response_in_the_middle_column_names_its_trustee(monkeypatch) -> None:
    rng = random.Random(74)
    jpk, trustees = dkg(3, 2, MID_GROUP, rng)
    columns = mid_columns(rng, jpk, trustees, (1, 0, 1))
    ct, shares, context = columns[1]
    proof = shares[1].proof
    shares[1] = replace(
        shares[1], proof=replace(proof, response=(proof.response + 1) % MID_GROUP.q))
    verdicts = []
    holds = Collect.holds
    monkeypatch.setattr(Collect, "holds",
                        lambda self: verdicts.append(holds(self)) or verdicts[-1])
    with pytest.raises(BadShareProof) as exc:
        combine_shares(columns, jpk, MID_GROUP)
    assert exc.value.trustee_id == shares[1].trustee_id == 2
    assert verdicts == [False]  # the batch failed; the per-proof rerun named the trustee


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
            expected = gp.signed(ct.b * pow(combined, -1, gp.p) % gp.p)
            g_m = combine_in_exponent(ct, list(subset), jpk, gp, CTX, Immediate(gp))
            assert g_m == expected, ids
