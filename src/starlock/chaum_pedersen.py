"""Chaum-Pedersen proofs: equality of discrete logs, plus the disjunctive
zero-or-one variant that ballot columns carry.

Challenges are Fiat-Shamir derived over the full transcript: a caller-supplied
context (election, style, contest, column identifiers), the statement
elements, and the commitments. Binding the statement into the hash is what
stops a proof from being replayed against any other statement. Every
challenge lies in [0, M), M = gp.challenge_space = min(q, 2^256): the
Fiat-Shamir challenge is a SHA-256 digest mod q, and a zero-or-one proof's
two branch challenges are each below M and sum to that challenge mod M
(Cramer, Damgard and Schoenmakers, CRYPTO 1994: two accepting transcripts
differ in a branch challenge by less than M <= q, which is invertible mod q).
In the prod group q itself is below 2^256, so M = q, and every exponent, a
response or a power of a statement value, is a 256-bit one.

Every proof equation has one form, base^s == commit * y^c (the y of a
zero-or-one branch for bit m is b * g^-m), between signed forms
(GroupParams.signed): both sides are taken mod p and compared up to sign,
so a commit is published as |base^w|. A verifier asks a sink whether each
element of a proof's statement is in the order-q subgroup (sink.member:
ct.a, ct.b, the joint key, a verification key, c.a, a share value), save a
statement value that is a product of elements already asked about (a
contest sum), and whether each commitment is a signed representative
(sink.in_range, the range check alone). It states its equations to the sink
after the proof's exponent-range, Fiat-Shamir and challenge-sum checks have
passed:

  * Immediate tests each membership exactly (GroupParams.is_element: the
    range and x^q = +-1) and each equation as it comes, through gp.comb:
    provers and the proof-by-proof check use combs; a batch uses only
    multi-exponentiations. It is the default, and the only sink of a small
    group: with q = 11 a 64-bit weight reduces mod 11 and would let a false
    equation through with probability 1/11.
  * Collect, in a large group, is the small-exponents batch test of Bellare,
    Garay and Rabin (EUROCRYPT 1998). Equation i is raised to its own 64-bit
    weight w_i, the first 8 bytes of SHA-256(SHA-256(seed) || i); the seed
    is bytes that fix every response the batch weighs, so no response can be
    chosen once its weight is known, and no rng is drawn. Each command makes
    one batch: verify seeds it from the SHA-256 of the whole raw board,
    simulate from every published ballot's and proof's canonical bytes,
    length-prefixed in publication order (board.Board.publish_entries), and
    tally from every decrypted column's context, c.a and shares, spoiled
    ballots' and the tally's alike (trustees.combine_shares). Exponents are
    summed per element, on its own side: base^(w s) and g^(w m c) on the
    left, mod q, in one multi-exponentiation (group.multi_exp); commit^w and
    y^(w c) on the right, a second one whose exponents are short, 64 + 256
    bits at most per equation. Each equation keeps its own weight, a
    zero-or-one proof's four included: with one weight on both branches, an
    encryption of 2 could meet the combined equations by a c1 chosen after
    the hash. Membership is batched too: each distinct
    statement element x_i gets its range check at once (a signed
    representative, in the group Z_p^*/{+-1} of order qm) and a 64-bit
    weight v_i under a label of its own, and the batch also requires
    (prod x_i^v_i)^q = +-1. batched() is its one user: a check that fails
    its batch runs again through Immediate (first through a batch per part,
    when its caller passes retry), which names the failing proof exactly as
    a proof-by-proof run does.

A commitment needs no order test of its own, because its equation makes
one:

  * In Immediate, a commitment in range is a signed representative, and its
    equation makes it equal to +-base^s * y^-c, a product of members; so it
    is a member exactly.
  * In Collect, a commitment's exponent is the sum of its own 64-bit
    weights, never reduced mod q. G = Z_p^*/{+-1} has order qm, and m is 1
    or a prime above 2^64 (GroupParams.validate), so no element has a small
    order for a weight to cancel (Boyd and Pavlovski, ASIACRYPT 2000, break
    batch tests where one can). A commitment with an order-m part keeps that
    part in the weighted product unless one weight hits one residue mod m,
    which happens with probability at most 2^-64. A commitment that equals a
    statement element is tested as that element.

So a batch fails to catch each of three events with probability at most
2^-64: a false equation, a statement element outside the order-q subgroup
and a commitment outside it. Every element of an honest batch has order q,
so the batch always holds; in a safe-prime group (m = 1) the range check
alone is exact.
"""

from __future__ import annotations

import random

from .elgamal import Ciphertext
from .fiatshamir import DOMAIN_ZERO_ONE, fiat_shamir_challenge
from .group import GroupParams, multi_exp
from .serialize import HEX, Record, sha256


class Immediate:
    """Tests each proof equation, and each element's membership, as it is
    stated."""

    def __init__(self, gp: GroupParams):
        self.gp, self.comb = gp, gp.comb
        self.member = gp.is_element
        self.in_range = gp.is_signed

    def check(self, base, s, commit, y, c, m=0) -> bool:
        """base^s == commit * (y * g^-m)^c mod p, up to sign, base^s through
        gp.comb: provers and the proof-by-proof check use combs; a batch uses
        only multi-exponentiations."""
        gp, p = self.gp, self.gp.p
        if m:
            y = y * pow(pow(gp.g, m, p), -1, p) % p
        return gp.signed(self.comb(base, s, p)) == gp.signed(commit * pow(y, c, p) % p)


class Collect:
    """Weighs each proof equation and each statement element's order-q test,
    and tests them all at once in holds()."""

    def __init__(self, gp: GroupParams, seed: bytes):
        self.gp, self.seed, self.n = gp, sha256(seed), 0
        self.in_range = gp.is_signed
        self.exps = {}  # base -> summed exponent mod q, on the base^s side
        self.commits = {}  # commit or y -> summed exponent, on the other side
        self.members = {}  # element -> its weight in the product raised to q

    def member(self, x) -> bool:
        """The range check, once per distinct element; x^q = +-1 is left to
        holds(), under the element's own weight."""
        if x not in self.members:
            if not self.gp.is_signed(x):
                return False
            label = b"member" + len(self.members).to_bytes(8, "big")
            self.members[x] = int.from_bytes(sha256(self.seed + label)[:8], "big")
        return True

    def check(self, base, s, commit, y, c, m=0) -> bool:
        q, g, exps, commits = self.gp.q, self.gp.g, self.exps, self.commits
        self.n += 1
        w = int.from_bytes(sha256(self.seed + self.n.to_bytes(8, "big"))[:8], "big")
        exps[base] = (exps.get(base, 0) + w * s) % q
        if m:  # (y * g^-m)^c: g^(m c) moves to the base^s side
            exps[g] = (exps.get(g, 0) + w * m * c) % q
        commits[commit] = commits.get(commit, 0) + w  # not mod q: keeps an order-m part
        commits[y] = (commits.get(y, 0) + w * c) % q  # positive: as short as w * c
        return True

    def holds(self) -> bool:
        gp, p = self.gp, self.gp.p
        return (gp.signed(multi_exp(self.exps.items(), p))
                == gp.signed(multi_exp(self.commits.items(), p))
                and gp.is_element(gp.signed(multi_exp(self.members.items(), p))))


def batched(gp: GroupParams, seed, run, retry=None):
    """run(Collect(gp, seed())) in a large group, or run(Immediate(gp)) when
    that batch fails or the group is the test group; retry(), when given,
    stands for run(Immediate(gp)) after a failed batch. seed() must fix every
    response the batch weighs."""
    if gp.large:
        batch = Collect(gp, seed())
        result = run(batch)
        if batch.holds():
            return result
        if retry:
            return retry()
    return run(Immediate(gp))


class ChaumPedersenProof(Record):
    """Proof that log_g(y1) = log_{g2}(y2)."""

    FIELDS = tuple((name, name, HEX) for name in ("commit1", "commit2", "challenge", "response"))


def prove_eq_dlog(
    witness: int,
    y1: int,
    g2: int,
    y2: int,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
    domain: bytes,
) -> ChaumPedersenProof:
    """Prove log_g(y1) = log_g2(y2) = witness; the transcript hashes g too."""
    comb = gp.comb  # g2 is the joint key or a c.a: both recur
    w = rng.randrange(0, gp.q)
    t1 = gp.signed(comb(gp.g, w, gp.p))
    t2 = gp.signed(comb(g2, w, gp.p))
    e = fiat_shamir_challenge(domain, context, (gp.g, y1, g2, y2, t1, t2), gp)
    s = (w + e * witness) % gp.q
    return ChaumPedersenProof(commit1=t1, commit2=t2, challenge=e, response=s)


def verify_eq_dlog(
    proof: ChaumPedersenProof,
    y1: int,
    g2: int,
    y2: int,
    gp: GroupParams,
    context: bytes,
    domain: bytes,
    eqs=None,
) -> bool:
    """The proof's checks, and its commits' range checks and two equations
    stated to eqs: an Immediate sink when None. Provers and the proof-by-proof
    check use combs; a batch uses only multi-exponentiations. The caller tests
    the statement y1, g2, y2 for membership, or knows it is a product of
    elements it has tested."""
    eqs = eqs or Immediate(gp)
    if not (eqs.in_range(proof.commit1) and eqs.in_range(proof.commit2)):
        return False
    if not gp.is_exponent(proof.response) or not gp.is_exponent(proof.challenge):
        return False
    expected = fiat_shamir_challenge(
        domain, context, (gp.g, y1, g2, y2, proof.commit1, proof.commit2), gp)
    if proof.challenge != expected:
        return False
    e, s = proof.challenge, proof.response
    return eqs.check(gp.g, s, proof.commit1, y1, e) and eqs.check(g2, s, proof.commit2, y2, e)


class ZeroOneProof(Record):
    """Disjunctive proof that a ciphertext encrypts 0 or 1.

    One branch is proved honestly, the other simulated; the two branch
    challenges must add up to the Fiat-Shamir challenge of the whole
    transcript, so at least one branch is sound.
    """

    FIELDS = tuple((name, name, HEX) for name in (
        "commit0_g", "commit0_k", "commit1_g", "commit1_k",
        "challenge0", "challenge1", "response0", "response1",
    ))


def prove_zero_or_one(
    bit: int,
    r: int,
    ct: Ciphertext,
    public_key: int,
    gp: GroupParams,
    rng: random.Random,
    context: bytes,
) -> ZeroOneProof:
    """Prove ct = Enc(bit; r), bit in {0, 1}, unrevealed; r must be ct's randomness."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    p, q, g, space = gp.p, gp.q, gp.g, gp.challenge_space
    comb = gp.comb

    # Branch m claims (ct.a, ct.b / g^m) is a DH pair under (g, public_key); the
    # other bit's is simulated from r: g^v a^-c = g^u, K^v (b/g^sim)^-c = K^u g^((sim-bit)c).
    # Both branch challenges lie in [0, M), M = gp.challenge_space.
    sim = 1 - bit
    c_sim = rng.randrange(0, space)
    v_sim = rng.randrange(0, q)
    u = (v_sim - r * c_sim) % q
    a_sim_commit = gp.signed(comb(g, u, p))
    b_sim_commit = gp.signed(comb(public_key, u, p) * comb(g, (sim - bit) * c_sim % q, p) % p)

    w = rng.randrange(0, q)
    a_real_commit = gp.signed(comb(g, w, p))
    b_real_commit = gp.signed(comb(public_key, w, p))

    if bit == 0:
        a0c, b0c, a1c, b1c = a_real_commit, b_real_commit, a_sim_commit, b_sim_commit
    else:
        a0c, b0c, a1c, b1c = a_sim_commit, b_sim_commit, a_real_commit, b_real_commit

    e = fiat_shamir_challenge(
        DOMAIN_ZERO_ONE, context, (public_key, ct.a, ct.b, a0c, b0c, a1c, b1c), gp)
    c_real = (e - c_sim) % space
    v_real = (w + c_real * r) % q

    if bit == 0:
        c0, c1, v0, v1 = c_real, c_sim, v_real, v_sim
    else:
        c0, c1, v0, v1 = c_sim, c_real, v_sim, v_real
    return ZeroOneProof(
        commit0_g=a0c, commit0_k=b0c, commit1_g=a1c, commit1_k=b1c,
        challenge0=c0, challenge1=c1, response0=v0, response1=v1,
    )


def verify_zero_or_one(
    proof: ZeroOneProof,
    ct: Ciphertext,
    public_key: int,
    gp: GroupParams,
    context: bytes,
    eqs=None,
) -> bool:
    """The proof's checks, its statement's membership tests, its commits'
    range checks and its four equations stated to eqs (an Immediate sink
    when None)."""
    eqs = eqs or Immediate(gp)
    commits = (proof.commit0_g, proof.commit0_k, proof.commit1_g, proof.commit1_k)
    if not (all(eqs.member(el) for el in (ct.a, ct.b, public_key))
            and all(eqs.in_range(t) for t in commits)):
        return False
    space = gp.challenge_space
    if not (gp.is_exponent(proof.response0) and gp.is_exponent(proof.response1)
            and 0 <= proof.challenge0 < space and 0 <= proof.challenge1 < space):
        return False

    e = fiat_shamir_challenge(DOMAIN_ZERO_ONE, context, (public_key, ct.a, ct.b, *commits), gp)
    if (proof.challenge0 + proof.challenge1) % space != e:  # e < M in every group
        return False

    # Branch m: (a, b / g^m) is a DH pair under (g, public_key).
    for m, commit_g, commit_k, c, v in (
        (0, proof.commit0_g, proof.commit0_k, proof.challenge0, proof.response0),
        (1, proof.commit1_g, proof.commit1_k, proof.challenge1, proof.response1),
    ):
        if not (eqs.check(gp.g, v, commit_g, ct.a, c)
                and eqs.check(public_key, v, commit_k, ct.b, c, m)):
            return False
    return True
