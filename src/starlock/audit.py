"""Ballot-level comparison risk-limiting audit.

Four pieces, all downstream of a closed election:

  * compliance reconciliation: paper summaries in the box vs electronic
    CAST records, each serial must appear in both;
  * per-contest salted commitments to the machine's plaintext vote records,
    published before the audit seed is fixed so officials cannot adjust
    records to match the sample;
  * a public pseudo-random sampler seeded by a 20-digit dice roll, so any
    observer can recompute the draw sequence;
  * the Kaplan-Markov risk measure over per-ballot overstatements, which
    either confirms the reported outcome at the chosen risk limit or
    escalates to a full hand count of the paper.

Vote records are committed contest by contest (never the whole ballot in
one record) so published artifacts cannot be used to recognize a voter by
an unusual cross-contest pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .boardformat import CAST, contest_columns, index_lines
from .errors import CommitmentMismatch, MarginNotPositive, StarlockError
from .fiatshamir import DOMAIN_COMMITMENT
from .manifest import ElectionManifest
from .serialize import enc_bytes, enc_int, enc_str, sha256, sha256_hex

SEED_DIGITS = 20
SALT_BYTES = 16

CONFIRMED = "CONFIRMED"
FULL_HAND_COUNT = "FULL_HAND_COUNT"


def check_seed(seed: str) -> str:
    """A sampling seed is exactly 20 decimal digits (two dice per digit pair,
    rolled in public)."""
    if len(seed) != SEED_DIGITS or not seed.isdigit():
        raise ValueError("seed must be exactly 20 decimal digits")
    return seed


def prng_sequence(seed: str, n: int):
    """Yield indices in [0, n): index_j = SHA-256(seed , j) mod n for
    j = 1, 2, ...  Reproducible by anyone with the seed."""
    check_seed(seed)
    if n < 1:
        raise ValueError("population must be nonempty")
    j = 1
    while True:
        digest = sha256(seed.encode("ascii") + b"," + str(j).encode("ascii"))
        yield int.from_bytes(digest, "big") % n
        j += 1


def contest_commitment(contest_id: str, selections, writein: bool, salt: bytes) -> str:
    """Salted digest of one contest's plaintext interpretation."""
    data = enc_str(contest_id) + enc_int(len(selections))
    for opt in sorted(selections):
        data += enc_str(opt)
    data += enc_int(1 if writein else 0) + enc_bytes(salt)
    return sha256_hex(DOMAIN_COMMITMENT + data)


def interpretation(plaintext: dict, style) -> dict:
    """Per-contest view of a plaintext ballot, covering every contest on the
    style (abstained contests appear with empty selections)."""
    selections = plaintext.get("selections", {})
    writeins = set(plaintext.get("writeins", []))
    out = {}
    for contest in style.contests:
        cid = contest.contest_id
        out[cid] = {
            "selections": sorted(selections.get(cid, [])),
            "writein": contest.writein_slot and cid in writeins,
        }
    return out


def build_cvrs(records, manifest: ElectionManifest, rng) -> list:
    """The election official's private opening store: one row per cast
    ballot with serial, board index, plaintext interpretation, a fresh
    128-bit salt, and the per-contest commitment digests.

    records: iterable of {"serial", "index", "plaintext"} where plaintext is
    a plaintext-ballot JSON object."""
    style_map = manifest.style_map
    rows = []
    for rec in sorted(records, key=lambda r: int(r["index"])):
        plaintext = rec["plaintext"]
        style = style_map[plaintext["style_id"]]
        salt = rng.getrandbits(8 * SALT_BYTES).to_bytes(SALT_BYTES, "big")
        contests = interpretation(plaintext, style)
        commitments = {
            cid: contest_commitment(cid, view["selections"], view["writein"], salt)
            for cid, view in contests.items()
        }
        rows.append(
            {
                "serial": rec["serial"],
                "index": int(rec["index"]),
                "style": style.style_id,
                "salt": salt.hex(),
                "contests": contests,
                "commitments": commitments,
            }
        )
    return rows


def published_commitments(cvrs) -> list:
    """The publishable face of the CVR store: serial, board index, and
    digests only. No plaintext, no salts."""
    return [
        {"serial": row["serial"], "index": row["index"], "commitments": dict(row["commitments"])}
        for row in cvrs
    ]


def open_commitment(row: dict, published: dict) -> None:
    """Recompute a CVR row's digests and compare against the published ones.
    Raises CommitmentMismatch on any disagreement."""
    salt = bytes.fromhex(row["salt"])
    for cid, view in row["contests"].items():
        digest = contest_commitment(cid, view["selections"], view["writein"], salt)
        if published.get(cid) != digest:
            raise CommitmentMismatch(
                f"serial {row['serial']}, contest {cid}: opened record does not "
                f"match published commitment"
            )
    if set(row["contests"]) != set(published):
        raise CommitmentMismatch(
            f"serial {row['serial']}: committed contest set differs from published"
        )


def compliance_check(cast_serials, box_serials) -> dict:
    """Reconcile electronic CAST records against paper summaries in the box.
    Mismatches are report content, not errors."""
    cast = set(cast_serials)
    box = set(box_serials)
    return {
        "cast_records": len(cast),
        "papers": len(box),
        "cast_without_paper": sorted(cast - box),
        "paper_without_record": sorted(box - cast),
        "clean": cast == box,
    }


def _contests(manifest: ElectionManifest) -> dict:
    layout = contest_columns({style.style_id: style for style in manifest.styles})
    return {cid: contest for cid, (contest, _) in layout.items()}


def margin_pairs(manifest: ElectionManifest, result: dict):
    """Reported winners per contest and every (contest, winner, loser) pair,
    with the smallest winner-loser margin V across all pairs. Named options
    only; the abstain and write-in counters hold no seat."""
    winners = {}
    pairs = []
    v = None
    for cid, contest in sorted(_contests(manifest).items()):
        counts = {opt: int(result[cid][opt]) for opt in contest.options}
        ranked = sorted(contest.options, key=lambda o: (-counts[o], o))
        top = ranked[: contest.limit]
        rest = ranked[contest.limit :]
        winners[cid] = top
        for w in top:
            for l in rest:
                pairs.append((cid, w, l))
                margin = counts[w] - counts[l]
                v = margin if v is None else min(v, margin)
    if v is None:
        raise MarginNotPositive("no contested contest: nothing to audit")
    if v <= 0:
        raise MarginNotPositive(f"smallest winner-loser margin is {v}")
    return winners, pairs, v


def overstatement(reported: dict, manual: dict, pairs) -> int:
    """Worst-case per-ballot overstatement across all winner-loser pairs.
    Each term is in {-1, 0, 1}, so e is always in {-2, ..., 2}."""

    def vote(interp, cid, opt):
        view = interp.get(cid)
        return 1 if view and opt in view.get("selections", []) else 0

    worst = None
    for cid, w, l in pairs:
        rep = vote(reported, cid, w) - vote(reported, cid, l)
        man = vote(manual, cid, w) - vote(manual, cid, l)
        e = rep - man
        worst = e if worst is None else max(worst, e)
    return worst if worst is not None else 0


@dataclass
class KMState:
    """Running Kaplan-Markov risk: P = product over draws of
    (1 - 1/U) / (1 - e/2) with U = 2N/V. A maximal overstatement (e = 2)
    drives P to infinity, forcing escalation."""

    N: int
    V: int
    alpha: float
    pairs: tuple = ()
    p_value: float = 1.0
    draws: int = 0
    discrepancies: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.V <= 0:
            raise MarginNotPositive(f"margin must be positive, got {self.V}")
        if self.N < 1:
            raise ValueError("need at least one cast ballot")
        if self.U <= 1:
            raise MarginNotPositive(f"error bound U={self.U} must exceed 1")
        self.pairs = tuple(self.pairs)

    @property
    def U(self) -> float:
        return 2 * self.N / self.V


def km_risk(state: KMState, draws) -> float:
    """Fold (reported, manual) interpretation pairs into the running
    P-value. Returns the updated P (math.inf means mandatory escalation)."""
    for reported, manual in draws:
        e = overstatement(reported, manual, state.pairs)
        state.draws += 1
        state.discrepancies[e] = state.discrepancies.get(e, 0) + 1
        if e >= 2:
            state.p_value = math.inf
        elif not math.isinf(state.p_value):
            state.p_value *= (1 - 1 / state.U) / (1 - e / 2)
    return state.p_value


def hand_count(papers, manifest: ElectionManifest) -> dict:
    """Full manual count of every paper summary: per-contest option counts
    and the winners they imply."""
    contests = _contests(manifest)
    counts = {cid: {opt: 0 for opt in c.options} for cid, c in contests.items()}
    for paper in papers:
        for cid, view in paper["contests"].items():
            if cid not in counts:
                continue
            for opt in view.get("selections", []):
                if opt in counts[cid]:
                    counts[cid][opt] += 1
    winners = {}
    for cid, contest in contests.items():
        ranked = sorted(contest.options, key=lambda o: (-counts[cid][o], o))
        winners[cid] = ranked[: contest.limit]
    return {"counts": counts, "winners": winners}


def run_audit(lines, manifest: ElectionManifest, cvrs, papers, seed: str,
              alpha: float, published=None) -> dict:
    """Drive the comparison audit to a verdict.

    lines: parsed board lines (the published record, tallied and signed).
    cvrs: the official's private opening store from build_cvrs.
    papers: list of {"serial", "contests"} paper-summary interpretations.
    published: the published commitment rows; defaults to digests recomputed
    from cvrs, but passing the genuinely published file is the point.

    Stops as soon as P <= alpha (CONFIRMED) or after N draws
    (FULL_HAND_COUNT, returning the manual count and its winners)."""
    check_seed(seed)
    if not 0 < alpha < 1:
        raise ValueError("risk limit must be in (0, 1)")

    board_index = index_lines(lines)
    cast_indices = {i for i, s in board_index.statuses.items() if s == CAST}
    population = [row for row in cvrs if int(row["index"]) in cast_indices]
    population.sort(key=lambda row: int(row["index"]))
    if {int(row["index"]) for row in population} != cast_indices:
        raise StarlockError("CVR store does not cover every CAST board entry")

    papers_by_serial = {p["serial"]: p for p in papers}
    if len(papers_by_serial) != len(papers):
        raise StarlockError("duplicate serial among paper summaries")
    compliance = compliance_check((row["serial"] for row in population),
                                  papers_by_serial)
    if not compliance["clean"]:
        raise StarlockError(
            "compliance check not clean: "
            f"{len(compliance['cast_without_paper'])} cast-without-paper, "
            f"{len(compliance['paper_without_record'])} paper-without-record"
        )

    published_by_serial = {}
    for row in published if published is not None else published_commitments(cvrs):
        published_by_serial[row["serial"]] = row["commitments"]

    if not board_index.tallies:
        raise StarlockError("board carries no tally; audit needs reported results")
    winners, pairs, v = margin_pairs(manifest, board_index.tallies[-1][1]["result"])
    n = len(population)
    state = KMState(N=n, V=v, alpha=alpha, pairs=pairs)

    trajectory = []
    verdict = None
    for index in prng_sequence(seed, n):
        row = population[index]
        if row["serial"] not in published_by_serial:
            raise CommitmentMismatch(f"serial {row['serial']} has no published commitment")
        open_commitment(row, published_by_serial[row["serial"]])
        paper = papers_by_serial[row["serial"]]
        e = overstatement(row["contests"], paper["contests"], pairs)
        p = km_risk(state, [(row["contests"], paper["contests"])])
        trajectory.append(
            {"draw_j": state.draws, "index": index, "e_j": e, "P_j": p}
        )
        if p <= alpha:
            verdict = CONFIRMED
            break
        if state.draws >= n:
            verdict = FULL_HAND_COUNT
            break

    out = {
        "verdict": verdict,
        "p_value": state.p_value,
        "draws": state.draws,
        "N": n,
        "V": v,
        "U": state.U,
        "alpha": alpha,
        "reported_winners": winners,
        "discrepancies": {str(k): c for k, c in sorted(state.discrepancies.items())},
        "trajectory": trajectory,
    }
    if verdict == FULL_HAND_COUNT:
        manual = hand_count(papers, manifest)
        out["result"] = manual["counts"]
        out["winners"] = manual["winners"]
    return out
