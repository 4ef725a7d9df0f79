"""Ballot-level comparison risk-limiting audit.

Four pieces, all downstream of a closed election:

  * compliance reconciliation (reconcile, the tally's too): paper summaries
    in the box vs electronic CAST records, each serial must appear in both;
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

from .boardformat import CAST, TALLY_RESULT, BoardIndex, at_line, contest_columns
from .errors import CommitmentMismatch, MalformedRecord, MarginNotPositive, StarlockError
from .fiatshamir import DOMAIN_COMMITMENT
from .manifest import ElectionManifest
from .serialize import (
    BOOL,
    INT,
    OBJECT,
    SALT,
    SALT_BYTES,
    STR,
    Codec,
    decode_field,
    dict_of,
    enc_bytes,
    enc_int,
    enc_str,
    sha256,
    sha256_hex,
    tuple_of,
)

SEED_DIGITS = 20

CONFIRMED = "CONFIRMED"
FULL_HAND_COUNT = "FULL_HAND_COUNT"


def check_seed(seed: str) -> str:
    """A sampling seed is exactly 20 decimal digits (two dice per digit pair,
    rolled in public)."""
    if len(seed) != SEED_DIGITS or not (seed.isascii() and seed.isdigit()):
        raise ValueError("seed must be exactly 20 decimal digits")
    return seed


def check_alpha(alpha: float) -> float:
    """A risk limit is a number strictly between 0 and 1 (not NaN)."""
    if not 0 < alpha < 1:
        raise ValueError("risk limit must be in (0, 1)")
    return alpha


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
    digests only. No plaintext, no salts. A row without its serial, index or
    commitments object raises MalformedRecord naming it."""
    rows = zip(column(cvrs, "cvrs", "serial", STR.decode),
               column(cvrs, "cvrs", "index", INT.decode),
               column(cvrs, "cvrs", "commitments", OBJECT.decode))
    return [{"serial": s, "index": i, "commitments": dict(c)} for s, i, c in rows]


def open_commitment(row: dict, published: dict) -> None:
    """Recompute a CVR row's digests and compare against the published ones.
    Raises CommitmentMismatch on any disagreement."""
    salt = decode_field(row, "salt", SALT.decode)
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


def reconcile(statuses: dict, cvrs, papers):
    """Match the CVR store and the paper box one to one with the board, whose
    entries have the statuses {entry index: status}, by each CVR row's index
    and serial and each paper's serial. Returns ({entry index: CVR row} for
    the CAST entries, in entry order, and compliance_check's report). A CVR
    index naming no entry, or a CVR index or serial or paper serial repeating
    an earlier row's, is a MalformedRecord naming the file, row and field; a
    CAST entry without a row is one naming the CVR store and the entry."""
    def entry(value) -> int:
        if (i := INT.decode(value)) not in statuses:
            raise MalformedRecord(f"no entry {i}")
        return i

    indices = column(cvrs, "cvrs", "index", entry, distinct=True)
    serials = column(cvrs, "cvrs", "serial", STR.decode, distinct=True)
    box = column(papers, "papers", "serial", STR.decode, distinct=True)
    row_of = {i: j for j, i in enumerate(indices)}
    cast = [i for i, status in sorted(statuses.items()) if status == CAST]
    for i in cast:
        if i not in row_of:
            raise MalformedRecord(f"no row for CAST entry {i}").within("cvrs")
    report = compliance_check((serials[row_of[i]] for i in cast), box)
    return {i: cvrs[row_of[i]] for i in cast}, report


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
    return {cid: contest for cid, (contest, _) in contest_columns(manifest.style_map).items()}


def _ranked(contest, counts: dict) -> list:
    """The contest's options by count, most first, ties by option id; the
    first `limit` of them win."""
    return sorted(contest.options, key=lambda o: (-counts[o], o))


def margin_pairs(manifest: ElectionManifest, result: dict):
    """Reported winners per contest, {contest: [(winner, loser), ...]} for
    every contest with a loser, and the smallest winner-loser margin V across
    all pairs. Named options only; the abstain and write-in counters hold no
    seat."""
    winners = {}
    pairs = {}
    v = None
    for cid, contest in sorted(_contests(manifest).items()):
        if not set(contest.options) <= result.get(cid, {}).keys():
            raise StarlockError(f"reported result lacks an option of {cid}")
        counts = {opt: int(result[cid][opt]) for opt in contest.options}
        ranked = _ranked(contest, counts)
        top, rest = ranked[: contest.limit], ranked[contest.limit :]
        winners[cid] = top
        if rest:
            pairs[cid] = [(w, l) for w in top for l in rest]
            margin = counts[top[-1]] - counts[rest[0]]  # the closest pair's
            v = margin if v is None else min(v, margin)
    if v is None:
        raise MarginNotPositive("no contested contest: nothing to audit")
    if v <= 0:
        raise MarginNotPositive(f"smallest winner-loser margin is {v}")
    return winners, pairs, v


def overstatement(reported: dict, manual: dict, pairs: dict) -> int:
    """Worst-case per-ballot overstatement across all winner-loser pairs,
    given as margin_pairs gives them, {contest: [(winner, loser), ...]}. Each
    term is in {-1, 0, 1}, so e is always in {-2, ..., 2}. Only the contests
    either interpretation carries are walked: each pair of any other contest
    scores exactly 0."""

    def selections(interp, cid):
        view = interp.get(cid)
        return view.get("selections", []) if view else ()

    worst, walked = None, 0
    for cid in reported.keys() | manual.keys():
        if cid not in pairs:
            continue
        walked += 1
        rep, man = selections(reported, cid), selections(manual, cid)
        for w, l in pairs[cid]:
            e = (w in rep) - (l in rep) - (w in man) + (l in man)
            worst = e if worst is None else max(worst, e)
    if walked < len(pairs):
        worst = 0 if worst is None else max(worst, 0)
    return worst if worst is not None else 0


class KMState:
    """Running Kaplan-Markov risk: P = product over draws of
    (1 - 1/U) / (1 - e/2) with U = 2N/V. A maximal overstatement (e = 2)
    drives P to infinity, forcing escalation."""

    def __init__(self, N: int, V: int):
        self.N, self.V = N, V
        self.p_value, self.draws, self.discrepancies = 1.0, 0, {}
        if self.V <= 0:
            raise MarginNotPositive(f"margin must be positive, got {self.V}")
        if self.N < 1:
            raise ValueError("need at least one cast ballot")
        if self.U <= 1:
            raise MarginNotPositive(f"error bound U={self.U} must exceed 1")

    @property
    def U(self) -> float:
        return 2 * self.N / self.V

    def observe(self, e: int) -> float:
        """Fold one draw's overstatement e into the running P-value. Returns
        the updated P (math.inf means mandatory escalation)."""
        self.draws += 1
        self.discrepancies[e] = self.discrepancies.get(e, 0) + 1
        if e >= 2:
            self.p_value = math.inf
        elif not math.isinf(self.p_value):
            self.p_value *= (1 - 1 / self.U) / (1 - e / 2)
        return self.p_value


def column(rows, name: str, key: str, decode, distinct=False) -> list:
    """decode(row[key]) for each row of the named file, a list of objects; a
    MalformedRecord names the file, row and field, as in "cvrs[3].index: missing",
    and, if distinct, a value that repeats an earlier row's."""
    if type(rows) is not list:
        raise MalformedRecord("not a list").within(name)
    out, first = [], {}
    for i, row in enumerate(rows):
        try:
            out.append(decode_field(OBJECT.decode(row), key, decode))
            if distinct and first.setdefault(out[-1], i) != i:
                raise MalformedRecord(f"repeats {name}[{first[out[-1]]}].{key}").within(key)
        except MalformedRecord as exc:
            raise exc.within(i).within(name)
    return out


VIEW_FIELDS = (("selections", tuple_of(STR).decode), ("writein", BOOL.decode))


def _views(required: tuple):
    """Decoder of a row's contests, {contest id: view}: each view an object
    whose selections are a list of strings and whose writein is a boolean,
    where present; the keys in required must be present."""
    def view(value) -> dict:
        for key, decode in VIEW_FIELDS:
            if key in OBJECT.decode(value) or key in required:
                decode_field(value, key, decode)
        return value

    return dict_of(Codec(None, view)).decode


CVR_VIEWS = _views(("selections", "writein"))
PAPER_VIEWS = _views(())  # a paper summary may leave out either


def hand_count(papers, manifest: ElectionManifest) -> dict:
    """Full manual count of every paper summary: per-contest option counts
    and the winners they imply; a paper counts each option it names once, and
    none in a contest where it names more than the limit (an overvote).
    Raises MalformedRecord at a paper without its contests or with a view out
    of form."""
    contests = _contests(manifest)
    counts = {cid: {opt: 0 for opt in c.options} for cid, c in contests.items()}
    for views in column(papers, "papers", "contests", PAPER_VIEWS):
        for cid, view in views.items():
            if cid not in counts:
                continue
            named = counts[cid].keys() & set(view.get("selections", []))
            if len(named) <= contests[cid].limit:
                for opt in named:
                    counts[cid][opt] += 1
    winners = {cid: _ranked(c, counts[cid])[: c.limit] for cid, c in contests.items()}
    return {"counts": counts, "winners": winners}


def run_audit(board: BoardIndex, manifest: ElectionManifest, cvrs, papers, seed: str,
              alpha: float, published=None) -> dict:
    """Drive the comparison audit to a verdict.

    board: boardformat.parse_lines of the published record, tallied and signed.
    cvrs: the official's private opening store from build_cvrs.
    papers: list of {"serial", "contests"} paper-summary interpretations.
    published: the published commitment rows; defaults to digests recomputed
    from cvrs, but passing the genuinely published file is the point.

    Draws CAST ballots with replacement (prng_sequence) and stops as soon as
    P <= alpha (CONFIRMED) or after N draws, escalating to a full hand count
    (FULL_HAND_COUNT, returning the manual count and its winners).
    A CVR row or paper without its serial or contests (or with a view out of
    form), a CVR row without its index, a store or box that reconcile refuses,
    or a published row without its serial or commitments or repeating a serial
    raises MalformedRecord naming the row and the field; an unclean
    compliance check or a board with no effective-CAST entry, StarlockError."""
    check_seed(seed)
    check_alpha(alpha)

    cast, compliance = reconcile(board.statuses, cvrs, papers)
    population = list(cast.values())
    papers_by_serial = {paper["serial"]: paper for paper in papers}
    column(cvrs, "cvrs", "contests", CVR_VIEWS)
    column(papers, "papers", "contests", PAPER_VIEWS)
    if not compliance["clean"]:
        raise StarlockError(
            "compliance check not clean: "
            f"{len(compliance['cast_without_paper'])} cast-without-paper, "
            f"{len(compliance['paper_without_record'])} paper-without-record"
        )

    rows = published if published is not None else published_commitments(cvrs)
    published_by_serial = dict(zip(column(rows, "commitments", "serial", STR.decode, distinct=True),
                                   column(rows, "commitments", "commitments", OBJECT.decode)))

    if board.tally is None:
        raise StarlockError("board carries no tally; audit needs reported results")
    lineno, tally = board.tally
    result = at_line(lineno, decode_field, tally, "result", TALLY_RESULT.decode)
    winners, pairs, v = margin_pairs(manifest, result)
    n = len(population)
    if not n:  # a positive reported margin with no effective-CAST ballot to draw
        raise StarlockError("no effective-CAST ballot to audit")
    state = KMState(N=n, V=v)

    trajectory = []
    verdict = None
    for index in prng_sequence(seed, n):
        row = population[index]
        if row["serial"] not in published_by_serial:
            raise CommitmentMismatch(f"serial {row['serial']} has no published commitment")
        open_commitment(row, published_by_serial[row["serial"]])
        paper = papers_by_serial[row["serial"]]
        e = overstatement(row["contests"], paper["contests"], pairs)
        p = state.observe(e)
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
