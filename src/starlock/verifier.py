"""The independent observer.

Consumes only the published files (board lines and the election manifest)
and re-verifies every public claim: the board's line chain and signatures,
each terminal's ballot hash chain, every well-formedness proof, every
decryption proof, the homomorphic aggregate, the announced counts, and the
per-contest sum identity. The board is parsed once, into the index that
every check reads, and each record is decoded where a check reads it.
Failures, malformed records included, are report items naming the first
affected line or entry; nothing here raises on adversarial input. Other
commands refuse such a board in parse_lines, the strict read of boardformat.
The receipt rule is boardformat's too, so that receipt-check need not load
this module; lookup_receipt, parse_lines and read_board_lines are
re-exported here under their old names, where perfbench's tracer times them.

Proof equations are batched in a large group: the ballot_proofs,
decryptions and tally checks state theirs to one batch per board
(verify_proofs, chaum_pedersen.batched), weighted from SHA-256 of the whole
raw board and the label "proofs". Every membership, range, Fiat-Shamir and
challenge-sum check still runs proof by proof, so a report is reproducible
and a false equation passes with probability at most 2^-64. When the batch
fails, each check is batched again on its own (the board's SHA-256 and the
check's name), and a check whose own batch fails runs again with each
equation tested at once, so every report item is exactly that of a
proof-by-proof run, each failing entry and line named.

This module deliberately imports only format-level modules (ballot,
boardformat, chain, groups, proofs, manifest, serialize), never the
polling-place or board machinery.
"""

from __future__ import annotations

from .ballot import ABSTAIN_COLUMN, verify_ballot
from .boardformat import (  # lookup_receipt, parse_lines and read_board_lines are re-exported
    DECRYPTED,
    SPOILED_COLUMNS,
    BoardIndex,
    TallyRecord,
    TerminalClose,
    at_line,
    fold_ballots,
    lookup_receipt,
    parse_lines,
    read_board,
    read_board_lines,
    signature_fault,
    spoiled_plaintext,
    spoiled_statements,
    tally_statements,
)
from .chain import chain_hash, initial_chain_seed
from .chaum_pedersen import batched
from .errors import BadShareProof, InsufficientShares, MalformedRecord
from .manifest import ElectionManifest
from .serialize import decode_field, sha256
from .trustees import combine_in_exponent


class ReportItem:
    def __init__(self, check: str, ok: bool, detail: str, line: int | None = None,
                 entry: int | None = None):
        self.check, self.ok, self.detail, self.line, self.entry = check, ok, detail, line, entry

    def to_json(self) -> dict:
        out = {"check": self.check, "ok": self.ok, "detail": self.detail}
        if self.line is not None:
            out["line"] = self.line
        if self.entry is not None:
            out["entry"] = self.entry
        return out


class VerificationReport:
    def __init__(self, items: list):
        self.items = items

    @property
    def overall(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def to_json(self) -> dict:
        return {"overall": self.overall, "items": [i.to_json() for i in self.items]}

    def summary(self) -> str:
        lines = []
        for item in self.items:
            mark = "PASS" if item.ok else "FAIL"
            where = f" [line {item.line}]" if item.line is not None else ""
            lines.append(f"{mark} {item.check}{where}: {item.detail}")
        lines.append(f"{'PASS' if self.overall else 'FAIL'} overall")
        return "\n".join(lines)


def check_line_chain(index: BoardIndex) -> list:
    """Every line is a canonical JSON object embedding the previous line's
    hash, and stands where the board's structure rules let it: the break of
    read_board's whole read."""
    if index.broken:
        lineno, reason = index.broken
        return [ReportItem("line_chain", False, reason, line=lineno)]
    return [ReportItem("line_chain", True, f"{index.last + 1} lines linked")]


def check_signatures(index: BoardIndex, manifest: ElectionManifest) -> list:
    fault = signature_fault(index, manifest)
    if fault:
        return [ReportItem("signature", False, fault[1], line=fault[0])]
    return [ReportItem("signature", True, f"{len(index.signatures)} signature(s) verify")]


def verify_chain(index: BoardIndex, manifest: ElectionManifest) -> list:
    """Recompute every terminal's z chain in published order, from the z0
    that the manifest's salt gives it, and compare against the manifest's
    z0, the published z values and the signed final z."""
    per_terminal = {tid: [] for tid in manifest.terminal_seeds}
    for k, (lineno, line) in index.entries.items():
        tid = line["terminal"]
        if type(tid) is not str or tid not in per_terminal:
            return [ReportItem("terminal_chain", False, f"unknown terminal {tid}", line=lineno)]
        per_terminal[tid].append((k, lineno, line))

    fails = []

    def fail(detail, **where):
        fails.append(ReportItem("terminal_chain", False, detail, **where))

    for tid in sorted(per_terminal):
        z_prev = initial_chain_seed(manifest.election_id, manifest.gp, manifest.jpk.K,
                                    manifest.salt, tid)
        if z_prev != manifest.terminal_seeds[tid]:
            fail(f"terminal {tid}: seed does not follow from the manifest's salt")
            continue
        for k, lineno, line in per_terminal[tid]:
            expected = chain_hash(index.ballot(k), index.proof(k), tid, z_prev)
            if expected.hex() != line["z"]:
                fail(f"terminal {tid}: recomputed z mismatch at entry {k}", line=lineno, entry=k)
                break
            z_prev = expected
        else:
            if tid not in index.closes:
                fail(f"terminal {tid} never closed")
                continue
            lineno, line = index.closes[tid]
            close = at_line(lineno, TerminalClose.from_json, line)
            if close.final_z != z_prev:
                fail(f"terminal {tid}: final z mismatch at close", line=lineno)
            elif close.produced != len(per_terminal[tid]):
                fail(f"terminal {tid}: produced count mismatch", line=lineno)
    total = sum(len(v) for v in per_terminal.values())
    return fails or [
        ReportItem("terminal_chain", True,
                   f"{total} entries across {len(per_terminal)} terminal chains")
    ]


def _verify_share_set(col, row, manifest, eqs) -> str | None:
    """Check a published column's claimed plaintext against its row's bound
    (g^m fixes m only mod q), and its decryption shares against the row's
    ciphertext, context and the claim, their proof equations stated to eqs.
    Returns None when fine, else a failure detail."""
    if col.value > row.bound:
        return f"claimed plaintext {col.value} exceeds its bound {row.bound}"
    gp = manifest.gp
    try:
        g_m = combine_in_exponent(row.ciphertext, col.shares, manifest.jpk, gp, row.context, eqs)
    except InsufficientShares:
        distinct = len({ds.trustee_id for ds in col.shares})
        return f"only {distinct} decryption shares, need {manifest.jpk.k}"
    except BadShareProof as exc:
        return f"share proof of trustee {exc.trustee_id} fails"
    if g_m != gp.signed(pow(gp.g, col.value, gp.p)):
        return f"claimed plaintext {col.value} inconsistent with shares"
    return None


def verify_proofs(index: BoardIndex, manifest: ElectionManifest, digest: bytes) -> list:
    """Every entry's well-formedness proof, every published decryption
    (spoiled and untallied entries must each carry exactly one) and the
    tally (verify_tally), their proof equations stated to one batch
    (chaum_pedersen.batched) weighted from digest and the label "proofs".
    When it fails, each check is batched again on its own, under its name,
    and only a check whose own batch fails runs proof by proof. digest must
    be the SHA-256 of the whole raw board, which fixes every response before
    any weight is known."""
    gp = manifest.gp

    def entry_proofs(eqs):
        return _guarded("ballot_proofs", _check_ballot_proofs, index, manifest, eqs) or [
            ReportItem("ballot_proofs", True, "all entry proofs verify")]

    def decryptions(eqs):
        return _guarded("decryptions", _check_decryptions, index, manifest, eqs) or [
            ReportItem("decryptions", True, "all published decryptions verify")]

    checks = {"ballot_proofs": entry_proofs, "decryptions": decryptions,
              "tally": lambda eqs: verify_tally(index, manifest, eqs)}
    return batched(gp, lambda: digest + b"proofs",
                   lambda eqs: [item for run in checks.values() for item in run(eqs)],
                   lambda: [item for check, run in checks.items()
                            for item in batched(gp, lambda: digest + check.encode(), run)])


def _check_ballot_proofs(index: BoardIndex, manifest: ElectionManifest, eqs) -> list:
    """Failures among entries: each whose style is unknown or whose proof fails."""
    bad = []
    for k, (lineno, _) in index.entries.items():
        ballot, proof = index.ballot(k), index.proof(k)
        style = manifest.style_map.get(ballot.style_id)
        if style is None or not verify_ballot(
            ballot, proof, style, manifest.jpk.K, manifest.gp, manifest.election_id, eqs
        ):
            bad.append(ReportItem("ballot_proofs", False,
                                  f"entry {k}: well-formedness proof fails", line=lineno, entry=k))
    return bad


def _check_decryptions(index, manifest: ElectionManifest, eqs) -> list:
    """Failures among decryption lines: each spoiled or untallied entry has
    one and no other entry has any (BoardIndex.add keeps a second one out),
    every column is proven, and the plaintext summary is truthful."""
    fails = []

    def fail(detail, **where):
        fails.append(ReportItem("decryptions", False, detail, **where))

    for k, status in sorted(index.statuses.items()):
        needs = status in DECRYPTED
        if needs and k not in index.decryptions:
            fail(f"entry {k} ({status}) has no decryption", line=index.entries[k][0], entry=k)
            continue
        if not needs:
            if k in index.decryptions:
                fail(f"entry {k} is {status} but was decrypted", line=index.decryptions[k][0],
                     entry=k)
            continue
        lineno, dec = index.decryptions[k]
        ballot = index.ballot(k)
        columns = at_line(lineno, decode_field, dec, "columns", SPOILED_COLUMNS.decode, entry=k)
        style = manifest.style_map.get(ballot.style_id)
        if style is None:
            fail(f"entry {k}: unknown ballot style {ballot.style_id!r}", line=lineno, entry=k)
            continue
        rows = {(row.contest, row.column): row
                for row in spoiled_statements(manifest.election_id, k, ballot, style)}
        bits = {}
        for col in columns:
            key = (col.contest, col.column)
            if key not in rows or rows[key].ciphertext != col.ciphertext:
                fail(f"entry {k}: decryption ciphertext mismatch on {key}", line=lineno, entry=k)
                continue
            bits[key] = col.value
            failure = _verify_share_set(col, rows[key], manifest, eqs)
            if failure:
                fail(f"entry {k}, column {key}: {failure}", line=lineno, entry=k)
        if set(bits) != set(rows):
            fail(f"entry {k}: decryption does not cover all columns", line=lineno, entry=k)
            continue
        # The published plaintext summary is exactly the one the proven bits give.
        if dec["plaintext"] != spoiled_plaintext(style, bits):
            fail(f"entry {k}: plaintext summary mismatch", line=lineno, entry=k)
    return fails


def verify_tally(index: BoardIndex, manifest: ElectionManifest, eqs) -> list:
    """Recompute the aggregate from effective-CAST entries, compare to the
    published tally ciphertexts bit-exactly, verify the decryption shares,
    the announced counts, and the per-contest sum identity; the share
    proofs' equations are stated to eqs."""
    return _guarded("tally", _check_tally, index, manifest, eqs)


def _check_tally(index: BoardIndex, manifest: ElectionManifest, eqs) -> list:
    if index.tally is None:
        return [ReportItem("tally", False, "no tally line published")]
    lineno, line = index.tally
    tally, ballots = at_line(lineno, TallyRecord.from_json, line), index.cast_ballots()
    try:
        agg = fold_ballots(ballots, manifest.style_map, manifest.gp)
    except MalformedRecord as exc:
        return [ReportItem("tally", False, str(exc))]

    published = {(col.contest, col.column): col for col in tally.columns}
    rows = {(row.contest, row.column): row for row in tally_statements(manifest.election_id, agg)}
    if set(published) != set(rows):
        return [ReportItem("tally", False, "published tally columns do not match ballot layout",
                           line=lineno)]
    fails = {"tally": [], "sum_check": []}

    def fail(check, detail):
        fails[check].append(ReportItem(check, False, detail, line=lineno))

    for (cid, column), col in sorted(published.items()):
        if rows[cid, column].ciphertext != col.ciphertext:
            fail("tally", f"aggregate mismatch for {cid}/{column}")
            continue
        failure = _verify_share_set(col, rows[cid, column], manifest, eqs)
        if failure:
            fail("tally", f"{cid}/{column}: {failure}")
        if tally.result.get(cid, {}).get(column) != col.value:
            fail("tally", f"announced result for {cid}/{column} disagrees with column count")
    for cid, bucket in agg.items():
        if tally.cast_counts.get(cid) != bucket["cast_count"]:
            fail("tally", f"cast count mismatch for {cid}")
        # Sum identity: options + abstain = limit x cast count, over the integers.
        contest, counts = bucket["contest"], tally.result.get(cid, {})
        total = sum(counts.get(col, 0) for col in contest.options + (ABSTAIN_COLUMN,))
        expected = contest.limit * bucket["cast_count"]
        if total != expected:
            fail("sum_check", f"{cid}: options+abstain {total} != limit x cast {expected}")
    items = fails["tally"] or [ReportItem("tally", True, "aggregate, shares, and counts verify")]
    return items + (
        fails["sum_check"] or [ReportItem("sum_check", True, "per-contest sum identity holds")]
    )


def _guarded(check: str, run, index: BoardIndex, manifest: ElectionManifest, *args) -> list:
    """run's report items, or one failing item at the malformed record it met."""
    try:
        return run(index, manifest, *args)
    except MalformedRecord as exc:
        return [ReportItem(check, False, f"malformed {exc.detail}", exc.lineno, exc.entry)]


def verify_board(raw_lines, manifest: ElectionManifest) -> VerificationReport:
    """Run every check; the report's overall verdict is their conjunction.
    The board is parsed once (boardformat.read_board) and every check reads
    that index; a line that breaks the chain or a structure rule or holds a
    malformed record is reported, not raised."""
    raw_lines = list(raw_lines)
    index = read_board(raw_lines, manifest.election_id, whole=True)
    digest = sha256("\n".join(raw_lines).encode("utf-8")) if manifest.gp.large else b""
    report = VerificationReport(check_line_chain(index))
    for check, run in (("signature", check_signatures), ("terminal_chain", verify_chain)):
        report.items.extend(_guarded(check, run, index, manifest))
    report.items.extend(verify_proofs(index, manifest, digest))
    return report
