"""The independent observer.

Consumes only the published files (board lines and the election manifest)
and re-verifies every public claim: the board's line chain and signatures,
each terminal's ballot hash chain, every well-formedness proof, every
decryption proof, the homomorphic aggregate, the announced counts, and the
per-contest sum identity. Failures are report items naming the first
affected line or entry; nothing here raises on adversarial input.

This module deliberately imports only format-level modules (ballot,
boardformat, chain, groups, proofs, manifest), never the polling-place or
board machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ballot import ABSTAIN_COLUMN, EncryptedBallot, WellFormednessProof, verify_ballot
from .boardformat import (
    CAST,
    SPOILED,
    UNTALLIED,
    ChainBroken,
    fold_ballots,
    index_lines,
    read_chain,
    signature_verifies,
    spoiled_context,
    spoiled_plaintext,
    tally_context,
)
from .chain import chain_hash, receipt_code
from .elgamal import Ciphertext
from .errors import AmbiguousReceipt, BadShareProof, InsufficientShares, StarlockError
from .manifest import ElectionManifest
from .trustees import DecryptionShare, combine_in_exponent

FOUND_CAST = "FOUND_CAST"
FOUND_SPOILED = "FOUND_SPOILED"
NOT_FOUND = "NOT_FOUND"


@dataclass
class ReportItem:
    check: str
    ok: bool
    detail: str
    line: int | None = None
    entry: int | None = None

    def to_json(self) -> dict:
        out = {"check": self.check, "ok": self.ok, "detail": self.detail}
        if self.line is not None:
            out["line"] = self.line
        if self.entry is not None:
            out["entry"] = self.entry
        return out


@dataclass
class VerificationReport:
    items: list = field(default_factory=list)

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


def read_board_lines(path):
    """Raw text lines (no trailing newline) straight from the file."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def parse_lines(raw_lines):
    return [json.loads(line) for line in raw_lines]


def check_line_chain(raw_lines) -> list:
    """Every line is canonical JSON and embeds the previous line's hash."""
    try:
        for _ in read_chain(raw_lines):
            pass
    except ChainBroken as exc:
        return [ReportItem("line_chain", False, exc.reason, line=exc.lineno)]
    return [ReportItem("line_chain", True, f"{len(raw_lines)} lines linked")]


def check_signatures(raw_lines, lines, manifest: ElectionManifest) -> list:
    signatures = index_lines(lines).signatures
    for lineno, line in signatures:
        if not signature_verifies(line, manifest.office_pk, manifest.gp, manifest.election_id):
            return [ReportItem("signature", False, "signature does not verify", line=lineno)]
    if not lines or lines[-1].get("kind") != "signature":
        return [ReportItem("signature", False, "final line is not a signature")]
    return [ReportItem("signature", True, f"{len(signatures)} signature(s) verify")]


def verify_chain(lines, manifest: ElectionManifest) -> list:
    """Recompute every terminal's z chain in published order and compare
    against the published z values and the signed final z."""
    index = index_lines(lines)
    per_terminal = {tid: [] for tid in manifest.terminal_seeds}
    for k, lineno, line in index.entries:
        tid = line["terminal"]
        if tid not in per_terminal:
            return [ReportItem("terminal_chain", False, f"unknown terminal {tid}", line=lineno)]
        per_terminal[tid].append((k, lineno, line))
    closes = {}
    for lineno, line in index.closes:
        tid = line["terminal"]
        if tid in closes:
            return [ReportItem("terminal_chain", False, f"terminal {tid} closed twice",
                               line=lineno)]
        closes[tid] = (lineno, line)

    fails = []

    def fail(detail, **where):
        fails.append(ReportItem("terminal_chain", False, detail, **where))

    for tid in sorted(per_terminal):
        z_prev = bytes.fromhex(manifest.terminal_seeds[tid])
        for k, lineno, line in per_terminal[tid]:
            ballot = EncryptedBallot.from_json(line["ballot"])
            proof = WellFormednessProof.from_json(line["proof"])
            expected = chain_hash(ballot, proof, tid, z_prev)
            if expected.hex() != line["z"]:
                fail(f"terminal {tid}: recomputed z mismatch at entry {k}", line=lineno, entry=k)
                break
            z_prev = expected
        else:
            if tid not in closes:
                fail(f"terminal {tid} never closed")
                continue
            lineno, close = closes[tid]
            if close["final_z"] != z_prev.hex():
                fail(f"terminal {tid}: final z mismatch at close", line=lineno)
            elif int(close["produced"]) != len(per_terminal[tid]):
                fail(f"terminal {tid}: produced count mismatch", line=lineno)
    if index.misnumbered:
        fail("entry index out of sequence", line=index.misnumbered[0])
    total = sum(len(v) for v in per_terminal.values())
    return fails or [
        ReportItem("terminal_chain", True,
                   f"{total} entries across {len(per_terminal)} terminal chains")
    ]


def _verify_share_set(ct: Ciphertext, shares_json, claimed: int, manifest, context) -> str | None:
    """Check decryption shares against a ciphertext and a claimed plaintext.
    Returns None when fine, else a failure detail string."""
    gp = manifest.gp
    shares = [DecryptionShare.from_json(s) for s in shares_json]
    try:
        g_m = combine_in_exponent(ct, shares, manifest.jpk, gp, context)
    except InsufficientShares:
        distinct = len({ds.trustee_id for ds in shares})
        return f"only {distinct} decryption shares, need {manifest.jpk.k}"
    except BadShareProof as exc:
        return f"share proof of trustee {exc.trustee_id} fails"
    if g_m != pow(gp.g, claimed, gp.p):
        return f"claimed plaintext {claimed} inconsistent with shares"
    return None


def verify_proofs(lines, manifest: ElectionManifest) -> list:
    """Every entry's well-formedness proof, and every published decryption
    (spoiled and untallied entries must each carry exactly one)."""
    index = index_lines(lines)
    bad = []
    for k, lineno, line in index.entries:
        ballot = EncryptedBallot.from_json(line["ballot"])
        proof = WellFormednessProof.from_json(line["proof"])
        style = manifest.style_map.get(ballot.style_id)
        if style is None or not verify_ballot(
            ballot, proof, style, manifest.jpk.K, manifest.gp, manifest.election_id
        ):
            bad.append(ReportItem("ballot_proofs", False,
                                  f"entry {k}: well-formedness proof fails", line=lineno, entry=k))
    items = bad or [ReportItem("ballot_proofs", True, "all entry proofs verify")]
    fails = _check_decryptions(index, manifest)
    return items + (fails or [ReportItem("decryptions", True, "all published decryptions verify")])


def _check_decryptions(index, manifest: ElectionManifest) -> list:
    """Failures among status and decryption lines: each names an entry, each
    spoiled or untallied entry has exactly one decryption and no other entry
    has any, every column is proven, and the plaintext summary is truthful."""
    fails = []

    def fail(detail, **where):
        fails.append(ReportItem("decryptions", False, detail, **where))

    for lineno, ref in index.refs:
        if ref not in index.statuses:
            fail(f"line refers to no entry {ref}", line=lineno)
    for ref, decs in sorted(index.decryptions.items()):
        for lineno, _ in decs[1:]:
            fail(f"entry {ref} decrypted twice", line=lineno)
    entry_lines = {k: line for k, _, line in index.entries}
    for k, status in sorted(index.statuses.items()):
        needs = status in (SPOILED, UNTALLIED)
        if needs and k not in index.decryptions:
            fail(f"entry {k} ({status}) has no decryption")
            continue
        if not needs:
            if k in index.decryptions:
                fail(f"entry {k} is {status} but was decrypted", line=index.decryptions[k][0][0])
            continue
        lineno, dec = index.decryptions[k][0]
        ballot = EncryptedBallot.from_json(entry_lines[k]["ballot"])
        style = manifest.style_map[ballot.style_id]
        expected_cols = {
            (contest.contest_id, column): ct
            for contest, enc in zip(style.contests, ballot.contests)
            for column, ct in enc.all_columns(contest)
        }
        bits = {}
        for col in dec["columns"]:
            key = (col["contest"], col["column"])
            ct = Ciphertext.from_json(col["ciphertext"])
            if expected_cols.get(key) != ct:
                fail(f"entry {k}: decryption ciphertext mismatch on {key}", line=lineno, entry=k)
                continue
            bits[key] = int(col["bit"])
            context = spoiled_context(manifest.election_id, k, *key)
            failure = _verify_share_set(ct, col["shares"], bits[key], manifest, context)
            if failure:
                fail(f"entry {k}, column {key}: {failure}", line=lineno, entry=k)
        if set(bits) != set(expected_cols):
            fail(f"entry {k}: decryption does not cover all columns", line=lineno, entry=k)
            continue
        # Published plaintext summary must match the proven bits.
        plain = dec["plaintext"]
        expected = spoiled_plaintext(style, bits)
        for cid, chosen in expected["selections"].items():
            if sorted(plain["selections"].get(cid, [])) != chosen:
                fail(f"entry {k}: plaintext summary mismatch in {cid}", line=lineno, entry=k)
            if (cid in expected["writeins"]) != (cid in plain.get("writeins", [])):
                fail(f"entry {k}: write-in summary mismatch in {cid}", line=lineno, entry=k)
    return fails


def verify_tally(lines, manifest: ElectionManifest) -> list:
    """Recompute the aggregate from effective-CAST entries, compare to the
    published tally ciphertexts bit-exactly, verify the decryption shares,
    the announced counts, and the per-contest sum identity."""
    index = index_lines(lines)
    if not index.tallies:
        return [ReportItem("tally", False, "no tally line published")]
    if len(index.tallies) > 1:
        return [ReportItem("tally", False, "multiple tally lines", line=index.tallies[1][0])]
    lineno, tally = index.tallies[0]
    try:
        agg = fold_ballots(index.cast_ballots(), manifest.style_map, manifest.gp)
    except StarlockError as exc:
        return [ReportItem("tally", False, f"manifest: {exc}")]

    published = {(col["contest"], col["column"]): col for col in tally["columns"]}
    if set(published) != {(cid, col) for cid, bucket in agg.items() for col in bucket["columns"]}:
        return [ReportItem("tally", False, "published tally columns do not match ballot layout",
                           line=lineno)]
    fails = {"tally": [], "sum_check": []}

    def fail(check, detail):
        fails[check].append(ReportItem(check, False, detail, line=lineno))

    for (cid, column), col in sorted(published.items()):
        ct = Ciphertext.from_json(col["ciphertext"])
        if agg[cid]["columns"][column] != ct:
            fail("tally", f"aggregate mismatch for {cid}/{column}")
            continue
        count = int(col["count"])
        context = tally_context(manifest.election_id, cid, column)
        failure = _verify_share_set(ct, col["shares"], count, manifest, context)
        if failure:
            fail("tally", f"{cid}/{column}: {failure}")
        if int(tally["result"][cid][column]) != count:
            fail("tally", f"announced result for {cid}/{column} disagrees with column count")
    for cid, bucket in agg.items():
        if int(tally["cast"][cid]) != bucket["cast_count"]:
            fail("tally", f"cast count mismatch for {cid}")
        # Sum identity: options + abstain = limit x cast count, over the integers.
        contest, counts = bucket["contest"], tally["result"][cid]
        total = sum(int(counts[col]) for col in contest.options + (ABSTAIN_COLUMN,))
        expected = contest.limit * bucket["cast_count"]
        if total != expected:
            fail("sum_check", f"{cid}: options+abstain {total} != limit x cast {expected}")
    items = fails["tally"] or [ReportItem("tally", True, "aggregate, shares, and counts verify")]
    return items + (
        fails["sum_check"] or [ReportItem("sum_check", True, "per-contest sum identity holds")]
    )


def verify_board(raw_lines, manifest: ElectionManifest) -> VerificationReport:
    """Run every check; the report's overall verdict is their conjunction."""
    report = VerificationReport()
    report.items.extend(check_line_chain(raw_lines))
    lines = parse_lines(raw_lines)
    report.items.extend(check_signatures(raw_lines, lines, manifest))
    report.items.extend(verify_chain(lines, manifest))
    report.items.extend(verify_proofs(lines, manifest))
    report.items.extend(verify_tally(lines, manifest))
    return report


def lookup_receipt(lines, manifest: ElectionManifest, terminal_id: str, code: str):
    """Match a take-home receipt against the board.

    Returns (FOUND_CAST, None), (FOUND_SPOILED, plaintext or None), or
    (NOT_FOUND, None). Raises AmbiguousReceipt when the truncated code
    matches more than one entry of that terminal."""
    index = index_lines(lines)
    matches = []
    for k, _, line in index.entries:
        if line["terminal"] != terminal_id:
            continue
        if receipt_code(bytes.fromhex(line["z"])) == code:
            matches.append(k)
    if not matches:
        return NOT_FOUND, None
    if len(matches) > 1:
        raise AmbiguousReceipt(f"receipt code matches entries {matches}")
    k = matches[0]
    if index.statuses[k] == CAST:
        return FOUND_CAST, None
    decs = index.decryptions.get(k)
    return FOUND_SPOILED, decs[-1][1]["plaintext"] if decs else None
