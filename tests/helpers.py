"""Shared builders for the test suite.

Everything here is deterministic: fixed seeds in, identical artifacts out.
The demo election is cached per test session and must be treated as
read-only; tests that tamper with it must copy its lines first.
"""

from __future__ import annotations

import dataclasses
import json
import random

from starlock.audit import build_cvrs
from starlock.ballot import BallotStyle, Contest, PlaintextBallot, encrypt_ballot
from starlock.board import Board, finish_election
from starlock.boardformat import CAST, EncryptedBallotRecord, read_board
from starlock.chain import chain_hash, initial_chain_seed
from starlock.elgamal import keygen
from starlock.group import GROUPS, TEST_GROUP, GroupParams
from starlock.manifest import ElectionManifest
from starlock.scenario import Scenario, Voter, make_demo_scenario, run_scenario
from starlock.schnorr import sign
from starlock.serialize import canonical_json, enc_bytes, enc_str, sha256_hex
from starlock.trustees import dkg

_cache = {}

# A 256-bit safe prime p = 2q + 1 with g = 4: the first safe prime from
# SHA-256(b"starlock test group 256") >> 1 with bit 254 set, stepping q by 2.
# Above LARGE_GROUP_BITS, so it takes the large-group paths (combs, batched
# proof equations and membership) at about 1/150 of the prod group's cost per
# power. A simulation group: a 256-bit discrete log is not
# secure. test_batch.py validates it.
_P_MID = int("cbe78059834b3c9ab831b7e8877365e192dd2ca76ab5e1d073e6777a9819aeef", 16)
MID_GROUP = GroupParams(p=_P_MID, q=_P_MID // 2, g=4)

# The 2048-bit MODP safe prime (RFC 3526, group 14) with g = 4, which was the
# prod group before it became a 256-bit-q Lim-Lee group. Its q is above
# 2^256, so it is the one group whose challenge space M = 2^256 is below q
# and whose exponents are 2047 bits: tests of that branch run here.
_P_MODP = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183"
    "995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_GROUP = GroupParams(p=_P_MODP, q=_P_MODP // 2, g=4)


def replace(record, **changes):
    """A copy of a Record with the given attributes changed, built through its
    class's __init__ (its __post_init__ included), as dataclasses.replace
    builds a dataclass; an unknown attribute raises TypeError."""
    values = {attr: getattr(record, attr) for _, attr, _ in record.FIELDS}
    return type(record)(**{**values, **changes})


def finish(result, seed=0):
    """Run the officials' post-close pipeline on a run_scenario result."""
    return finish_election(
        result["board"],
        result["manifest"],
        result["trustee_shares"],
        result["office"],
        result["cvrs"],
        result["papers"],
        random.Random(seed),
    )


def demo_run():
    """One finished demo election, shared read-only across tests."""
    if "demo" not in _cache:
        result = run_scenario(make_demo_scenario())
        outcome = finish(result, seed=99)
        _cache["demo"] = (result, outcome)
    return _cache["demo"]


def mid_demo_run():
    """The demo election run in MID_GROUP, shared read-only like demo_run.
    The group is registered under the name "mid" only while the election
    runs; the manifest carries it, and loads by validate()."""
    if "mid-demo" not in _cache:
        GROUPS["mid"] = MID_GROUP
        try:
            result = run_scenario(dataclasses.replace(make_demo_scenario(), group="mid"))
        finally:
            del GROUPS["mid"]
        _cache["mid-demo"] = (result, finish(result, seed=99))
    return _cache["mid-demo"]


def board_raw_lines(board):
    """The board file's text lines, as the verifier would read them."""
    return [canonical_json(line) for line in board.lines()]


def rechain(lines, election_id, office, gp):
    """Rebuild the prev-hash chain over edited line dicts and re-sign, so only
    the deeper checks (terminal chains, proofs, tally) can notice the edit.
    Drops any trailing signature line and appends a fresh one."""
    body = [dict(line) for line in lines]
    while body and body[-1].get("kind") == "signature":
        body = body[:-1]
    out = []
    prev = "0" * 64
    for line in body:
        line["prev"] = prev
        text = canonical_json(line)
        prev = sha256_hex(text.encode("utf-8"))
        out.append(text)
    message = enc_str(election_id) + enc_bytes(bytes.fromhex(prev))
    sig = sign(message, office, gp)
    out.append(
        canonical_json(
            {"kind": "signature", "signer": "election-office", "sig": sig.to_json(), "prev": prev}
        )
    )
    return out


def demo_commands(tmp_path, run=demo_run):
    """The demo's manifest, CVR, paper, office key and trustee share files,
    written under tmp_path. Returns (board path, {command: argv}) for verify,
    audit, receipt-check (of the demo's first receipt and of its first
    spoiled one) and tally, each reading the board file at that path."""
    result, _ = run()
    files = {"params": result["manifest"].to_json(), "cvrs": result["cvrs"],
             "papers": result["papers"], "office": result["office"].to_json()}
    files.update({f"share{s.trustee_id}": s.to_json() for s in result["trustee_shares"]})
    for name, obj in files.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    board = tmp_path / "board.jsonl"
    common = ["--board", str(board), "--manifest", files["params"]]
    records = ["--cvrs", files["cvrs"], "--papers", files["papers"]]
    shares = [files[f"share{s.trustee_id}"] for s in result["trustee_shares"]]
    spoiled = next(r for r in result["receipts"] if r["status"] == "SPOILED")
    return board, {
        "verify": ["verify", *common],
        "audit": ["audit", *common, *records, "--seed", "01234567890123456789"],
        **{name: ["receipt-check", *common, "--terminal", receipt["terminal"],
                  "--code", receipt["code"]]
           for name, receipt in (("receipt-check", result["receipts"][0]),
                                 ("receipt-check-spoiled", spoiled))},
        "tally": ["tally", *common, *records, "--shares", *shares, "--office", files["office"]],
    }


def synthetic_entry(k, status=CAST):
    """Entry line k of a synthetic record: its keys fit the entry kind, but it
    holds no ballot; only its index and status are ever read."""
    return {"kind": "entry", "index": str(k), "status": status, "ballot": {}, "proof": {},
            "terminal": "T1", "z": "00" * 32, "timestamp": "1"}


def synthetic_comparison_record(n=100, winner_votes=55, flips=0, blanks=0, seats=1,
                                extra=(), tallied=True, cvr_seed=4242):
    """A minimal published record for exercising the audit layer alone.

    n CAST entries over one contest "race" with options A and B and, when
    seats > 1, sure winners S1, ..., which every ballot also marks: the
    first winner_votes records vote A, the rest B, and the reported tally
    says so. The paper summaries agree except that the first `flips`
    A-voters' papers read B and the next `blanks` A-voters' papers mark
    neither A nor B. The board holds the header, the entries, the `extra`
    lines, the tally line (unless not tallied) and the office's signature,
    chained. Returns (the board's read_board index, manifest, cvr store,
    papers)."""
    gp = TEST_GROUP
    rng = random.Random(1)
    jpk, _ = dkg(1, 1, gp, rng)
    office = keygen(gp, rng)
    sure = [f"S{j}" for j in range(1, seats)]
    style = BallotStyle(
        style_id="s",
        contests=(Contest(contest_id="race", options=("A", "B", *sure), limit=seats),),
    )
    manifest = ElectionManifest(
        election_id="audit-lab",
        gp=gp,
        jpk=jpk,
        office_pk=office.pk,
        styles=(style,),
        terminal_seeds={},
        salt=b"\x00" * 16,
        ttl=600,
    )
    records, papers = [], []
    for i in range(n):
        reported = "A" if i < winner_votes else "B"
        on_paper = ["B"] if i < flips else [] if i < flips + blanks else [reported]
        serial = f"S{i:04d}"
        records.append(
            {
                "serial": serial,
                "index": i,
                "plaintext": {"style_id": "s", "selections": {"race": [reported, *sure]},
                              "writeins": []},
            }
        )
        papers.append({"serial": serial, "contests": {
            "race": {"selections": [*on_paper, *sure], "writein": False}}})
    cvrs = build_cvrs(records, manifest, random.Random(cvr_seed))
    result = {"A": str(winner_votes), "B": str(n - winner_votes), "(abstain)": "0",
              **{option: str(n) for option in sure}}
    tally = {"kind": "tally", "columns": [], "result": {"race": result}, "cast": {}}
    lines = [{"kind": "header", "election_id": "audit-lab", "version": "1"},
             *(synthetic_entry(i) for i in range(n)), *extra, *([tally] if tallied else [])]
    board = read_board(rechain(lines, "audit-lab", office, gp), "audit-lab")
    return board, manifest, cvrs, papers


def margin_scenario(trial, rng):
    """Ten honest cast ballots over one or two two-option contests, winner
    margin at least six, every column count at most ten."""
    n_contests = rng.randint(1, 2)
    contests, decks = [], {}
    for c in range(n_contests):
        cid = f"race{c}"
        contests.append(Contest(contest_id=cid, options=(f"r{c}a", f"r{c}b"), limit=1))
        w = rng.randint(8, 10)
        deck = [f"r{c}a"] * w + [f"r{c}b"] * (10 - w)
        rng.shuffle(deck)
        decks[cid] = deck
    style = BallotStyle(style_id="m", contests=tuple(contests))
    voters = tuple(
        Voter("m", {cid: [decks[cid][i]] for cid in decks}) for i in range(10)
    )
    return Scenario(
        election_id=f"margin-{trial}",
        group="test",
        trustees=(3, 2),
        seed=rng.randrange(2**32),
        styles=(style,),
        terminals=("T1", "T2"),
        voters=voters,
    )


def hundred_entry_board():
    """A signed publication-stage board with 100 CAST entries on one terminal
    (11 options so no tally column could exceed ten), plus its manifest and
    the office keypair for re-signing tampered variants."""
    if "hundred" not in _cache:
        _cache["hundred"] = entry_board(TEST_GROUP, 100, 11)
    return _cache["hundred"]


def entry_board(gp, entries, options):
    """A signed publication-stage board in group gp with `entries` CAST
    entries on one terminal, over one 1-of-`options` contest (options + 1
    zero-or-one proofs per entry). Returns (board, manifest, office keypair)."""
    rng = random.Random(404)
    jpk, _ = dkg(1, 1, gp, rng)
    office = keygen(gp, rng)
    contest = Contest(contest_id="race", options=tuple(f"o{j}" for j in range(options)), limit=1)
    style = BallotStyle(style_id="s", contests=(contest,))
    salt = b"\x42" * 16
    board = Board("tamper-lab")
    z = initial_chain_seed("tamper-lab", gp, jpk.K, salt, "T1")
    seeds = {"T1": z}
    for i in range(entries):
        pb = PlaintextBallot(style_id="s", selections={"race": (f"o{i % options}",)})
        eb, proof = encrypt_ballot(pb, style, jpk.K, gp, rng, "tamper-lab")
        z = chain_hash(eb, proof, "T1", z)
        record = EncryptedBallotRecord(
            ballot=eb, proof=proof, terminal_id="T1", z=z, timestamp=i + 1
        )
        board.publish_entry(record, CAST, style, jpk.K, gp)
    board.append_terminal_close("T1", z, entries)
    board.sign_board(office, gp)
    manifest = ElectionManifest(
        election_id="tamper-lab",
        gp=gp,
        jpk=jpk,
        office_pk=office.pk,
        styles=(style,),
        terminal_seeds=seeds,
        salt=salt,
        ttl=600,
    )
    return board, manifest, office
