"""Deterministic mutation fuzz gate over the finished demo board.

Each edit is applied twice: raw, to the board file's text, and re-chained and
re-signed (helpers.rechain), so that only the checks below the line chain
can see it. Edits: byte flips, line deletion, duplication and reordering,
key removal, wrong JSON types, and corrupted hex strings (uppercase, 0x, a
sign, _, a space, empty, a non-hex digit). An edit that leaves the board
unchanged is skipped. The verifier must never raise, every raw edit must fail a named
check at a line, and every command (receipt-check on a cast and on a spoiled
receipt) must end with exit 0 or 2: a board is an input, never an internal fault.
On a raw edit, verify, audit and both receipt-checks must exit 2. The strict
read (parse_lines), with or without its canonical check, must refuse each
board where verify's first failing line_chain or signature item names it, and
accept every other board. So must it on each line of the demo board rewritten
in another text of the same JSON value (same_value_edits), and on a line
with whitespace or data around its value, a byte-order mark or nesting too
deep to parse (AROUND_THE_VALUE), corpora kept apart from the first so that
REPORTS_SHA256 stays.

Another corpus edits the operator files (manifest, CVR, paper, commitment,
office key, trustee share and joint key files) the same way, plus hex values
off by one and valid keys put where others belong; no command reading them
may raise or exit 1.
"""

import copy
import hashlib
import json
import random

import pytest

from helpers import board_raw_lines, demo_commands, demo_run, rechain
from starlock.boardformat import parse_lines
from starlock.cli import main
from starlock.errors import ChainBroken, MalformedRecord
from starlock.scenario import make_demo_scenario
from starlock.serialize import canonical_json, int_to_hex
from starlock.verifier import verify_board

SEED = 5
EDITS = 150  # each applied raw, and re-chained and re-signed
VERIFY_EVERY = 8  # every edited board goes through the other commands, every 8th through verify
READS_STRICTLY = ("audit", "receipt-check", "receipt-check-spoiled")  # besides tally
KINDS = ("flip", "delete", "duplicate", "swap", "drop_key", "wrong_type", "bad_hex")
WRONG_VALUES = ("zz", [], 7, None, {}, True)
HEX = "0123456789abcdef"
CHECKS = {"line_chain", "signature", "terminal_chain", "ballot_proofs", "decryptions",
          "tally", "sum_check"}
# SHA-256 over every verify report of corpus(), each as json.dumps(report.to_json(),
# sort_keys=True), in corpus order: a change to any report's bytes must be deliberate.
# Last moved when "entry k (SPOILED) has no decryption" gained its entry and line.
REPORTS_SHA256 = "641e2029c171dfd7d652ec83a9283333f024fbd31839b062ea8ddf2408a99a94"


def paths(obj, prefix=()):
    """Every key path inside a JSON value, outermost first."""
    if not isinstance(obj, (dict, list)):
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def edit_value(line: dict, kind: str, rng: random.Random) -> None:
    """Drop a key, retype a value, or corrupt a hex string, somewhere in line."""
    if kind == "bad_hex":
        choices = [p for p in paths(line) if _leaf(line, p) not in ("", None)
                   and isinstance(_leaf(line, p), str) and not _leaf(line, p).strip(HEX)]
    else:
        choices = list(paths(line))
    path = rng.choice(choices)
    parent = _leaf(line, path[:-1])
    if kind == "drop_key":
        parent.pop(path[-1])
    elif kind == "wrong_type":
        parent[path[-1]] = rng.choice(WRONG_VALUES)
    else:
        s = parent[path[-1]]
        parent[path[-1]] = rng.choice(
            [s.upper(), "0x" + s, s + "_", " " + s, "-" + s, "", "+" + s, s[:-1] + "g"])


def _leaf(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def edited(pristine: list, kind: str, rng: random.Random) -> list:
    """The board text lines after one edit of this kind."""
    raw = list(pristine)
    i = rng.randrange(len(raw))
    if kind == "flip":
        j = rng.randrange(len(raw[i]))
        raw[i] = raw[i][:j] + chr(ord(raw[i][j]) ^ 1 << rng.randrange(7)) + raw[i][j + 1:]
    elif kind == "delete":
        del raw[i]
    elif kind == "duplicate":
        raw.insert(i, raw[i])
    elif kind == "swap":
        i = min(i, len(raw) - 2)
        raw[i], raw[i + 1] = raw[i + 1], raw[i]
    else:
        line = json.loads(raw[i])
        edit_value(line, kind, rng)
        raw[i] = canonical_json(line)
    return raw


def corpus(run=demo_run, edits=EDITS):
    """(kind, re-chained?, board lines) for every edit of run's board, in a
    fixed order: each edit raw, then re-chained and re-signed when its lines
    still parse."""
    result, _ = run()
    manifest = result["manifest"]
    pristine = board_raw_lines(result["board"])
    rng = random.Random(SEED)
    out, n = [], 0
    while n < edits:
        kind = KINDS[n % len(KINDS)]
        raw = edited(pristine, kind, rng)
        if raw == pristine:
            continue
        n += 1
        out.append((kind, False, raw))
        try:
            lines = [json.loads(text) for text in raw]
        except ValueError:
            continue
        if all(isinstance(line, dict) for line in lines):
            board = rechain(lines, manifest.election_id, result["office"], manifest.gp)
            if board != pristine:
                out.append((kind, True, board))
    return out


def test_verifier_never_raises_and_names_every_raw_edit() -> None:
    result, _ = demo_run()
    boards = corpus()
    reports = hashlib.sha256()
    for kind, rechained, board in boards:
        report = verify_board(board, result["manifest"])  # must not raise
        reports.update(json.dumps(report.to_json(), sort_keys=True).encode("utf-8"))
        assert {item.check for item in report.items} <= CHECKS
        if not rechained:
            assert not report.overall, (kind, board)
            assert any(item.line is not None for item in report.failures()), (kind, board)
    assert sum(rechained for _, rechained, _ in boards) > EDITS // 2
    assert reports.hexdigest() == REPORTS_SHA256


def strict_verdict(board, manifest, canonical):
    """parse_lines' (line, reason) refusal of the board, or None."""
    try:
        parse_lines(board, manifest, canonical)
    except ChainBroken as exc:
        return exc.lineno, exc.reason
    except MalformedRecord as exc:
        return exc.lineno, f"malformed {exc.detail}"
    return None


def verify_verdict(board, manifest):
    """(line, detail) of verify's first failing line_chain or signature item, or None."""
    return next(((item.line, item.detail) for item in verify_board(board, manifest).items
                 if item.check in ("line_chain", "signature") and not item.ok), None)


def test_the_strict_read_refuses_a_board_where_verify_fails_its_chain_or_signature() -> None:
    """Every reader judges a board line alike: parse_lines, with the
    canonical check (tally) or without it (audit and receipt-check), refuses
    a corpus board at verify's first failing line_chain or signature item,
    with its reason, and accepts every other board."""
    manifest = demo_run()[0]["manifest"]
    for kind, rechained, board in corpus():
        first = verify_verdict(board, manifest)
        for canonical in (True, False):
            assert strict_verdict(board, manifest, canonical) == first, (
                kind, rechained, canonical, board)


def same_value_edits(text: str) -> list:
    """The board line's text rewritten three ways that keep its JSON value:
    its keys in reverse order, ", " and ": " separators, and the first letter
    of "kind" written as a \\u00XX escape."""
    line = json.loads(text)
    return [json.dumps(dict(reversed(line.items())), separators=(",", ":")),
            json.dumps(line, sort_keys=True),
            text.replace('"kind"', '"\\u%04xind"' % ord("k"), 1)]


def test_every_reader_refuses_a_line_out_of_canonical_form_at_that_line() -> None:
    """A line of the same value in another text is refused at that line, as
    verify refuses it, with or without the canonical check: at the break it
    causes on the next line's prev, and at the last line, which no later
    prev covers."""
    result, _ = demo_run()
    manifest = result["manifest"]
    pristine = board_raw_lines(result["board"])
    for i, text in enumerate(pristine):
        for edit in same_value_edits(text):
            assert edit != text and json.loads(edit) == json.loads(text)
            board = [*pristine[:i], edit, *pristine[i + 1:]]
            assert verify_verdict(board, manifest) == (i, "line not in canonical form"), edit
            for canonical in (True, False):
                assert strict_verdict(board, manifest, canonical) == (
                    i, "line not in canonical form"), (canonical, edit)


# A line's text with whitespace or data around its value, a byte-order mark,
# or nesting too deep to parse, and the reason every reader refuses it for:
# json.loads reads the first two to the line's value, and none of the rest.
AROUND_THE_VALUE = {
    "leading space": (lambda text: " " + text, "line not in canonical form"),
    "trailing carriage return": (lambda text: text + "\r", "line not in canonical form"),
    "data after the value": (lambda text: text + " x", "unparseable line"),
    "a header then data": (lambda text: '{"kind":"header"} x', "unparseable line"),
    "two objects": (lambda text: "{}{}", "unparseable line"),
    "a byte-order mark": (lambda text: "\ufeff" + text, "unparseable line"),
    "nesting too deep to parse": (lambda text: "[" * 100_000 + "]" * 100_000,
                                  "unparseable line"),
}


@pytest.mark.parametrize("edit", AROUND_THE_VALUE)
def test_every_reader_judges_the_text_around_a_line_alike(edit) -> None:
    """verify and the strict read, whole or structural, refuse such a line
    in the middle of the board and as its last line, at that line and for
    the same reason."""
    result, _ = demo_run()
    manifest = result["manifest"]
    pristine = board_raw_lines(result["board"])
    rewrite, reason = AROUND_THE_VALUE[edit]
    for i in (3, len(pristine) - 1):
        board = [*pristine[:i], rewrite(pristine[i]), *pristine[i + 1:]]
        assert verify_verdict(board, manifest) == (i, reason)
        for whole in (True, False):
            assert strict_verdict(board, manifest, whole) == (i, reason), whole


def test_every_command_ends_with_a_documented_exit_code(tmp_path, capsys) -> None:
    board, commands = demo_commands(tmp_path)
    for n, (kind, rechained, lines) in enumerate(corpus()):
        for name, argv in commands.items():
            if name == "verify" and n % VERIFY_EVERY:
                continue
            board.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code = main(argv)  # a traceback fails the test
            assert code in (0, 2), (name, kind, rechained, code)
            if name in ("verify", *READS_STRICTLY) and not rechained:
                assert code == 2, (name, kind, lines)
    capsys.readouterr()


OPERATOR_SEED = 7
OPERATOR_EDITS = 400
FILE_KINDS = ("drop_key", "wrong_type", "bad_hex", "off_by_one", "other_key")
READERS = {  # operator file under tmp_path: the commands that read it
    "params.json": ("verify", "audit", "receipt-check", "tally"),
    "cvrs.json": ("audit", "tally"),
    "papers.json": ("audit", "tally"),
    "commitments.json": ("audit",),
    "office.json": ("tally",),
    **{f"share{i}.json": ("tally",) for i in (1, 2, 3)},
    **{f"keys/{name}.json": ("simulate",)
       for name in ("joint_key", "office_key", "trustee_share_1")},
}


def edit_file(doc, kind: str, rng: random.Random, gp):
    """A copy of a JSON document after one edit of this kind, or None when the
    document has no hex value for a hex edit. off_by_one adds one to a hex
    value; other_key puts a valid group element in its place."""
    doc = copy.deepcopy(doc)
    if kind in ("drop_key", "wrong_type"):
        edit_value(doc, kind, rng)
        return doc
    hexes = [p for p in paths(doc) if isinstance(_leaf(doc, p), str)
             and _leaf(doc, p) and not _leaf(doc, p).strip(HEX)]
    if not hexes:
        return None
    if kind == "bad_hex":
        edit_value(doc, kind, rng)
        return doc
    path = rng.choice(hexes)
    parent = _leaf(doc, path[:-1])
    value = int(parent[path[-1]], 16) + 1 if kind == "off_by_one" else gp.signed(pow(
        gp.g, rng.randrange(1, gp.q), gp.p))
    parent[path[-1]] = int_to_hex(value)
    return doc


def operator_record(tmp_path):
    """demo_commands' files plus the demo's commitments and a key directory
    read by simulate --keys. Returns (board path, commands, the board lines
    each command reads)."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    commitments = tmp_path / "commitments.json"
    commitments.write_text(json.dumps(result["commitments"]), encoding="utf-8")
    commands["audit"] += ["--commitments", str(commitments)]
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5",
                 "--outdir", str(tmp_path / "keys")]) == 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_demo_scenario().to_json()), encoding="utf-8")
    commands["simulate"] = ["simulate", "--scenario", str(scenario),
                            "--keys", str(tmp_path / "keys"), "--outdir", str(tmp_path / "out")]
    raw = board_raw_lines(result["board"])
    kinds = [json.loads(line)["kind"] for line in raw]
    lines = {name: raw for name in commands}
    lines["tally"] = raw[: kinds.index("signature") + 1]  # the board before the tally
    return board, commands, lines


def test_no_operator_file_edit_ends_in_a_raise_or_exit_1(tmp_path, capsys) -> None:
    """Seeded edits of every operator file, each run through a command that
    reads it, after four faults that once ended in exit 1 or worse: a trustee
    share off by one, one share where k = 2, an office key with the wrong
    secret (which tally would have signed the board with), and a joint key
    that is not a group element."""
    result, _ = demo_run()
    gp = result["manifest"].gp
    board, commands, lines = operator_record(tmp_path)
    pristine = {name: (tmp_path / name).read_text(encoding="utf-8") for name in READERS}
    share, office = json.loads(pristine["share1.json"]), json.loads(pristine["office.json"])
    joint = json.loads(pristine["keys/joint_key.json"])
    bad_key = gp.p - int(joint["K"], 16)  # the other representative of K's class
    assert not gp.is_element(bad_key)
    tally = commands["tally"]
    cases = [  # (file, its edited text, command, argv, the line it prints or None)
        ("share1.json", json.dumps(dict(share, secret_share=int_to_hex(
            int(share["secret_share"], 16) + 1))), "tally", tally,
         "BadShareProof: share proof failed for trustee 1"),
        ("share1.json", pristine["share1.json"], "tally",
         tally[: tally.index("--shares") + 2] + tally[tally.index("--office"):],
         "InsufficientShares: have 1 shares, need 2"),
        ("office.json", json.dumps(dict(office, sk=int_to_hex(int(office["sk"], 16) + 1))),
         "tally", tally, f"MalformedRecord: {tmp_path / 'office.json'}: "
         "not the election manifest's office key pair"),
        ("keys/joint_key.json", json.dumps(dict(joint, K=int_to_hex(bad_key))),
         "simulate", commands["simulate"],
         f"MalformedRecord: {tmp_path / 'keys' / 'joint_key.json'}.K: not an element of the group"),
    ]
    rng = random.Random(OPERATOR_SEED)
    names = sorted(READERS)
    while len(cases) < OPERATOR_EDITS:
        name = names[len(cases) % len(names)]
        doc = edit_file(json.loads(pristine[name]), rng.choice(FILE_KINDS), rng, gp)
        if doc is not None and doc != json.loads(pristine[name]):
            command = rng.choice(READERS[name])
            cases.append((name, json.dumps(doc), command, commands[command], None))
    codes = set()
    for name, text, command, argv, line in cases:
        board.write_text("\n".join(lines[command]) + "\n", encoding="utf-8")
        (tmp_path / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(argv)  # a traceback fails the test
        (tmp_path / name).write_text(pristine[name], encoding="utf-8")
        assert code in ((0, 2, 3) if command == "simulate" else (0, 2)), (name, text, command)
        assert line is None or capsys.readouterr().out == line + "\n"
        codes.add(code)
    assert codes >= {0, 2}
