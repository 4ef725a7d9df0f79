"""Deterministic mutation fuzz gate over the finished demo board.

Each edit is applied twice: raw, to the board file's text, and re-chained and
re-signed (helpers.rechain), so that only the checks below the line chain
can see it. Edits: byte flips, line deletion, duplication and reordering,
key removal, wrong JSON types, and corrupted hex strings (uppercase, 0x, a
sign, _, a space, empty, a non-hex digit). An edit that leaves the board
unchanged is skipped. The verifier must never raise, every raw edit must fail a named
check at a line, and every command (receipt-check on a cast and on a spoiled
receipt) must end with a documented exit code.
"""

import json
import random

from helpers import board_raw_lines, demo_commands, demo_run, rechain
from starlock.cli import main
from starlock.serialize import canonical_json
from starlock.verifier import verify_board

SEED = 5
EDITS = 150  # each applied raw, and re-chained and re-signed
CLI_EVERY = 8  # every 8th edited board also goes through the four commands
KINDS = ("flip", "delete", "duplicate", "swap", "drop_key", "wrong_type", "bad_hex")
WRONG_VALUES = ("zz", [], 7, None, {}, True)
HEX = "0123456789abcdef"
CHECKS = {"line_chain", "signature", "terminal_chain", "ballot_proofs", "decryptions",
          "tally", "sum_check"}


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
    for kind, rechained, board in boards:
        report = verify_board(board, result["manifest"])  # must not raise
        assert {item.check for item in report.items} <= CHECKS
        if not rechained:
            assert not report.overall, (kind, board)
            assert any(item.line is not None for item in report.failures()), (kind, board)
    assert sum(rechained for _, rechained, _ in boards) > EDITS // 2


def test_every_command_ends_with_a_documented_exit_code(tmp_path, capsys) -> None:
    board, commands = demo_commands(tmp_path)
    for n, (kind, rechained, lines) in enumerate(corpus()):
        if n % CLI_EVERY:
            continue
        for name, argv in commands.items():
            board.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code = main(argv)  # a traceback fails the test
            assert code in (0, 1, 2), (name, kind, rechained, code)
            if name == "verify" and not rechained:
                assert code == 2, (kind, lines)
    capsys.readouterr()
