"""Command-line workflow: keygen, simulate, tally, verify, audit,
receipt-check, and the exit-code contract (0 pass, 1 internal, 2 fail,
3 usage; each error class declares its code)."""

import argparse
import dataclasses
import errno
import json
import os
import subprocess
import sys

import pytest

import starlock
from helpers import board_raw_lines, demo_commands, demo_run, rechain
from starlock.cli import main
from starlock.errors import MalformedRecord
from starlock.group import PROD_GROUP, TEST_GROUP
from starlock.manifest import ElectionManifest
from starlock.scenario import make_demo_scenario
from starlock.serialize import canonical_json, int_to_hex
from starlock.verifier import verify_board

SEED20 = "01234567890123456789"


def write_demo_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_demo_scenario().to_json()), encoding="utf-8")
    return str(path)


def run_pipeline(tmp_path):
    """keygen + simulate + tally into tmp_path; returns the artifact dir."""
    keys = tmp_path / "keys"
    out = tmp_path / "run"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5",
                 "--outdir", str(keys)]) == 0
    scenario = write_demo_scenario(tmp_path)
    assert main(["simulate", "--scenario", scenario, "--keys", str(keys),
                 "--outdir", str(out)]) == 0
    assert main([
        "tally",
        "--manifest", str(out / "params.json"),
        "--board", str(out / "board.jsonl"),
        "--cvrs", str(out / "cvrs.json"),
        "--papers", str(out / "papers.json"),
        "--shares", str(keys / "trustee_share_1.json"), str(keys / "trustee_share_3.json"),
        "--office", str(keys / "office_key.json"),
    ]) == 0
    return out


def test_keygen_writes_every_key_file(tmp_path) -> None:
    keys = tmp_path / "keys"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "1",
                 "--outdir", str(keys)]) == 0
    names = {p.name for p in keys.iterdir()}
    assert names == {
        "joint_key.json", "office_key.json",
        "trustee_share_1.json", "trustee_share_2.json", "trustee_share_3.json",
    }
    joint = json.loads((keys / "joint_key.json").read_text())
    assert joint["group"] == "test"
    assert (joint["n"], joint["k"]) == (3, 2)


def test_keygen_rejects_impossible_threshold(tmp_path) -> None:
    assert main(["keygen", "--n", "2", "--k", "3", "--seed", "1",
                 "--outdir", str(tmp_path)]) == 3


def test_full_pipeline_verifies_and_resolves_receipts(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--report", str(report_path)]) == 0
    assert "PASS overall" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["overall"] is True

    receipts = json.loads((out / "receipts.json").read_text())
    cast = next(r for r in receipts if r["status"] == "CAST")
    spoiled = next(r for r in receipts if r["status"] == "SPOILED")
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", cast["terminal"], "--code", cast["code"]]) == 0
    assert "FOUND_CAST" in capsys.readouterr().out
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", spoiled["terminal"], "--code", spoiled["code"]]) == 0
    assert "FOUND_SPOILED" in capsys.readouterr().out
    assert main(["receipt-check", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--terminal", "T1", "--code", "A" * 20]) == 2
    assert "NOT FOUND" in capsys.readouterr().out


def test_demo_audit_escalates_on_razor_thin_margin(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    capsys.readouterr()  # drain the pipeline chatter
    code = main(["audit", "--board", str(out / "board.jsonl"),
                 "--manifest", str(out / "params.json"),
                 "--cvrs", str(out / "cvrs.json"),
                 "--papers", str(out / "papers.json"),
                 "--commitments", str(out / "commitments.json"),
                 "--seed", SEED20])
    assert code == 2  # six ballots cannot confirm a one-vote margin
    printed = json.loads(capsys.readouterr().out)
    assert printed["verdict"] == "FULL_HAND_COUNT"
    assert printed["V"] == 1


def test_verify_flags_a_tampered_board(tmp_path, capsys) -> None:
    out = run_pipeline(tmp_path)
    board = out / "board.jsonl"
    lines = board.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"status":"CAST"', '"status":"SPOILED"', 1)
    board.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--board", str(board),
                 "--manifest", str(out / "params.json")]) == 2
    assert "FAIL overall" in capsys.readouterr().out


def test_resimulation_is_byte_identical(tmp_path) -> None:
    scenario = write_demo_scenario(tmp_path)
    for name in ("a", "b"):
        assert main(["simulate", "--scenario", scenario,
                     "--outdir", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "board.jsonl").read_bytes() == \
        (tmp_path / "b" / "board.jsonl").read_bytes()


def test_usage_errors_exit_3(tmp_path, capsys) -> None:
    assert main([]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["audit", "--board", "x", "--manifest", "x", "--cvrs", "x",
                 "--papers", "x", "--seed", "42"]) == 3  # seed not 20 digits
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    for alpha in ("0", "1.5", "-1", "nan", "1", "inf"):  # a risk limit is in (0, 1)
        capsys.readouterr()
        assert main([*commands["audit"], "--alpha", alpha]) == 3
        assert "argument --alpha: risk limit must be in (0, 1)" in capsys.readouterr().err
    assert main([*commands["audit"], "--alpha", "0.5"]) == 2  # sound files: a verdict
    capsys.readouterr()
    assert main([*commands["audit"], "--seed", "１" * 20]) == 3  # fullwidth digits: not ASCII
    assert "argument --seed: seed must be exactly 20 decimal digits" in capsys.readouterr().err
    keygen = ["keygen", "--n", "1", "--k", "1", "--outdir", str(tmp_path / "keys")]
    for argv in (keygen, commands["tally"]):  # random.Random(-1) would repeat seed 1's draws
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == 3
        assert "argument --seed: seed must be a non-negative integer, got '-1'" in \
            capsys.readouterr().err
    assert not (tmp_path / "keys").exists()
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                 "--outdir", str(tmp_path)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad),
                 "--outdir", str(tmp_path)]) == 3
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")  # structurally valid, no seed
    assert main(["simulate", "--scenario", str(empty),
                 "--outdir", str(tmp_path)]) == 3


def child_env():
    """This process's environment, with starlock importable from wherever this
    process found it."""
    src = os.path.dirname(os.path.dirname(starlock.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "starlock", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "keygen" in proc.stdout and "receipt-check" in proc.stdout


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys) -> None:
    """After one main call, later calls construct no ArgumentParser (the
    top-level parser and its six subcommand parsers are built once)."""
    assert main([]) == 3
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["no-such-command"]) == 3
    assert main(["keygen", "--n", "1", "--k", "1"]) == 3  # no --seed
    assert main(["--help"]) == 0
    assert built == []
    shown = capsys.readouterr().out
    for command in ("keygen", "simulate", "tally", "verify", "audit", "receipt-check"):
        assert command in shown, command


def test_repeated_main_calls_share_no_state(tmp_path, monkeypatch, capsys) -> None:
    """A run of main calls in one process, each after another that set other
    options or failed, gives each call the exit code, output and files of the
    same call in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    calls = [
        ["verify", "--report", str(report), "--board", str(board)],  # no --manifest: usage
        commands["receipt-check"],
        [*commands["verify"], "--report", str(report)],
        commands["verify"],
    ]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "starlock", *argv],
                              capture_output=True, text=True, env=child_env())
        fresh.append(((proc.returncode, proc.stdout, proc.stderr),
                      report.read_bytes() if report.exists() else None))
        report.unlink(missing_ok=True)
    assert [code for (code, _, _), _ in fresh] == [3, 0, 0, 0]
    assert fresh[2][1] is not None
    for argv, want in zip(calls, fresh):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert ((code, captured.out, captured.err),
                report.read_bytes() if report.exists() else None) == want, argv
        report.unlink(missing_ok=True)


def starlock_modules_after(argv):
    """(exit code, the starlock modules loaded, the other modules loaded) of
    starlock.cli's main(argv) run in a fresh interpreter; argv None imports
    the CLI and runs nothing."""
    code = ("import json, sys\n"
            "from starlock.cli import main\n"
            "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *(argv or [])],
                          capture_output=True, text=True, env=child_env())
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    ours = {m for m in loaded if m.startswith("starlock.")}
    return proc.returncode, {m.removeprefix("starlock.") for m in ours}, loaded - ours


def test_each_read_only_command_loads_only_what_it_reads(tmp_path) -> None:
    """Every command runs in its own interpreter, so a module it imports but
    never calls is start-up paid for nothing: importing the CLI loads no
    command's modules, verify and audit load none of the officials' code, and
    receipt-check reads the board format and the manifest alone. None of
    them loads dataclasses, or the inspect module it brings: a published
    record declares itself by its FIELDS."""
    officials = {"scenario", "pollsite", "board"}
    unused = {"dataclasses", "inspect"}
    _, loaded, others = starlock_modules_after(None)
    assert loaded == {"cli", "errors", "group", "serialize"}
    assert not others & unused, others & unused
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    # the demo's one-vote margin makes its audit escalate: a verdict, exit 2
    for name, want in (("verify", 0), ("audit", 2), ("receipt-check", 0)):
        code, loaded, others = starlock_modules_after(commands[name])
        assert code == want, name
        assert not loaded & officials, (name, loaded & officials)
        assert not others & unused, (name, others & unused)
    assert {"boardformat", "manifest"} <= loaded
    assert not loaded & {"verifier", "audit"}, loaded


def test_tally_loads_neither_the_polling_place_nor_the_scenario_runner(tmp_path) -> None:
    """The tally reads published files and the officials' private ones: its
    post-close step is the board module's, so a fresh tally loads neither
    the polling place nor the scenario runner, nor dataclasses or inspect."""
    board, commands = demo_commands(tmp_path)
    write_pre_tally(board, board_raw_lines(demo_run()[0]["board"]))
    code, loaded, others = starlock_modules_after(commands["tally"])
    assert code == 0
    assert {"audit", "board"} <= loaded
    assert not loaded & {"scenario", "pollsite"}, loaded & {"scenario", "pollsite"}
    assert not others & {"dataclasses", "inspect"}, others & {"dataclasses", "inspect"}


def write_demo_record(tmp_path, raw_lines, group=None):
    """The demo's manifest (its group optionally replaced) and the given board
    lines as files; returns (board path, manifest path)."""
    result, _ = demo_run()
    manifest = result["manifest"].to_json()
    if group is not None:
        manifest["group"] = group
    board, params = tmp_path / "board.jsonl", tmp_path / "params.json"
    board.write_text("\n".join(raw_lines) + "\n", encoding="utf-8")
    params.write_text(json.dumps(manifest), encoding="utf-8")
    return str(board), str(params)


def retamper_demo(mutate, upto=None):
    """The demo's board lines (the first `upto` of them), edited in place by
    mutate, re-chained and re-signed: each signature line kept is signed again
    over the re-chained head above it, as the office would have signed it."""
    result, _ = demo_run()
    lines = result["board"].lines()[:upto]
    mutate(lines)
    manifest = result["manifest"]
    signed = []
    for line in lines:
        signed.append(line)
        if line.get("kind") == "signature":
            signed = [json.loads(text) for text in
                      rechain(signed, manifest.election_id, result["office"], manifest.gp)]
    return rechain(signed, manifest.election_id, result["office"], manifest.gp)


@pytest.mark.parametrize("group", [
    {"p": "15", "q": "7", "g": "4"},  # p = 2q + 1 composite
    {"p": "23", "q": "11", "g": "12"},  # g = 23 - 11, not a signed representative
    {"p": "twenty-three", "q": "11", "g": "4"},
], ids=["composite-p", "bad-g", "not-a-number"])
def test_manifest_with_an_invalid_group_is_refused(group, tmp_path, capsys) -> None:
    result, _ = demo_run()
    board, params = write_demo_record(tmp_path, board_raw_lines(result["board"]), group)
    assert main(["verify", "--board", board, "--manifest", params]) == 2
    assert main(["receipt-check", "--board", board, "--manifest", params,
                 "--terminal", "T1", "--code", "A" * 20]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and all(line.startswith("InvalidGroup: ") for line in out)


def test_a_manifest_with_the_unsigned_prod_generator_exits_2_naming_its_group(
        tmp_path, capsys) -> None:
    """Before elements were published in signed form, the prod group's g was
    2^(2m) mod p, above (p - 1) / 2. A manifest that still carries it is no
    built-in group, and validate() refuses it: every command that reads the
    manifest exits 2 naming `<manifest>.group`."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    params = tmp_path / "params.json"
    old = dict(PROD_GROUP.to_json(), g=str(PROD_GROUP.p - PROD_GROUP.g))
    assert int(old["g"]) > (PROD_GROUP.p - 1) // 2
    params.write_text(json.dumps(dict(json.loads(params.read_text()), group=old)),
                      encoding="utf-8")
    for name in ("verify", "tally", "audit", "receipt-check"):
        if name == "tally":
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == (
            f"InvalidGroup: {params}.group: g is not a signed representative in "
            "[2, (p - 1) / 2]\n"), name


@pytest.mark.parametrize("z, fault", [
    (None, "ChainBroken: board line {}: entry line lacks z"),  # the strict read's line keys
    ("not hex", "MalformedRecord: board line {}: z: "),  # the lookup's decode
], ids=["no-z", "non-hex-z"])
def test_receipt_check_refuses_an_entry_with_a_bad_z(z, fault, tmp_path, capsys) -> None:
    where = []

    def mutate(lines):
        entry = next(line for line in lines if line["kind"] == "entry")
        where.append((lines.index(entry), entry["terminal"]))
        if z is None:
            del entry["z"]
        else:
            entry["z"] = z

    board, params = write_demo_record(tmp_path, retamper_demo(mutate))
    lineno, terminal = where[0]
    assert main(["receipt-check", "--board", board, "--manifest", params,
                 "--terminal", terminal, "--code", "A" * 20]) == 2
    assert capsys.readouterr().out.startswith(fault.format(lineno))


def test_receipt_check_refuses_a_decryption_line_without_its_plaintext(tmp_path, capsys) -> None:
    result, _ = demo_run()
    spoiled = next(r for r in result["receipts"] if r["status"] == "SPOILED")

    def mutate(lines):
        for line in lines:
            if line["kind"] == "decryption":
                del line["plaintext"]

    board, params = write_demo_record(tmp_path, retamper_demo(mutate))
    assert main(["receipt-check", "--board", board, "--manifest", params,
                 "--terminal", spoiled["terminal"], "--code", spoiled["code"]]) == 2
    assert "ChainBroken: board line" in capsys.readouterr().out


def forged_plaintext_boards():
    """The demo board with the plaintext of the first spoiled receipt's
    decryption line edited to a forged style: raw, and re-chained but still
    carrying the office's old signature. Returns (decryption line number,
    raw board lines, re-chained board lines)."""
    result, _ = demo_run()
    spoiled = next(r for r in result["receipts"] if r["status"] == "SPOILED")
    lines = result["board"].lines()
    at = next(i for i, x in enumerate(lines)
              if x["kind"] == "decryption" and x["ref"] == str(spoiled["entry"]))
    lines[at]["plaintext"] = dict(lines[at]["plaintext"], style_id="forged")
    raw = board_raw_lines(result["board"])
    manifest = result["manifest"]
    rechained = rechain(lines, manifest.election_id, result["office"], manifest.gp)
    resealed = dict(json.loads(rechained[-1]), sig=lines[-1]["sig"])
    return at, [*raw[:at], canonical_json(lines[at]), *raw[at + 1:]], [
        *rechained[:-1], canonical_json(resealed)]


def test_a_forged_spoiled_plaintext_is_refused_by_every_reader(tmp_path, capsys) -> None:
    """Raw-edited, the forged decryption line breaks the chain at the next
    line; re-chained by anyone without the office's key, the final signature
    fails. Every command that reads the board exits 2 naming that line,
    where the receipt check once printed the forged plaintext as found."""
    at, raw, rechained = forged_plaintext_boards()
    board, commands = demo_commands(tmp_path)
    last = len(rechained) - 1
    for lines, fault in ((raw, f"board line {at + 1}: hash chain broken"),
                         (rechained, f"board line {last}: signature does not verify")):
        board.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name in ("audit", "receipt-check", "receipt-check-spoiled"):
            capsys.readouterr()
            assert main(commands[name]) == 2, name
            assert capsys.readouterr().out == f"ChainBroken: {fault}\n", name
        capsys.readouterr()
        assert main(commands["verify"]) == 2
        assert fault.split(": ", 1)[1] in capsys.readouterr().out


def test_a_last_line_out_of_canonical_form_is_refused_by_every_reader(tmp_path, capsys) -> None:
    """The office's signature, the last line, rewritten with its keys
    reversed and ", " / ": " separators: its value is the same and no later
    prev covers its text, yet every command that reads the board exits 2
    naming it."""
    raw = board_raw_lines(demo_run()[0]["board"])
    last = len(raw) - 1
    reformatted = json.dumps(dict(reversed(json.loads(raw[last]).items())))
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join([*raw[:last], reformatted]) + "\n", encoding="utf-8")
    for name in ("audit", "receipt-check", "receipt-check-spoiled"):
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == (
            f"ChainBroken: board line {last}: line not in canonical form\n"), name
    capsys.readouterr()
    assert main(commands["verify"]) == 2
    assert f"line_chain [line {last}]: line not in canonical form" in capsys.readouterr().out


def test_receipt_check_reports_an_ambiguous_receipt_as_a_verdict(tmp_path, capsys) -> None:
    """The first entry line again as the next entry after the last,
    re-chained and re-signed: the receipt matches two chain positions, and
    AmbiguousReceipt's own exit code ends the command, its line on stdout."""
    count = []

    def duplicate_first_entry(lines):
        positions = [i for i, x in enumerate(lines) if x["kind"] == "entry"]
        count.append(len(positions))
        lines.insert(positions[-1] + 1, dict(lines[positions[0]], index=str(len(positions))))

    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(retamper_demo(duplicate_first_entry)) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(commands["receipt-check"]) == 2
    assert capsys.readouterr().out == (
        f"AmbiguousReceipt: receipt code matches entries [0, {count[0]}]\n")


def test_tally_refuses_a_spoiled_entry_of_an_unknown_style(tmp_path, capsys) -> None:
    result, _ = demo_run()
    kinds = [line["kind"] for line in result["board"].lines()]

    def mutate(lines):
        entry = next(line for line in lines
                     if line["kind"] == "entry" and line["status"] == "SPOILED")
        entry["ballot"]["style_id"] = "nowhere"

    # the board as it stood before the tally: up to its first signature
    raw = retamper_demo(mutate, upto=kinds.index("signature"))
    board, params = write_demo_record(tmp_path, raw)
    files = {}
    for name, obj in [("cvrs", result["cvrs"]), ("papers", result["papers"]),
                      ("office", {"sk": int_to_hex(result["office"].sk),
                                  "pk": int_to_hex(result["office"].pk)})]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj), encoding="utf-8")
    shares = []
    for share in result["trustee_shares"]:
        shares.append(tmp_path / f"share_{share.trustee_id}.json")
        shares[-1].write_text(json.dumps(share.to_json()), encoding="utf-8")
    assert main(["tally", "--manifest", params, "--board", board,
                 "--cvrs", str(files["cvrs"]), "--papers", str(files["papers"]),
                 "--shares", *map(str, shares), "--office", str(files["office"])]) == 2
    assert "unknown ballot style 'nowhere'" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["entry-without-index", "unparseable-line", "not-utf-8"])
def test_every_command_refuses_a_malformed_board_with_exit_2(damage, tmp_path, capsys) -> None:
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    if damage == "entry-without-index":
        raw = retamper_demo(
            lambda lines: next(x for x in lines if x["kind"] == "entry").pop("index"))
    elif damage == "unparseable-line":
        raw[3] = raw[3][:-1]
    for name, argv in commands.items():
        data = ("\n".join(raw) + "\n").encode("utf-8")
        if damage == "not-utf-8":
            data = data.replace(b'"index":"0"', b'"index":"\xff"', 1)
        board.write_bytes(data)
        assert main(argv) == 2, name
        out = capsys.readouterr().out
        if name in ("receipt-check", "tally"):
            assert out.startswith(("ChainBroken: board line", "MalformedRecord: board line")), name


def test_tally_and_receipt_check_decode_only_what_they_read(tmp_path, monkeypatch) -> None:
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    kinds = [json.loads(line)["kind"] for line in raw]

    def refuse(obj):
        raise AssertionError("decoded a record the command does not read")

    from starlock.ballot import EncryptedBallot, WellFormednessProof
    from starlock.boardformat import TallyRecord

    monkeypatch.setattr(WellFormednessProof, "from_json", refuse)
    board.write_text("\n".join(raw[: kinds.index("signature") + 1]) + "\n", encoding="utf-8")
    assert main(commands["tally"]) == 0
    for cls in (EncryptedBallot, TallyRecord):
        monkeypatch.setattr(cls, "from_json", refuse)
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    assert main(commands["receipt-check"]) == 0


def _null_writein(lines):
    entry = next(x for x in lines if x["kind"] == "entry" and x["status"] == "CAST")
    entry["ballot"]["contests"][0]["writein"] = None  # the mayor contest has a write-in slot


def _twin_share(lines):
    """Trustee 1's share again as trustee 12: the same point modulo q = 11."""
    column = next(x for x in lines if x["kind"] == "tally")["columns"][0]
    first = column["shares"][0]
    column["shares"] = [first, dict(first, trustee_id=first["trustee_id"] + 11)]


def _no_mayor_result(lines):
    del next(x for x in lines if x["kind"] == "tally")["result"]["mayor"]


def _no_entries_from_7(lines):
    lines[:] = [x for x in lines if x["kind"] != "entry" or int(x["index"]) < 7]


def _numeric_election_id(lines):
    lines[0]["election_id"] = 7


@pytest.mark.parametrize("edit, command, code", [
    (_null_writein, "verify", 2),
    (_null_writein, "tally", 2),
    (_twin_share, "verify", 2),
    (_no_mayor_result, "audit", 2),
    (_no_entries_from_7, "tally", 2),
    (_numeric_election_id, "tally", 2),
], ids=["null-write-in", "null-write-in-tally", "twin-trustee-share", "result-without-contest",
        "cvr-of-a-missing-entry", "numeric-election-id"])
def test_rechained_edits_end_with_an_exit_code_not_a_traceback(edit, command, code, tmp_path,
                                                                capsys) -> None:
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(retamper_demo(edit)) + "\n", encoding="utf-8")
    assert main(commands[command]) == code


# Input files that hold no JSON document, or not the document their command
# reads: (command, file under tmp_path, its content).
MALFORMED_FILES = [
    ("verify", "params.json", b"{not json"),
    ("verify", "params.json", b"{}"),
    ("receipt-check", "params.json", b'{"election_id": 7}'),
    ("audit", "cvrs.json", b"[{"),
    ("audit", "papers.json", b"\xff\xfe not utf-8"),
    ("tally", "cvrs.json", b"[" * 100000),
    ("tally", "papers.json", b""),
    ("tally", "share1.json", b"{not json"),
    ("tally", "office.json", b"{not json"),
    ("simulate", "keys/joint_key.json", b"[]"),
]


def case_ids(cases) -> list:
    """command-file for each case; a pair named before also gets its position."""
    ids = []
    for i, (command, name, _) in enumerate(cases):
        case = f"{command}-{name.split('/')[-1]}"
        ids.append(f"{case}-{i}" if case in ids else case)
    return ids


@pytest.mark.parametrize("command, name, content", MALFORMED_FILES, ids=case_ids(MALFORMED_FILES))
def test_a_malformed_input_file_exits_2_naming_it(command, name, content, tmp_path,
                                                   capsys) -> None:
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    if command == "tally":  # the board as it stood before the tally
        kinds = [json.loads(line)["kind"] for line in raw]
        raw = raw[: kinds.index("signature") + 1]
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    if command == "simulate":
        assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5",
                     "--outdir", str(tmp_path / "keys")]) == 0
        commands["simulate"] = ["simulate", "--scenario", write_demo_scenario(tmp_path),
                                "--keys", str(tmp_path / "keys"), "--outdir", str(tmp_path / "out")]
    (tmp_path / name).write_bytes(content)
    capsys.readouterr()
    assert main(commands[command]) == 2
    printed = capsys.readouterr()
    assert str(tmp_path / name) in printed.out + printed.err


@pytest.mark.parametrize("edit, fault", [
    (lambda cvrs: [{k: v for k, v in cvrs[0].items() if k != "serial"}, *cvrs[1:]],
     "cvrs[0].serial: missing"),
    (lambda cvrs: [dict(cvrs[0], index="x"), *cvrs[1:]],
     "cvrs[0].index: not a non-negative integer"),
    (lambda cvrs: {}, "cvrs: not a list"),
    (lambda cvrs: [dict(cvrs[0], index=999), *cvrs[1:]], "cvrs[0].index: no entry 999"),
], ids=["row-without-serial", "index-not-a-number", "an-object", "index-of-no-entry"])
def test_tally_refuses_a_malformed_cvr_file(edit, fault, tmp_path, capsys) -> None:
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    kinds = [json.loads(line)["kind"] for line in raw]
    board.write_text("\n".join(raw[: kinds.index("signature") + 1]) + "\n", encoding="utf-8")
    cvrs = tmp_path / "cvrs.json"
    cvrs.write_text(json.dumps(edit(json.loads(cvrs.read_text()))), encoding="utf-8")
    before = board.read_bytes()
    assert main(commands["tally"]) == 2
    assert fault in capsys.readouterr().out
    assert board.read_bytes() == before


def write_pre_tally(board, raw):
    """The board lines as they stood before the tally (up to the first
    signature line), written to the board file."""
    kinds = [json.loads(line)["kind"] for line in raw]
    board.write_text("\n".join(raw[: kinds.index("signature") + 1]) + "\n", encoding="utf-8")


# Edits of the demo's CVR store and paper box that no one-to-one match of
# records, papers and board entries survives: each takes (cvrs, papers) and
# returns them edited, with the fault that names the file, row and field.
UNRECONCILABLE = {
    "index-repeated-under-a-new-serial": lambda cvrs, papers: (
        [*cvrs, dict(cvrs[0], serial="X")], papers,
        f"cvrs[{len(cvrs)}].index: repeats cvrs[0].index"),
    "index-of-no-entry": lambda cvrs, papers: (
        [dict(cvrs[0], index=999), *cvrs[1:]], papers, "cvrs[0].index: no entry 999"),
    "cast-entry-without-a-row": lambda cvrs, papers: (
        [*cvrs[:2], *cvrs[3:]], papers, f"cvrs: no row for CAST entry {cvrs[2]['index']}"),
    "serial-repeated": lambda cvrs, papers: (
        [cvrs[0], dict(cvrs[1], serial=cvrs[0]["serial"]), *cvrs[2:]], papers,
        "cvrs[1].serial: repeats cvrs[0].serial"),
    "paper-serial-repeated": lambda cvrs, papers: (
        cvrs, [*papers, dict(papers[0])],
        f"papers[{len(papers)}].serial: repeats papers[0].serial"),
}


@pytest.mark.parametrize("edit", UNRECONCILABLE.values(), ids=UNRECONCILABLE.keys())
def test_tally_and_audit_refuse_a_store_or_box_that_does_not_match_the_board(edit, tmp_path,
                                                                             capsys) -> None:
    """The tally and the audit reconcile the same files by one rule: the tally
    exits 2 naming the row and leaves the board as it was, demoting no entry
    whose paper is in the box, and the audit aborts naming the same row."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    cvrs, papers = tmp_path / "cvrs.json", tmp_path / "papers.json"
    rows, box, fault = edit(json.loads(cvrs.read_text()), json.loads(papers.read_text()))
    cvrs.write_text(json.dumps(rows), encoding="utf-8")
    papers.write_text(json.dumps(box), encoding="utf-8")
    raw = board_raw_lines(result["board"])
    write_pre_tally(board, raw)
    before = board.read_bytes()
    capsys.readouterr()
    assert main(commands["tally"]) == 2
    assert capsys.readouterr().out == f"MalformedRecord: {fault}\n"
    assert board.read_bytes() == before
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    assert main(commands["audit"]) == 2
    assert json.loads(capsys.readouterr().out) == {"verdict": "ABORTED", "reason": fault}


def test_audit_aborts_on_a_board_with_no_effective_cast_entry(tmp_path, capsys) -> None:
    """Status lines demote every CAST entry to SPOILED before the tally line,
    which still announces a positive margin, and the paper box is empty: the
    audit has no ballot to draw and aborts, exit 2, with no traceback."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    lines = result["board"].lines()
    at = next(i for i, line in enumerate(lines) if line["kind"] == "tally")
    lines[at:at] = [{"kind": "status", "ref": line["index"], "status": "SPOILED"}
                    for line in lines if line["kind"] == "entry" and line["status"] == "CAST"]
    manifest = result["manifest"]
    board.write_text("\n".join(rechain(lines, manifest.election_id, result["office"],
                                       manifest.gp)) + "\n", encoding="utf-8")
    (tmp_path / "papers.json").write_text("[]", encoding="utf-8")
    capsys.readouterr()
    assert main(commands["audit"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "ABORTED", "reason": "no effective-CAST ballot to audit"}


@pytest.mark.parametrize("edit", [
    lambda office: dict(office, sk=int_to_hex(int(office["sk"], 16) + 1)),
    lambda office: dict(office, pk=int_to_hex(int(office["pk"], 16) + 1)),
], ids=["wrong-secret", "wrong-public"])
def test_tally_refuses_an_office_key_pair_the_manifest_does_not_name(edit, tmp_path,
                                                                     capsys) -> None:
    """g^sk, the file's pk and the manifest's office key must agree: a wrong
    secret would sign the board with a signature that verify rejects."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    write_pre_tally(board, board_raw_lines(result["board"]))
    office = tmp_path / "office.json"
    office.write_text(json.dumps(edit(json.loads(office.read_text()))), encoding="utf-8")
    before = board.read_bytes()
    capsys.readouterr()
    assert main(commands["tally"]) == 2
    assert capsys.readouterr().out == (
        f"MalformedRecord: {office}: not the election manifest's office key pair\n")
    assert board.read_bytes() == before


def test_an_office_key_outside_the_subgroup_is_refused_where_the_manifest_loads(
        tmp_path, capsys) -> None:
    """p - pk is the other representative of pk's class, not its signed form:
    every command that reads the manifest exits 2 naming its office key,
    where verify once reported FAIL and the others a signature that does not
    verify."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    bad_key = TEST_GROUP.p - int(doc["office_pk"], 16)
    params.write_text(json.dumps(dict(doc, office_pk=int_to_hex(bad_key))), encoding="utf-8")
    for name in ("verify", "tally", "audit", "receipt-check", "receipt-check-spoiled"):
        if name == "tally":
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        before = board.read_bytes()
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == (
            f"MalformedRecord: {params}.office_pk: not an element of the group\n"), name
        assert board.read_bytes() == before, name


@pytest.mark.parametrize("edit, fault", [
    (lambda group: dict(group, p="24"), "p is not prime"),
    (lambda group: {key: v for key, v in group.items() if key != "q"},
     "not three integers p, q, g (q: missing)"),
], ids=["p-24", "no-q"])
def test_a_group_that_does_not_validate_is_refused_naming_the_manifest_and_group(
        edit, fault, tmp_path, capsys) -> None:
    """InvalidGroup is a MalformedRecord, so the manifest's load names the
    file and its group field, as it does an office key out of the subgroup."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    params.write_text(json.dumps(dict(doc, group=edit(doc["group"]))), encoding="utf-8")
    for name in ("verify", "tally", "audit", "receipt-check"):
        if name == "tally":
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == f"InvalidGroup: {params}.group: {fault}\n", name


@pytest.mark.parametrize("edit", [
    lambda style: style,
    lambda style: dict(style, contests=[c for c in style["contests"]
                                        if c["contest_id"] != "council"]),
], ids=["listed-twice", "second-without-council"])
def test_a_manifest_that_repeats_a_style_id_is_refused_naming_its_styles(
        edit, tmp_path, capsys) -> None:
    """A style map keeps one style per id, so a second style of the same id
    would silently shadow the first; every command that reads the manifest
    exits 2 naming its styles instead."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    (style,) = doc["styles"]
    params.write_text(json.dumps(dict(doc, styles=[style, edit(style)])), encoding="utf-8")
    for name in ("verify", "tally", "audit", "receipt-check"):
        if name == "tally":
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        before = board.read_bytes()
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == (
            f"MalformedRecord: {params}.styles: a style id is repeated\n"), name
        assert board.read_bytes() == before, name


def test_a_prod_manifest_refuses_an_office_key_outside_the_order_q_subgroup() -> None:
    """|pk * z|, with z = 2^(2q) of order m in the prod group, is a signed
    representative, so only the q-th power test refuses it."""
    p, q, g = PROD_GROUP.p, PROD_GROUP.q, PROD_GROUP.g
    doc = dict(demo_run()[0]["manifest"].to_json(), group=PROD_GROUP.to_json())
    pk = PROD_GROUP.signed(pow(g, 12345, p))
    assert ElectionManifest.from_json(dict(doc, office_pk=int_to_hex(pk))).office_pk == pk
    bad_key = PROD_GROUP.signed(pk * pow(2, 2 * q, p) % p)
    assert 0 < bad_key <= (p - 1) // 2
    with pytest.raises(MalformedRecord) as refused:
        ElectionManifest.from_json(dict(doc, office_pk=int_to_hex(bad_key)))
    assert refused.value.detail == "office_pk: not an element of the group"


@pytest.mark.parametrize("kind", [["header"], {"header": 1}], ids=["list", "object"])
def test_a_line_kind_that_is_not_a_string_exits_2_naming_the_line(tmp_path, capsys, kind) -> None:
    """Every command's strict read refuses the line: its kind has no line keys."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    lines = board_raw_lines(result["board"])
    lines[0] = json.dumps(dict(json.loads(lines[0]), kind=kind))
    board.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    for name in ("audit", "receipt-check", "receipt-check-spoiled", "tally"):
        assert main(commands[name]) == 2, name
        assert "board line 0: " in capsys.readouterr().out, name


def test_a_second_tally_is_refused_at_its_first_decryption_line(tmp_path, capsys) -> None:
    """Tallying a tallied board again would publish each decryption and the
    tally twice and re-sign a board that verify rejects."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    write_pre_tally(board, board_raw_lines(result["board"]))
    assert main(commands["tally"]) == 0
    tallied = board.read_bytes()
    kinds = [json.loads(line)["kind"] for line in tallied.decode().splitlines()]
    capsys.readouterr()
    assert main(commands["tally"]) == 2
    assert capsys.readouterr().out == (f"ChainBroken: board line {kinds.index('decryption')}: "
                                       "decryption line: the board is already tallied\n")
    assert board.read_bytes() == tallied
    assert main(commands["verify"]) == 0


def test_simulate_refuses_an_office_key_whose_pk_is_not_g_to_its_sk(tmp_path, capsys) -> None:
    """A wrong secret next to keygen's pk would sign a board that verify
    rejects: simulate --keys exits 2 naming the file and writes nothing."""
    keys, out = tmp_path / "keys", tmp_path / "run"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5", "--outdir", str(keys)]) == 0
    office = keys / "office_key.json"
    doc = json.loads(office.read_text())
    office.write_text(json.dumps(dict(doc, sk=int_to_hex(int(doc["sk"], 16) + 1))),
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--scenario", write_demo_scenario(tmp_path), "--keys", str(keys),
                 "--outdir", str(out)]) == 2
    assert capsys.readouterr().out == f"MalformedRecord: {office}: not an office key pair\n"
    assert not out.exists()


def test_simulate_refuses_a_joint_key_outside_the_order_q_subgroup(tmp_path, capsys) -> None:
    """|K * z|, with z = 2^(2q) of order m in the prod group, is a signed
    representative, so only the q-th power test refuses it: exit 2, naming
    the file."""
    keys, out = tmp_path / "keys", tmp_path / "run"
    assert main(["keygen", "--n", "1", "--k", "1", "--seed", "5", "--group", "prod",
                 "--outdir", str(keys)]) == 0
    joint = keys / "joint_key.json"
    doc = json.loads(joint.read_text())
    p, q = PROD_GROUP.p, PROD_GROUP.q
    bad_key = PROD_GROUP.signed(int(doc["K"], 16) * pow(2, 2 * q, p) % p)
    joint.write_text(json.dumps(dict(doc, K=int_to_hex(bad_key))), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    prod_demo = dataclasses.replace(make_demo_scenario(), group="prod")
    scenario.write_text(json.dumps(prod_demo.to_json()), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--keys", str(keys),
                 "--outdir", str(out)]) == 2
    assert capsys.readouterr().out == f"MalformedRecord: {joint}.K: not an element of the group\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["K", "commitments"])
def test_a_joint_key_value_not_in_signed_form_is_refused_where_it_loads(
        tmp_path, capsys, field) -> None:
    """p - x names the same class as x, so the joint key or a coefficient
    commitment published as p - x would pass every proof and share check:
    the manifest's decode refuses it, and every command that reads the
    manifest exits 2 naming it."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    raw = board_raw_lines(result["board"])
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    values = doc["joint_key"]["commitments"] if field == "commitments" else doc["joint_key"]
    key = -1 if field == "commitments" else "K"
    values[key] = int_to_hex(TEST_GROUP.p - int(values[key], 16))
    params.write_text(json.dumps(doc), encoding="utf-8")
    for name in ("verify", "tally", "audit", "receipt-check"):
        if name == "tally":
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(commands[name]) == 2, name
        assert capsys.readouterr().out == (
            f"MalformedRecord: {params}.joint_key.{field}: not a signed representative\n"), name


def test_simulate_refuses_a_key_file_commitment_not_in_signed_form(tmp_path, capsys) -> None:
    keys, out = tmp_path / "keys", tmp_path / "run"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5", "--outdir", str(keys)]) == 0
    joint = keys / "joint_key.json"
    doc = json.loads(joint.read_text())
    doc["commitments"][1] = int_to_hex(TEST_GROUP.p - int(doc["commitments"][1], 16))
    joint.write_text(json.dumps(doc), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_demo_scenario().to_json()), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--keys", str(keys),
                 "--outdir", str(out)]) == 2
    assert capsys.readouterr().out == (
        f"MalformedRecord: {joint}.commitments: not a signed representative\n")
    assert not out.exists()


def test_a_joint_key_whose_share_points_collide_is_refused_where_it_loads(
        tmp_path, capsys) -> None:
    """With n >= q two trustee ids name one share point: trustee 1's share
    published again under id 12 (12 = 1 mod 11) passes its proof, and
    interpolating at points 1 and 12 would divide by zero. The manifest's
    decode refuses n = 14, so verify and tally exit 2 naming it, and
    verify_board, under the manifest that loads, reports the edited tally
    line without raising."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    doc["joint_key"]["n"] = 14
    params.write_text(json.dumps(doc), encoding="utf-8")
    lines = [json.loads(line) for line in board_raw_lines(result["board"])]
    for column in next(line for line in lines if line["kind"] == "tally")["columns"]:
        column["shares"] = [column["shares"][0], dict(column["shares"][0], trustee_id=12)]
    raw = rechain(lines, result["manifest"].election_id, result["office"], TEST_GROUP)
    report = verify_board(raw, result["manifest"])
    assert {item.check for item in report.failures()} == {"tally"}
    share12 = tmp_path / "share12.json"
    share12.write_text(json.dumps(dict(result["trustee_shares"][0].to_json(), trustee_id=12)),
                       encoding="utf-8")
    argv, at = commands["tally"], commands["tally"].index("--shares") + 1
    tally = [*argv[:at + 1], str(share12), *argv[argv.index("--office"):]]  # shares 1 and 12
    for argv in (commands["verify"], tally):
        if argv is tally:
            write_pre_tally(board, raw)
        else:
            board.write_text("\n".join(raw) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().out == (f"MalformedRecord: {params}.joint_key: trustees: "
                                           "n=14 collides share points modulo q=11\n"), argv[0]


@pytest.mark.parametrize("edit, fault", [
    (lambda doc: dict(doc, n=14), ": trustees: n=14 collides share points modulo q=11"),
    (lambda doc: dict(doc, commitments=doc["commitments"][:1]),
     ".commitments: need exactly k=2, got 1"),
], ids=["share-points-collide", "a-commitment-short"])
def test_simulate_refuses_a_key_file_joint_key_out_of_rule(tmp_path, capsys, edit, fault) -> None:
    keys, out = tmp_path / "keys", tmp_path / "run"
    assert main(["keygen", "--n", "3", "--k", "2", "--seed", "5", "--outdir", str(keys)]) == 0
    joint = keys / "joint_key.json"
    joint.write_text(json.dumps(edit(json.loads(joint.read_text()))), encoding="utf-8")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_demo_scenario().to_json()), encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--keys", str(keys),
                 "--outdir", str(out)]) == 2
    assert capsys.readouterr().out == f"MalformedRecord: {joint}{fault}\n"
    assert not out.exists()


def test_verify_refuses_a_manifest_whose_salt_does_not_give_its_seeds(tmp_path, capsys) -> None:
    """Each terminal's z0 is derived from the manifest's salt; a salt off by
    one leaves every published chain intact but fails terminal_chain."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(result["board"])) + "\n", encoding="utf-8")
    params = tmp_path / "params.json"
    doc = json.loads(params.read_text())
    params.write_text(json.dumps(dict(doc, salt=f"{int(doc['salt'], 16) + 1:032x}")),
                      encoding="utf-8")
    capsys.readouterr()
    assert main(commands["verify"]) == 2
    failures = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAIL")]
    assert failures == [
        *(f"FAIL terminal_chain: terminal {tid}: seed does not follow from the manifest's salt"
          for tid in sorted(result["manifest"].terminal_seeds)),
        "FAIL overall"]


@pytest.mark.parametrize("status", ["SPOILED", "CAST"])
def test_a_count_beyond_its_bound_names_its_column(status, tmp_path, capsys) -> None:
    """An entry's first option ciphertext shifted in the exponent past what its
    column can hold: tally names the contest and column (and, for a spoiled
    ballot, the entry's board line), exits 2 and leaves the board as it was."""
    result, outcome = demo_run()
    gp = result["manifest"].gp
    where = []

    def mutate(lines):
        lineno, entry = next((i, x) for i, x in enumerate(lines)
                             if x["kind"] == "entry" and x["status"] == status)
        contest = entry["ballot"]["contests"][0]
        cid, option = contest["contest_id"], result["manifest"].style_map[
            entry["ballot"]["style_id"]].contests[0].options[0]
        if status == "SPOILED":
            shift, bound = 2, 1
        else:
            bound = outcome["tally"].cast_counts[cid]
            shift = bound + 1 - outcome["tally"].result[cid][option]
        ct = contest["options"][0]
        ct["b"] = int_to_hex(int(ct["b"], 16) * pow(gp.g, shift, gp.p) % gp.p)
        where.append((f"board line {lineno}: " if status == "SPOILED" else "")
                     + f"{cid}.{option}: no exponent in [0, {bound}] matches")

    board, commands = demo_commands(tmp_path)
    kinds = [line["kind"] for line in result["board"].lines()]
    write_pre_tally(board, retamper_demo(mutate, upto=kinds.index("signature")))
    before = board.read_bytes()
    capsys.readouterr()
    assert main(commands["tally"]) == 2
    assert capsys.readouterr().out == f"NoDlogInRange: {where[0]}\n"
    assert board.read_bytes() == before


@pytest.mark.parametrize("edit", [
    lambda row: {k: v for k, v in row.items() if k != "commitments"},
    lambda row: dict(row, commitments=["not", "an", "object"]),
], ids=["row-without-commitments", "commitments-not-an-object"])
def test_audit_without_a_commitment_file_names_a_malformed_cvr_row(edit, tmp_path, capsys) -> None:
    """With no --commitments, audit publishes the CVR rows' own digests, read
    through the same row decoder as every other CVR field."""
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(result["board"])) + "\n", encoding="utf-8")
    cvrs = tmp_path / "cvrs.json"
    rows = json.loads(cvrs.read_text())
    cvrs.write_text(json.dumps([*rows[:2], edit(rows[2]), *rows[3:]]), encoding="utf-8")
    assert main(commands["audit"]) == 2
    assert json.loads(capsys.readouterr().out)["reason"].startswith("cvrs[2].commitments: ")


# Every file argument of the commands that read files: (command, flag).
FILE_ARGS = [(command, flag) for command, flags in (
    ("tally", ("--manifest", "--board", "--shares", "--office", "--cvrs", "--papers")),
    ("verify", ("--manifest", "--board")),
    ("audit", ("--manifest", "--board", "--cvrs", "--papers", "--commitments")),
    ("receipt-check", ("--manifest", "--board")),
) for flag in flags]


@pytest.mark.parametrize("command, flag", FILE_ARGS, ids=[f"{c}{f}" for c, f in FILE_ARGS])
def test_a_directory_as_an_input_path_exits_3_naming_it(command, flag, tmp_path, capsys) -> None:
    result, _ = demo_run()
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(result["board"])) + "\n", encoding="utf-8")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    argv = commands[command] + ([flag, "x"] if flag not in commands[command] else [])
    argv[argv.index(flag) + 1] = str(directory)
    capsys.readouterr()
    assert main(argv) == 3
    assert str(directory) in capsys.readouterr().err


def test_an_entry_with_an_unknown_status_fails_at_its_line(tmp_path, capsys) -> None:
    """A CAST entry re-labelled VOID and the board re-chained and re-signed: the
    status is not in the board format, so no reader counts the entry as any
    status, and each names the line."""
    result, _ = demo_run()
    cast = next(r for r in result["receipts"] if r["status"] == "CAST")
    where = []

    def mutate(lines):
        entry = next(x for x in lines if x["kind"] == "entry" and x["index"] == str(cast["entry"]))
        entry["status"] = "VOID"
        where.append(lines.index(entry))

    raw = retamper_demo(mutate)
    report = verify_board(raw, result["manifest"])
    chain = next(item for item in report.items if item.check == "line_chain")
    assert not chain.ok and chain.line == where[0]
    assert chain.detail == "malformed status: not one of CAST, SPOILED, UNTALLIED"

    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(raw) + "\n", encoding="utf-8")
    receipt = commands["receipt-check"]
    receipt[receipt.index("--terminal") + 1] = cast["terminal"]
    receipt[receipt.index("--code") + 1] = cast["code"]
    for argv in (receipt, commands["audit"], commands["verify"]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        assert f"line {where[0]}" in capsys.readouterr().out, argv[0]


def test_an_output_path_that_cannot_be_written_exits_3_naming_it(tmp_path, capsys) -> None:
    """A failed write is described as one: a report path that is a directory,
    and a key directory under a file."""
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    capsys.readouterr()
    assert main([*commands["verify"], "--report", str(directory)]) == 3
    assert f"cannot open {directory}: Is a directory" in capsys.readouterr().err
    outdir = tmp_path / "params.json" / "keys"
    assert main(["keygen", "--n", "1", "--k", "1", "--seed", "1", "--outdir", str(outdir)]) == 3
    assert capsys.readouterr().err == f"cannot open {outdir}: Not a directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_write_that_fails_after_its_file_opened_exits_3_naming_the_path(tmp_path, capsys) -> None:
    """/dev/full opens, and its writes fail with ENOSPC: an OSError that
    carries no file name, which the writer names."""
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([*commands["verify"], "--report", "/dev/full"]) == 3
    assert capsys.readouterr().err == f"cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_a_standard_output_closed_early_exits_3_naming_it(tmp_path, capsys, monkeypatch) -> None:
    """A reader that stops early (starlock verify ... | head -1) closes the
    pipe, and print's write raises an OSError that carries no file name: the
    message names the standard output."""
    board, commands = demo_commands(tmp_path)
    board.write_text("\n".join(board_raw_lines(demo_run()[0]["board"])) + "\n", encoding="utf-8")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(commands["verify"]) == 3
    monkeypatch.undo()
    assert capsys.readouterr().err == f"cannot write standard output: {os.strerror(errno.EPIPE)}\n"
