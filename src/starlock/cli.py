"""Operator command suite.

Subcommands mirror the election lifecycle:

  keygen        trustee key ceremony + election-office signing key
  simulate      run a scenario file; emits every election-day artifact
  tally         compliance reconciliation, decryptions, tally, re-sign
  verify        the independent observer's full board check
  audit         risk-limiting audit against --commitments (required), the file
                published before its seed: the CVR store's digests bind nothing
  receipt-check resolve one take-home receipt against the board

Exit codes (each error class declares its own in errors.py): 0 pass; 1
internal failure; 2 a verdict on the files read: verify's FAIL, an audit that
does not confirm, a receipt not found, or an input fault named by path or
board line and field (a file that is not JSON, a record or line out of form,
a broken line chain or signature, an invalid group, a count beyond its bound,
missing or failing decryption shares, an ambiguous receipt, a board already
tallied, a CVR store or paper box that disagrees with the board); 3 a usage
or scenario fault (a bad scenario file or threshold, a risk limit outside
(0, 1), a negative seed, key files for another group, an input path that is
missing, a directory or unreadable, an output that cannot be written). An
error prints one line, "Class: message", to stdout with code 2 and to stderr
otherwise; a path that cannot be opened or read prints "cannot open PATH:
reason" to stderr, and an output that cannot be written, a full disk or a
closed pipe, "cannot write PATH: reason" (PATH "standard output" for print's).

Every --seed is a non-negative integer: random.Random seeds from the absolute
value of an int, so a negative seed would repeat its positive twin's draws.
main(argv) may be called any number of times in one process; it builds its
parser on the first call and reuses it, since parsing keeps no state.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from collections import Counter

# Each command imports what it runs in its handler, so that a read-only command
# started in a fresh interpreter loads (and compiles) only the modules it reads.
from .errors import MalformedRecord, ScenarioError, StarlockError
from .group import GROUPS, resolve_group
from .serialize import STR, WriteFailed, decode_field, dump_json, load_json, load_record

PASS, FAIL, USAGE = 0, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse with the uniform usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE)


# -- keygen ---------------------------------------------------------------------


def cmd_keygen(args) -> int:
    from .elgamal import keygen
    from .trustees import dkg
    gp = resolve_group(args.group)
    rng = random.Random(args.seed)
    jpk, shares = dkg(args.n, args.k, gp, rng)
    office = keygen(gp, rng)
    os.makedirs(args.outdir, exist_ok=True)
    joint_path = os.path.join(args.outdir, "joint_key.json")
    dump_json({**jpk.to_json(), "group": args.group}, joint_path)
    for share in shares:
        share.save(os.path.join(args.outdir, f"trustee_share_{share.trustee_id}.json"))
    office_path = os.path.join(args.outdir, "office_key.json")
    dump_json({"group": args.group, **office.to_json()}, office_path)
    print(f"joint key ({args.k}-of-{args.n}, {args.group} group): {joint_path}")
    print(f"{len(shares)} trustee share file(s) and {office_path} written")
    return PASS


def _load_office(path, gp, manifest_pk=None):
    """The office key pair in the file at path; a MalformedRecord naming the
    file unless its pk is |g^sk| and, given the manifest's key, that key."""
    from .elgamal import Keypair
    office = load_record(path, Keypair.from_json)
    # through g's fixed-base entry: simulate and tally build it anyway
    pk = gp.signed(gp.comb(gp.g, office.sk, gp.p))
    if office.pk != pk or manifest_pk not in (None, office.pk):
        whose = "an" if manifest_pk is None else "the election manifest's"
        raise MalformedRecord(f"not {whose} office key pair").within(path)
    return office


def _load_keys(keydir, expected_group):
    from .trustees import JointPublicKey, TrusteeShare, check_joint_key
    def joint_key(joint):
        jpk, group = JointPublicKey.from_json(joint), decode_field(joint, "group", STR.decode)
        if group != expected_group:
            raise ScenarioError(f"key files are for group {group!r}, "
                                f"scenario wants {expected_group!r}")
        gp = resolve_group(group)
        if not gp.is_element(jpk.K):
            raise MalformedRecord("not an element of the group").within("K")
        check_joint_key(jpk, gp)
        return jpk, gp

    jpk, gp = load_record(os.path.join(keydir, "joint_key.json"), joint_key)
    office = _load_office(os.path.join(keydir, "office_key.json"), gp)
    shares = []
    for i in range(1, jpk.n + 1):
        path = os.path.join(keydir, f"trustee_share_{i}.json")
        if os.path.exists(path):
            shares.append(load_record(path, TrusteeShare.from_json))
    return {"jpk": jpk, "office": office, "trustee_shares": shares}


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .scenario import load_scenario, run_scenario, write_artifacts
    scenario = load_scenario(args.scenario)
    keys = _load_keys(args.keys, scenario.group) if args.keys else None
    result = run_scenario(scenario, keys=keys)
    paths = write_artifacts(result, args.outdir)
    site = result["site"]
    counts = Counter(record.status for record in site.records.values())
    print(f"simulated {len(scenario.voters)} voter(s): "
          f"{len(site.records)} ballot(s) produced, "
          f"{counts['CAST']} cast, {counts['SPOILED']} spoiled")
    print(f"board: {paths['board.jsonl']}")
    return PASS


# -- tally ------------------------------------------------------------------------


def cmd_tally(args) -> int:
    from .board import Board, finish_election
    from .manifest import ElectionManifest
    from .trustees import TrusteeShare
    manifest = ElectionManifest.load(args.manifest)
    board = Board.load(args.board, manifest)
    shares = [load_record(p, TrusteeShare.from_json) for p in args.shares]
    office = _load_office(args.office, manifest.gp, manifest.office_pk)
    outcome = finish_election(board, manifest, shares, office, load_json(args.cvrs),
                              load_json(args.papers), random.Random(args.seed))
    board.write(args.board)
    compliance = outcome["compliance"]
    print(f"compliance: {compliance['cast_records']} cast record(s), "
          f"{compliance['papers']} paper(s) in box")
    for serial in compliance["cast_without_paper"]:
        print(f"  cast-without-paper: {serial} (demoted to UNTALLIED)")
    for serial in compliance["paper_without_record"]:
        print(f"  paper-without-record: {serial}")
    for cid, cols in sorted(outcome["tally"].result.items()):
        shown = ", ".join(f"{col}={n}" for col, n in sorted(cols.items()))
        print(f"{cid}: {shown}")
    print(f"tallied board re-signed: {args.board}")
    return PASS


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .manifest import ElectionManifest
    from .verifier import read_board_lines, verify_board
    manifest = ElectionManifest.load(args.manifest)
    report = verify_board(read_board_lines(args.board), manifest)
    print(report.summary())
    if args.report:
        dump_json(report.to_json(), args.report)
    return PASS if report.overall else FAIL


# -- audit ------------------------------------------------------------------------


def cmd_audit(args) -> int:
    from .audit import CONFIRMED, run_audit
    from .boardformat import parse_lines, read_board_lines
    from .manifest import ElectionManifest
    manifest = ElectionManifest.load(args.manifest)
    index = parse_lines(read_board_lines(args.board), manifest)
    try:
        outcome = run_audit(index, manifest, load_json(args.cvrs), load_json(args.papers),
                            args.seed, args.alpha, load_json(args.commitments))
    except StarlockError as exc:
        print(json.dumps({"verdict": "ABORTED", "reason": str(exc)}, indent=2))
        return FAIL
    def finite(p):  # JSON has no infinity
        return "inf" if math.isinf(p) else p

    print(json.dumps({**outcome, "p_value": finite(outcome["p_value"]), "trajectory": [
        {**step, "P_j": finite(step["P_j"])} for step in outcome["trajectory"]]}, indent=2))
    return PASS if outcome["verdict"] == CONFIRMED else FAIL


# -- receipt-check ------------------------------------------------------------------


def cmd_receipt_check(args) -> int:
    from .boardformat import NOT_FOUND, lookup_receipt, parse_lines, read_board_lines
    from .manifest import ElectionManifest
    manifest = ElectionManifest.load(args.manifest)
    index = parse_lines(read_board_lines(args.board), manifest)
    status, plaintext = lookup_receipt(index, args.terminal, args.code)
    if status == NOT_FOUND:
        print(f"receipt {args.code} on terminal {args.terminal}: NOT FOUND")
        return FAIL
    print(f"receipt {args.code} on terminal {args.terminal}: {status}")
    if plaintext is not None:
        print(json.dumps(plaintext, indent=2, sort_keys=True))
    return PASS


# -- parser -------------------------------------------------------------------------


def _checked(check):
    """An argparse type: check(value), where a ValueError is a usage error (exit 3)."""
    def parse(value: str):
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _audit():
    """The audit module, imported only once an audit argument is parsed."""
    from . import audit
    return audit


def _natural(value: str) -> int:
    """A keygen or tally seed: random.Random seeds from abs(n), so -n would repeat n's draws."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return seed


_seed = _checked(_natural)
_seed20 = _checked(lambda value: _audit().check_seed(value))
_alpha = _checked(lambda value: _audit().check_alpha(float(value)))


@functools.cache  # parse_args keeps no state, so one parser serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="starlock", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("keygen", help="trustee key ceremony and office signing key")
    p.add_argument("--n", type=int, required=True, help="number of trustees")
    p.add_argument("--k", type=int, required=True, help="decryption threshold")
    p.add_argument("--group", choices=sorted(GROUPS), default="test")
    p.add_argument("--seed", type=_seed, required=True, help="ceremony RNG seed")
    p.add_argument("--outdir", default=".", help="directory for key files")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("simulate", help="run a scenario end to end")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--keys", help="directory from keygen (default: derive from seed)")
    p.add_argument("--outdir", required=True, help="directory for run artifacts")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tally", help="reconcile, decrypt, tally, and re-sign")
    p.add_argument("--manifest", required=True)
    p.add_argument("--board", required=True)
    p.add_argument("--cvrs", required=True, help="official's private vote-record store")
    p.add_argument("--papers", required=True, help="ballot-box paper summaries")
    p.add_argument("--shares", nargs="+", required=True, help="trustee share files")
    p.add_argument("--office", required=True, help="office key file (signing)")
    p.add_argument("--seed", type=_seed, default=0, help="proof RNG seed")
    p.set_defaults(func=cmd_tally)

    p = sub.add_parser("verify", help="independent full-board verification")
    p.add_argument("--board", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="risk-limiting comparison audit")
    p.add_argument("--board", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cvrs", required=True)
    p.add_argument("--papers", required=True)
    p.add_argument("--commitments", required=True, help="commitment file published before the "
                   "seed was rolled; required: digests rebuilt from the CVR store bind nothing")
    p.add_argument("--seed", type=_seed20, required=True, help="20-digit dice seed")
    p.add_argument("--alpha", type=_alpha, default=0.1, help="risk limit in (0, 1)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("receipt-check", help="resolve a voter receipt")
    p.add_argument("--board", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--terminal", required=True)
    p.add_argument("--code", required=True, help="20-character receipt code")
    p.set_defaults(func=cmd_receipt_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return args.func(args)
    except OSError as exc:  # a path missing, a directory, or not readable or writable
        verb = "open" if exc.filename and not isinstance(exc, WriteFailed) else "write"
        name = exc.filename or "standard output"  # print's write names no file
        print(f"cannot {verb} {name}: {exc.strerror}", file=sys.stderr)
        return USAGE
    except StarlockError as exc:  # its class declares the exit code (errors.py)
        stream = sys.stdout if exc.exit_code == FAIL else sys.stderr  # 2 is a verdict, like FAIL
        print(f"{type(exc).__name__}: {exc}", file=stream)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
