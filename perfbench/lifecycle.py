"""The election lifecycle as an operator runs it, with a plaintext oracle.

keygen -> simulate -> tally -> verify -> audit -> receipt-check, each a call
of `starlock.cli.main(argv)`, either in this process or in a fresh
interpreter per command. Every command's exit code and output is checked
against what the scenario script implies; a command that exits with an
unexpected code, raises, or prints something the oracle disagrees with is a
failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback

from hostspeed import REFERENCE_SPEED_S, SpeedLog
from scenarios import Election, audit_margin, expected_plaintext, expected_tally
from tracer import PHASES

ARTIFACTS = ("board.jsonl", "params.json", "receipts.json", "commitments.json",
             "cvrs.json", "papers.json")
HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 170
SPEED_PERIOD_S = 0.1
BASE32 = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"


@dataclasses.dataclass
class Outcome:
    code: int | None  # None: the command raised
    stdout: str
    stderr: str
    seconds: float
    speed_s: float = REFERENCE_SPEED_S  # the host-speed loop's time while it ran

    @property
    def scaled_s(self) -> float:
        """The command's time at the reference host's full speed."""
        return self.seconds * REFERENCE_SPEED_S / self.speed_s


class InProcess(SpeedLog):
    """Runs each command as `starlock.cli.main(argv)` in this interpreter,
    timing the host-speed loop before and after it on the same vCPU."""

    def __init__(self, tracer=None):
        from starlock import cli

        super().__init__()
        self._main = cli.main
        self.tracer = tracer

    def __call__(self, phase: str, argv: list) -> Outcome:
        before = self.sample()
        out, err = io.StringIO(), io.StringIO()
        scope = self.tracer.command(phase) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark abort
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        return Outcome(code, out.getvalue(), err.getvalue(), seconds,
                       (before + self.sample()) / 2)


class PerProcess(SpeedLog):
    """Runs each command in a fresh interpreter, as an operator's shell does,
    timing the host-speed loop every SPEED_PERIOD_S while it waits (about
    1 % of a vCPU). With a tracer, the child installs the same wrappers and
    hands its spans back through a file."""

    def __init__(self, src_dir: str, workdir: str, tracer=None):
        super().__init__()
        self.env = {**os.environ, "PYTHONPATH": src_dir}
        self.env.pop("STARLOCK_GROUP", None)
        self.workdir = workdir
        self.tracer = tracer
        self._n = 0

    def __call__(self, phase: str, argv: list) -> Outcome:
        if self.tracer:
            self._n += 1
            dump = os.path.join(self.workdir, f"trace-{self._n}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), phase, dump, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "starlock", *argv]
        speed = [self.sample()]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env)
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=SPEED_PERIOD_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - t0 > COMMAND_TIMEOUT_S:
                    proc.kill()
                    proc.communicate()
                    return Outcome(None, "", f"timed out after {COMMAND_TIMEOUT_S} s",
                                   time.perf_counter() - t0)
                speed.append(self.sample())
        seconds = time.perf_counter() - t0
        code = proc.returncode
        if self.tracer:
            if os.path.exists(dump):
                with open(dump, encoding="utf-8") as fh:
                    self.tracer.merge(json.load(fh))
                os.remove(dump)
            else:
                code = None
        # The samples taken while the child ran, else the one just before.
        return Outcome(code, stdout, stderr, seconds, statistics.median(speed[1:] or speed))


@dataclasses.dataclass
class RoundStats:
    """What one pass over a workload's elections measured."""

    phase_s: dict = dataclasses.field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    op_s: list = dataclasses.field(default_factory=list)  # (phase, argv, Outcome) per command
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    ballots: int = 0
    board_lines: int = 0
    digest: str = ""


class ElectionRun:
    """One election's lifecycle in a directory. Each step runs one or more
    commands, times them into `stats`, and checks them with the oracle."""

    def __init__(self, election: Election, directory: str, invoke, stats: RoundStats):
        self.e = election
        self.dir = directory
        self.invoke = invoke
        self.stats = stats
        self.keys = os.path.join(directory, "keys")
        self.run = os.path.join(directory, "run")

    def path(self, name: str) -> str:
        return os.path.join(self.run, name)

    def _op(self, phase: str, argv: list, check) -> Outcome:
        argv = [str(a) for a in argv]
        result = self.invoke(phase, argv)
        self.stats.attempted += 1
        self.stats.phase_s[phase] += result.seconds
        self.stats.op_s.append((phase, tuple(argv), result))
        problem = None
        if result.code is None:
            problem = "raised " + (result.stderr.strip().splitlines() or [""])[-1]
        else:
            try:
                problem = check(result)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"oracle could not read the output: {exc!r}"
        if problem:
            self.stats.failures.append(f"{self.e.name} {phase}: {problem}")
        return result

    def lifecycle(self, full: bool = True) -> None:
        """Every command in order; without `full`, only the commands that
        write artifacts (keygen, simulate, tally). Audits and receipt checks
        run in `read_repeats` passes with verify after the first half of
        them, so that their samples are spread over the run."""
        self.keygen()
        self.simulate()
        self.tally()
        passes = self.e.read_repeats if full else 0
        for n in range(1, passes + 1):
            self.audit()
            self.receipts()
            if n == (passes + 1) // 2:
                self.verify()
        try:
            self.stats.ballots += len(self._receipts())
            with open(self.path("board.jsonl"), encoding="utf-8") as fh:
                self.stats.board_lines += sum(1 for _ in fh)
        except (OSError, ValueError):
            pass  # already a failure of the command that should have written them

    # -- steps ---------------------------------------------------------------

    def keygen(self) -> None:
        n, k = self.e.scenario.trustees
        self._op("keygen", ["keygen", "--n", n, "--k", k, "--group", self.e.scenario.group,
                            "--seed", self.e.keygen_seed, "--outdir", self.keys],
                 lambda r: _exit(r, 0))

    def simulate(self) -> None:
        def check(r):
            return _exit(r, 0) or _expect(
                f"{len(self.e.scenario.voters)} voter(s)" in r.stdout, "voter count")

        self._op("simulate", ["simulate", "--scenario", os.path.join(self.dir, "scenario.json"),
                              "--keys", self.keys, "--outdir", self.run], check)

    def tally(self) -> None:
        k = self.e.scenario.trustees[1]
        shares = [os.path.join(self.keys, f"trustee_share_{i}.json") for i in range(1, k + 1)]

        def check(r):
            if problem := _exit(r, 0):
                return problem
            tally = None
            with open(self.path("board.jsonl"), encoding="utf-8") as fh:
                for raw in fh:
                    line = json.loads(raw)
                    if line.get("kind") == "tally":
                        tally = line
            if tally is None:
                return "board has no tally line"
            want = expected_tally(self.e.scenario)
            got = {cid: {col: int(n) for col, n in cols.items()}
                   for cid, cols in tally["result"].items()}
            cast = {cid: int(n) for cid, n in tally["cast"].items()}
            return _expect(got == want["counts"] and cast == want["cast"],
                           "tally differs from the script's counts")

        self._op("tally", ["tally", "--manifest", self.path("params.json"),
                           "--board", self.path("board.jsonl"),
                           "--cvrs", self.path("cvrs.json"), "--papers", self.path("papers.json"),
                           "--shares", *shares,
                           "--office", os.path.join(self.keys, "office_key.json")], check)

    def verify(self) -> None:
        def check(r):
            return _exit(r, 0) or _expect(
                r.stdout.rstrip().endswith("PASS overall"), "verify did not print PASS overall")

        self._op("verify", ["verify", "--manifest", self.path("params.json"),
                            "--board", self.path("board.jsonl")], check)

    def audit(self) -> None:
        counts = expected_tally(self.e.scenario)["counts"]
        margin = audit_margin(self.e.scenario, counts)

        def check(r):
            report = json.loads(r.stdout)
            verdict = report.get("verdict")
            if margin is None or margin <= 0:
                return _exit(r, 2) or _expect(verdict == "ABORTED", f"verdict {verdict}")
            if verdict == "CONFIRMED":
                return _exit(r, 0)
            if verdict != "FULL_HAND_COUNT":
                return f"verdict {verdict}"
            return _exit(r, 2) or _expect(
                report.get("result") == self._paper_count(),
                "hand count differs from the paper ballots")

        self._op("audit", ["audit", "--manifest", self.path("params.json"),
                           "--board", self.path("board.jsonl"),
                           "--cvrs", self.path("cvrs.json"), "--papers", self.path("papers.json"),
                           "--commitments", self.path("commitments.json"),
                           "--seed", self.e.audit_seed, "--alpha", "0.1"], check)

    def receipts(self) -> None:
        try:
            rows = self._receipts()
        except (OSError, ValueError) as exc:
            self.stats.attempted += 1
            self.stats.failures.append(f"{self.e.name} receipt-check: no receipts: {exc!r}")
            return
        rng = random.Random(("receipts", self.e.name, self.e.audit_seed).__repr__())
        sample = rng.sample(rows, min(self.e.receipt_sample, len(rows)))
        lost = {row["serial"] for row in rows if row["voter"] in set(self.e.scenario.lost_papers)}
        for row in sample:
            counted = row["status"] == "CAST" and row["serial"] not in lost
            self._receipt(row["terminal"], row["code"],
                          lambda r, row=row, counted=counted: self._check_receipt(r, row, counted))
        issued = {row["code"] for row in rows}
        fake = "".join(rng.choice(BASE32) for _ in range(20))
        if fake not in issued:
            terminal = self.e.scenario.terminals[0]
            self._receipt(terminal, fake, lambda r: _exit(r, 2) or _expect(
                r.stdout.rstrip().endswith("NOT FOUND"), "fabricated code was found"))

    # -- helpers -------------------------------------------------------------

    def _receipt(self, terminal: str, code: str, check) -> None:
        self._op("receipt-check", ["receipt-check", "--manifest", self.path("params.json"),
                                   "--board", self.path("board.jsonl"),
                                   "--terminal", terminal, "--code", code], check)

    def _check_receipt(self, r: Outcome, row: dict, counted: bool):
        if problem := _exit(r, 0):
            return problem
        first, _, rest = r.stdout.partition("\n")
        status = first.rsplit(": ", 1)[-1]
        if counted:
            return _expect(status == "FOUND_CAST" and not rest.strip(), f"status {status}")
        if status != "FOUND_SPOILED":
            return f"status {status}, expected FOUND_SPOILED"
        want = expected_plaintext(self.e.scenario, row["voter"], row["session"])
        return _expect(json.loads(rest) == want, "published plaintext differs from the script")

    def _receipts(self) -> list:
        with open(self.path("receipts.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _paper_count(self) -> dict:
        """The hand count the oracle expects: every named option's marks on
        the paper summaries in the box."""
        with open(self.path("papers.json"), encoding="utf-8") as fh:
            papers = json.load(fh)
        counts = {}
        for style in self.e.scenario.styles:
            for contest in style.contests:
                counts.setdefault(contest.contest_id, dict.fromkeys(contest.options, 0))
        for paper in papers:
            for cid, view in paper["contests"].items():
                for opt in view["selections"]:
                    if opt in counts.get(cid, {}):
                        counts[cid][opt] += 1
        return counts

    def digest(self) -> bytes:
        h = hashlib.sha256()
        for name in ARTIFACTS:
            try:
                with open(self.path(name), "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b"(missing)"
            h.update(f"{name}:{len(data)}:".encode() + data)
        return h.digest()


def _exit(r: Outcome, want: int):
    if r.code != want:
        tail = (r.stderr.strip().splitlines() or [""])[-1]
        return f"exit {r.code}, expected {want} {tail}".rstrip()
    return None


def _expect(ok: bool, message: str):
    return None if ok else message


def write_inputs(elections: list, workdir: str) -> None:
    """Set-up: one directory per election holding its scenario file."""
    for e in elections:
        directory = os.path.join(workdir, e.name)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "scenario.json"), "w", encoding="utf-8") as fh:
            json.dump(e.scenario.to_json(), fh, indent=2, sort_keys=True)


def run_round(elections: list, workdir: str, invoke, full: bool = True) -> RoundStats:
    """Every election's lifecycle in order; returns the round's measurements
    and a digest over all artifacts of all elections."""
    stats = RoundStats()
    h = hashlib.sha256()
    for e in elections:
        # Start every election from a collected heap, as a fresh operator
        # session would; otherwise the peak memory and the collector's pauses
        # depend on garbage left by earlier elections and rounds.
        gc.collect()
        run = ElectionRun(e, os.path.join(workdir, e.name), invoke, stats)
        run.lifecycle(full)
        h.update(run.digest())
    stats.digest = h.hexdigest()
    return stats
