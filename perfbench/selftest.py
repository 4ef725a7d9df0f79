"""Small-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shrinks every workload, then checks that
  * each run prints every metric BENCHMARK.json names, with its unit, and the
    oracle passes the unmodified program;
  * repeated runs of one seed write byte-identical artifacts, and a traced
    run writes the same artifacts as an untraced one;
  * the per-layer counts of two traced runs are identical;
  * flipping one byte of a tallied board makes the oracle record a failed
    operation.
Exits 0 when every check holds. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import lifecycle  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402

WORKLOADS = ("test-batch", "test-precincts", "prod-mini")


def shrink() -> None:
    scenarios.BATCH_SMALL_EACH = 0
    scenarios.BATCH_MEDIUM_VOTERS = 6
    scenarios.PRECINCTS = 4
    scenarios.PRECINCT_RECEIPTS = 5
    scenarios.PROD_GROUP = "test"


def bench(workload: str, seed: int, trace: int) -> tuple:
    """(result object, context, printed lines) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    assert code == 0, f"{workload}: exit {code}"
    return json.loads(lines[-1]), json.loads(lines[-2])["context"], lines


def main() -> int:
    shrink()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for workload in WORKLOADS:
        runs = {}
        for trace, seed in ((0, 5), (0, 5), (1, 5), (1, 5)):
            result, context, lines = bench(workload, seed, trace)
            runs.setdefault(trace, []).append((result, context))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == wanted[trace],
                  f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
            printed = all(any(ln.split()[:1] == [name] and ln.split()[2:3] == [unit]
                              for ln in lines) for name, unit in units.items())
            check(printed, f"{workload} trace={trace}: every metric printed with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: oracle passes ({result['attempted']} ops)")
        digests = {c["artifacts_sha256"] for runs_ in runs.values() for _, c in runs_}
        check(len(digests) == 1,
              f"{workload}: repeated and traced runs write identical artifacts")
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith((".n", ".distinct", ".per_ballot"))} for r, _ in runs[1]]
        check(counts[0] == counts[1] and counts[0]["ballot.verify_ballot.n"] > 0,
              f"{workload}: per-layer counts repeat across traced runs")

    check(tamper_is_caught(), "a one-byte flip in a tallied board is a failed operation")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


def tamper_is_caught() -> bool:
    election = scenarios.batch_elections(7)[0]
    work = os.path.join(run.WORK, "selftest-tamper")
    lifecycle.write_inputs([election], work)
    stats = lifecycle.RoundStats()
    er = lifecycle.ElectionRun(election, os.path.join(work, election.name),
                               lifecycle.InProcess(), stats)
    er.keygen()
    er.simulate()
    er.tally()
    if stats.failures:
        return False
    board = er.path("board.jsonl")
    with open(board, "rb") as fh:
        data = bytearray(fh.read())
    at = data.index(b'"z":"') + 5  # a hex digit of the first chain value
    data[at] = ord("0") if data[at] != ord("0") else ord("1")
    with open(board, "wb") as fh:
        fh.write(data)
    er.verify()
    return any("verify" in f for f in stats.failures)


if __name__ == "__main__":
    sys.exit(main())
