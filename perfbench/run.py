"""Election-lifecycle benchmark for starlock.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Each workload generates its elections from the seed, then drives
keygen -> simulate -> tally -> verify -> audit -> receipt-check through
`starlock.cli.main` and checks every output with a plaintext oracle (see
lifecycle.py). Workloads are described in BENCHMARK.json and NOTES.md.

With --trace 0 the run repeats the workload's elections in rounds until the
next round would end after S seconds (at least one round) and reports the
end-to-end metrics: each command timed at its median over the rounds and
scaled to the reference host's full speed (hostspeed.py), with the measured
values alongside. With --trace 1 it runs the artifact-writing commands once
untraced, then one full traced round, and reports the per-layer metrics; its
artifacts must be byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 whenever a result
is printed, and 2 when there is nothing to measure (no `src/starlock`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("simulate_s", "s"),
    ("tally_s", "s"),
    ("verify_s", "s"),
    ("audit_s", "s"),
    ("receipt_p50_ms", "ms"),
    ("ballots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Reported by name on the human-readable lines, not in the result object:
# receipt_p90_ms exists only where a run makes at least 100 checks, and
# ops_failed_frac is 0 on a correct program (the result object carries it as
# `failed` / `attempted`).
P90_MIN_SAMPLES = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("test-batch", "test-precincts", "prod-mini"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Import time of starlock's CLI in a fresh interpreter, as every
    command invocation pays it."""
    code = ("import time; t = time.perf_counter(); import starlock.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=120)
    return float(out.stdout)


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "gmpy2": has_gmpy2}


def percentile(values, q):
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def typical_phase_seconds(rounds, scaled: bool) -> dict:
    """Seconds per phase for running each distinct command once, at its
    median over every time it ran: rounds repeat the same commands on the
    same inputs, and audits and receipt checks may repeat within a round. A
    burst of host slowness that hits a few runs of a command drops out.
    `scaled`: each run's time at the reference host's full speed."""
    samples = {}
    for r in rounds:
        for phase, argv, out in r.op_s:
            samples.setdefault((phase, argv), []).append(out.scaled_s if scaled else out.seconds)
    totals = dict.fromkeys(rounds[0].phase_s, 0.0)
    for (phase, _), values in samples.items():
        totals[phase] += statistics.median(values)
    return totals


def timed_run(elections, inputs, invoke, seconds, in_process, setup, context):
    """Rounds of the full lifecycle until the next one would end after
    `seconds`; the end-to-end metrics, scaled to the reference host's full
    speed, with the measured values in the context."""
    import lifecycle

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(lifecycle.run_round(elections, inputs, invoke))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    attempted = sum(r.attempted for r in rounds) + len(rounds) - 1
    failures = [f for r in rounds for f in r.failures]
    if any(r.digest != rounds[0].digest for r in rounds[1:]):
        failures.append("a repeated round wrote different artifacts")
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    receipts = [out for r in rounds for phase, _, out in r.op_s if phase == "receipt-check"]

    def metric_values(scaled: bool) -> dict:
        phase_s = typical_phase_seconds(rounds, scaled)
        receipt_ms = [1000.0 * (o.scaled_s if scaled else o.seconds) for o in receipts]
        return {
            "setup_s": statistics.median(o.scaled_s if scaled else o.seconds for o in setup),
            "simulate_s": phase_s["simulate"],
            "tally_s": phase_s["tally"],
            "verify_s": phase_s["verify"],
            "audit_s": phase_s["audit"],
            "receipt_p50_ms": statistics.median(receipt_ms),
            "receipt_p90_ms": (percentile(receipt_ms, 90)
                               if len(receipt_ms) >= P90_MIN_SAMPLES else None),
            "ballots_per_s": rounds[0].ballots / sum(phase_s.values()),
            "peak_rss_mb": peak_rss_mb,
            "keygen_s": phase_s["keygen"],
        }

    values = metric_values(scaled=True)
    context.update(rounds=len(rounds), receipt_samples=len(receipts),
                   receipt_p90_ms=values["receipt_p90_ms"], keygen_s=values["keygen_s"],
                   measured=metric_values(scaled=False),
                   host_speed_s=statistics.median(invoke.samples),
                   host_speed_samples=len(invoke.samples))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return rounds, attempted, failures, metrics


def traced_run(elections, inputs, invoker, in_process, work, context):
    """The artifact-writing commands untraced, then one full round under the
    tracer; the per-layer metrics. Writes the spans to `work`/spans.json."""
    import lifecycle
    from tracer import Tracer, metric_names

    base = lifecycle.run_round(elections, inputs, invoker(), full=False)
    tracer = Tracer()
    if in_process:
        tracer.install()
    try:
        traced = lifecycle.run_round(elections, inputs, invoker(tracer))
    finally:
        tracer.uninstall()
    attempted = base.attempted + traced.attempted + 1
    failures = base.failures + traced.failures
    if traced.digest != base.digest:
        failures.append("traced artifacts differ from the untraced ones")
    written = ("keygen", "simulate", "tally")
    untraced_s = sum(base.phase_s[p] for p in written)
    overhead = sum(traced.phase_s[p] for p in written) - untraced_s
    values = tracer.metrics(traced.ballots, overhead)
    spans_path = os.path.join(work, "spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"phases": tracer.phase_table(), **tracer.export()}, fh)
    context.update(tracing_overhead_s=overhead, tracing_overhead_frac=overhead / untraced_s,
                   spans=len(tracer.sp_name), spans_file=os.path.relpath(spans_path, ROOT))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
    return [traced], attempted, failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starlock", "cli.py")):
        print(f"perfbench: no starlock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import starlock

    if os.path.dirname(os.path.abspath(starlock.__file__)) != os.path.join(SRC, "starlock"):
        print(f"perfbench: starlock imported from {starlock.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import lifecycle
    import scenarios
    from hostspeed import SpeedLog

    make, in_process = {
        "test-batch": (scenarios.batch_elections, True),
        "test-precincts": (scenarios.precinct_elections, True),
        "prod-mini": (scenarios.prod_elections, False),
    }[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")

    speed = SpeedLog()

    def set_up():
        before = speed.sample()
        imported = import_seconds()
        t0 = time.perf_counter()
        elections = make(args.seed)
        lifecycle.write_inputs(elections, inputs)
        # As an Outcome, so that it is scaled like a command.
        seconds = imported + time.perf_counter() - t0
        return elections, lifecycle.Outcome(0, "", "", seconds, (before + speed.sample()) / 2)

    def invoker(tracer=None):
        if in_process:
            return lifecycle.InProcess(tracer)
        return lifecycle.PerProcess(SRC, work, tracer)

    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **environment()}
    if args.trace:
        elections, _ = set_up()
        rounds, attempted, failures, metrics = traced_run(
            elections, inputs, invoker, in_process, work, context)
    else:
        setups = [set_up() for _ in range(SETUP_REPEATS)]
        elections = setups[0][0]
        rounds, attempted, failures, metrics = timed_run(
            elections, inputs, invoker(), args.seconds, in_process, [s for _, s in setups],
            context)
    context["elections"] = len(elections)

    first = rounds[0]
    context.update(ballots=first.ballots, board_lines=first.board_lines,
                   receipt_checks=sum(p == "receipt-check" for p, _, _ in first.op_s),
                   artifacts_sha256=first.digest)
    failed = len(failures)
    measured = context.get("measured", {})
    for name, m in metrics.items():
        raw = f"   (measured {measured[name]!r})" if name in measured else ""
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}{raw}")
    if not args.trace:
        p90 = context["receipt_p90_ms"]
        shown = f"{p90!r}" if p90 is not None else f"n/a (<{P90_MIN_SAMPLES} checks)"
        print(f"{'receipt_p90_ms':40s} {shown:>24} ms ({context['receipt_samples']} samples)")
    print(f"{'ops_failed_frac':40s} {failed / max(attempted, 1)!r:>24} ratio "
          f"({failed} of {attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
