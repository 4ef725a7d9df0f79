"""Run one starlock CLI command under the tracer and dump what it recorded.

    python3 traced_cli.py PHASE DUMP.json -- <starlock arguments>

Used by the per-process workload's traced run: the parent merges the dump
into its own tracer. Exits with the command's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    phase, dump, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py PHASE DUMP.json -- ARGS...")
    tracer = Tracer()
    tracer.install()
    from starlock.cli import main as cli_main

    with tracer.command(phase):
        code = cli_main(argv)
    tracer.uninstall()
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
