"""Per-layer tracing from outside the program.

The tracer wraps public functions of starlock's modules and rebinds every
copy a `from .x import y` made in another module, so that, for example,
`board.verify_ballot` and `verifier.verify_ballot` are timed as
`ballot.verify_ballot`. Modular exponentiations are counted by shadowing the
builtin `pow` in each starlock module's globals. Nothing inside the program
changes; uninstalling puts every original object back.

Each wrapped call is a frame on one stack, so a function's self time is its
inclusive time minus the time of the wrapped calls directly under it. Calls
of functions marked SPAN are also kept as spans (name, start, end, parent,
command) in flat arrays and written out at the end; the hot leaves (encoding,
hashing, single proofs) are only aggregated, because recording each of their
calls would cost more than the work it measures. Every CLI command is a root
span, and its phase name attributes everything under it.
"""

from __future__ import annotations

import builtins
import contextlib
import statistics
import sys
import time
from array import array

SPAN, AGG = True, False

# (metric prefix, module, attribute path, keep spans, metric suffixes)
TARGETS = (
    ("group.is_element", "group", "GroupParams.is_element", AGG, ("n", "distinct", "s")),
    ("elgamal.encrypt_exp", "elgamal", "encrypt_exp", AGG, ("n", "s")),
    ("elgamal.dlog_search", "elgamal", "dlog_search", AGG, ("n", "s")),
    ("chaum_pedersen.prove_zero_or_one", "chaum_pedersen", "prove_zero_or_one", AGG, ("n", "s")),
    ("chaum_pedersen.verify_zero_or_one", "chaum_pedersen", "verify_zero_or_one", AGG, ("n", "s")),
    ("chaum_pedersen.prove_eq_dlog", "chaum_pedersen", "prove_eq_dlog", AGG, ("n", "s")),
    ("chaum_pedersen.verify_eq_dlog", "chaum_pedersen", "verify_eq_dlog", AGG, ("n", "s")),
    ("fiatshamir.fiat_shamir_challenge", "fiatshamir", "fiat_shamir_challenge", AGG, ("n",)),
    ("schnorr.sign", "schnorr", "sign", SPAN, ("n", "s")),
    ("schnorr.verify_sig", "schnorr", "verify_sig", SPAN, ("n", "s")),
    ("trustees.partial_decrypt", "trustees", "partial_decrypt", AGG, ("n", "s")),
    ("trustees.verify_decryption_share", "trustees", "verify_decryption_share", AGG, ("n", "s")),
    ("trustees.combine_shares", "trustees", "combine_shares", AGG, ("n", "s")),
    ("serialize.canonical_json", "serialize", "canonical_json", AGG, ("n", "self_s")),
    ("serialize.sha256", "serialize", "sha256", AGG, ("n", "self_s")),
    ("serialize.enc_int", "serialize", "enc_int", AGG, ("n", "self_s")),
    ("ballot.encrypt_ballot", "ballot", "encrypt_ballot", SPAN, ("n", "s")),
    ("ballot.verify_ballot", "ballot", "verify_ballot", SPAN, ("n", "s")),
    ("ballot.canonical_bytes", "ballot", "EncryptedBallot.canonical_bytes", AGG, ("n",)),
    ("chain.chain_hash", "chain", "chain_hash", SPAN, ("n", "s")),
    ("pollsite.vote_session", "pollsite", "PollSite.vote_session", SPAN, ("n", "s", "p50_ms")),
    ("board.publish_entry", "board", "Board.publish_entry", SPAN, ("n", "s")),
    ("board.effective_status", "board", "Board.effective_status", SPAN, ("n", "s")),
    ("board.aggregate", "board", "aggregate", SPAN, ("n", "s")),
    ("board.decrypt_tally", "board", "decrypt_tally", SPAN, ("n", "s")),
    ("board.decrypt_spoiled", "board", "decrypt_spoiled", SPAN, ("n", "s")),
    ("board.Board.load", "board", "Board.load", SPAN, ("n", "s")),
    ("board.Board.write", "board", "Board.write", SPAN, ("n", "s")),
    ("board.Board.entries", "board", "Board.entries", SPAN, ("n", "s")),
    ("verifier.read_board_lines", "verifier", "read_board_lines", SPAN, ("s", "self_s")),
    ("verifier.parse_lines", "verifier", "parse_lines", SPAN, ("s", "self_s")),
    ("verifier.check_line_chain", "verifier", "check_line_chain", SPAN, ("s", "self_s")),
    ("verifier.check_signatures", "verifier", "check_signatures", SPAN, ("s", "self_s")),
    ("verifier.verify_chain", "verifier", "verify_chain", SPAN, ("s", "self_s")),
    ("verifier.verify_proofs", "verifier", "verify_proofs", SPAN, ("s", "self_s")),
    ("verifier.verify_tally", "verifier", "verify_tally", SPAN, ("s", "self_s")),
    ("verifier.lookup_receipt", "verifier", "lookup_receipt", SPAN, ("s", "self_s")),
    ("audit.run_audit", "audit", "run_audit", SPAN, ("n", "s")),
    ("audit.open_commitment", "audit", "open_commitment", AGG, ("n", "s")),
    ("audit.hand_count", "audit", "hand_count", SPAN, ("n", "s")),
    ("manifest.ElectionManifest.load", "manifest", "ElectionManifest.load", SPAN, ("s",)),
    ("scenario.run_scenario", "scenario", "run_scenario", SPAN, ("s", "self_s")),
    ("scenario.finish_election", "scenario", "finish_election", SPAN, ("s", "self_s")),
    ("scenario.write_artifacts", "scenario", "write_artifacts", SPAN, ("s", "self_s")),
)
POW_METRICS = ("group.modexp.n", "group.modinv.n")
PHASE_METRICS = ("group.modexp.n", "group.is_element.n")
PHASES = ("keygen", "simulate", "tally", "verify", "audit", "receipt-check")
UNITS = {"n": "count", "distinct": "count", "s": "s", "self_s": "s", "p50_ms": "ms"}
MODULES = ("serialize", "group", "elgamal", "fiatshamir", "chaum_pedersen", "schnorr",
           "trustees", "ballot", "chain", "pollsite", "manifest", "board", "verifier",
           "audit", "scenario", "cli")  # every starlock module, imported before wrapping
_MISSING = object()


def metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [(name, "count") for name in POW_METRICS]
    for prefix, _, _, _, suffixes in TARGETS:
        out += [(f"{prefix}.{sfx}", UNITS[sfx]) for sfx in suffixes]
    out.append(("ballot.canonical_bytes.per_ballot", "count"))
    for phase in PHASES:
        out += [(f"{phase}.{name}", "count") for name in PHASE_METRICS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Per-phase call counts and times, modexp counts, and spans, recorded by
    wrappers that `install` puts around the TARGETS."""

    def __init__(self):
        self.names = [f"cli.{p}" for p in PHASES] + [t[0] for t in TARGETS]
        self._nid = {name: i for i, name in enumerate(self.names)}
        # per phase: name id -> [calls, inclusive s, self s]
        self.stats = {p: {} for p in PHASES}
        self.pow = {p: [0, 0] for p in PHASES}  # [modexp, modinv]
        self.distinct = dict.fromkeys(PHASES, 0)
        self.commands = []  # phase of each command id
        self.sp_name, self.sp_parent, self.sp_command = array("i"), array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")
        self._stack = [[0.0, 0.0, -1]]  # [start, child time, span]; bottom: outside any command
        self._phase = None
        self._open = -1  # innermost open span
        self._members = set()
        self._pow_now = [0, 0]
        self._saved = []

    # -- commands ----------------------------------------------------------------

    @contextlib.contextmanager
    def command(self, phase: str):
        """Attribute everything inside to one CLI command of this phase; the
        command itself is the root span."""
        self.commands.append(phase)
        self._phase = phase
        self._members = set()
        self._pow_now = self.pow[phase]
        nid = self._nid[f"cli.{phase}"]
        frame = self._begin(nid, SPAN)
        try:
            yield
        finally:
            self._finish(nid, frame)
            self.distinct[phase] += len(self._members)
            self._phase = None
            self._pow_now = [0, 0]

    def _begin(self, nid: int, spanned: bool):
        frame = [time.perf_counter(), 0.0, -1]
        if spanned and self._phase is not None:
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(self._open)
            self.sp_command.append(len(self.commands) - 1)
            self.sp_start.append(frame[0])
            self.sp_end.append(0.0)
            frame[2] = idx
            self._open = idx
        self._stack.append(frame)
        return frame

    def _finish(self, nid: int, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self._stack[-1][1] += dur
        if frame[2] >= 0:
            self.sp_end[frame[2]] = end
            self._open = self.sp_parent[frame[2]]
        if self._phase is None:
            return
        rec = self.stats[self._phase].get(nid)
        if rec is None:
            rec = self.stats[self._phase][nid] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]

    def _wrap(self, nid: int, fn, spanned: bool):
        begin, finish = self._begin, self._finish

        def wrapper(*args, **kwargs):
            frame = begin(nid, spanned)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(nid, frame)

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and every module-level copy of it, and shadow
        `pow` in every starlock module."""
        import importlib

        for name in MODULES:
            importlib.import_module(f"starlock.{name}")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "starlock" or n.startswith("starlock.")]
        for prefix, modname, path, spanned, _ in TARGETS:
            nid = self._nid[prefix]
            mod = sys.modules[f"starlock.{modname}"]
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__, spanned))
                else:
                    new = self._wrap(nid, raw, spanned)
                if prefix == "group.is_element":
                    new = self._membership(new)
                self._rebind(cls, attr, new)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(nid, original, spanned)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapped)
        real_pow = builtins.pow
        tracer = self

        def counting_pow(base, exp, mod=None):
            if mod is not None:
                tracer._pow_now[exp < 0] += 1
            return real_pow(base, exp, mod)

        for m in mods:
            self._rebind(m, "pow", counting_pow)

    def _membership(self, timed):
        members = self

        def is_element(gp, x):
            members._members.add(x)
            return timed(gp, x)

        return is_element

    def _rebind(self, owner, key, value) -> None:
        self._saved.append((owner, key, owner.__dict__.get(key, _MISSING)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, old)
        self._saved = []

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        out = {}
        for per_phase in self.stats.values():
            for nid, (n, s, own) in per_phase.items():
                rec = out.setdefault(nid, [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += s
                rec[2] += own
        return out

    def span_ms(self, name: str) -> list:
        nid = self._nid[name]
        return [(self.sp_end[i] - self.sp_start[i]) * 1000.0
                for i in range(len(self.sp_name)) if self.sp_name[i] == nid]

    def metrics(self, ballots: int, overhead_s: float) -> dict:
        """{name: value} for every name metric_names() lists."""
        totals = self.totals()
        out = {
            "group.modexp.n": sum(c[0] for c in self.pow.values()),
            "group.modinv.n": sum(c[1] for c in self.pow.values()),
        }
        for prefix, _, _, _, suffixes in TARGETS:
            n, s, own = totals.get(self._nid[prefix], (0, 0.0, 0.0))
            values = {"n": n, "s": s, "self_s": own,
                      "distinct": sum(self.distinct.values())}
            for sfx in suffixes:
                if sfx == "p50_ms":
                    durations = self.span_ms(prefix)
                    values[sfx] = statistics.median(durations) if durations else 0.0
                out[f"{prefix}.{sfx}"] = values[sfx]
        out["ballot.canonical_bytes.per_ballot"] = out["ballot.canonical_bytes.n"] / max(ballots, 1)
        member = self._nid["group.is_element"]
        for phase in PHASES:
            out[f"{phase}.group.modexp.n"] = self.pow[phase][0]
            out[f"{phase}.group.is_element.n"] = self.stats[phase].get(member, (0,))[0]
        out["trace.overhead_s"] = overhead_s
        return out

    def export(self) -> dict:
        """Everything recorded, as JSON-ready data (see merge)."""
        return {
            "names": self.names,
            "commands": self.commands,
            "stats": {p: {self.names[nid]: rec for nid, rec in per.items()}
                      for p, per in self.stats.items()},
            "pow": self.pow,
            "distinct": self.distinct,
            "spans": {"name": self.sp_name.tolist(), "parent": self.sp_parent.tolist(),
                      "command": self.sp_command.tolist(), "start": self.sp_start.tolist(),
                      "end": self.sp_end.tolist()},
        }

    def merge(self, data: dict) -> None:
        """Fold in what a tracer in a child process exported."""
        for phase, per in data["stats"].items():
            for name, (n, s, own) in per.items():
                rec = self.stats[phase].setdefault(self._nid[name], [0, 0.0, 0.0])
                rec[0] += n
                rec[1] += s
                rec[2] += own
        for phase in PHASES:
            self.pow[phase][0] += data["pow"][phase][0]
            self.pow[phase][1] += data["pow"][phase][1]
            self.distinct[phase] += data["distinct"][phase]
        base_span, base_cmd = len(self.sp_name), len(self.commands)
        self.commands.extend(data["commands"])
        spans = data["spans"]
        remap = [self._nid[name] for name in data["names"]]
        self.sp_name.extend(remap[i] for i in spans["name"])
        self.sp_parent.extend(p + base_span if p >= 0 else -1 for p in spans["parent"])
        self.sp_command.extend(c + base_cmd for c in spans["command"])
        self.sp_start.extend(spans["start"])
        self.sp_end.extend(spans["end"])

    def phase_table(self) -> dict:
        """{phase: {name: [calls, s, self_s]}}: the span tree folded by the
        CLI phase at its root."""
        return {p: {self.names[nid]: rec for nid, rec in sorted(per.items())}
                for p, per in self.stats.items() if per}

