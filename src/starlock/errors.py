"""Exception types raised across the toolkit. All derive from StarlockError,
so callers catch toolkit failures without swallowing programming errors, and
each declares exit_code, the code of a starlock command it ends (cli.main):

  1  internal failure: StarlockError and every class not named below
  2  input fault, a verdict on the files read: MalformedRecord (NoDlogInRange
     and InvalidGroup among them), ChainBroken, InsufficientShares,
     BadShareProof, AmbiguousReceipt, CommitmentMismatch, MarginNotPositive
  3  usage or scenario fault: ScenarioError, InvalidThreshold
"""

from __future__ import annotations


class StarlockError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


class MalformedRecord(StarlockError):
    """A record that does not match its declared wire form. detail names the
    field path and the fault; lineno and entry place it on the board, when known."""
    exit_code = 2

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason, self.path, self.lineno, self.entry = reason, "", None, None

    def within(self, step) -> "MalformedRecord":
        self.path = (f"[{step}]" if isinstance(step, int) else f".{step}") + self.path
        return self

    def at(self, lineno: int, entry: int | None = None) -> "MalformedRecord":
        if self.lineno is None:  # an inner reader's placement stands
            self.lineno, self.entry = lineno, entry
        return self

    @property
    def detail(self) -> str:
        """Path and fault, e.g. "ballot.contests[0].options[2].a: not lowercase hex"."""
        return f"{self.path.removeprefix('.')}: {self.reason}" if self.path else self.reason

    def __str__(self) -> str:
        return self.detail if self.lineno is None else f"board line {self.lineno}: {self.detail}"


class ChainBroken(StarlockError):
    """A board line that does not parse to a JSON object, is not canonical,
    does not link to the line before it, does not fit its kind, or is out of
    place: it breaks a structure rule of the board format (listed in
    boardformat's docstring, decided by BoardIndex.add), is a signature line
    that does not verify or a last line that is not a signature, or is a
    decryption or tally line on a board handed to the tally."""
    exit_code = 2

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"board line {lineno}: {reason}")


class InvalidGroup(MalformedRecord, ValueError):
    """Group parameters that are not a prime p = 2qm + 1, with q prime and m
    1 or a prime above 2^64, and a generator g of the order-q subgroup. As a
    MalformedRecord, one met loading a manifest names the file and its group."""


class NoDlogInRange(MalformedRecord):
    """Bounded discrete-log search exhausted its range without a match: the
    ciphertext does not hold a count its column allows."""


class InvalidThreshold(StarlockError):
    """Key generation parameters violate 1 <= k <= n (or n >= q)."""
    exit_code = 3


class InsufficientShares(StarlockError):
    """Fewer than k decryption shares were supplied."""
    exit_code = 2


class BadShareProof(StarlockError):
    """A decryption share failed its equality-of-dlog proof."""
    exit_code = 2

    def __init__(self, trustee_id: int, message: str | None = None):
        self.trustee_id = trustee_id
        super().__init__(message or f"share proof failed for trustee {trustee_id}")


class OvervoteRejected(StarlockError):
    """More selections than the contest allows."""


class UnknownOption(StarlockError):
    """A selection names an option the contest does not define."""


class PoolExhausted(StarlockError):
    """No unused 5-digit token codes remain."""


class UnknownOrSpentToken(StarlockError):
    """Token code is not active (never issued, already redeemed, or expired)."""


class UnknownSerial(StarlockError):
    """No ballot record carries this serial number."""


class AlreadyFinalized(StarlockError):
    """The record has already been cast or spoiled."""


class NotProvisional(StarlockError):
    """Adjudication was attempted on a non-provisional record."""


class NotSpoiled(StarlockError):
    """Verifiable decryption requested for a record that is not spoiled."""


class RejectInvalidProof(StarlockError):
    """A ballot arrived with proofs that do not verify; entry is the index
    it would have been published under."""

    def __init__(self, entry: int):
        self.entry = entry
        super().__init__(f"entry {entry}: ballot record failed proof verification")


class AmbiguousReceipt(StarlockError):
    """A truncated receipt code matched more than one chain position."""
    exit_code = 2


class MarginNotPositive(StarlockError):
    """The reported outcome has no positive margin, so no audit can confirm it."""
    exit_code = 2


class CommitmentMismatch(StarlockError):
    """A cast-vote record does not open a published commitment."""
    exit_code = 2


class ScenarioError(StarlockError):
    """A scenario description is malformed or internally inconsistent."""
    exit_code = 3
