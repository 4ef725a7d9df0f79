"""Exception types raised across the toolkit.

Everything derives from StarlockError so callers can catch toolkit failures
without swallowing programming errors.
"""

from __future__ import annotations


class StarlockError(Exception):
    """Base class for all toolkit errors."""


class MalformedRecord(StarlockError):
    """A record that does not match its declared wire form. detail names the
    field path and the fault; lineno and entry place it on the board, when known."""

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


class InvalidGroup(StarlockError, ValueError):
    """Group parameters that are not a safe prime p = 2q + 1 with a generator
    of the order-q subgroup."""


class NoDlogInRange(StarlockError):
    """Bounded discrete-log search exhausted its range without a match."""


class InvalidThreshold(StarlockError):
    """Key generation parameters violate 1 <= k <= n (or n >= q)."""


class InsufficientShares(StarlockError):
    """Fewer than k decryption shares were supplied."""


class BadShareProof(StarlockError):
    """A decryption share failed its equality-of-dlog proof."""

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


class TerminalBusy(StarlockError):
    """Terminal already has a voting session in progress."""


class UnknownSerial(StarlockError):
    """No ballot record carries this serial number."""


class AlreadyFinalized(StarlockError):
    """The record has already been cast or spoiled."""


class NotProvisional(StarlockError):
    """Adjudication was attempted on a non-provisional record."""


class NotSpoiled(StarlockError):
    """Verifiable decryption requested for a record that is not spoiled."""


class RejectInvalidProof(StarlockError):
    """A ballot arrived with proofs that do not verify."""


class AmbiguousReceipt(StarlockError):
    """A truncated receipt code matched more than one chain position."""


class MarginNotPositive(StarlockError):
    """The reported outcome has no positive margin, so no audit can confirm it."""


class CommitmentMismatch(StarlockError):
    """A cast-vote record does not open a published commitment."""


class ScenarioError(StarlockError):
    """A scenario description is malformed or internally inconsistent."""
