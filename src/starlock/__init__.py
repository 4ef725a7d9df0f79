"""starlock: an end-to-end verifiable voting toolkit.

The package covers the full lifecycle of a simulated election: threshold key
generation, in-booth ballot encryption with well-formedness proofs, a
hash-chained polling-place protocol, a signed append-only bulletin board, an
independent verifier, and a ballot-comparison risk-limiting audit.

The cryptography here is simulation-grade: correct algebra and transcripts,
but no constant-time arithmetic, no hardened randomness, and a deliberately
tiny TEST group for fast deterministic tests. Do not point it at a real
election.
"""

__version__ = "0.1.0"
