"""The public election manifest: everything an observer needs to check an
election besides the board file itself. Written at simulation time, read by
the verifier, the tally tooling, and auditors."""

from __future__ import annotations

from dataclasses import dataclass

from .ballot import BallotStyle
from .errors import MalformedRecord
from .group import GroupParams
from .serialize import DIGEST, HEX, INT, SALT, STR, Record, dict_of, load_json, record, tuple_of
from .trustees import JointPublicKey


@dataclass(frozen=True)
class ElectionManifest(Record):
    election_id: str
    gp: GroupParams
    jpk: JointPublicKey
    office_pk: int
    styles: tuple
    terminal_seeds: dict  # terminal id -> z0
    salt: bytes
    ttl: int

    FIELDS = (
        ("election_id", "election_id", STR),
        ("group", "gp", record(GroupParams)),
        ("joint_key", "jpk", record(JointPublicKey)),
        ("office_pk", "office_pk", HEX),
        ("styles", "styles", tuple_of(record(BallotStyle))),
        ("terminals", "terminal_seeds", dict_of(DIGEST)),
        ("salt", "salt", SALT),
        ("ttl", "ttl", INT),
    )

    @property
    def style_map(self) -> dict:
        return {s.style_id: s for s in self.styles}

    @classmethod
    def from_json(cls, obj) -> "ElectionManifest":
        """The manifest, with its office key tested once for membership in the
        order-q subgroup: every signature check takes that key as tested."""
        manifest = super().from_json(obj)
        if not manifest.gp.is_element(manifest.office_pk):
            raise MalformedRecord("not an element of the group").within("office_pk")
        return manifest

    @classmethod
    def load(cls, path) -> "ElectionManifest":
        """The manifest in the file at path; a MalformedRecord names the file."""
        obj = load_json(path)
        try:
            return cls.from_json(obj)
        except MalformedRecord as exc:
            raise exc.within(path)
