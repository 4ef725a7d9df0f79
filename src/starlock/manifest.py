"""The public election manifest: everything an observer needs to check an
election besides the board file itself. Written at simulation time, read by
the verifier, the tally tooling, and auditors."""

from __future__ import annotations

from functools import cached_property

from .ballot import BallotStyle
from .errors import MalformedRecord
from .group import GroupParams
from .serialize import DIGEST, HEX, INT, SALT, STR, Record, dict_of, load_record, record, tuple_of
from .trustees import JointPublicKey, check_joint_key


class ElectionManifest(Record):
    FIELDS = (
        ("election_id", "election_id", STR),
        ("group", "gp", record(GroupParams)),
        ("joint_key", "jpk", record(JointPublicKey)),
        ("office_pk", "office_pk", HEX),
        ("styles", "styles", tuple_of(record(BallotStyle))),
        ("terminals", "terminal_seeds", dict_of(DIGEST)),  # terminal id -> z0
        ("salt", "salt", SALT),
        ("ttl", "ttl", INT),
    )

    @cached_property
    def style_map(self) -> dict:
        return {s.style_id: s for s in self.styles}

    @classmethod
    def from_json(cls, obj) -> "ElectionManifest":
        """The manifest, its style ids unrepeated, its joint key passing
        check_joint_key (each proof tests K, and each share check the
        verification key the commitments give, for membership), and its office
        key tested once for membership in the order-q subgroup, as every
        signature check takes it."""
        manifest = super().from_json(obj)
        if len(manifest.style_map) != len(manifest.styles):
            raise MalformedRecord("a style id is repeated").within("styles")
        try:
            check_joint_key(manifest.jpk, manifest.gp)
        except MalformedRecord as exc:
            raise exc.within("joint_key")
        if not manifest.gp.is_element(manifest.office_pk):
            raise MalformedRecord("not an element of the group").within("office_pk")
        return manifest

    @classmethod
    def load(cls, path) -> "ElectionManifest":
        """The manifest in the file at path; a MalformedRecord names the file."""
        return load_record(path, cls.from_json)
