"""Canonical encoding primitives.

Every hash in the toolkit depends on these byte layouts staying fixed, so the
expected values below are frozen literals computed by hand.
"""

import copy
import hashlib
import json
import random

import pytest

from helpers import replace
from starlock.ballot import (
    BallotStyle,
    Contest,
    ContestProof,
    EncryptedBallot,
    EncryptedContest,
    WellFormednessProof,
)
from starlock.boardformat import (
    EncryptedBallotRecord,
    SpoiledColumn,
    TallyColumn,
    TallyRecord,
    TerminalClose,
)
from starlock.chaum_pedersen import ChaumPedersenProof, ZeroOneProof
from starlock.elgamal import Ciphertext, Keypair
from starlock.errors import MalformedRecord
from starlock.group import TEST_GROUP
from starlock.manifest import ElectionManifest
from starlock.schnorr import SchnorrSignature
from starlock.serialize import (
    Codec,
    FileRecord,
    Record,
    canonical_json,
    dump_json,
    enc_bytes,
    enc_int,
    enc_str,
    hex_to_int,
    int_to_bytes,
    int_to_hex,
    load_json,
    sha256,
    sha256_hex,
)
from starlock.trustees import DecryptionShare, JointPublicKey, TrusteeShare


def test_int_to_bytes_minimal_big_endian() -> None:
    assert int_to_bytes(0) == b"\x00"
    assert int_to_bytes(1) == b"\x01"
    assert int_to_bytes(255) == b"\xff"
    assert int_to_bytes(256) == b"\x01\x00"
    assert int_to_bytes(2**64) == b"\x01" + b"\x00" * 8


def test_int_to_bytes_rejects_negative() -> None:
    with pytest.raises(ValueError):
        int_to_bytes(-1)


def test_length_prefixed_encodings_frozen() -> None:
    # 4-byte big-endian length, then the payload
    assert enc_bytes(b"").hex() == "00000000"
    assert enc_bytes(b"\xab").hex() == "00000001ab"
    assert enc_int(0).hex() == "0000000100"
    assert enc_int(255).hex() == "00000001ff"
    assert enc_int(256).hex() == "000000020100"
    assert enc_str("ab").hex() == "000000026162"


def test_field_sequences_cannot_collide() -> None:
    # without length prefixes ("ab","c") and ("a","bc") would be the same bytes
    assert enc_str("ab") + enc_str("c") != enc_str("a") + enc_str("bc")
    rng = random.Random(1)
    seen = {}
    for _ in range(300):
        pair = (
            "".join(rng.choice("abc") for _ in range(rng.randrange(4))),
            "".join(rng.choice("abc") for _ in range(rng.randrange(4))),
        )
        blob = enc_str(pair[0]) + enc_str(pair[1])
        assert seen.setdefault(blob, pair) == pair


def _ints(*values) -> bytes:
    return b"".join(enc_int(v) for v in values)


def test_record_canonical_bytes_frozen() -> None:
    """Fields in FIELDS order: a nested record inline, a tuple behind its item
    count, an optional value behind a 0/1 flag."""
    contest = EncryptedContest(
        "c", (Ciphertext(13, 2), Ciphertext(3, 4)), (Ciphertext(5, 6),), Ciphertext(7, 8))
    assert contest.canonical_bytes() == (
        enc_str("c")
        + enc_int(2) + _ints(13, 2) + _ints(3, 4)
        + enc_int(1) + _ints(5, 6)
        + enc_int(1) + _ints(7, 8)
    )
    zero_one = ZeroOneProof(*range(1, 9))
    proof = ContestProof("c", (zero_one,), (), None, ChaumPedersenProof(9, 10, 11, 12))
    assert proof.canonical_bytes() == (
        enc_str("c")
        + enc_int(1) + _ints(1, 2, 3, 4, 5, 6, 7, 8)
        + enc_int(0)
        + enc_int(0)
        + _ints(9, 10, 11, 12)
    )
    assert TEST_GROUP.canonical_bytes() == _ints(23, 11, 4)


def _variants(value) -> list:
    """Values of value's form that differ from it in one place: a record in
    one field, a tuple in its length or in one item."""
    if isinstance(value, Record):
        return [replace(value, **{attr: v})
                for _, attr, _ in value.FIELDS for v in _variants(getattr(value, attr))]
    if isinstance(value, tuple):
        return [value[1:], value + value[:1]] + [
            value[:i] + (v,) + value[i + 1:]
            for i, item in enumerate(value) for v in _variants(item)]
    if value is None:  # an optional field: the samples hold it both ways
        return []
    return [value + ("x" if isinstance(value, str) else 1)]


_ZERO_ONE = ZeroOneProof(*range(1, 9))
_CONTESTS = (
    EncryptedContest("c", (Ciphertext(1, 2), Ciphertext(3, 4)), (Ciphertext(5, 6),), None),
    EncryptedContest("d", (Ciphertext(1, 2),), (), Ciphertext(7, 8)),
)
_PROOFS = (
    ContestProof("c", (_ZERO_ONE, _ZERO_ONE), (_ZERO_ONE,), None, ChaumPedersenProof(1, 2, 3, 4)),
    ContestProof("d", (_ZERO_ONE,), (), _ZERO_ONE, ChaumPedersenProof(5, 6, 7, 8)),
)
HASHED_RECORDS = [
    TEST_GROUP, Ciphertext(1, 2), ChaumPedersenProof(1, 2, 3, 4), _ZERO_ONE, *_CONTESTS,
    *_PROOFS, WellFormednessProof(_PROOFS), EncryptedBallot("s", _CONTESTS),
]


@pytest.mark.parametrize("sample", HASHED_RECORDS, ids=lambda r: type(r).__name__)
def test_every_field_change_changes_the_canonical_bytes(sample) -> None:
    """Distinct values of a hashed record, each one change away from the
    sample, have distinct canonical bytes: no field is left out of the hash."""
    values = {sample, *_variants(sample)}
    assert len({value.canonical_bytes() for value in values}) == len(values) > 1


_SHARE = DecryptionShare(1, 2, ChaumPedersenProof(1, 2, 3, 4))
_COLUMN = ("c", "x", 1, Ciphertext(1, 2), (_SHARE,))
_STYLE = BallotStyle("s", (Contest("c", ("x", "y"), 2, True),))
_JOINT_KEY = JointPublicKey(2, 3, 2, (4, 5))
RECORDS = [
    *HASHED_RECORDS, _STYLE.contests[0], _STYLE, Keypair(3, 4), SchnorrSignature(bytes(32), 5),
    TrusteeShare(1, 2, (3, 4)), _JOINT_KEY, _SHARE,
    ElectionManifest("e", TEST_GROUP, _JOINT_KEY, 2, (_STYLE,), {"T1": bytes(32)}, bytes(16), 3),
    EncryptedBallotRecord(EncryptedBallot("s", _CONTESTS), WellFormednessProof(_PROOFS), "T1",
                          b"\x02" * 32, 7),
    TerminalClose("T1", b"\x03" * 32, 4), TallyColumn(*_COLUMN), SpoiledColumn(*_COLUMN),
    TallyRecord((TallyColumn(*_COLUMN),), {"c": {"x": 1}}, {"c": 1}),
]


def _record_classes(cls=Record) -> set:
    """Every published record class: starlock's subclasses of Record but FileRecords."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("starlock.") and not issubclass(sub, FileRecord):
            found |= {sub} | _record_classes(sub)
    return found


def test_the_contract_samples_cover_every_record_class() -> None:
    assert {type(r) for r in RECORDS} == _record_classes()


@pytest.mark.parametrize("sample", RECORDS, ids=lambda r: type(r).__name__)
def test_every_record_keeps_the_frozen_dataclass_contract(sample) -> None:
    """What Record supplies from FIELDS alone: __init__ by position or keyword,
    equality of one class over every field, a hash that agrees with it,
    immutability, and TypeError for a missing or unknown argument."""
    cls, attrs = type(sample), [attr for _, attr, _ in sample.FIELDS]
    values = [getattr(sample, attr) for attr in attrs]
    by_position, by_keyword = cls(*values), cls(**dict(zip(attrs, values)))
    assert by_position == by_keyword == sample and by_position is not sample
    assert not by_position != sample
    shown = ", ".join(f"{attr}={value!r}" for attr, value in zip(attrs, values))
    assert repr(sample) == f"{cls.__name__}({shown})"
    if any(isinstance(v, dict) for v in values):  # a dict field: unhashable, as in a dataclass
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(by_keyword) == hash(sample)
    for attr in attrs:
        changed = copy.copy(sample)
        vars(changed)[attr] = object()
        assert changed != sample and sample != changed
        with pytest.raises(AttributeError):
            setattr(sample, attr, getattr(sample, attr))
        with pytest.raises(AttributeError):
            delattr(sample, attr)
    with pytest.raises(AttributeError):
        sample.unknown = 1
    with pytest.raises(TypeError):
        cls(**dict(zip(attrs[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(attrs, values)), unknown=1)
    assert sample.__eq__(values) is NotImplemented


def test_a_spoiled_column_never_equals_a_tally_column_of_the_same_values() -> None:
    tally, spoiled = TallyColumn(*_COLUMN), SpoiledColumn(*_COLUMN)
    assert tally != spoiled and spoiled != tally
    assert tally.to_json() != spoiled.to_json()  # "count" against "bit"


def _walked_json(sample) -> dict:
    """to_json as a walk of FIELDS: each row's codec encodes its attribute."""
    return {key: codec.encode(getattr(sample, attr)) for key, attr, codec in sample.FIELDS}


def _walked_bytes(sample) -> bytes:
    """canonical_bytes as a walk of FIELDS: each row's canon, in order."""
    return b"".join(codec.canon(getattr(sample, attr)) for _, attr, codec in sample.FIELDS)


@pytest.mark.parametrize("sample", RECORDS, ids=lambda r: type(r).__name__)
def test_the_generated_codec_is_the_walk_of_fields(sample) -> None:
    """Each record's generated to_json and canonical_bytes give what a walk
    of its FIELDS gives (a record with a row that is never hashed refuses
    both ways), and from_json reads back what to_json wrote."""
    assert sample.to_json() == _walked_json(sample)
    assert type(sample).from_json(json.loads(json.dumps(sample.to_json()))) == sample
    try:
        walked = _walked_bytes(sample)
    except TypeError:  # a row never hashed (a nested record's row among them)
        with pytest.raises(TypeError):
            sample.canonical_bytes()
    else:
        assert sample.canonical_bytes() == walked


class _Refusing(Record):
    """A record whose one decoder fails with a KeyError of its own."""

    FIELDS = (("x", "x", Codec(str, lambda v: {}[v])),)


@pytest.mark.parametrize("cls, obj, detail", [
    (Ciphertext, {"a": "0d"}, "b: missing"),
    (Ciphertext, ["0d", "02"], "not an object"),
    (Ciphertext, {"a": "0D", "b": "02"}, "a: not lowercase hex"),
    (Ciphertext, {"b": "0x", "a": "0d"}, "b: not lowercase hex"),
    (Ciphertext, {"a": "0D"}, "a: not lowercase hex"),
    (Contest, {"contest_id": "", "options": ["x"], "limit": 1, "writein_slot": False},
     "contest_id must be nonempty"),
    (EncryptedBallotRecord, {"ballot": {"style_id": "s", "contests": []}, "proof": []},
     "proof: not an object"),
])
def test_generated_decoding_names_the_field(cls, obj, detail) -> None:
    """A missing key, a value that is no object, bad hex and a __post_init__
    refusal each raise MalformedRecord naming the field, the first in FIELDS
    order when two are malformed."""
    with pytest.raises(MalformedRecord) as err:
        cls.from_json(obj)
    assert err.value.detail == detail


def test_a_decoders_own_key_error_is_not_a_missing_field() -> None:
    with pytest.raises(MalformedRecord, match="missing"):
        _Refusing.from_json({})
    with pytest.raises(KeyError):
        _Refusing.from_json({"x": "y"})


def test_a_spoiled_column_decodes_and_hashes_its_own_fields() -> None:
    """SpoiledColumn inherits TallyColumn's methods until it generates its
    own, from its own FIELDS: "bit" where a tally column has "count"."""
    tally, spoiled = TallyColumn(*_COLUMN), SpoiledColumn(*_COLUMN)
    assert TallyColumn.from_json(tally.to_json()) == tally  # the tally column's codec first
    assert SpoiledColumn.from_json(spoiled.to_json()) == spoiled
    assert vars(SpoiledColumn)["from_json"] is not vars(TallyColumn)["from_json"]
    assert vars(SpoiledColumn)["to_json"] is not vars(TallyColumn)["to_json"]
    assert set(spoiled.to_json()) - set(tally.to_json()) == {"bit"}
    for cls, other, key in ((TallyColumn, spoiled, "count"), (SpoiledColumn, tally, "bit")):
        with pytest.raises(MalformedRecord) as err:
            cls.from_json(other.to_json())
        assert err.value.detail == f"{key}: missing"
    hashed = [replace(c, shares=()) for c in (tally, spoiled)]  # a share is never hashed
    assert [c.canonical_bytes() for c in hashed] == [_walked_bytes(c) for c in hashed]


@pytest.mark.parametrize("x", [0, 1, 255, 256, 2**2048 - 1, 2**2048])
def test_enc_int_is_the_length_prefixed_magnitude(x) -> None:
    assert enc_int(x) == enc_bytes(int_to_bytes(x))
    assert len(enc_int(x)) == 4 + max(1, (x.bit_length() + 7) // 8)


def test_enc_int_rejects_negative() -> None:
    with pytest.raises(ValueError):
        enc_int(-1)


def test_record_defaults_and_post_init_refusals() -> None:
    contest = Contest("c", ("x", "y"))
    assert (contest.limit, contest.writein_slot) == (1, False)
    assert contest == Contest("c", ("x", "y"), 1, False) == Contest(options=["x", "y"],
                                                                     contest_id="c")
    assert type(Contest("c", ["x"]).options) is tuple  # __post_init__ ran
    with pytest.raises(ValueError, match="no options"):
        Contest("c", ())
    obj = {"style_id": "s", "contests": [contest.to_json(), contest.to_json()]}
    with pytest.raises(MalformedRecord) as err:
        BallotStyle.from_json(obj)
    assert err.value.detail == "style s repeats a contest id"
    with pytest.raises(TypeError, match="without a default follows"):
        type("Misdeclared", (Record,), {"FIELDS": Contest.FIELDS[1:], "limit": 1})


def test_cached_values_are_computed_once() -> None:
    manifest = next(r for r in RECORDS if isinstance(r, ElectionManifest))
    assert manifest.style_map is manifest.style_map == {"s": _STYLE}


def test_sha256_matches_hashlib() -> None:
    for payload in (b"", b"x", b"starlock", bytes(range(200))):
        assert sha256(payload) == hashlib.sha256(payload).digest()
        assert sha256_hex(payload) == hashlib.sha256(payload).hexdigest()


def test_int_hex_round_trip() -> None:
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(2**rng.randrange(1, 256))
        assert hex_to_int(int_to_hex(n)) == n
    assert int_to_hex(0) == "00"
    assert int_to_hex(255) == "ff"
    assert int_to_hex(256) == "0100"


def test_canonical_json_is_sorted_and_compact() -> None:
    a = canonical_json({"b": 1, "a": [2, 3], "c": {"y": "z"}})
    b = canonical_json({"c": {"y": "z"}, "a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1,"c":{"y":"z"}}'
    assert json.loads(a) == {"a": [2, 3], "b": 1, "c": {"y": "z"}}


CT = {"a": "0d", "b": "02"}
BALLOT = {"style_id": "s", "contests": [
    {"contest_id": "c", "options": [CT, CT, CT], "padding": [CT], "writein": None}]}


@pytest.mark.parametrize("path, value, detail", [
    (("contests", 0, "options", 2, "a"), "0x0d", "contests[0].options[2].a: not lowercase hex"),
    (("contests", 0, "options", 1, "b"), None, "contests[0].options[1].b: missing"),
    (("contests", 0, "padding"), {}, "contests[0].padding: not a list"),
    (("contests", 0, "writein"), 7, "contests[0].writein: not an object"),
    (("contests",), "zz", "contests: not a list"),
    (("style_id",), [], "style_id: not a string"),
])
def test_record_decoding_names_the_malformed_field(path, value, detail) -> None:
    assert EncryptedBallot.from_json(BALLOT).to_json() == BALLOT
    obj = json.loads(json.dumps(BALLOT))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(MalformedRecord) as err:
        EncryptedBallot.from_json(obj)
    assert err.value.detail == detail
    assert str(err.value.at(7, 3)) == f"board line 7: {detail}"


@pytest.mark.parametrize("fields, detail", [
    ({"limit": 3}, "contest c: limit 3 outside [1, 2]"),
    ({"limit": "2"}, None),
    ({"limit": "-1"}, "limit: not a non-negative integer"),
    ({"limit": True}, "limit: not a non-negative integer"),
    ({"limit": "9" * 5000}, "limit: not a non-negative integer"),
    ({"writein_slot": 1}, "writein_slot: not a boolean"),
])
def test_integers_booleans_and_the_records_own_rules(fields, detail) -> None:
    obj = {"contest_id": "c", "options": ["x", "y"], "limit": 1, "writein_slot": False, **fields}
    if detail is None:
        assert Contest.from_json(obj) == Contest("c", ("x", "y"), 2)
        return
    with pytest.raises(MalformedRecord) as err:
        Contest.from_json(obj)
    assert err.value.detail == detail


@pytest.mark.parametrize("value", ["0x0d", "0D", "0_d", " 0d", "-0d", "", "+0d"])
def test_hex_is_only_what_int_to_hex_writes(value) -> None:
    assert hex_to_int(int_to_hex(13)) == 13
    with pytest.raises(MalformedRecord):
        hex_to_int(value)


@pytest.mark.parametrize("content", [b"{not json", b"", b"\xff\xfe[]", b"[" * 100000],
                         ids=["not-json", "empty", "not-utf-8", "nested-too-deep"])
def test_a_file_without_a_json_document_is_a_malformed_record(content, tmp_path) -> None:
    path = tmp_path / "cvrs.json"
    path.write_bytes(content)
    with pytest.raises(MalformedRecord) as exc:
        load_json(path)
    assert exc.value.detail.startswith(f"{path}: not a JSON document (")


def test_json_files_are_indented_key_sorted_and_end_in_a_newline(tmp_path) -> None:
    path = tmp_path / "out.json"
    dump_json({"b": [1], "a": None}, path)
    assert path.read_text(encoding="utf-8") == '{\n  "a": null,\n  "b": [\n    1\n  ]\n}\n'
    assert load_json(path) == {"a": None, "b": [1]}
