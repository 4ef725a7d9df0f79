"""Canonical encodings shared by every hashing and signing path.

Byte layout: an integer (its minimal big-endian magnitude; zero is one zero
byte) or a string (UTF-8) is a 4-byte big-endian length prefix and its bytes.
Record.canonical_bytes derives a record's bytes from its FIELDS, in order: a
nested record inline, a tuple as its item count then each item, an optional
value as a 0/1 flag then the value. Only chain_hash and initial_chain_seed
wrap a whole record as one length-prefixed field. All digests are SHA-256,
rendered as lowercase hex.

JSON form: each published record declares its wire form once, as Record
FIELDS rows (JSON key, attribute, codec). The same rows are its attribute
declaration: Record gives each subclass an __init__ generated from them when
the class is created, a to_json, canonical_bytes and from_json generated
from them at the class's first call of each, and equality, hashing, repr and
immutability that walk them, so no published record is a dataclass and no
read-only command imports dataclasses. An
operator file's records (the scenario) are FileRecords: mutable dataclasses,
which may leave keys out. Decoding is total:
anything else raises MalformedRecord naming the field path. Every JSON file is
read by load_json and written by dump_json, and every file is written by
write_text.

Keeping this in one module is what lets independent readers of the public
artifacts (verifier, auditors, receipt checkers) reproduce every hash
bit-for-bit and reject every malformed record by the same rules.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import namedtuple
from operator import methodcaller
from typing import Any

from .errors import MalformedRecord

HEX_DIGITS = "0123456789abcdef"


def int_to_bytes(x: int) -> bytes:
    """Minimal big-endian magnitude of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative integers have no canonical encoding")
    return x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def enc_int(x: int) -> bytes:
    """enc_bytes(int_to_bytes(x)) in one to_bytes call: the length n sits
    above the n magnitude bytes."""
    if x < 0:
        raise ValueError("negative integers have no canonical encoding")
    n = (x.bit_length() + 7) // 8 or 1
    return (n << 8 * n | x).to_bytes(n + 4, "big")


def enc_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_to_hex(x: int) -> str:
    """Group elements travel through JSON as lowercase hex of the magnitude."""
    return int_to_bytes(x).hex()


def hex_to_int(s: str) -> int:
    """The integer int_to_hex wrote: non-empty, 0-9a-f only (int(s, 16) alone
    would also take 0x, _, a sign, whitespace and uppercase)."""
    if type(s) is not str or not s or s.strip(HEX_DIGITS):
        raise MalformedRecord("not lowercase hex")
    return int(s, 16)


# One encoder for every call: json.dumps with these options would build one per call.
# Every input is an acyclic tree, so the encoder skips the circularity check.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: lexicographic keys, no whitespace."""
    return _CANONICAL.encode(obj)


def load_json(path) -> Any:
    """The JSON document in the file at path; MalformedRecord naming the file
    when it holds none (bad UTF-8 or nesting too deep to parse included)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise MalformedRecord(f"not a JSON document ({exc})").within(str(path)) from None


class WriteFailed(OSError):
    """A file that opened but could not be written or closed (a full disk),
    named by its path: an OSError from write or close carries none."""


def write_text(path, chunks) -> None:
    """Write the strings in chunks to the file at path as UTF-8. An OSError
    from open names path already; one from a write or the close is raised as
    WriteFailed naming it."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise WriteFailed(exc.errno, exc.strerror, os.fspath(path)) from exc


def dump_json(obj: Any, path) -> None:
    """Write obj to the file at path as indented, key-sorted JSON and a newline,
    streamed as json.dump streams it, not built whole first."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    write_text(path, itertools.chain(chunks, "\n"))


# -- the wire codec ----------------------------------------------------------------

# decode raises MalformedRecord; canon is a field's hashed bytes (None: never
# hashed). source, when given, holds for encode, decode and canon the
# expression of the value "{}" that a generated record method writes in
# place of calling the function (None: call it).
Codec = namedtuple("Codec", "encode decode canon source", defaults=(None, None))


def _check(ok: bool, value, reason: str):
    if not ok:
        raise MalformedRecord(reason)
    return value


def _natural(value) -> int:
    if type(value) is int and value >= 0:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise MalformedRecord("not a non-negative integer")


# enc_int and enc_str are looked up per call, by the lambdas and in the
# generated methods, so that a tracer rebinding them counts them
HEX = Codec(int_to_hex, hex_to_int, lambda v: enc_int(v),
            ("int_to_hex({})", "hex_to_int({})", "enc_int({})"))
STR = Codec(str, lambda v: _check(type(v) is str, v, "not a string"), lambda v: enc_str(v),
            ("str({})", None, "enc_str({})"))
BOOL = Codec(bool, lambda v: _check(type(v) is bool, v, "not a boolean"))
OBJECT = Codec(dict, lambda v: _check(type(v) is dict, v, "not an object"))
INT = Codec(int, _natural)  # INT and NUMERAL decode a JSON int or a decimal string;
NUMERAL = Codec(str, _natural, lambda v: enc_int(v),  # NUMERAL writes the string
                ("str({})", "_natural({})", "enc_int({})"))
INTEGER = Codec(int, lambda v: _check(type(v) is int, v, "not an integer"))  # JSON ints only
NUMBER = Codec(float, lambda v: float(_check(type(v) in (int, float), v, "not a number")))


def one_of(*words: str) -> Codec:
    """A string among words."""
    return Codec(str, lambda v: _check(v in words, v, f"not one of {', '.join(words)}"))


def hex_bytes(size: int) -> Codec:
    """Exactly `size` bytes as lowercase hex."""
    def decode(v) -> bytes:
        ok = type(v) is str and len(v) == 2 * size and not v.strip(HEX_DIGITS)
        return bytes.fromhex(_check(ok, v, f"not {size}-byte lowercase hex"))

    return Codec(bytes.hex, decode)


DIGEST = hex_bytes(32)  # SHA-256 outputs: hash-chain values, signature commitments
SALT_BYTES = 16
SALT = hex_bytes(SALT_BYTES)


def record(cls) -> Codec:
    """A nested record of class cls. Its methods are looked up at each call,
    so that the generated ones are called once they exist."""
    return Codec(methodcaller("to_json"), lambda v: cls.from_json(v),
                 methodcaller("canonical_bytes"), ("{}.to_json()", None, "{}.canonical_bytes()"))


def optional(codec: Codec) -> Codec:
    """The codec's value, or None as JSON null; hashed behind a 0/1 flag."""
    encode, decode, canon, _ = codec
    return Codec(lambda v: None if v is None else encode(v),
                 lambda v: None if v is None else decode(v),
                 lambda v: enc_int(0) if v is None else enc_int(1) + canon(v))


def tuple_of(codec: Codec) -> Codec:
    """A JSON list, decoded to a tuple; hashed behind its item count."""
    encode, decode, canon, _ = codec

    def decode_list(v) -> tuple:
        _check(type(v) is list, v, "not a list")
        items = []
        try:
            for item in v:
                items.append(decode(item))
        except MalformedRecord as exc:
            raise exc.within(len(items))  # the index of the item refused
        return tuple(items)

    return Codec(lambda items: list(map(encode, items)), decode_list,
                 lambda items: enc_int(len(items)) + b"".join(map(canon, items)))


def dict_of(codec: Codec) -> Codec:
    """A JSON object keyed by ids (contest, column or terminal ids)."""
    encode, decode, _, _ = codec

    def decode_dict(v) -> dict:
        out = {}
        for key, item in _check(type(v) is dict, v, "not an object").items():
            try:
                out[key] = decode(item)
            except MalformedRecord as exc:
                raise exc.within(key)
        return out

    return Codec(lambda items: {k: encode(x) for k, x in items.items()}, decode_dict)


def decode_field(obj: dict, key: str, decode):
    """decode(obj[key]); a MalformedRecord names the key."""
    try:
        if key not in obj:
            raise MalformedRecord("missing")
        return decode(obj[key])
    except MalformedRecord as exc:
        raise exc.within(key)


def _named(exc, obj: dict, key: str):
    """What a generated from_json raises for exc, raised as it decoded
    obj[key]: a MalformedRecord naming key ("missing" for a KeyError of obj's
    own), or a decoder's own KeyError unchanged."""
    if isinstance(exc, MalformedRecord):
        return exc.within(key)
    return exc if key in obj else MalformedRecord("missing").within(key)


def _generate(cls, name: str):
    """cls's to_json, canonical_bytes or from_json, written from its FIELDS
    rows a row per line: each codec's source expression, or a call of the
    codec's own function, bound into the method."""
    bound = {}

    def apply(codec: Codec, op: int, value: str) -> str:  # op: 0 encode, 1 decode, 2 canon
        template = codec.source and codec.source[op]
        if not template:
            ref = f"_{len(bound)}"
            bound[ref] = codec[op]
            template = ref + "({})"
        return template.format(value)

    rows = cls.FIELDS
    if name == "to_json":
        params, lines = "self", [
            "return {",
            *(f"    {key!r}: {apply(codec, 0, 'self.' + attr)}," for key, attr, codec in rows),
            "}"]
    elif name == "canonical_bytes":
        parts = [apply(codec, 2, "self." + attr) for _, attr, codec in rows] or ["b''"]
        params, lines = "self", [
            f"return ({parts[0]}", *(f"        + {part}" for part in parts[1:]), ")"]
    else:
        params, lines = "cls, obj", ["if type(obj) is not dict:",
                                     "    raise MalformedRecord('not an object')"]
        if rows:  # key names the row being decoded, for a MalformedRecord's path
            lines.append("try:")
            for key, attr, codec in rows:
                lines += [f"    key = {key!r}", f"    {attr} = {apply(codec, 1, f'obj[{key!r}]')}"]
            lines += ["except (KeyError, MalformedRecord) as exc:",
                      "    raise _named(exc, obj, key) from None"]
        build = f"cls({', '.join(attr for _, attr, _ in rows)})"
        if hasattr(cls, "__post_init__"):  # whose ValueError is a refusal of the record
            lines += ["try:", f"    return {build}", "except ValueError as exc:",
                      "    raise MalformedRecord(str(exc)) from None"]
        else:
            lines.append(f"return {build}")
    # the bound objects are closure cells; every other name is this module's
    source = (f"def define({', '.join(bound)}):\n def {name}({params}):\n"
              + "".join(f"  {line}\n" for line in lines) + f" return {name}\n")
    namespace = {}
    exec(source, globals(), namespace)
    method = namespace["define"](**bound)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


_GENERATED = {}  # (class, method name): the method _generate wrote


def _generated(cls, name: str):
    """cls's method `name`, generated at its first use. It then replaces
    Record's method in cls's dict, where __init_subclass__ put that: later
    calls run it directly. Anything else there (a tracer's wrapper) stays,
    and calls it through Record's method."""
    method = _GENERATED.get((cls, name))
    if method is None:
        method = _GENERATED[cls, name] = _generate(cls, name)
        if vars(cls).get(name) is vars(Record)[name]:
            setattr(cls, name, classmethod(method) if name == "from_json" else method)
    return method


class Record:
    """A published record whose FIELDS rows (JSON key, attribute, codec) are its
    whole wire form and its attribute declaration: its attributes are the
    rows' attribute column, in order, and a class attribute of one of those
    names is a default (Contest.limit = 1). Other keys are ignored.

    From the rows alone Record supplies what a frozen dataclass would: an
    __init__ by position or keyword that ends in __post_init__ when the class
    has one, equality within one class, a hash, a repr, and immutability
    (setting or deleting an attribute raises AttributeError; __post_init__
    sets derived values through object.__setattr__, and cached_property
    writes the instance dict). It also supplies the wire codec: to_json,
    canonical_bytes and from_json.

    The methods that run for every record read or written are generated as
    source, a row per line, one exec each: __init__ when the class is
    created, and each codec method at its first call, so that a command
    compiles only the codecs it uses (generating all three at class
    creation made importing the read-only commands' modules about a fifth
    slower). A generic *args/**kwargs __init__ took verify and simulate more
    than a tenth more CPU time, and a walk of FIELDS per call made
    chain_hash about twice as slow. Equality, hashing and repr walk FIELDS
    when called; none of them is hot.
    """

    FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "FIELDS" not in vars(cls):
            return
        attrs = [attr for _, attr, _ in cls.FIELDS]
        required = [attr for attr in attrs if not hasattr(cls, attr)]
        if attrs[:len(required)] != required:
            raise TypeError(f"{cls.__name__}: a field without a default follows one with it")
        # object.__setattr__, not the instance dict: reading __dict__ would
        # give every record a dict in place of its inline attribute values,
        # which makes every later attribute read slower.
        code = (f"def __init__(self, {', '.join(attrs)}):\n"
                + "".join(f" object_setattr(self, {attr!r}, {attr})\n" for attr in attrs)
                + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""))
        namespace = {"object_setattr": object.__setattr__}
        exec(code, namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(getattr(cls, attr) for attr in attrs[len(required):])
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        # the codec methods' own attributes, which _generated replaces
        for name in ("to_json", "canonical_bytes", "from_json"):
            if name not in vars(cls):
                setattr(cls, name, vars(Record)[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, attr) for _, attr, _ in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{attr}={getattr(self, attr)!r}" for _, attr, _ in self.FIELDS)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json(self) -> dict:
        return _generated(type(self), "to_json")(self)

    def canonical_bytes(self) -> bytes:
        """What the record adds to a hash: each field's canon, in FIELDS order."""
        return _generated(type(self), "canonical_bytes")(self)

    def save(self, path) -> None:
        dump_json(self.to_json(), path)

    @classmethod
    def from_json(cls, obj):
        """The record obj encodes; MalformedRecord naming the field path when
        it encodes none, a __post_init__ refusal included."""
        return _generated(cls, "from_json")(cls, obj)


class FileRecord(Record):
    """A record of an operator file (a scenario, a voter): a mutable dataclass,
    which writes its own __init__, __eq__ and __repr__. A key may be left out
    when DEFAULTS gives its JSON value or its attribute a plain dataclass default;
    a row with attribute None encodes the whole record, decoding to attributes."""

    DEFAULTS = {}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init_subclass__(cls, **kwargs):  # no generated __init__: @dataclass writes it
        pass

    def to_json(self) -> dict:
        return {key: codec.encode(self if attr is None else getattr(self, attr))
                for key, attr, codec in self.FIELDS}

    @classmethod
    def from_json(cls, obj):
        obj = {**cls.DEFAULTS, **OBJECT.decode(obj)}
        values = {}
        for key, attr, codec in cls.FIELDS:
            # a dataclass keeps a plain field default as a class attribute
            if key in obj or not (attr is None or hasattr(cls, attr)):
                value = decode_field(obj, key, codec.decode)
                values.update(value if attr is None else {attr: value})
        return cls(**values)
