"""Canonical byte serialization for hashing and signing.

Signed structures (updates, certificates, commit proofs) must serialize to
identical bytes on every node, so we use a small, self-describing canonical
encoding rather than ``pickle`` (whose output is not canonical) or JSON
(which cannot carry bytes).  The encoding is a tagged, length-prefixed
format over a small set of types:

* ``None``, ``bool``, ``int``, ``bytes``, ``str``
* ``tuple``/``list`` (both encode as sequences; decoded as tuples)
* ``dict`` with string keys, encoded with keys sorted

This covers everything the library signs or hashes.
"""

from __future__ import annotations

import struct
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_SEQ = b"L"
_TAG_DICT = b"D"

#: a tag byte and its 8-byte big-endian length or count
_header = struct.Struct(">cQ").pack


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes.

    Raises ``TypeError`` for unsupported types so that accidental attempts
    to sign rich objects fail loudly.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


#: exact types with a branch below; any other instance (an IntEnum, a
#: named tuple) takes the branch of its first base, checked in order
_KINDS = frozenset({type(None), bool, int, bytes, str, list, tuple, dict})


def _encode_into(out: bytearray, value: Any) -> None:
    """Append the encoding of ``value`` to ``out`` (one buffer per value)."""
    kind = type(value)
    if kind not in _KINDS:
        kind = next((k for k in (int, bytes, str, list, tuple, dict) if isinstance(value, k)), None)
        if kind is None:
            raise TypeError(f"cannot canonically encode {type(value).__name__}")
    if kind is str:
        raw = value.encode("utf-8")
        out += _header(_TAG_STR, len(raw))
        out += raw
    elif kind is bytes:
        out += _header(_TAG_BYTES, len(value))
        out += value
    elif kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out += _header(_TAG_INT, len(raw))
        out += raw
    elif kind is list or kind is tuple:
        out += _header(_TAG_SEQ, len(value))
        for item in value:
            _encode_into(out, item)
    elif kind is dict:
        items = sorted(value.items())
        out += _header(_TAG_DICT, len(items))
        for key, val in items:
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            out += _header(_TAG_STR, len(raw))
            out += raw
            _encode_into(out, val)
    elif kind is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
    else:
        out += _TAG_NONE


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Sequences decode as tuples (canonical form).  Raises ``ValueError`` on
    malformed or trailing input.
    """
    value, offset = _decode_at(data, 0)
    if offset != len(data):
        raise ValueError(f"trailing bytes after canonical value at offset {offset}")
    return value


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    if offset + 8 > len(data):
        raise ValueError("truncated length field")
    return int.from_bytes(data[offset : offset + 8], "big"), offset + 8


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise ValueError("truncated canonical value")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        n, offset = _read_length(data, offset)
        if offset + n > len(data):
            raise ValueError("truncated int body")
        raw = data[offset : offset + n]
        return int.from_bytes(raw, "big", signed=True), offset + n
    if tag == _TAG_BYTES:
        n, offset = _read_length(data, offset)
        if offset + n > len(data):
            raise ValueError("truncated bytes body")
        return data[offset : offset + n], offset + n
    if tag == _TAG_STR:
        n, offset = _read_length(data, offset)
        if offset + n > len(data):
            raise ValueError("truncated str body")
        return data[offset : offset + n].decode("utf-8"), offset + n
    if tag == _TAG_SEQ:
        count, offset = _read_length(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_DICT:
        count, offset = _read_length(data, offset)
        result: dict[str, Any] = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            if not isinstance(key, str):
                raise ValueError("dict key is not a string")
            val, offset = _decode_at(data, offset)
            result[key] = val
        return result, offset
    raise ValueError(f"unknown canonical tag {tag!r}")
