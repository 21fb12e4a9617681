"""Shared utilities: GUIDs, deterministic RNG streams, canonical encoding."""

from repro.util.ids import DIGIT_BITS, GUID, GUID_BITS, GUID_DIGITS, secure_hash
from repro.util.rng import SeedSequence
from repro.util.serialization import decode, encode, encoded_size


class ConfigError(ValueError):
    """A configuration dial outside the range its declaration allows."""


__all__ = [
    "ConfigError",
    "DIGIT_BITS",
    "GUID",
    "GUID_BITS",
    "GUID_DIGITS",
    "SeedSequence",
    "decode",
    "encode",
    "encoded_size",
    "secure_hash",
]
