"""Directory objects: human-readable hierarchies over GUIDs (Section 4.1).

"Certain OceanStore objects act as directories, mapping human-readable
names to GUIDs.  To allow arbitrary directory hierarchies to be built, we
allow directories to contain pointers to other directories.  A user of the
OceanStore can choose several directories as 'roots' and secure those
directories through external methods ... such root directories are only
roots with respect to the clients that use them; the system as a whole has
no one root."

Directories are ordinary OceanStore objects; here we model their *content*
(the mapping) plus client-side resolution.  A :class:`DirectoryResolver`
walks a path one component at a time, fetching each directory object
through a caller-supplied loader so the same code works against local
fixtures, the simulator, or a replica cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.util.ids import GUID


class NameNotFound(KeyError):
    """A path component was missing during resolution."""


class NotADirectory(TypeError):
    """Resolution descended into an entry that is not a directory."""


@dataclass(frozen=True, slots=True)
class DirectoryEntry:
    """One name binding inside a directory."""

    name: str
    target: GUID
    is_directory: bool


@dataclass
class Directory:
    """The decrypted content of a directory object."""

    entries: dict[str, DirectoryEntry] = field(default_factory=dict)

    def bind(self, name: str, target: GUID, is_directory: bool = False) -> None:
        if not name or "/" in name:
            raise ValueError(f"invalid name component: {name!r}")
        self.entries[name] = DirectoryEntry(name, target, is_directory)

    def unbind(self, name: str) -> None:
        if name not in self.entries:
            raise NameNotFound(name)
        del self.entries[name]

    def lookup(self, name: str) -> DirectoryEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise NameNotFound(name) from None

    def list(self) -> list[DirectoryEntry]:
        return sorted(self.entries.values(), key=lambda e: e.name)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def to_dict(self) -> dict:
        """Plain-data form, for embedding in object payloads."""
        return {
            name: {
                "target": entry.target.to_bytes(),
                "is_directory": entry.is_directory,
            }
            for name, entry in self.entries.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Directory":
        directory = cls()
        for name, raw in data.items():
            directory.entries[name] = DirectoryEntry(
                name=name,
                target=GUID.from_bytes(raw["target"]),
                is_directory=bool(raw["is_directory"]),
            )
        return directory


def split_path(path: str) -> list[str]:
    """Split a slash-separated path into components, rejecting empties."""
    components = [c for c in path.split("/") if c]
    if not components and path.strip("/") != "":
        raise ValueError(f"malformed path: {path!r}")
    return components


class DirectoryResolver:
    """Resolves slash-separated paths from a client-chosen root.

    ``loader`` fetches (and decrypts) a directory object by GUID; in the
    full system this goes through the data-location layer and the client's
    keyring.
    """

    def __init__(self, loader: Callable[[GUID], Directory]) -> None:
        self._loader = loader

    def resolve(self, root: GUID, path: str, directory: bool = False) -> GUID:
        """Resolve ``path`` relative to ``root``; returns the target GUID.
        With ``directory``, the last component must be a directory too."""
        components = split_path(path)
        current = root
        for i, component in enumerate(components):
            entry = self._loader(current).lookup(component)
            if (directory or i < len(components) - 1) and not entry.is_directory:
                raise NotADirectory("/".join(components[: i + 1]))
            current = entry.target
        return current
