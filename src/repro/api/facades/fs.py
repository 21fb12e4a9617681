"""The Unix file system facade (Section 4.6).

"OceanStore provides a number of legacy facades that implement common
APIs, including a Unix file system ..."  Paths resolve through directory
objects (Section 4.1); files are ordinary OceanStore objects.  The facade
keeps directory objects as client-managed structures stored in the
infrastructure like any other object, so the whole namespace enjoys the
same durability and access control as file data.
"""

from __future__ import annotations

from repro.api.oceanstore import ObjectHandle, OceanStoreHandle
from repro.api.session import Session
from repro.naming import Directory, DirectoryResolver, NameNotFound, NotADirectory, split_path
from repro.util import serialization
from repro.util.ids import GUID


class FileSystemError(OSError):
    pass


class FileNotFound(FileSystemError):
    pass


class NotADirectoryError_(FileSystemError):
    pass


class FileSystemFacade:
    """Path-based files and directories over the OceanStore API.

    The facade owns a root directory object per handle ("root
    directories are only roots with respect to the clients that use
    them").  Directory objects store their serialized entry map as the
    object's plaintext.
    """

    ROOT_NAME = "__fs_root__"

    def __init__(self, store: OceanStoreHandle, session: Session | None = None) -> None:
        self.store = store
        self.session = session
        self._root = store.create_object(self.ROOT_NAME)
        self._resolver = DirectoryResolver(lambda g: self._read_directory(store.open_object(g)))
        if not self.store.read(self._root, session):
            self._write_directory(self._root, Directory())

    # -- directory object I/O -----------------------------------------------------

    def _read_directory(self, handle: ObjectHandle) -> Directory:
        raw = self.store.read(handle, self.session)
        if not raw:
            return Directory()
        return Directory.from_dict(serialization.decode(raw))

    def _write_directory(self, handle: ObjectHandle, directory: Directory) -> None:
        result = self.store.write(handle, serialization.encode(directory.to_dict()))
        if not result.committed:
            raise FileSystemError("directory update aborted (concurrent change?)")

    # -- path resolution ------------------------------------------------------------

    def _resolve_dir(self, components: list[str]) -> ObjectHandle:
        """The directory at ``components`` below the root (Section 4.1)."""
        path = "/".join(components)
        try:
            guid = self._resolver.resolve(self._root.guid, path, directory=True)
        except NameNotFound:
            raise FileNotFound(path) from None
        except NotADirectory as exc:
            raise NotADirectoryError_(*exc.args) from None
        return self.store.open_object(guid)

    def _split_parent(self, path: str) -> tuple[list[str], str]:
        components = split_path(path)
        if not components:
            raise FileSystemError("path must name a file or directory")
        return components[:-1], components[-1]

    def _object_name(self, path: str) -> str:
        """Stable per-path object name (namespaced to avoid collisions)."""
        return f"__fs__:{path.strip('/')}"

    # -- operations -------------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        directory = self._read_directory(parent)
        if name in directory:
            raise FileSystemError(f"exists: {path}")
        child = self.store.create_object(self._object_name(path))
        self._write_directory(child, Directory())
        directory.bind(name, child.guid, is_directory=True)
        self._write_directory(parent, directory)

    def write_file(self, path: str, data: bytes) -> None:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        directory = self._read_directory(parent)
        if name in directory:
            entry = directory.lookup(name)
            if entry.is_directory:
                raise FileSystemError(f"is a directory: {path}")
            handle = self.store.open_object(entry.target)
        else:
            handle = self.store.create_object(self._object_name(path))
            directory.bind(name, handle.guid, is_directory=False)
            self._write_directory(parent, directory)
        result = self.store.write(handle, data, self.session)
        if not result.committed:
            raise FileSystemError(f"write aborted: {path}")

    def read_file(self, path: str) -> bytes:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        directory = self._read_directory(parent)
        try:
            entry = directory.lookup(name)
        except NameNotFound:
            raise FileNotFound(path) from None
        if entry.is_directory:
            raise FileSystemError(f"is a directory: {path}")
        return self.store.read(self.store.open_object(entry.target), self.session)

    def append_file(self, path: str, data: bytes) -> None:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        directory = self._read_directory(parent)
        try:
            entry = directory.lookup(name)
        except NameNotFound:
            raise FileNotFound(path) from None
        handle = self.store.open_object(entry.target)
        result = self.store.append(handle, data, self.session)
        if not result.committed:
            raise FileSystemError(f"append aborted: {path}")

    def listdir(self, path: str = "/") -> list[str]:
        components = split_path(path)
        directory = self._read_directory(self._resolve_dir(components))
        return [entry.name for entry in directory.list()]

    def exists(self, path: str) -> bool:
        try:
            parent_components, name = self._split_parent(path)
            parent = self._resolve_dir(parent_components)
            return name in self._read_directory(parent)
        except (FileSystemError, ValueError):
            return False

    def remove(self, path: str) -> None:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        directory = self._read_directory(parent)
        if name not in directory:
            raise FileNotFound(path)
        directory.unbind(name)
        self._write_directory(parent, directory)

    def guid_of(self, path: str) -> GUID:
        parent_components, name = self._split_parent(path)
        parent = self._resolve_dir(parent_components)
        return self._read_directory(parent).lookup(name).target
