"""File-backed stable storage with synchronous durability.

Each record is one file under the node's directory, written via a
temporary file + ``fsync`` + atomic rename so that a torn write can
never corrupt the previous record -- mirroring the simulator's
semantics where an in-flight store that crashes leaves the old record
intact.  Records are serialized with :mod:`pickle` (library-internal
data only; nothing here parses untrusted input).

Stores may run concurrently (the runtime issues them from executor
threads).  Stores and deletes of one key are serialized by a per-key
lock, so they never share the key's temporary file and the file on
disk and the in-memory record of a key always hold the same record.
Which of two overlapping stores of one key lands last is the caller's
to order (:class:`repro.runtime.node.RuntimeNode` chains them).

Startup is quarantine-and-continue: leftover ``.tmp`` files (a crash
before the atomic rename) are deleted, and a record file that fails to
read or decode is renamed aside with a ``.corrupt`` extension and
logged instead of aborting recovery.  Losing a single local record is
a fault the protocols already tolerate -- they never rely on one copy
of anything -- so refusing to start would turn a recoverable storage
fault into a permanent crash.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import StorageError

_SUFFIX = ".rec"
_QUARANTINE_SUFFIX = ".corrupt"

logger = logging.getLogger(__name__)


class FileStableStorage:
    """Durable key-record storage rooted at a directory."""

    def __init__(self, root: Path):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create storage dir {self._root}: {exc}")
        self._records: Dict[str, Tuple[Any, ...]] = {}
        #: key -> lock serializing that key's stores and deletes
        #: (``dict.setdefault`` is atomic, so racing first stores of a
        #: key agree on one lock).
        self._key_locks: Dict[str, threading.Lock] = {}
        self._stats_lock = threading.Lock()
        self.records_quarantined = 0
        self._load()
        self.stores_completed = 0
        self.bytes_logged = 0

    @property
    def records(self) -> Dict[str, Tuple[Any, ...]]:
        """In-memory view of the durable records (kept in sync)."""
        return self._records

    def _path(self, key: str) -> Path:
        # Sanitizing alone could collide two keys ("a/written" vs
        # "a_written"), which matters now that register instances
        # prefix their keys; a content hash keeps filenames unique.
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in key)
        digest = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
        return self._root / f"{safe}.{digest:08x}{_SUFFIX}"

    def _load(self) -> None:
        # A .tmp file is a store that crashed before its atomic rename;
        # the previous record (if any) is intact, the partial write is
        # garbage.
        for tmp in self._root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
        for path in self._root.glob(f"*{_SUFFIX}"):
            try:
                with open(path, "rb") as handle:
                    key, record = pickle.load(handle)
            except (OSError, pickle.PickleError, EOFError, ValueError) as exc:
                self._quarantine(path, exc)
                continue
            self._records[key] = record

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move an unreadable record aside and keep starting up."""
        target = path.with_name(path.name + _QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            target = path  # could not even rename; leave it in place
        self.records_quarantined += 1
        logger.warning(
            "quarantined corrupt record %s -> %s (%s); recovery continues "
            "without it", path.name, target.name, exc,
        )

    def store(self, key: str, record: Tuple[Any, ...], size: int) -> None:
        """Synchronously persist ``record`` under ``key``.

        Returns only once the bytes are on disk (write + fsync +
        rename + directory fsync): the ``store`` primitive of the
        model.  Runs in an executor thread when called from asyncio;
        overlapping stores of one key take effect one at a time.
        """
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        payload = pickle.dumps((key, record))
        with self._key_locks.setdefault(key, threading.Lock()):
            try:
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                dir_fd = os.open(self._root, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError as exc:
                raise StorageError(f"store of {key!r} failed: {exc}")
            self._records[key] = record
        with self._stats_lock:
            self.stores_completed += 1
            self.bytes_logged += size

    def retrieve(self, key: str) -> Optional[Tuple[Any, ...]]:
        """Read the last durable record under ``key`` (or ``None``)."""
        return self._records.get(key)

    def delete(self, key: str) -> None:
        """Remove the record under ``key`` (checkpoint truncation).

        Durable like :meth:`store`: the unlink is followed by a
        directory fsync, so a truncated record cannot resurface after
        a crash.  Deleting a missing key is a no-op.
        """
        path = self._path(key)
        with self._key_locks.setdefault(key, threading.Lock()):
            self._records.pop(key, None)
            try:
                path.unlink()
            except FileNotFoundError:
                return
            except OSError as exc:
                raise StorageError(f"delete of {key!r} failed: {exc}")
            dir_fd = os.open(self._root, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def reload_from_disk(self) -> None:
        """Drop the in-memory view and re-read the files.

        Used by crash emulation: a "recovering" node must see exactly
        what is durable, not what its previous incarnation cached.
        """
        self._records = {}
        self._load()
