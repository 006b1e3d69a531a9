"""Append-only log store: the persistent tier's one writable store.

Every persistent store the ``repro`` commands open is one
:class:`LogStore` per directory.  A flush appends records instead of
rewriting files, and a point read seeks to one record instead of
decoding a whole shard:

* :class:`LogStore` -- a single append-only **record log** per store
  root.  Records are length-prefixed, CRC32-checksummed JSON frames
  (results *and* :class:`~repro.engine.artifact.CompiledLineage`
  artifacts); an in-memory ``key -> (offset, length, stamp)`` index is
  rebuilt by one sequential scan on open, and point reads seek straight
  to the record -- no shard rewrite, no full deserialization of
  anything but the requested entry.  A ``flush`` appends the buffered
  records in one write (the *ack point*: everything acked survives a
  crash), eviction appends **tombstones** instead of rewriting, and a
  queue-then-drain background worker **compacts** the log (rewrite live
  records into a fresh log, drop tombstoned/evicted/superseded ones)
  when the garbage ratio crosses a threshold.

* **single-writer / multi-reader locking** -- the writer holds an
  advisory ``flock`` on ``writer.lock``; a second writer fails fast
  with :class:`StoreLockedError`.  Readers (``mode="ro"``) take no lock
  at all: the log is append-only and compaction replaces it atomically,
  so a reader always sees a *consistent prefix* -- a torn or
  not-yet-complete tail frame simply ends the log early, and
  :meth:`LogStore.refresh` picks up newly acked records incrementally.
  ``mode="auto"`` tries to become the writer and degrades to a reader,
  which is how several serving processes share one store directory.
  A reader creates nothing: on a missing directory it reads as empty
  until a writer creates the log.

* :func:`open_store` -- the factory behind the CLI's ``--store DIR``;
  :func:`migrate_store` is the one-shot ``repro cache migrate`` copy,
  from a legacy shard directory (read through
  :class:`~repro.engine.store.DiskStore`) or another log store.

Whoever opens a store closes it (:meth:`LogStore.close`, or a ``with``
block): an engine or service handed a store never closes it.

On-disk format of one log (``store.log``)::

    8 bytes   magic  b"RLOG" + version (big-endian u32)
    repeated  frame: u32 payload length | u32 CRC32(payload) | payload
    payload   JSON: {"k": "r"|"a"|"tr"|"ta", "key": <encoded key>,
                     "s": <stamp>, "v": <encoded entry>}

``"r"``/``"a"`` carry a result / artifact put; ``"tr"``/``"ta"`` are
tombstones (eviction); later records for a key supersede earlier ones.
Corruption handling mirrors the store tier's contract -- never raise on
damaged data: a frame whose checksum fails is skipped (the CRC makes a
bit-flipped ``Fraction`` detectable, so a corrupted value can never be
*served*), a frame that runs past end-of-file is a torn tail and ends
the scan, and the writer truncates the torn bytes so the next append
re-establishes a clean log.
"""

from __future__ import annotations

import json
import os
import queue
import struct
import threading
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.artifact import CompiledLineage, decode_artifact, \
    encode_artifact
from repro.engine.cache import CachedAttribution, ResultKey
from repro.engine.canonical import CanonicalKey
from repro.engine.store import (
    CacheStore,
    decode_canonical_key,
    decode_entry,
    decode_key,
    encode_canonical_key,
    encode_entry,
    encode_key,
)
from repro.reliability import faults
from repro.reliability.errors import TransientStoreError

#: Log file magic: b"RLOG" + format version.  Bumped on any incompatible
#: frame/payload change; a log recording a different version is treated
#: as empty by readers (and rotated aside by a writer) -- never crashed on.
LOG_FORMAT_VERSION = 1
_MAGIC = b"RLOG" + struct.pack(">I", LOG_FORMAT_VERSION)

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)

#: Upper bound on a single record; a length prefix beyond it means the
#: framing itself is damaged (resynchronization is impossible), so the
#: scan stops there -- the torn-tail case.
_MAX_RECORD_BYTES = 256 * 1024 * 1024

_LOG_NAME = "store.log"
_LOCK_NAME = "writer.lock"
_COMPACT_PREFIX = ".compact-"


class StoreLockedError(RuntimeError):
    """Another open writer already holds the store's writer lock."""


class _Record:
    """One live record's location in the log (index value)."""

    __slots__ = ("offset", "length", "stamp")

    def __init__(self, offset: int, length: int, stamp: int) -> None:
        self.offset = offset          # frame start (header included)
        self.length = length          # payload length
        self.stamp = stamp

    @property
    def frame_bytes(self) -> int:
        return _HEADER.size + self.length


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _encode_payload(kind: str, key: str, stamp: int,
                    value: Optional[Dict[str, object]] = None) -> bytes:
    document: Dict[str, object] = {"k": kind, "key": key, "s": stamp}
    if value is not None:
        document["v"] = value
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


class _CompactionWorker(threading.Thread):
    """Queue-then-drain background compactor (one per writing LogStore).

    ``flush`` enqueues a token when the garbage threshold is crossed;
    the worker drains the queue and runs one compaction per token batch.
    The queue-then-drain shape keeps the policy trivial: triggers
    arriving while a compaction runs coalesce into at most one more run.
    """

    def __init__(self, store: "LogStore") -> None:
        super().__init__(name=f"logstore-compact:{store.path}", daemon=True)
        self._store = store
        self.requests: "queue.Queue[Optional[object]]" = queue.Queue()

    def run(self) -> None:
        stopping = False
        while not stopping:
            token = self.requests.get()
            if token is None:
                return
            # Drain bursts: N triggers while busy collapse to one run.  A
            # sentinel queued behind them stops the worker only after the
            # compaction they already asked for.
            try:
                while not stopping:
                    stopping = self.requests.get_nowait() is None
            except queue.Empty:
                pass
            try:
                self._store.compact()
            except Exception:
                # A failed background compaction must never kill the
                # worker (or the process); the log stays valid as-is and
                # the next threshold crossing retries.
                pass


class LogStore:
    """Append-only, checksummed, point-read :class:`CacheStore` backend.

    Parameters
    ----------
    path:
        Store root directory.  A writer creates it if missing; a
        ``"ro"`` store creates no directory and no file.
    max_entries / max_artifacts:
        Per-kind live-entry bounds; flushing past them appends
        tombstones for the oldest stamps (the physical bytes are
        reclaimed by the next compaction).
    mode:
        ``"rw"`` (default) acquires the exclusive writer lock, raising
        :class:`StoreLockedError` if another writer holds it; ``"ro"``
        opens read-only (puts are counted in ``dropped_writes`` and
        dropped -- a reading serving process keeps working, it just
        cannot write back); ``"auto"`` tries ``rw`` and falls back to
        ``"ro"`` so a fleet of identical processes elects one writer.
    fsync:
        When true, :meth:`flush` fsyncs the log so acked records survive
        an *operating-system* crash, not just a process crash.  Defaults
        to ``False``: acked records survive a process crash.
    auto_compact:
        Schedule a background compaction whenever a flush leaves more
        garbage than live bytes in the log (``compact_ratio``).
    compact_ratio:
        Garbage-to-live byte ratio that triggers auto-compaction.
    """

    def __init__(self, path: str, max_entries: int = 65_536,
                 max_artifacts: int = 4_096, mode: str = "rw",
                 fsync: bool = False, auto_compact: bool = True,
                 compact_ratio: float = 1.0) -> None:
        if max_entries < 1 or max_artifacts < 1:
            raise ValueError("store capacity must be positive")
        if mode not in ("rw", "ro", "auto"):
            raise ValueError(f"mode must be 'rw', 'ro' or 'auto', "
                             f"not {mode!r}")
        if compact_ratio <= 0:
            raise ValueError("compact_ratio must be positive")
        self.path = path
        self.max_entries = max_entries
        self.max_artifacts = max_artifacts
        self.fsync = fsync
        self.auto_compact = auto_compact
        self.compact_ratio = compact_ratio
        if mode != "ro":
            os.makedirs(path, exist_ok=True)

        self._lock = threading.RLock()
        self._index: Dict[str, _Record] = {}        # results
        self._tree_index: Dict[str, _Record] = {}   # artifacts
        #: Buffered puts awaiting flush: key -> (payload, stamp, decoded).
        self._pending: Dict[str, Tuple[bytes, int, CachedAttribution]] = {}
        self._tree_pending: Dict[str, Tuple[bytes, int, CompiledLineage]] = {}
        self._stamp = 0
        self._valid_end = len(_MAGIC)
        self._alien = False
        self._inode: Optional[int] = None
        self.live_bytes = 0
        self.garbage_bytes = 0
        self.corrupt_records = 0
        self.truncated_bytes = 0
        self.dropped_writes = 0
        self.compactions = 0
        self.reclaimed_bytes = 0
        #: Bytes appended by :meth:`flush`: records and eviction tombstones.
        self.bytes_flushed = 0
        self.gets = 0
        self.puts = 0

        self._lock_fd: Optional[int] = None
        self._read_fd = None
        self._append_fd = None
        self._worker: Optional[_CompactionWorker] = None

        self.mode = self._acquire_role(mode)
        if self.mode == "rw":
            self._writer_open()
        self._open_reader()
        self._scan(full=True)
        if self.mode == "rw" and self._valid_end < self._file_size():
            # Truncate the torn tail so appended records stay reachable
            # (a scan stops at the first damaged frame).
            self.truncated_bytes += self._file_size() - self._valid_end
            with open(self._log_path(), "r+b") as handle:
                handle.truncate(self._valid_end)
            self._reopen_files()

    # -- paths, locking, file plumbing --------------------------------- #

    def _log_path(self) -> str:
        return os.path.join(self.path, _LOG_NAME)

    def _file_size(self) -> int:
        try:
            return os.path.getsize(self._log_path())
        except OSError:
            return 0

    def _acquire_role(self, mode: str) -> str:
        if mode == "ro":
            return "ro"
        import fcntl

        fd = os.open(os.path.join(self.path, _LOCK_NAME),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            if mode == "auto":
                return "ro"
            raise StoreLockedError(
                f"the writer lock on {self.path!r} is held by another "
                "process or by a LogStore still open in this one (close "
                "it first); open with mode='ro' (or mode='auto') to read "
                "alongside the single writer") from None
        self._lock_fd = fd
        return "rw"

    def _writer_open(self) -> None:
        # Clean up temp files a crashed compaction left behind, then make
        # sure the log exists and leads with the right magic.  An alien
        # or wrong-version file is rotated out of the way (never parsed,
        # never appended to) -- the store starts empty.
        for name in os.listdir(self.path):
            if name.startswith(_COMPACT_PREFIX):
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
        log_path = self._log_path()
        if os.path.exists(log_path):
            with open(log_path, "rb") as handle:
                magic = handle.read(len(_MAGIC))
            if magic != _MAGIC and magic != b"":
                self.corrupt_records += 1
                os.replace(log_path, log_path + ".alien")
        if not os.path.exists(log_path) or os.path.getsize(log_path) == 0:
            with open(log_path, "wb") as handle:
                handle.write(_MAGIC)
        self._append_fd = open(log_path, "ab")

    def _open_reader(self) -> None:
        if self._read_fd is not None:
            try:
                self._read_fd.close()
            except OSError:
                pass
            self._read_fd = None
        try:
            self._read_fd = open(self._log_path(), "rb")
            self._inode = os.fstat(self._read_fd.fileno()).st_ino
        except OSError:
            self._read_fd = None
            self._inode = None

    def _reopen_files(self) -> None:
        if self._append_fd is not None:
            try:
                self._append_fd.close()
            except OSError:
                pass
            self._append_fd = open(self._log_path(), "ab")
        self._open_reader()

    def close(self) -> None:
        """Flush, stop the compaction worker, release the writer lock."""
        with self._lock:
            if self.mode == "rw":
                self.flush()
            worker = self._worker
            self._worker = None
        if worker is not None:
            worker.requests.put(None)
            worker.join(timeout=30)
        with self._lock:
            for handle in (self._read_fd, self._append_fd):
                if handle is not None:
                    try:
                        handle.close()
                    except OSError:
                        pass
            self._read_fd = self._append_fd = None
            if self._lock_fd is not None:
                try:
                    os.close(self._lock_fd)  # releases the flock
                except OSError:
                    pass
                self._lock_fd = None

    def __enter__(self) -> "LogStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scanning (index rebuild, torn-tail handling) ------------------- #

    def _apply_record(self, document: Dict[str, object], offset: int,
                      length: int) -> None:
        kind = document.get("k")
        key = document.get("key")
        stamp = int(document.get("s", 0))
        frame = _HEADER.size + length
        if stamp > self._stamp:
            self._stamp = stamp
        if not isinstance(key, str):
            raise ValueError("record without a key")
        if kind in ("r", "a"):
            index = self._index if kind == "r" else self._tree_index
            old = index.get(key)
            if old is not None:
                self.garbage_bytes += old.frame_bytes
                self.live_bytes -= old.frame_bytes
            index[key] = _Record(offset, length, stamp)
            self.live_bytes += frame
        elif kind in ("tr", "ta"):
            index = self._index if kind == "tr" else self._tree_index
            old = index.pop(key, None)
            if old is not None:
                self.garbage_bytes += old.frame_bytes
                self.live_bytes -= old.frame_bytes
            self.garbage_bytes += frame
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def _scan(self, full: bool = False) -> None:
        """(Re)build the index by scanning frames from ``_valid_end``.

        ``full=True`` restarts from the top of the file.  A frame whose
        checksum or JSON fails is *skipped* (counted, its bytes are
        garbage); a frame that cannot complete (header or payload runs
        past end-of-file, or an absurd length prefix) is the torn tail
        and ends the scan -- everything before it is the consistent
        prefix readers serve.
        """
        if self._read_fd is None:
            self._open_reader()
            if self._read_fd is None:
                return
        handle = self._read_fd
        if full:
            self._index.clear()
            self._tree_index.clear()
            self.live_bytes = 0
            self.garbage_bytes = 0
            handle.seek(0)
            magic = handle.read(len(_MAGIC))
            # Alien, wrong-version or empty file: nothing readable.  An
            # alien one stays unread until a writer replaces it.
            self._alien = magic not in (_MAGIC, b"")
            if magic != _MAGIC:
                self.corrupt_records += self._alien
                self._valid_end = len(_MAGIC)
                return
            position = len(_MAGIC)
        elif self._alien:
            return
        else:
            position = self._valid_end
            handle.seek(position)
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            length, checksum = _HEADER.unpack(header)
            if length > _MAX_RECORD_BYTES:
                # Framing damage: impossible to resynchronize.
                break
            payload = handle.read(length)
            if len(payload) < length:
                break  # torn tail
            frame_end = position + _HEADER.size + length
            if zlib.crc32(payload) != checksum:
                self.corrupt_records += 1
                self.garbage_bytes += _HEADER.size + length
                position = frame_end
                continue
            try:
                document = json.loads(payload.decode("utf-8"))
                self._apply_record(document, position, length)
            except (ValueError, KeyError, TypeError,
                    UnicodeDecodeError):
                self.corrupt_records += 1
                self.garbage_bytes += _HEADER.size + length
            position = frame_end
        self._valid_end = position

    def refresh(self) -> None:
        """Pick up records acked since the last scan (readers call this).

        Incremental: only the log's new tail is scanned.  Detects a
        compaction (the log file was atomically replaced) or an external
        truncation and falls back to a full rescan of the new file.
        """
        with self._lock:
            self._refresh_locked()

    def _refresh_locked(self) -> None:
        try:
            stat = os.stat(self._log_path())
        except OSError:
            return
        if stat.st_ino != self._inode or stat.st_size < self._valid_end:
            self._open_reader()
            self._valid_end = len(_MAGIC)
            self._scan(full=True)
        elif stat.st_size > self._valid_end:
            self._scan(full=False)

    # -- point reads ---------------------------------------------------- #

    def _read_payload(self, record: _Record) -> Optional[Dict[str, object]]:
        """Seek-and-read one record; ``None`` if it fails verification."""
        handle = self._read_fd
        if handle is None:
            return None
        try:
            handle.seek(record.offset)
            blob = handle.read(_HEADER.size + record.length)
            length, checksum = _HEADER.unpack(blob[:_HEADER.size])
            payload = blob[_HEADER.size:]
            if length != record.length or zlib.crc32(payload) != checksum:
                raise ValueError("checksum mismatch")
            return json.loads(payload.decode("utf-8"))
        except (OSError, ValueError, KeyError, struct.error,
                UnicodeDecodeError):
            # Post-open damage (or a reader racing an external rewrite):
            # never serve bytes that fail verification.
            self.corrupt_records += 1
            return None

    def get(self, key: ResultKey) -> Optional[CachedAttribution]:
        faults.check("store.read")
        encoded = encode_key(key)
        with self._lock:
            self.gets += 1
            pending = self._pending.get(encoded)
            if pending is not None:
                return pending[2]
            record = self._index.get(encoded)
            if record is None and self.mode == "ro":
                # A reader misses: the writer may have acked the entry
                # since our last scan -- pick up the new tail first.
                self._refresh_locked()
                record = self._index.get(encoded)
            if record is None:
                return None
            document = self._read_payload(record)
            if document is None or document.get("k") != "r":
                self._drop(self._index, encoded)
                return None
            try:
                return decode_entry(document["v"])
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                self.corrupt_records += 1
                self._drop(self._index, encoded)
                return None

    def get_artifact(self, key: CanonicalKey) -> Optional[CompiledLineage]:
        encoded = encode_canonical_key(key)
        with self._lock:
            pending = self._tree_pending.get(encoded)
            if pending is not None:
                return pending[2]
            record = self._tree_index.get(encoded)
            if record is None and self.mode == "ro":
                self._refresh_locked()
                record = self._tree_index.get(encoded)
            if record is None:
                return None
            document = self._read_payload(record)
            if document is None or document.get("k") != "a":
                self._drop(self._tree_index, encoded)
                return None
            try:
                # decode_artifact runs the structural tree validation, so
                # a tampered artifact is discarded here, never evaluated.
                return decode_artifact(document["v"])
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                self.corrupt_records += 1
                self._drop(self._tree_index, encoded)
                return None

    def _drop(self, index: Dict[str, _Record], encoded: str) -> None:
        record = index.pop(encoded, None)
        if record is not None:
            self.live_bytes -= record.frame_bytes
            self.garbage_bytes += record.frame_bytes

    # -- buffered writes and the flush ack point ------------------------ #

    def put(self, key: ResultKey, value: CachedAttribution) -> None:
        if self.mode == "ro":
            with self._lock:
                self.dropped_writes += 1
            return
        encoded = encode_key(key)
        with self._lock:
            self.puts += 1
            self._stamp += 1
            payload = _encode_payload("r", encoded, self._stamp,
                                      encode_entry(value))
            self._pending[encoded] = (payload, self._stamp, value)

    def put_artifact(self, key: CanonicalKey,
                     value: CompiledLineage) -> None:
        if self.mode == "ro":
            with self._lock:
                self.dropped_writes += 1
            return
        encoded = encode_canonical_key(key)
        with self._lock:
            self._stamp += 1
            payload = _encode_payload("a", encoded, self._stamp,
                                      encode_artifact(value))
            self._tree_pending[encoded] = (payload, self._stamp, value)

    def flush(self) -> None:
        """Append every buffered record in one write -- the ack point.

        After ``flush`` returns, the records are in the operating
        system's page cache (surviving a process crash) and, with
        ``fsync=True``, on stable storage.  Eviction past the per-kind
        bounds appends tombstones for the oldest stamps; physical bytes
        are reclaimed by compaction, which this flush schedules on the
        background worker when the garbage ratio crosses the threshold.

        A *failed* append (ENOSPC, EIO, an injected fault) raises
        :class:`~repro.reliability.errors.TransientStoreError` after
        truncating the file back to the last ack point, so a partial
        write can never desynchronize future record offsets; the pending
        buffer is left intact, so a retried flush after the fault clears
        acks everything.  Nothing is ever indexed -- and therefore never
        served -- from a write that did not fully succeed.
        """
        if self.mode == "ro":
            return
        with self._lock:
            if not self._pending and not self._tree_pending:
                self._maybe_schedule_compaction()
                return
            chunks: List[bytes] = []
            placed: List[Tuple[Dict[str, _Record], str, int, int, int]] = []
            position = self._valid_end
            for index, pending in ((self._index, self._pending),
                                   (self._tree_index, self._tree_pending)):
                for encoded, (payload, stamp, _val) in sorted(
                        pending.items(), key=lambda item: item[1][1]):
                    frame = _frame(payload)
                    chunks.append(frame)
                    placed.append((index, encoded, position, len(payload),
                                   stamp))
                    position += len(frame)
            self._append_bytes(b"".join(chunks))
            for index, encoded, offset, length, stamp in placed:
                old = index.get(encoded)
                if old is not None:
                    self.garbage_bytes += old.frame_bytes
                    self.live_bytes -= old.frame_bytes
                index[encoded] = _Record(offset, length, stamp)
                self.live_bytes += _HEADER.size + length
            self._valid_end = position
            self._pending.clear()
            self._tree_pending.clear()
            self._evict_locked()
            self._maybe_schedule_compaction()

    def _evict_locked(self) -> None:
        tombstones: List[bytes] = []
        for index, bound, kind in ((self._index, self.max_entries, "tr"),
                                   (self._tree_index, self.max_artifacts,
                                    "ta")):
            excess = len(index) - bound
            if excess <= 0:
                continue
            oldest = sorted(index.items(),
                            key=lambda item: item[1].stamp)[:excess]
            for encoded, record in oldest:
                del index[encoded]
                self.live_bytes -= record.frame_bytes
                self.garbage_bytes += record.frame_bytes
                self._stamp += 1
                tombstones.append(
                    _frame(_encode_payload(kind, encoded, self._stamp)))
        if tombstones:
            blob = b"".join(tombstones)
            self._append_bytes(blob)
            self.garbage_bytes += len(blob)
            self._valid_end += len(blob)

    def _append_bytes(self, blob: bytes) -> None:
        """One guarded append; callers hold the lock.

        The ``store.flush`` fault site lives inside the guard so injected
        I/O errors exercise exactly the recovery path a real ENOSPC
        takes: truncate back to ``_valid_end`` (a partial write may have
        left bytes past the ack point), reopen the handles, and raise
        :class:`TransientStoreError` with the cause attached.  Injected
        non-``OSError`` faults (e.g. ``StoreLockedError``) propagate
        unwrapped, as the real ones would.
        """
        try:
            faults.check("store.flush")
            self._append_fd.write(blob)
            self._append_fd.flush()
            if self.fsync:
                os.fsync(self._append_fd.fileno())
        except OSError as error:
            self._truncate_to_ack_point()
            raise TransientStoreError(
                f"log append of {len(blob)} byte(s) failed: {error}"
            ) from error
        self.bytes_flushed += len(blob)

    def _truncate_to_ack_point(self) -> None:
        """Best-effort: cut the file back to the last consistent prefix."""
        try:
            with open(self._log_path(), "r+b") as handle:
                handle.truncate(self._valid_end)
        except OSError:
            # Even truncation failing is safe: readers stop at the first
            # torn frame, and the writer's next successful append is
            # re-pointed at _valid_end by the reopened handle below only
            # if the truncate landed -- otherwise the stale bytes remain
            # and the scan-side torn-tail repair handles them on reopen.
            pass
        self._reopen_files()

    # -- compaction ----------------------------------------------------- #

    def _maybe_schedule_compaction(self) -> None:
        if (not self.auto_compact or self.mode != "rw"
                or self.garbage_bytes
                <= self.compact_ratio * max(1, self.live_bytes)):
            return
        if self._worker is None:
            self._worker = _CompactionWorker(self)
            self._worker.start()
        if self._worker.requests.empty():
            self._worker.requests.put(object())

    def compact(self) -> int:
        """Rewrite live records into a fresh log; returns bytes reclaimed.

        Crash-safe: the new log is written to a temp file in the store
        directory, fsynced, and atomically ``os.replace``d over the old
        one -- a writer killed mid-compaction leaves the previous log
        fully intact (stale temp files are cleaned on the next writer
        open).  Readers with an open handle keep reading the replaced
        inode; their next :meth:`refresh` notices the new file and
        rescans.  Thread-safe against concurrent puts/gets on this
        handle (the background worker calls this under load).
        """
        if self.mode == "ro":
            raise StoreLockedError(
                "a read-only store handle cannot compact; open the "
                "writer handle")
        with self._lock:
            if self._pending or self._tree_pending:
                self.flush()
            before = self._file_size()
            temp_path = os.path.join(
                self.path, f"{_COMPACT_PREFIX}{os.getpid()}.log")
            records: List[Tuple[Dict[str, _Record], str, _Record, bytes]] = []
            for index in (self._index, self._tree_index):
                for encoded, record in index.items():
                    handle = self._read_fd
                    handle.seek(record.offset)
                    blob = handle.read(record.frame_bytes)
                    length, checksum = _HEADER.unpack(blob[:_HEADER.size])
                    payload = blob[_HEADER.size:]
                    if (length != record.length
                            or zlib.crc32(payload) != checksum):
                        # Unreadable live record: drop it rather than
                        # carrying damage into the compacted log.
                        self.corrupt_records += 1
                        continue
                    records.append((index, encoded, record, blob))
            try:
                with open(temp_path, "wb") as temp:
                    temp.write(_MAGIC)
                    position = len(_MAGIC)
                    offsets: List[int] = []
                    for _index, _encoded, record, blob in records:
                        temp.write(blob)
                        offsets.append(position)
                        position += len(blob)
                    temp.flush()
                    os.fsync(temp.fileno())
                os.replace(temp_path, self._log_path())
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            # Point the index at the new file's offsets.
            for (index, encoded, record, blob), offset in zip(records,
                                                              offsets):
                index[encoded] = _Record(offset, len(blob) - _HEADER.size,
                                         record.stamp)
            self._valid_end = position
            self.live_bytes = position - len(_MAGIC)
            self.garbage_bytes = 0
            self._reopen_files()
            reclaimed = max(0, before - self._file_size())
            self.compactions += 1
            self.reclaimed_bytes += reclaimed
            return reclaimed

    # -- iteration, sizing, stats --------------------------------------- #

    def items(self) -> Iterator[Tuple[ResultKey, CachedAttribution]]:
        """Iterate every live result (pending writes included).

        The key snapshot is taken under the lock; records are then read
        one by one, so consumers may interleave ``get``/``put`` calls.
        """
        yield from self._live(self._index, self._pending, decode_key,
                              self.get)

    def artifact_items(self) -> Iterator[Tuple[CanonicalKey,
                                               CompiledLineage]]:
        """Iterate every live compiled-lineage artifact, like :meth:`items`."""
        yield from self._live(self._tree_index, self._tree_pending,
                              decode_canonical_key, self.get_artifact)

    def _live(self, index, pending, decode, read) -> Iterator[tuple]:
        with self._lock:
            if self.mode == "ro":
                self._refresh_locked()
            encoded_keys = list(index) + [key for key in pending
                                          if key not in index]
        for encoded in encoded_keys:
            try:
                key = decode(encoded)
            except ValueError:
                continue
            value = read(key)
            if value is not None:
                yield key, value

    def __len__(self) -> int:
        with self._lock:
            if not self._pending:
                return len(self._index)
            return len(self._index.keys() | self._pending.keys())

    def artifact_count(self) -> int:
        """Number of live compiled-lineage artifacts."""
        with self._lock:
            if not self._tree_pending:
                return len(self._tree_index)
            return len(self._tree_index.keys() | self._tree_pending.keys())

    def stats(self) -> Dict[str, object]:
        """Log-level counters plus the per-kind entry counts."""
        with self._lock:
            entries = len(self)
            artifacts = self.artifact_count()
            disk_bytes = self._file_size()
            return {
                "backend": "log",
                "path": self.path,
                "format_version": LOG_FORMAT_VERSION,
                "mode": self.mode,
                "entries": entries,
                "max_entries": self.max_entries,
                "disk_bytes": disk_bytes,
                "live_bytes": self.live_bytes,
                "garbage_bytes": self.garbage_bytes,
                "corrupt_records": self.corrupt_records,
                "truncated_bytes": self.truncated_bytes,
                "dropped_writes": self.dropped_writes,
                "compactions": self.compactions,
                "reclaimed_bytes": self.reclaimed_bytes,
                "bytes_flushed": self.bytes_flushed,
                "kinds": {
                    "results": {"entries": entries,
                                "max_entries": self.max_entries},
                    "compiled_trees": {"entries": artifacts,
                                       "max_entries": self.max_artifacts},
                },
            }


# --------------------------------------------------------------------- #
# Opening and migration
# --------------------------------------------------------------------- #


def open_store(path: str, max_entries: int = 65_536,
               **options) -> LogStore:
    """Open the :class:`LogStore` rooted at ``path`` (the CLI's factory).

    ``options`` go to :class:`LogStore` (e.g. ``mode="auto"`` for a
    store that elects a single writer).  The caller closes the store.
    """
    return LogStore(path, max_entries=max_entries, **options)


def migrate_store(source: CacheStore, destination: CacheStore
                  ) -> Tuple[int, int]:
    """Copy every result and artifact from ``source`` to ``destination``.

    The one-shot ``repro cache migrate`` path: a legacy shard directory
    (read through :class:`~repro.engine.store.DiskStore`, which never
    writes) or another log store is drained into a :class:`LogStore`
    without recomputing anything.  Entries stream one at a time -- the
    migration never holds more than one decoded record beyond the
    destination's write buffer.  Returns ``(results, artifacts)``
    copied; the destination is flushed.
    """
    results = 0
    for key, value in source.items():
        destination.put(key, value)
        results += 1
    artifacts = 0
    for key, artifact in source.artifact_items():
        destination.put_artifact(key, artifact)
        artifacts += 1
    destination.flush()
    return results, artifacts


__all__ = [
    "LOG_FORMAT_VERSION",
    "LogStore",
    "StoreLockedError",
    "migrate_store",
    "open_store",
]
