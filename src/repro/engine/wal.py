"""Durability: write-ahead log, atomic checkpoints, crash recovery.

The write path of :mod:`repro.engine.catalog` becomes durable when a
database is opened with ``Database(path=...)``.  Three cooperating
pieces live here:

**Write-ahead log.**  An append-only file of length-prefixed,
CRC32-checksummed records.  Every writing SQL statement (as its text),
programmatic DDL operation and delta merge is logged *before* it mutates
in-memory state.  A programmatic ``create_table``/``replace_table``
first writes its columns, as a checkpoint writes them, into a fresh
``load-NNNNNN`` directory that its record names; the next checkpoint
retires the directory with the log.  The frame is::

    file   := MAGIC record*
    record := u32 payload_len | u32 crc32(payload) | payload
    payload:= u8 kind | body            (kind 1: JSON; kind 2: JSON+blob)

Kind 2, a create/replace as one npz blob, is only read: older writers wrote it.

``wal_sync`` picks the fsync policy: ``commit`` (fsync every record —
the default), ``batch`` (fsync every ``wal_batch`` records) or ``off``
(leave it to the OS).  What survives a crash is exactly the prefix up
to the last fsync, plus whatever the OS happened to flush.

**Checkpoints.**  :func:`write_checkpoint` serialises every table's
columnar main (raw per-part ``.npy`` files per column through the
:mod:`repro.storage.layouts` seam, a STRING column as its codes and
dictionary) and its
cached zone maps into a numbered ``checkpoint-NNNNNN``
directory.  The manifest is written last via write-temp-then-
``os.replace``, so a directory with a readable manifest is complete by
construction; the ``CURRENT`` pointer file is swapped the same way.
Each checkpoint owns its own log file ``wal-NNNNNN.log`` — switching
log files instead of truncating in place means there is no instant at
which a crash could pair the *new* checkpoint with the *old* (already
replayed) log and double-apply records.

**Recovery.**  Opening a durable database loads the newest *valid*
checkpoint (``CURRENT`` first, then any complete numbered directory,
newest first — a completed-but-unswapped directory left by a crash
mid-checkpoint is a correct recovery source) and replays its WAL.
Every record is CRC-verified: a torn **tail** — an incomplete frame, or
a CRC-invalid record that ends exactly at end-of-file, the signature of
a crash during the final append — is silently discarded and truncated
away.  A CRC failure with further bytes *after* the bad record is
mid-log corruption and raises :class:`~repro.errors.RecoveryError`.

Crash points (``wal_pre_fsync``, ``wal_post_append``,
``wal_torn_write``, ``crash_mid_checkpoint``, ``crash_mid_merge``) hook
into the PR-3 fault injector; when one fires the log is truncated to
what a power loss would have left durable and
:class:`~repro.resilience.SimulatedCrashError` is raised.  The metrics
family is ``wal.*`` / ``recovery.*`` / ``write.checkpoint*``.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import settings
from repro.engine.shards import ShardLayout
from repro.engine.statistics import ColumnZones, ZoneMap
from repro.engine.types import DataType
from repro.errors import RecoveryError, ReproError, WalError
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace
from repro.resilience import SimulatedCrashError, get_injector
from repro.storage import layouts

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.catalog import Database
    from repro.engine.table import Table

MAGIC = b"RPWAL001"
_FRAME = struct.Struct("<II")
_JLEN = struct.Struct("<I")
_KIND_JSON = 1
_KIND_BLOB = 2
#: frames claiming more than this are treated as garbage length fields
_MAX_RECORD = 1 << 31

#: Checkpoint format: v1 stored one ``.npz`` per column; v2 raw per-part
#: ``.npy`` files, so columns can be reopened as read-only ``np.memmap``
#: views (``PRAGMA storage=mmap``); v3 added a per-table "sharding"
#: manifest entry (mode, key, offsets, bounds).  v4, the one written,
#: stores a STRING column as its codes and dictionary, with no payload
#: part.  Every older format stays readable.
_FORMAT_VERSION = 4
_READABLE_FORMATS = (1, 2, 3, 4)


# -- record framing ----------------------------------------------------------------


def encode_record(meta: dict[str, Any]) -> bytes:
    """One framed WAL record: length, CRC, kind byte, JSON."""
    payload = bytes([_KIND_JSON]) + json.dumps(meta, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> tuple[dict[str, Any], bytes | None]:
    """A checked payload's JSON, plus the blob of an older writer's kind 2."""
    kind = payload[0]
    if kind == _KIND_JSON:
        return json.loads(payload[1:].decode("utf-8")), None
    if kind == _KIND_BLOB:
        (jlen,) = _JLEN.unpack_from(payload, 1)
        meta = json.loads(payload[5 : 5 + jlen].decode("utf-8"))
        return meta, payload[5 + jlen :]
    raise RecoveryError(f"unknown WAL record kind {kind}")


def read_wal(path: str | os.PathLike) -> tuple[list[tuple[dict[str, Any], bytes | None]], int]:
    """Every intact record of a WAL file, plus the byte length of that prefix.

    A torn tail (incomplete frame, or a CRC-bad record ending exactly at
    EOF) terminates the scan cleanly; the returned ``valid_bytes`` lets
    the writer truncate it away before appending.  A CRC-bad record
    *followed by further bytes* raises :class:`RecoveryError` — that is
    corruption in the middle of the durable history, not a crash
    artefact, and silently skipping it would replay a wrong state.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    size = len(data)
    if size < len(MAGIC):
        return [], 0
    if data[: len(MAGIC)] != MAGIC:
        raise RecoveryError(f"{path.name}: bad WAL magic header")
    records: list[tuple[dict[str, Any], bytes | None]] = []
    offset = len(MAGIC)
    while offset < size:
        if offset + _FRAME.size > size:
            break  # torn tail: incomplete frame header
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if length > _MAX_RECORD or end > size:
            break  # torn tail: payload runs past EOF (or garbage length)
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            if end == size:
                break  # torn tail: final record half-written
            raise RecoveryError(
                f"{path.name}: CRC mismatch at byte {offset} with "
                f"{size - end} bytes following (mid-log corruption)"
            )
        try:
            meta, blob = decode_payload(payload)
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(
                f"{path.name}: undecodable record at byte {offset}: {exc}"
            ) from exc
        records.append((meta, blob))
        offset = end
    return records, offset


# -- the log writer ----------------------------------------------------------------


class WriteAheadLog:
    """Appender for one WAL file, with power-loss emulation for tests.

    ``records_logged``/``durable_records`` count appends *of this
    session*; ``durable_records`` trails until the next fsync.  An
    injected crash truncates the file to the bytes known durable (last
    fsync) before raising, so the on-disk state is exactly what a real
    power loss at that instant could leave behind.
    """

    def __init__(self, path: str | os.PathLike, valid_bytes: int | None = None) -> None:
        self.path = Path(path)
        existed = self.path.exists()
        try:
            self._file = open(self.path, "r+b" if existed else "w+b")
        except OSError as exc:
            raise WalError(f"cannot open WAL file {self.path}: {exc}") from exc
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if valid_bytes is not None and valid_bytes < size:
            # discard a torn tail left by a crash mid-append
            self._file.truncate(valid_bytes)
            size = valid_bytes
        if size < len(MAGIC):
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(MAGIC)
            size = len(MAGIC)
        self._file.seek(size)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._size = size
        self._durable_bytes = size
        self._appends_since_sync = 0
        self._closed = False
        self.records_logged = 0
        self.durable_records = 0

    @property
    def size(self) -> int:
        """Bytes written (durable or not) including the magic header."""
        return self._size

    @property
    def durable_bytes(self) -> int:
        """Bytes guaranteed on disk as of the last fsync."""
        return self._durable_bytes

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, meta: dict[str, Any]) -> int:
        """Append one record (returns its index within this session).

        Honours the configured sync policy and the ``wal_*`` crash
        points; the record index keys the injector's deterministic draw.
        """
        if self._closed:
            raise WalError("write-ahead log is closed")
        frame = encode_record(meta)
        lsn = self.records_logged
        registry = get_registry()
        injector = get_injector()
        if injector is not None and injector.fires("wal_torn_write", ("wal", lsn)):
            torn = 1 + zlib.crc32(frame) % max(1, len(frame) - 1)
            self._file.write(frame[:torn])
            self._sync()  # the torn fragment did reach the platter
            self._die(f"torn write: {torn} of {len(frame)} bytes persisted")
        self._file.write(frame)
        self._file.flush()
        self._size += len(frame)
        self.records_logged += 1
        self._appends_since_sync += 1
        registry.counter("wal.appends").inc()
        registry.counter("wal.bytes").inc(len(frame))
        if injector is not None and injector.fires("wal_pre_fsync", ("wal", lsn)):
            self._die("crash after append, before fsync")
        config = settings.current
        if config.wal_sync == "commit" or (
            config.wal_sync == "batch" and self._appends_since_sync >= config.wal_batch
        ):
            self._sync()
        if injector is not None and injector.fires("wal_post_append", ("wal", lsn)):
            self._die("crash after append (and any policy fsync)")
        return lsn

    def _sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._durable_bytes = self._file.tell()
        self.durable_records = self.records_logged
        self._appends_since_sync = 0
        get_registry().counter("wal.fsyncs").inc()

    def _die(self, reason: str) -> None:
        # power-loss emulation: everything after the last fsync is gone
        self._file.flush()
        self._file.truncate(self._durable_bytes)
        self._file.close()
        self._closed = True
        raise SimulatedCrashError(f"injected crash in {self.path.name}: {reason}")

    def simulate_crash(self, reason: str) -> None:
        """Kill this log as an injected crash site outside :meth:`append`."""
        self._die(reason)

    def flush(self) -> None:
        """Force everything appended so far to disk (any sync policy)."""
        if self._closed:
            return
        if self._durable_bytes < self._size or self.durable_records < self.records_logged:
            self._sync()

    def close(self) -> None:
        """Flush (per :meth:`flush`) and close the file; idempotent."""
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True


# -- atomic file helpers -----------------------------------------------------------


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms that cannot open directories
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_write(path: Path, write) -> None:
    with open(path, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-temp-then-``os.replace``: readers see old bytes or new, never torn."""
    tmp = path.with_name(path.name + ".tmp")
    _fsync_write(tmp, lambda handle: handle.write(data))
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _copy_fsync(source: Path, target: Path) -> None:
    """Copy a file and flush the copy to disk before returning."""
    shutil.copyfile(source, target)
    with open(target, "rb+") as handle:
        os.fsync(handle.fileno())


# -- checkpoint serialisation ------------------------------------------------------


def _zones_to_manifest(
    table: "Table", zones: dict[int, ZoneMap]
) -> tuple[dict[str, Any] | None, dict[str, np.ndarray]]:
    """Split cached zone maps into JSON metadata and dense npz arrays.

    Zone-map arrays are keyed by *column index* (manifest column order),
    which keeps npz key parsing unambiguous for column names containing
    separators.  The metadata keeps the ``stats`` layout of the format:
    an older writer's per-column entries (``columns``, with a ``hist``
    flag and ``h{i}b``/``h{i}c`` histogram arrays) are no longer
    written, and the reader ignores them.
    """
    if not zones:
        return None, {}
    meta: dict[str, Any] = {"row_count": table.num_rows, "zone_maps": {}}
    arrays: dict[str, np.ndarray] = {}
    order = {name: i for i, name in enumerate(table.column_names)}
    for zone_rows, zone_map in zones.items():
        meta["zone_maps"][str(zone_rows)] = {
            "row_count": zone_map.row_count,
            "columns": [name for name in zone_map.columns if name in order],
        }
        for name, column_zones in zone_map.columns.items():
            if name not in order:
                continue
            prefix = f"z{zone_rows}_{order[name]}_"
            arrays[prefix + "min"] = column_zones.mins
            arrays[prefix + "max"] = column_zones.maxs
            arrays[prefix + "real"] = column_zones.real_counts
            arrays[prefix + "null"] = column_zones.null_counts
            arrays[prefix + "nan"] = column_zones.nan_counts
    return meta, arrays


def _zones_from_manifest(
    meta: dict[str, Any], arrays: dict[str, np.ndarray], table: "Table"
) -> dict[int, ZoneMap]:
    """The zone maps a manifest holds that summarise every numeric column
    of ``table``; one lacking a column (an older writer persisted a map
    an UPDATE had cut) is left for the first scan to rebuild."""
    order = {name: i for i, name in enumerate(table.column_names)}
    numeric = {name for name, dtype in table.schema.fields() if dtype.is_numeric}
    for name in meta.get("columns", {}):  # an older writer's column entries: unread
        if name not in order:  # damaged: the loader falls back to an older checkpoint
            raise KeyError(f"statistics for unknown column {name!r}")
    zones: dict[int, ZoneMap] = {}
    for zone_key, zone_meta in meta.get("zone_maps", {}).items():
        zone_rows = int(zone_key)
        zone_columns: dict[str, ColumnZones] = {}
        for name in zone_meta.get("columns", []):
            prefix = f"z{zone_rows}_{order[name]}_"
            zone_columns[name] = ColumnZones(
                mins=arrays[prefix + "min"],
                maxs=arrays[prefix + "max"],
                real_counts=arrays[prefix + "real"],
                null_counts=arrays[prefix + "null"],
                nan_counts=arrays[prefix + "nan"],
            )
        if numeric <= zone_columns.keys():
            zones[zone_rows] = ZoneMap(zone_rows, int(zone_meta["row_count"]), zone_columns)
    return zones


def checkpoint_dir_name(checkpoint_id: int) -> str:
    """The on-disk directory name of a numbered checkpoint."""
    return f"checkpoint-{checkpoint_id:06d}"


def wal_file_name(checkpoint_id: int) -> str:
    """The log file paired with a checkpoint (``wal-NNNNNN.log``)."""
    return f"wal-{checkpoint_id:06d}.log"


def _write_columns(directory: Path, table: "Table", prefix: str = "") -> list[dict[str, Any]]:
    """Write ``table``'s columns as part files named ``{prefix}c{i}.{part}.npy``
    under ``directory``; returns their manifest entries."""
    columns_meta = []
    for ci, column_name in enumerate(table.column_names):
        column = table.column(column_name)
        stem = f"{prefix}c{ci}"
        backing = column.backing
        if backing is not None and all(path.exists() for path in backing.paths().values()):
            # a mapped column IS its file bytes (copy-on-write keeps
            # it immutable), so writing it is a file copy — cold
            # data is never re-serialised, or even read
            files = {}
            for part, source in backing.paths().items():
                file_name = f"{stem}.{part}.npy"
                _copy_fsync(source, directory / file_name)
                files[part] = file_name
        else:
            files = layouts.save_column_files(directory, stem, column)
        dtype = table.schema.type_of(column_name).name
        columns_meta.append({"name": column_name, "dtype": dtype, "files": files})
    return columns_meta


def write_checkpoint(db: "Database", root: Path, checkpoint_id: int) -> Path:
    """Serialise every table (deltas already flushed) into a numbered dir.

    The manifest goes in last, atomically — its presence marks the
    directory complete.  The ``CURRENT`` swap is the *caller's* job, so
    a crash here leaves at worst an orphan directory.
    """
    directory = root / checkpoint_dir_name(checkpoint_id)
    if directory.exists():  # leftovers of a crashed earlier attempt
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    tables_meta = []
    for ti, name in enumerate(db.table_names()):
        table = db.main_table(name)
        columns_meta = _write_columns(directory, table, f"t{ti}_")
        stats_meta, stats_arrays = _zones_to_manifest(table, db._state(name).zones)
        stats_file = None
        if stats_arrays or stats_meta:
            stats_file = f"t{ti}_stats.npz"
            _fsync_write(
                directory / stats_file,
                lambda handle, _a=stats_arrays: np.savez(handle, **_a),
            )
        layout = db.shard_layout(name)
        tables_meta.append(
            {
                "name": name,
                "row_count": table.num_rows,
                "columns": columns_meta,
                "stats": stats_meta,
                "stats_file": stats_file,
                "sharding": layout.to_manifest() if layout is not None else None,
            }
        )
    manifest = {"format": _FORMAT_VERSION, "id": checkpoint_id, "tables": tables_meta}
    _atomic_write(directory / "MANIFEST.json", json.dumps(manifest, indent=1).encode())
    _fsync_dir(directory)
    return directory


def _open_table(directory: Path, columns_meta: list[dict[str, Any]], storage: str) -> "Table":
    """The table a manifest's or a load record's column entries list."""
    from repro.engine.table import Table

    columns = []
    for column_meta in columns_meta:
        dtype = DataType[column_meta["dtype"]]
        if "files" in column_meta:  # raw per-part files, mmap-able
            column = layouts.open_column_files(
                directory, column_meta["files"], dtype, mode=storage
            )
        else:  # checkpoint v1: one .npz per column, always materialised
            column = layouts.load_column(str(directory / column_meta["file"]), dtype)
        columns.append((column_meta["name"], column))
    return Table(columns)


def _load_checkpoint_dir(
    directory: Path, storage: str = "memory"
) -> list[tuple[str, "Table", dict[int, ZoneMap], dict | None]]:
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    if manifest.get("format") not in _READABLE_FORMATS:
        raise ValueError(f"unsupported checkpoint format {manifest.get('format')!r}")
    tables: list[tuple[str, Table, dict[int, ZoneMap], dict | None]] = []
    for table_meta in manifest["tables"]:
        table = _open_table(directory, table_meta["columns"], storage)
        zones: dict[int, ZoneMap] = {}
        if table_meta.get("stats") is not None:
            arrays: dict[str, np.ndarray] = {}
            if table_meta.get("stats_file"):
                with np.load(
                    str(directory / table_meta["stats_file"]), allow_pickle=False
                ) as npz:
                    arrays = {key: npz[key] for key in npz.files}
            zones = _zones_from_manifest(table_meta["stats"], arrays, table)
        tables.append((table_meta["name"], table, zones, table_meta.get("sharding")))
    return tables


def _checkpoint_id_of(name: str) -> int | None:
    prefix = "checkpoint-"
    if not name.startswith(prefix):
        return None
    try:
        return int(name[len(prefix) :])
    except ValueError:
        return None


def load_checkpoint(
    root: Path, storage: str = "memory"
) -> tuple[int, list[tuple[str, "Table", dict[int, ZoneMap], dict | None]]] | None:
    """The newest *valid* checkpoint under ``root``, or None.

    ``CURRENT`` is tried first; if it is missing or names a broken
    directory, every numbered directory is tried newest-first.  An
    orphan left by a crash between manifest write and ``CURRENT`` swap
    is a complete, correct recovery source (it already contains every
    record of the log it was meant to supersede).
    """
    candidates: list[str] = []
    current = root / "CURRENT"
    if current.exists():
        name = current.read_text().strip()
        if _checkpoint_id_of(name) is not None:
            candidates.append(name)
    numbered = sorted(
        (
            entry.name
            for entry in root.iterdir()
            if entry.is_dir() and _checkpoint_id_of(entry.name) is not None
        ),
        key=_checkpoint_id_of,
        reverse=True,
    )
    candidates.extend(name for name in numbered if name not in candidates)
    for name in candidates:
        directory = root / name
        try:
            tables = _load_checkpoint_dir(directory, storage)
        except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
            continue  # incomplete or damaged: fall back to an older one
        return _checkpoint_id_of(name), tables
    return None


# -- the durability manager --------------------------------------------------------

_REPLAY_OPS = frozenset({"sql", "create", "replace", "drop", "merge", "shard"})


class DurabilityManager:
    """One database's durable root: checkpoints, the live WAL, recovery."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WalError(f"cannot create durability root {self.root}: {exc}") from exc
        self.checkpoint_id = 0
        self.wal: WriteAheadLog | None = None
        self.last_recovery: dict[str, Any] = {}
        # merge scratch dirs holding remapped mains (mmap mode only);
        # retired by the next checkpoint, rebuilt by replay on recovery
        self._live_counter = 0
        self._live_dirs: dict[str, Path] = {}
        # the load dirs the live log names (recovery sources until the next
        # checkpoint), numbered past every one on disk so none is reused
        self._load_dirs: set[str] = set()
        loads = self.root.glob("load-" + "[0-9]" * 6 + "*")
        self._load_counter = max((int(path.name[5:11]) for path in loads), default=0)

    def wal_path(self, checkpoint_id: int | None = None) -> Path:
        """Path of the log paired with a checkpoint (default: the live one)."""
        if checkpoint_id is None:
            checkpoint_id = self.checkpoint_id
        return self.root / wal_file_name(checkpoint_id)

    # -- recovery -------------------------------------------------------------------

    def open_into(self, db: "Database") -> dict[str, Any]:
        """Load checkpoint + WAL into ``db`` and arm the log for appends."""
        loaded = load_checkpoint(self.root, settings.current.storage)
        tables: list[tuple[str, Any, dict[int, ZoneMap], dict | None]] = []
        if loaded is not None:
            self.checkpoint_id, tables = loaded
        for name, table, zones, sharding in tables:
            layout = ShardLayout.from_manifest(sharding) if sharding is not None else None
            db._install(name, table, zones=zones, layout=layout)
        records, valid_bytes = read_wal(self.wal_path())
        # arm the writer first: it truncates any torn tail away
        self.wal = WriteAheadLog(self.wal_path(), valid_bytes=valid_bytes)
        with trace(
            "recovery.replay", records=len(records), checkpoint=self.checkpoint_id
        ):
            replayed, failed = self.replay_into(db, records)
        self._cleanup()
        self.last_recovery = {
            "checkpoint": self.checkpoint_id if loaded is not None else None,
            "tables_restored": len(tables),
            "records_replayed": replayed,
            "records_failed": failed,
        }
        return self.last_recovery

    def replay_into(self, db: "Database", records) -> tuple[int, int]:
        """Re-apply recovered records; returns (replayed, failed) counts.

        Records are logged after statement validation, so a replay
        failure means the environment diverged (e.g. a config-dependent
        limit); it is counted and skipped rather than aborting recovery.
        """
        registry = get_registry()
        replayed = failed = 0
        db._replaying = True
        try:
            for meta, blob in records:
                op = meta.get("op")
                if op not in _REPLAY_OPS:
                    raise RecoveryError(f"unknown WAL operation {op!r}")
                if blob is not None:  # an older writer's whole-table npz blob
                    table = layouts.table_from_bytes(blob)
                elif op in ("create", "replace"):  # lost files are lost history: raise
                    if not (self.root / meta["dir"]).is_dir():
                        raise RecoveryError(f"{op} of {meta['table']!r}: no dir {meta['dir']!r}")
                    self._load_dirs.add(meta["dir"])
                    storage = settings.current.storage
                    table = _open_table(self.root / meta["dir"], meta["files"], storage)
                try:
                    if op == "sql":
                        db.execute(meta["stmt"])
                    elif op == "create":
                        db.create_table(meta["table"], table)
                    elif op == "replace":
                        db.replace_table(meta["table"], table)
                    elif op == "drop":
                        db.drop_table(meta["table"])
                    elif op == "merge":
                        if db.has_table(meta["table"]):
                            db.flush_deltas(meta["table"])
                    elif op == "shard":
                        if db.has_table(meta["table"]):
                            mode = meta.get("mode")
                            db.apply_sharding(
                                meta["table"],
                                int(meta.get("shards", 0)),
                                shard_by=(
                                    f"{mode}({meta['key']})" if mode else None
                                ),
                            )
                except ReproError:
                    failed += 1
                    continue
                replayed += 1
        finally:
            db._replaying = False
        registry.counter("recovery.records_replayed").inc(replayed)
        if failed:
            registry.counter("recovery.records_failed").inc(failed)
        return replayed, failed

    # -- checkpointing --------------------------------------------------------------

    def checkpoint(self, db: "Database") -> Path:
        """Write checkpoint ``id+1``, swap ``CURRENT``, retire the old log
        and the load dirs it names."""
        if self.wal is None:
            raise WalError("durability manager is not open")
        self.wal.flush()
        next_id = self.checkpoint_id + 1
        directory = write_checkpoint(db, self.root, next_id)
        new_wal_path = self.wal_path(next_id)
        if new_wal_path.exists():
            new_wal_path.unlink()
        new_wal = WriteAheadLog(new_wal_path)
        injector = get_injector()
        if injector is not None and injector.fires(
            "crash_mid_checkpoint", ("checkpoint", next_id)
        ):
            new_wal.close()
            # dir + new log exist, CURRENT still points at the old pair
            self.wal.simulate_crash(f"crash mid-checkpoint {next_id}")
        _atomic_write(self.root / "CURRENT", (directory.name + "\n").encode())
        old_wal, old_id = self.wal, self.checkpoint_id
        self.wal, self.checkpoint_id = new_wal, next_id
        old_wal.close()
        self._remove_pair(old_id)
        for name in self._load_dirs:  # named by the retired log only
            shutil.rmtree(self.root / name, ignore_errors=True)
        self._load_dirs.clear()
        get_registry().counter("write.checkpoints").inc()
        return directory

    def _write_dir(self, directory: Path, table: "Table") -> list[dict[str, Any]]:
        """Write ``table``'s columns as part files into a new ``directory``
        (write-temp, fsync, ``os.replace``); returns their manifest entries."""
        tmp = directory.with_name(directory.name + ".tmp")
        for leftover in (tmp, directory):  # stale dirs from a crashed session
            if leftover.exists():
                shutil.rmtree(leftover)
        tmp.mkdir(parents=True)
        columns = _write_columns(tmp, table)
        _fsync_dir(tmp)
        os.replace(tmp, directory)
        _fsync_dir(self.root)
        return columns

    def log_load(self, op: str, name: str, table: "Table") -> None:
        """Log a programmatic ``create``/``replace``: ``table``'s columns go
        to a fresh ``load-NNNNNN`` dir first, then a record names its files."""
        self._load_counter += 1
        directory = self.root / f"load-{self._load_counter:06d}"
        columns = self._write_dir(directory, table)
        self.wal.append({"op": op, "table": name, "dir": directory.name, "files": columns})
        self._load_dirs.add(directory.name)

    def spill_table(self, name: str, table: "Table") -> "Table":
        """Persist a rewritten main to a live scratch dir; reopen it mapped.

        When a memory-mapped main is rewritten by a delta merge, the
        checkpoint files backing the old main must stay untouched — they
        are the recovery source until the next checkpoint.  The merged
        table is therefore written to a ``live-NNNNNN`` directory
        (write-temp-then-``os.replace``) and reopened as read-only mmap
        views.  Live dirs are scratch: recovery rebuilds them by
        replaying the WAL's merge markers, and the next checkpoint (which
        re-homes the data into its own directory) retires them.
        """
        self._live_counter += 1
        final = self.root / f"live-{self._live_counter:06d}"
        table = _open_table(final, self._write_dir(final, table), "mmap")
        old = self._live_dirs.pop(name, None)
        self._live_dirs[name] = final
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)
        return table

    def release_live_dirs(self) -> None:
        """Drop merge scratch dirs (after a checkpoint re-homed the data)."""
        for path in self._live_dirs.values():
            shutil.rmtree(path, ignore_errors=True)
        self._live_dirs.clear()

    def crash_point(self, point: str, key: Any) -> None:
        """Fire an injected crash at a named durability site, if configured."""
        injector = get_injector()
        if injector is None or self.wal is None or self.wal.closed:
            return
        if injector.fires(point, (point, key)):
            self.wal.simulate_crash(point)

    # -- housekeeping ---------------------------------------------------------------

    def _remove_pair(self, checkpoint_id: int) -> None:
        try:
            shutil.rmtree(self.root / checkpoint_dir_name(checkpoint_id), ignore_errors=True)
            path = self.wal_path(checkpoint_id)
            if path.exists():
                path.unlink()
        except OSError:
            pass  # cleanup is best-effort; recovery tolerates leftovers

    def _cleanup(self) -> None:
        """Drop orphan checkpoint dirs / logs from crashed checkpoints, and
        load dirs no replayed record names."""
        live = set(self._live_dirs.values())
        for entry in list(self.root.iterdir()):
            if entry.is_dir():
                orphan = _checkpoint_id_of(entry.name)
                if orphan is not None and orphan != self.checkpoint_id:
                    shutil.rmtree(entry, ignore_errors=True)
                elif entry.name.startswith("live-") and entry not in live:
                    # merge scratch from a previous session; replay has
                    # already rebuilt any dirs still needed
                    shutil.rmtree(entry, ignore_errors=True)
                elif entry.name.startswith("load-") and entry.name not in self._load_dirs:
                    # its record never became durable, or a checkpoint retired it
                    shutil.rmtree(entry, ignore_errors=True)
            elif entry.name.startswith("wal-") and entry.name.endswith(".log"):
                if entry.name != wal_file_name(self.checkpoint_id):
                    try:
                        entry.unlink()
                    except OSError:
                        pass

    def status(self) -> dict[str, Any]:
        """Introspection for the shell's ``\\wal`` command and tests."""
        wal = self.wal
        return {
            "root": str(self.root),
            "checkpoint_id": self.checkpoint_id,
            "wal_file": wal_file_name(self.checkpoint_id),
            "wal_bytes": wal.size if wal is not None else 0,
            "durable_bytes": wal.durable_bytes if wal is not None else 0,
            "records_logged": wal.records_logged if wal is not None else 0,
            "durable_records": wal.durable_records if wal is not None else 0,
            "sync_policy": settings.current.wal_sync,
            "logging": settings.current.wal,
        }

    def close(self) -> None:
        """Flush and close the live WAL; idempotent."""
        if self.wal is not None:
            self.wal.close()
