"""Pluggable persistence backends for :class:`~repro.results.store.ResultStore`.

The store separates *semantics* (hash-dedupe, overwrite, batching,
queries — `store.py`) from *persistence* (this module).  A backend
implements the :class:`StoreBackend` contract:

* ``load()`` — read every durable row, recovering a torn tail (the
  signature of a writer killed mid-flush) by dropping it and compacting;
  corruption anywhere earlier raises, because silently skipping interior
  rows would misreport a sweep as complete.
* ``append(row)`` / ``append_many(rows)`` — durable appends (one fsync
  per call), never touching rows already on disk.
* ``rewrite(rows)`` — atomically compact the file(s) to exactly
  ``rows`` *plus* any durable rows written by another process since our
  load; the preserved strangers are returned so the caller can fold
  them into its in-memory index.  This read-reconcile-replace under the
  file lock is what makes a live ``repro serve`` appending while a CLI
  ``repro results --merge`` compacts lose nothing.

Every mutating operation (and every load) holds an advisory
``fcntl.flock`` on a ``.lock`` sidecar, so concurrent processes
serialize whole operations instead of interleaving bytes.  The lock
file sits *next to* the data (not on it) because ``rewrite`` replaces
the data file via ``os.replace`` — a lock on the replaced inode would
silently stop excluding anyone who opens the new one.

Two durable backends ship:

* :class:`JsonlBackend` — one JSON record per line.  Human-greppable,
  append-cheap, portable; a torn tail costs at most the final *line*.
  The right default for interactive sweeps and small stores.
* :class:`ColumnarBackend` — a ``.colstore`` directory of append-only
  shards, each one fixed-schema data file (``shard-NNNNNN.dat``,
  self-framing record batches of contiguous numpy column blocks) plus a
  JSONL string-table sidecar (``shard-NNNNNN.strings.jsonl``) holding
  the shard schema and every interned string (names, categorical
  values, error messages, spec/trace payloads).  A new shard starts
  whenever a batch brings columns the current schema lacks.  Reads map
  the data file with :func:`numpy.memmap` and decode whole columns at
  C speed; shard-to-store merges move column blocks wholesale (hash
  dedupe via ``np.isin``) without materialising Python rows — the
  fleet-scale ingest path.  A torn tail costs at most the final
  *batch*.
"""

from __future__ import annotations

import json
import os
import struct
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from repro import faults

try:  # advisory locking is POSIX-only; elsewhere operations are unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import ReproError, ResultStoreError
from repro.results.run_result import RunResult, is_worker_crash_error

PathLike = Union[str, "os.PathLike[str]"]

#: Path suffix that selects the columnar backend when ``backend="auto"``.
COLUMNAR_SUFFIX = ".colstore"

#: Frame marker opening every columnar record batch.
_BATCH_MAGIC = b"RPB1"
_BATCH_HEADER = struct.Struct("<4sIH")  # magic, n_rows, n_cols

# Per-column presence codes (one byte per column per batch).
_ABSENT_COL = 0   # no row of the batch has the key
_DENSE_COL = 1    # every row has a non-None value
_NONE_COL = 2     # every row has the key, every value is None
_MIXED_COL = 3    # two bitmaps (key-present, value-not-None) + data

# Per-column value kinds (one byte per column per batch).
_KIND_F8 = 0
_KIND_I8 = 1
_KIND_BOOL = 2
_KIND_STR = 3     # int32 index into the shard string table (-1 = None)
_KIND_HASH = 4    # fixed 64-byte ASCII field

_KIND_DTYPES = {
    _KIND_F8: np.dtype("<f8"),
    _KIND_I8: np.dtype("<i8"),
    _KIND_BOOL: np.dtype("u1"),
    _KIND_STR: np.dtype("<i4"),
    _KIND_HASH: np.dtype("S64"),
}

#: Implicit columns present in every columnar shard, before the
#: ``o:<override>`` and ``m:<metric>`` value columns.
_SPECIAL_COLUMNS = ("#hash", "#name", "#spec", "#traces", "#overflow")

_ABSENT = object()  # sentinel: the row's dict lacks the key entirely


def read_jsonl(
    path: str, decode: Callable[[Any], Any], noun: str
) -> Tuple[List[Any], bool]:
    """Decode every line of a JSONL file; returns (items, had_torn_tail).

    A bad *final* line (a writer killed mid-append) is dropped and
    reported so the caller can compact it away; a bad line anywhere
    earlier raises, naming it a corrupt ``noun``.  Shared by
    :class:`JsonlBackend` and the service's job log.
    """
    with open(path, "r", encoding="utf-8") as stream:
        lines = stream.readlines()
    items: List[Any] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            items.append(decode(json.loads(line)))
        except (json.JSONDecodeError, ReproError, TypeError) as error:
            if lineno == len(lines):
                return items, True
            raise ResultStoreError(
                f"{path}:{lineno}: corrupt {noun}: {error}"
            ) from error
    return items, False


def replace_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> None:
    """Atomically replace ``path`` with one JSON line per record: the
    temp file is fsynced before the rename, so a crash leaves the old
    file or the complete new one."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record) + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp_path, path)


class _FileLock:
    """A reentrant advisory lock on a sidecar file (no-op without fcntl)."""

    def __init__(self, path: str):
        self._path = path
        self._fd: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "_FileLock":
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            if self._fd is None:
                try:
                    os.makedirs(
                        os.path.dirname(self._path) or ".", exist_ok=True
                    )
                    self._fd = os.open(
                        self._path, os.O_CREAT | os.O_RDWR, 0o644
                    )
                except OSError:
                    # Read-only media: proceed unlocked rather than
                    # refusing to read at all.
                    return self
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None and fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class StoreBackend:
    """The persistence contract behind :class:`ResultStore`.

    Subclasses own durability and cross-process exclusion; the store
    owns dedupe, overwrite policy and queries.  ``name`` identifies the
    backend in CLI flags and diagnostics; ``ephemeral`` marks the
    in-memory backend (batching and compaction become no-ops).
    """

    name = "abstract"
    ephemeral = False

    def __init__(self, path: Optional[str]):
        self.path = path

    def load(self) -> List[RunResult]:
        raise NotImplementedError

    def append(self, result: RunResult) -> None:
        raise NotImplementedError

    def append_many(self, results: Sequence[RunResult]) -> None:
        raise NotImplementedError

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        """Compact to ``results`` + concurrent strangers; return the latter."""
        raise NotImplementedError


class MemoryBackend(StoreBackend):
    """No persistence: the store lives and dies with the process."""

    name = "memory"
    ephemeral = True

    def __init__(self) -> None:
        super().__init__(None)

    def load(self) -> List[RunResult]:
        return []

    def append(self, result: RunResult) -> None:
        pass

    def append_many(self, results: Sequence[RunResult]) -> None:
        pass

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        return []


class JsonlBackend(StoreBackend):
    """One JSON record per line; the original ResultStore format."""

    name = "jsonl"

    def __init__(self, path: str):
        super().__init__(path)
        self._lock = _FileLock(f"{path}.lock")

    def load(self) -> List[RunResult]:
        if not os.path.exists(self.path):
            return []
        with self._lock:
            records, bad_tail = read_jsonl(
                self.path, RunResult.from_record, "result record"
            )
            if bad_tail:
                # A torn final line: the writer died mid-append.
                # Recoverable by construction — drop it and compact.
                replace_jsonl(self.path, (r.to_record() for r in records))
        return records

    def append(self, result: RunResult) -> None:
        self.append_many([result])

    def append_many(self, results: Sequence[RunResult]) -> None:
        if not results:
            return
        lines = [json.dumps(r.to_record()) + "\n" for r in results]
        fault_key = f"{results[0].spec_hash}|{len(results)}"
        faults.maybe_delay(fault_key)
        faults.inject(
            "store.append_fail", fault_key,
            f"injected append failure on {self.path}",
        )
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as stream:
                if faults.fire("store.torn_write", fault_key):
                    # Simulate death mid-append: a prefix of the encoded
                    # bytes reaches disk (whole leading records plus a
                    # torn final line), then the "process" dies.  load()
                    # recovers by dropping the torn tail and compacting.
                    payload = "".join(lines)
                    stream.write(payload[: max(1, len(payload) // 2)])
                    stream.flush()
                    os.fsync(stream.fileno())
                    raise faults.FaultInjected(
                        f"injected torn write on {self.path}"
                    )
                stream.writelines(lines)
                stream.flush()
                os.fsync(stream.fileno())

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        with self._lock:
            preserved: List[RunResult] = []
            if os.path.exists(self.path):
                known = {r.spec_hash for r in results}
                disk, _bad_tail = read_jsonl(
                    self.path, RunResult.from_record, "result record"
                )
                # Transient worker-crash rows are never worth
                # preserving: carrying them through a compaction would
                # resurrect exactly the rows the load-time cleanup
                # exists to drop.
                preserved = [
                    r for r in disk
                    if r.spec_hash not in known
                    and not is_worker_crash_error(r.error)
                ]
            replace_jsonl(
                self.path,
                (r.to_record() for r in list(results) + preserved),
            )
        return preserved


# ---------------------------------------------------------------------------
# Columnar backend
# ---------------------------------------------------------------------------


class _DecodedBatch:
    """One record batch, decoded to numpy columns (no Python rows yet)."""

    __slots__ = ("n", "codes", "kinds", "values", "present", "notnone")

    def __init__(self, n: int):
        self.n = n
        self.codes: Dict[str, int] = {}
        self.kinds: Dict[str, int] = {}
        self.values: Dict[str, np.ndarray] = {}
        self.present: Dict[str, np.ndarray] = {}
        self.notnone: Dict[str, np.ndarray] = {}


class _Shard:
    """Mutable writer state for one (data, sidecar) file pair."""

    __slots__ = ("dat", "sidecar", "columns", "table", "intern", "sidecar_size")

    def __init__(self, dat: str, sidecar: str, columns: List[str]):
        self.dat = dat
        self.sidecar = sidecar
        self.columns = columns
        self.table: List[str] = []
        self.intern: Dict[str, int] = {}
        self.sidecar_size = 0


def _category(value: Any) -> Optional[int]:
    """The column kind a value fits, or None for out-of-model types."""
    if isinstance(value, bool):
        return _KIND_BOOL
    if isinstance(value, float):
        return _KIND_F8
    if isinstance(value, int):
        return _KIND_I8
    if isinstance(value, str):
        return _KIND_STR
    return None


class ColumnarBackend(StoreBackend):
    """Sharded append-only columnar storage under a ``.colstore`` dir.

    Durability model: each flush appends one self-framing record batch —
    the string-table sidecar is extended and fsynced *before* the data
    file, so a complete batch never references a missing string.  A
    crash mid-flush tears at most the final batch (JSONL tears at most
    the final line); load truncates it and drops a torn sidecar line.
    Interior damage — a bad frame marker, a string index past the
    table — raises :class:`ResultStoreError`.
    """

    name = "columnar"

    def __init__(self, path: str):
        super().__init__(os.fspath(path))
        self._lock = _FileLock(os.path.join(self.path, ".lock"))
        self._active: Optional[_Shard] = None

    # -- shard discovery and sidecars ------------------------------------

    def _shard_paths(self) -> List[Tuple[str, str]]:
        if not os.path.isdir(self.path):
            return []
        pairs = []
        for entry in sorted(os.listdir(self.path)):
            if entry.startswith("shard-") and entry.endswith(".dat"):
                stem = entry[: -len(".dat")]
                pairs.append((
                    os.path.join(self.path, entry),
                    os.path.join(self.path, f"{stem}.strings.jsonl"),
                ))
        return pairs

    def _read_sidecar(
        self, sidecar: str, *, compact_tail: bool
    ) -> Tuple[List[str], List[str], int]:
        """Returns (columns, table, durable_size); drops a torn tail."""
        if not os.path.exists(sidecar):
            raise ResultStoreError(
                f"{sidecar}: missing string-table sidecar for its data file"
            )
        with open(sidecar, "rb") as stream:
            raw = stream.read()
        lines = raw.split(b"\n")
        torn = lines.pop() if lines and lines[-1] != b"" else None
        if torn is None and lines:
            lines.pop()  # the empty piece after the final newline
        entries: List[Any] = []
        for lineno, line in enumerate(lines, start=1):
            try:
                entries.append(json.loads(line))
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise ResultStoreError(
                    f"{sidecar}:{lineno}: corrupt string-table entry: {error}"
                ) from error
        if not entries or not isinstance(entries[0], dict) \
                or "columns" not in entries[0]:
            raise ResultStoreError(f"{sidecar}: missing shard schema header")
        table = entries[1:]
        if any(not isinstance(s, str) for s in table):
            raise ResultStoreError(f"{sidecar}: non-string table entry")
        durable = len(raw) - (len(torn) if torn is not None else 0)
        if torn is not None and compact_tail:
            with open(sidecar, "r+b") as stream:
                stream.truncate(durable)
                stream.flush()
                os.fsync(stream.fileno())
        return list(entries[0]["columns"]), table, durable

    def _create_shard(self, columns: List[str]) -> _Shard:
        os.makedirs(self.path, exist_ok=True)
        index = 0
        for dat, _sidecar in self._shard_paths():
            stem = os.path.basename(dat)[len("shard-"):-len(".dat")]
            try:
                index = max(index, int(stem) + 1)
            except ValueError:
                pass
        stem = f"shard-{index:06d}"
        dat = os.path.join(self.path, f"{stem}.dat")
        sidecar = os.path.join(self.path, f"{stem}.strings.jsonl")
        header = json.dumps({"format": "repro-colstore", "version": 1,
                             "columns": columns}) + "\n"
        with open(sidecar, "w", encoding="utf-8") as stream:
            stream.write(header)
            stream.flush()
            os.fsync(stream.fileno())
        with open(dat, "wb") as stream:
            stream.flush()
            os.fsync(stream.fileno())
        shard = _Shard(dat, sidecar, columns)
        shard.sidecar_size = len(header.encode("utf-8"))
        return shard

    def _sync_active(self) -> Optional[_Shard]:
        """Point the writer at the newest shard, re-reading its table if
        another process extended it since we last looked."""
        pairs = self._shard_paths()
        if not pairs:
            self._active = None
            return None
        dat, sidecar = pairs[-1]
        shard = self._active
        size = os.path.getsize(sidecar) if os.path.exists(sidecar) else -1
        if shard is None or shard.dat != dat or shard.sidecar_size != size:
            columns, table, durable = self._read_sidecar(
                sidecar, compact_tail=True
            )
            shard = _Shard(dat, sidecar, columns)
            shard.table = table
            shard.intern = {s: i for i, s in enumerate(table)}
            shard.sidecar_size = durable
            self._active = shard
        return shard

    def _intern(self, shard: _Shard, value: str,
                fresh: List[str]) -> int:
        index = shard.intern.get(value)
        if index is None:
            index = len(shard.table)
            shard.table.append(value)
            shard.intern[value] = index
            fresh.append(value)
        return index

    # -- encoding --------------------------------------------------------

    def _batch_columns(self, results: Sequence[RunResult]) -> List[str]:
        columns = list(_SPECIAL_COLUMNS)
        seen: Set[str] = set(columns)
        for result in results:
            for key in result.overrides:
                name = f"o:{key}"
                if name not in seen:
                    seen.add(name)
                    columns.append(name)
            for key in result.metrics:
                name = f"m:{key}"
                if name not in seen:
                    seen.add(name)
                    columns.append(name)
        return columns

    def _encode_value_column(
        self,
        dicts: List[Dict[str, Any]],
        key: str,
        shard: _Shard,
        fresh: List[str],
        overflow_rows: Set[int],
    ) -> Tuple[int, int, Optional[np.ndarray], Optional[np.ndarray],
               Optional[np.ndarray]]:
        """Encode one override/metric column of the batch.

        Returns (code, kind, values, present, notnone); values are a
        numpy array for codes 1/3, presence masks are bool arrays for
        code 3.  Rows whose value fits no column kind are added to
        ``overflow_rows`` (the caller reroutes the whole row through the
        string table) and encoded as None here.
        """
        n = len(dicts)
        try:
            vals = list(map(itemgetter(key), dicts))
            sparse = False
        except KeyError:
            vals = [d.get(key, _ABSENT) for d in dicts]
            sparse = True
        types = set(map(type, vals))
        types.discard(type(None))
        if sparse:
            types.discard(type(_ABSENT))
        if not types:
            if sparse:
                present = np.fromiter(
                    (v is not _ABSENT for v in vals), np.bool_, count=n
                )
                return (_MIXED_COL, _KIND_F8, np.zeros(n),
                        present, np.zeros(n, np.bool_))
            return _NONE_COL, _KIND_F8, None, None, None

        if types == {float} or types == {int, float}:
            kind = _KIND_F8
        elif types == {int}:
            kind = _KIND_I8
        elif types == {bool}:
            kind = _KIND_BOOL
        elif types == {str}:
            kind = _KIND_STR
        else:
            # Heterogeneous or out-of-model values: keep the rows, but
            # each offending row round-trips via its overflow record.
            kind = None
            for value in vals:
                if value is None or value is _ABSENT:
                    continue
                kind = _category(value)
                if kind is not None:
                    break
            if kind is None:
                kind = _KIND_STR
            cleaned = list(vals)
            for i, value in enumerate(vals):
                if value is None or value is _ABSENT:
                    continue
                fits = _category(value)
                if fits is None or not (
                    fits == kind
                    or (kind == _KIND_F8 and fits in (_KIND_F8, _KIND_I8))
                ):
                    overflow_rows.add(i)
                    cleaned[i] = None
            vals = cleaned

        none_count = vals.count(None) + (vals.count(_ABSENT) if sparse else 0)
        if none_count == 0:
            if kind == _KIND_STR:
                data = np.fromiter(
                    (self._intern(shard, v, fresh) for v in vals),
                    np.int32, count=n,
                )
            elif kind == _KIND_BOOL:
                data = np.asarray(vals, np.bool_)
            elif kind == _KIND_I8:
                try:
                    data = np.asarray(vals, np.int64)
                except OverflowError:
                    for i, value in enumerate(vals):
                        if not (-2**63 <= value < 2**63):
                            overflow_rows.add(i)
                    data = np.asarray(
                        [0 if not (-2**63 <= v < 2**63) else v for v in vals],
                        np.int64,
                    )
            else:
                data = np.asarray(vals, np.float64)
            return _DENSE_COL, kind, data, None, None

        # Mixed presence: slow row loop, but rare (error rows inside an
        # otherwise-clean batch, overrides present on a subset).
        present = np.fromiter((v is not _ABSENT for v in vals),
                              np.bool_, count=n)
        notnone = np.fromiter(
            (v is not _ABSENT and v is not None for v in vals),
            np.bool_, count=n,
        )
        if kind == _KIND_STR:
            data = np.fromiter(
                (self._intern(shard, v, fresh)
                 if (v is not None and v is not _ABSENT) else -1
                 for v in vals),
                np.int32, count=n,
            )
        else:
            dtype = {_KIND_F8: np.float64, _KIND_I8: np.int64,
                     _KIND_BOOL: np.bool_}[kind]
            zero = False if kind == _KIND_BOOL else 0
            data = np.asarray(
                [zero if (v is None or v is _ABSENT) else v for v in vals],
                dtype,
            )
        return _MIXED_COL, kind, data, present, notnone

    def _encode_batch(
        self, shard: _Shard, results: Sequence[RunResult], fresh: List[str]
    ) -> bytes:
        n = len(results)
        columns = shard.columns
        overrides = [r.overrides for r in results]
        metrics = [r.metrics for r in results]
        overflow_rows: Set[int] = set()

        encoded: Dict[str, Tuple] = {}
        for name in columns:
            if name.startswith("o:"):
                encoded[name] = self._encode_value_column(
                    overrides, name[2:], shard, fresh, overflow_rows
                )
            elif name.startswith("m:"):
                encoded[name] = self._encode_value_column(
                    metrics, name[2:], shard, fresh, overflow_rows
                )

        hashes = [r.spec_hash for r in results]
        if max(map(len, hashes)) > 64 or not all(
            h.isascii() for h in hashes
        ):
            raise ResultStoreError(
                "columnar stores need ASCII spec hashes of at most 64 "
                "bytes (the pipeline's sha256 hex keys always fit)"
            )
        encoded["#hash"] = (
            _DENSE_COL, _KIND_HASH, np.array(hashes, dtype="S64"), None, None,
        )
        encoded["#name"] = (
            _DENSE_COL, _KIND_STR,
            np.fromiter((self._intern(shard, r.name, fresh) for r in results),
                        np.int32, count=n),
            None, None,
        )

        def _payload_ids(payloads: List[Optional[str]]) -> Tuple:
            if not any(p is not None for p in payloads):
                return _NONE_COL, _KIND_STR, None, None, None
            data = np.fromiter(
                (self._intern(shard, p, fresh) if p is not None else -1
                 for p in payloads),
                np.int32, count=n,
            )
            return _DENSE_COL, _KIND_STR, data, None, None

        specs = [
            json.dumps(r.spec.to_dict())
            if (r.spec is not None and hasattr(r.spec, "to_dict")) else None
            for r in results
        ]
        traces = [
            json.dumps(r.traces) if r.traces else None for r in results
        ]
        overflow = [
            json.dumps(results[i].to_record()) if i in overflow_rows else None
            for i in range(n)
        ]
        encoded["#spec"] = _payload_ids(specs)
        encoded["#traces"] = _payload_ids(traces)
        encoded["#overflow"] = _payload_ids(overflow)

        codes = np.zeros(len(columns), np.uint8)
        kinds = np.zeros(len(columns), np.uint8)
        blocks: List[bytes] = []
        for i, name in enumerate(columns):
            code, kind, data, present, notnone = encoded.get(
                name, (_ABSENT_COL, _KIND_F8, None, None, None)
            )
            codes[i] = code
            kinds[i] = kind
            if code == _MIXED_COL:
                blocks.append(np.packbits(present).tobytes())
                blocks.append(np.packbits(notnone).tobytes())
            if code in (_DENSE_COL, _MIXED_COL):
                blocks.append(
                    np.ascontiguousarray(
                        data, dtype=_KIND_DTYPES[kind]
                    ).tobytes()
                )
        header = _BATCH_HEADER.pack(_BATCH_MAGIC, n, len(columns))
        return b"".join([header, codes.tobytes(), kinds.tobytes()] + blocks)

    def _flush(self, results: Sequence[RunResult]) -> None:
        """Append one record batch durably (sidecar first, then data)."""
        if not results:
            return
        fault_key = f"{results[0].spec_hash}|{len(results)}"
        faults.maybe_delay(fault_key)
        faults.inject(
            "store.append_fail", fault_key,
            f"injected append failure on {self.path}",
        )
        with self._lock:
            needed = self._batch_columns(results)
            shard = self._sync_active()
            if shard is None or any(c not in shard.columns for c in needed):
                merged = list(shard.columns) if shard is not None else []
                merged += [c for c in needed if c not in merged]
                shard = self._create_shard(merged)
                self._active = shard
            fresh: List[str] = []
            frame = self._encode_batch(shard, results, fresh)
            if fresh:
                payload = "".join(json.dumps(s) + "\n" for s in fresh)
                with open(shard.sidecar, "a", encoding="utf-8") as stream:
                    stream.write(payload)
                    stream.flush()
                    os.fsync(stream.fileno())
                shard.sidecar_size += len(payload.encode("utf-8"))
            with open(shard.dat, "ab") as stream:
                if faults.fire("store.torn_write", fault_key):
                    # Simulate death between the sidecar fsync (already
                    # durable above) and the data append: only a prefix
                    # of the frame lands, which decode recognises as a
                    # torn final batch and compacts away on reopen.
                    stream.write(frame[: max(1, len(frame) // 2)])
                    stream.flush()
                    os.fsync(stream.fileno())
                    raise faults.FaultInjected(
                        f"injected torn write on {shard.dat}"
                    )
                stream.write(frame)
                stream.flush()
                os.fsync(stream.fileno())

    # -- decoding --------------------------------------------------------

    def _decode_batches(
        self, dat: str, columns: List[str], table: List[str],
        *, compact_tail: bool,
    ) -> List[_DecodedBatch]:
        size = os.path.getsize(dat)
        if size == 0:
            return []
        buf = np.memmap(dat, dtype=np.uint8, mode="r")
        raw = memoryview(buf)
        batches: List[_DecodedBatch] = []
        offset = 0
        good = 0
        torn = False
        n_cols = len(columns)
        while offset < size:
            if offset + _BATCH_HEADER.size + 2 * n_cols > size:
                torn = True
                break
            magic, n, cols = _BATCH_HEADER.unpack_from(raw, offset)
            if magic != _BATCH_MAGIC or cols != n_cols:
                if good == 0 and offset == 0:
                    raise ResultStoreError(
                        f"{dat}: not a colstore data file (bad frame marker)"
                    )
                raise ResultStoreError(
                    f"{dat}: corrupt record batch at byte {offset}"
                )
            pos = offset + _BATCH_HEADER.size
            codes = np.frombuffer(raw, np.uint8, n_cols, pos)
            kinds = np.frombuffer(raw, np.uint8, n_cols, pos + n_cols)
            pos += 2 * n_cols
            batch = _DecodedBatch(n)
            bitmap_bytes = (n + 7) // 8
            try:
                for i, name in enumerate(columns):
                    code, kind = int(codes[i]), int(kinds[i])
                    batch.codes[name] = code
                    batch.kinds[name] = kind
                    if code == _MIXED_COL:
                        if pos + 2 * bitmap_bytes > size:
                            raise _Torn()
                        batch.present[name] = np.unpackbits(
                            np.frombuffer(raw, np.uint8, bitmap_bytes, pos),
                            count=n,
                        ).astype(bool)
                        batch.notnone[name] = np.unpackbits(
                            np.frombuffer(
                                raw, np.uint8, bitmap_bytes,
                                pos + bitmap_bytes,
                            ),
                            count=n,
                        ).astype(bool)
                        pos += 2 * bitmap_bytes
                    if code in (_DENSE_COL, _MIXED_COL):
                        dtype = _KIND_DTYPES[kind]
                        nbytes = n * dtype.itemsize
                        if pos + nbytes > size:
                            raise _Torn()
                        batch.values[name] = np.frombuffer(
                            raw, dtype, n, pos
                        )
                        pos += nbytes
            except _Torn:
                torn = True
                break
            for name in columns:
                if batch.kinds.get(name) == _KIND_STR \
                        and name in batch.values:
                    ids = batch.values[name]
                    if ids.size and int(ids.max()) >= len(table):
                        raise ResultStoreError(
                            f"{dat}: string index past the sidecar table "
                            f"at byte {offset}"
                        )
            batches.append(batch)
            good = pos
            offset = pos
        if torn:
            # Copy every decoded column out of the memmap before
            # truncating the file underneath it.
            for batch in batches:
                batch.values = {k: np.array(v)
                                for k, v in batch.values.items()}
            del raw, buf
            if compact_tail:
                with open(dat, "r+b") as stream:
                    stream.truncate(good)
                    stream.flush()
                    os.fsync(stream.fileno())
        return batches

    def _materialize(
        self, columns: List[str], table: List[str], batch: _DecodedBatch
    ) -> List[RunResult]:
        n = batch.n
        spec_cache: Dict[int, Any] = {}

        def str_list(name: str) -> List[Optional[str]]:
            ids = batch.values[name].tolist()
            return [table[i] if i >= 0 else None for i in ids]

        def payload_ids(name: str) -> List[int]:
            if batch.codes.get(name, _NONE_COL) != _DENSE_COL:
                return [-1] * n
            return batch.values[name].tolist()

        hashes = [h.decode("ascii") for h in batch.values["#hash"].tolist()]
        names = str_list("#name")
        spec_ids = payload_ids("#spec")
        trace_ids = payload_ids("#traces")
        overflow_ids = payload_ids("#overflow")

        okeys: List[str] = []
        mkeys: List[str] = []
        olists: List[List[Any]] = []
        mlists: List[List[Any]] = []
        any_mixed = False
        for name in columns:
            if not (name.startswith("o:") or name.startswith("m:")):
                continue
            code = batch.codes.get(name, _ABSENT_COL)
            if code == _ABSENT_COL:
                continue
            kind = batch.kinds[name]
            if code == _NONE_COL:
                values: List[Any] = [None] * n
            else:
                if kind == _KIND_STR:
                    values = str_list(name)
                elif kind == _KIND_BOOL:
                    values = batch.values[name].astype(np.bool_).tolist()
                else:
                    values = batch.values[name].tolist()
                if code == _MIXED_COL:
                    any_mixed = True
                    present = batch.present[name]
                    notnone = batch.notnone[name]
                    for i in range(n):
                        if not present[i]:
                            values[i] = _ABSENT
                        elif not notnone[i]:
                            values[i] = None
            if name.startswith("o:"):
                okeys.append(name[2:])
                olists.append(values)
            else:
                mkeys.append(name[2:])
                mlists.append(values)

        orows = zip(*olists) if olists else iter(() for _ in range(n))
        mrows = zip(*mlists) if mlists else iter(() for _ in range(n))
        results: List[RunResult] = []
        for i, (otup, mtup) in enumerate(zip(orows, mrows)):
            oid = overflow_ids[i]
            if oid >= 0:
                results.append(RunResult.from_record(json.loads(table[oid])))
                continue
            if any_mixed:
                ov = {k: v for k, v in zip(okeys, otup) if v is not _ABSENT}
                mv = {k: v for k, v in zip(mkeys, mtup) if v is not _ABSENT}
            else:
                ov = dict(zip(okeys, otup))
                mv = dict(zip(mkeys, mtup))
            spec = None
            sid = spec_ids[i]
            if sid >= 0:
                if sid in spec_cache:
                    spec = spec_cache[sid]
                else:
                    spec = _parse_spec(table[sid])
                    spec_cache[sid] = spec
            tid = trace_ids[i]
            traces = json.loads(table[tid]) if tid >= 0 else None
            results.append(RunResult(
                spec_hash=hashes[i], name=names[i], overrides=ov,
                metrics=mv, traces=traces, spec=spec,
            ))
        return results

    # -- the StoreBackend contract ---------------------------------------

    def load(self) -> List[RunResult]:
        if not os.path.isdir(self.path):
            return []
        results: List[RunResult] = []
        with self._lock:
            for dat, sidecar in self._shard_paths():
                columns, table, _size = self._read_sidecar(
                    sidecar, compact_tail=True
                )
                for batch in self._decode_batches(
                    dat, columns, table, compact_tail=True
                ):
                    results.extend(self._materialize(columns, table, batch))
        return results

    def append(self, result: RunResult) -> None:
        self._flush([result])

    def append_many(self, results: Sequence[RunResult]) -> None:
        self._flush(results)

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        with self._lock:
            preserved: List[RunResult] = []
            if os.path.isdir(self.path):
                known = {r.spec_hash for r in results}
                seen: Set[str] = set()
                for row in self.load():
                    # As in the JSONL backend: compaction never
                    # preserves transient worker-crash rows.
                    if row.spec_hash not in known \
                            and row.spec_hash not in seen \
                            and not is_worker_crash_error(row.error):
                        seen.add(row.spec_hash)
                        preserved.append(row)
                for dat, sidecar in self._shard_paths():
                    os.unlink(dat)
                    os.unlink(sidecar)
            self._active = None
            rows = list(results) + preserved
            if rows or os.path.isdir(self.path):
                os.makedirs(self.path, exist_ok=True)
                self._flush(rows)
        return preserved

    # -- vectorized shard-merge ingest -----------------------------------

    def can_bulk_merge(self, shards: Sequence[str]) -> bool:
        return all(
            os.fspath(s).endswith(COLUMNAR_SUFFIX) and os.path.isdir(s)
            for s in shards
        )

    def bulk_merge(self, shards: Sequence[str]) -> int:
        """Fold columnar shard stores in by moving column blocks.

        Hash dedupe (against rows already here and across/within
        shards, first writer wins) runs over the fixed-width hash
        column as a hash-set membership sweep — sorted set operations
        (``np.isin``) lose to a plain set here because S64 comparisons
        pay a memcmp per element per sort level.  Surviving rows are
        copied column-by-column with ``np.compress`` and appended as
        new record batches; no row is ever materialized into Python —
        dedupe seeds from this store's own hash columns — which is what
        makes fleet-scale ingest an order of magnitude faster than
        row-wise JSONL merging.  Returns the number of rows absorbed;
        the caller reloads lazily when queried.
        """
        absorbed = 0
        with self._lock:
            seen: set = set()
            # Seed dedupe from our own hash columns — and compact any
            # torn tail first, because new frames append at file end.
            for dat, sidecar in self._shard_paths():
                columns, table, _size = self._read_sidecar(
                    sidecar, compact_tail=True
                )
                for batch in self._decode_batches(
                    dat, columns, table, compact_tail=True
                ):
                    seen.update(batch.values["#hash"].tolist())
            for shard_path in shards:
                other = ColumnarBackend(os.fspath(shard_path))
                with other._lock:
                    for dat, sidecar in other._shard_paths():
                        columns, table, _size = other._read_sidecar(
                            sidecar, compact_tail=False
                        )
                        batches = other._decode_batches(
                            dat, columns, table, compact_tail=False
                        )
                        for batch in batches:
                            hashes = batch.values["#hash"].tolist()
                            bmask = np.empty(batch.n, dtype=bool)
                            add = seen.add
                            for i, h in enumerate(hashes):
                                if h in seen:
                                    bmask[i] = False
                                else:
                                    bmask[i] = True
                                    add(h)
                            if not bmask.any():
                                continue
                            if bmask.all():
                                kept = batch
                            else:
                                kept = self._compress_batch(batch, bmask)
                            self._append_decoded(columns, table, kept)
                            absorbed += kept.n
        return absorbed

    @staticmethod
    def _compress_batch(batch: _DecodedBatch,
                        mask: np.ndarray) -> _DecodedBatch:
        kept = _DecodedBatch(int(mask.sum()))
        kept.codes = dict(batch.codes)
        kept.kinds = dict(batch.kinds)
        kept.values = {k: np.compress(mask, v)
                       for k, v in batch.values.items()}
        kept.present = {k: np.compress(mask, v)
                        for k, v in batch.present.items()}
        kept.notnone = {k: np.compress(mask, v)
                        for k, v in batch.notnone.items()}
        return kept

    def _append_decoded(
        self, columns: List[str], table: List[str], batch: _DecodedBatch
    ) -> None:
        """Write an already-decoded batch into this store; remaps string
        ids from the source shard's table into ours."""
        shard = self._sync_active()
        if shard is None or any(c not in shard.columns for c in columns):
            merged = list(shard.columns) if shard is not None else []
            merged += [c for c in columns if c not in merged]
            shard = self._create_shard(merged)
            self._active = shard
        fresh: List[str] = []
        remap: Optional[np.ndarray] = None
        used = set()
        for name in columns:
            if batch.kinds.get(name) == _KIND_STR and name in batch.values:
                used.update(
                    int(i) for i in np.unique(batch.values[name]) if i >= 0
                )
        if used:
            remap = np.full(max(used) + 1, -1, np.int32)
            for i in sorted(used):
                remap[i] = self._intern(shard, table[i], fresh)

        codes = np.zeros(len(shard.columns), np.uint8)
        kinds = np.zeros(len(shard.columns), np.uint8)
        blocks: List[bytes] = []
        for i, name in enumerate(shard.columns):
            code = batch.codes.get(name, _ABSENT_COL)
            kind = batch.kinds.get(name, _KIND_F8)
            codes[i] = code
            kinds[i] = kind
            if code == _MIXED_COL:
                blocks.append(np.packbits(batch.present[name]).tobytes())
                blocks.append(np.packbits(batch.notnone[name]).tobytes())
            if code in (_DENSE_COL, _MIXED_COL):
                data = batch.values[name]
                if kind == _KIND_STR and remap is not None:
                    data = np.where(
                        data >= 0, remap[np.maximum(data, 0)],
                        np.int32(-1),
                    ).astype(np.int32)
                blocks.append(np.ascontiguousarray(
                    data, dtype=_KIND_DTYPES[kind]
                ).tobytes())
        header = _BATCH_HEADER.pack(_BATCH_MAGIC, batch.n, len(shard.columns))
        frame = b"".join([header, codes.tobytes(), kinds.tobytes()] + blocks)
        if fresh:
            payload = "".join(json.dumps(s) + "\n" for s in fresh)
            with open(shard.sidecar, "a", encoding="utf-8") as stream:
                stream.write(payload)
                stream.flush()
                os.fsync(stream.fileno())
            shard.sidecar_size += len(payload.encode("utf-8"))
        with open(shard.dat, "ab") as stream:
            stream.write(frame)
            stream.flush()
            os.fsync(stream.fileno())


class _Torn(Exception):
    """Internal: the final record batch ends before its blocks do."""


def _parse_spec(payload: str) -> Optional[Any]:
    """Revalidate an embedded spec payload; degrade to None like
    :meth:`RunResult.from_record` does."""
    from repro.errors import SpecError
    from repro.spec.specs import ScenarioSpec

    try:
        return ScenarioSpec.from_dict(json.loads(payload))
    except (SpecError, json.JSONDecodeError):
        return None


#: backend= choices accepted by ResultStore and the CLI.
BACKEND_CHOICES = ("auto", "jsonl", "columnar")


def make_backend(
    path: Optional[PathLike], backend: Optional[str] = None
) -> StoreBackend:
    """Resolve (path, backend name) to a StoreBackend instance.

    ``backend=None``/``"auto"`` selects by path: a ``.colstore`` suffix
    means columnar, anything else (including no path) keeps JSONL
    semantics.  Pass ``"jsonl"`` or ``"columnar"`` to override.
    """
    if path is None:
        return MemoryBackend()
    path = os.fspath(path)
    choice = backend or "auto"
    if choice == "auto":
        choice = "columnar" if path.endswith(COLUMNAR_SUFFIX) else "jsonl"
    if choice == "jsonl":
        return JsonlBackend(path)
    if choice == "columnar":
        return ColumnarBackend(path)
    raise ResultStoreError(
        f"unknown store backend {backend!r} (choices: {BACKEND_CHOICES})"
    )
