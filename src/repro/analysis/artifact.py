"""One column-artifact core behind the census, weighted and delta stores.

Every persistent store in :mod:`repro.analysis` is the same kind of object:
per-class columns of one topology census (a packed certificate, the edge
count, the distance total, ragged CSR probe columns) plus a few
per-artifact columns, persisted as one versioned ``.npz`` or a directory of
memory-mappable ``.npy`` files.  :class:`ColumnArtifact` owns everything
that follows from that shape, once:

* **the schema** — a concrete store declares its schema tag,
  ``FORMAT_VERSION``, its columns (on-disk order and dtype), its CSR groups,
  its optional columns and the metadata it stamps beside ``n``;
* **persistence** — npz and dir I/O with foreign/version rejection, mmap
  loads, the content checksum stamped at save time and checked by
  :meth:`~ColumnArtifact.verify`.  Saves are *published atomically*: an
  npz is written to a sibling temp file, fsynced and renamed over the
  target; a directory artifact is written as a sibling temp directory and
  swapped in by renames, so a reader that has the old columns mapped keeps
  valid (unlinked) pages instead of dying with SIGBUS;
* **structure** — the generic CSR audits of ``verify``, ``permute`` /
  ``sort_canonical`` over the declared dense and CSR groups, part merging
  and the empty part;
* **the one build** — :meth:`~ColumnArtifact._build_parts` shards the
  canonical-augmentation tree over :func:`repro.engine.run_shards`
  (resumable with ``shard_dir``), and :func:`stream_batches` is the
  generate → canonicalise → batch → flush loop every shard worker runs;
* **the shared LRU** — :func:`cached_artifact` and the hit/miss/eviction
  counters behind ``cached_store``, ``cached_delta_store`` and
  ``cached_weighted_store``.

A store module is then its schema, its query methods, its kind-specific
invariants and its per-batch analysis function.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import uuid
import zipfile
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..engine import chunk_evenly, content_checksum, resolve_jobs, run_shards
from ..engine.columnar import (
    canonical_sort_indices,
    certificate_to_graph,
    concat_csr,
    csr_invariant_errors,
    gather_segments,
    pack_certificates,
)
from ..graphs import Graph, canonical_graph, enumerate_graphs, is_connected
from ..graphs import iter_graphs_from
from ..graphs.isomorphism import clear_canonical_record

#: Everything a store ``load`` can raise on a missing/corrupt/foreign
#: artifact — the one tuple CLI handlers and resume paths should catch.
LOAD_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

#: Public entry points each concrete store owns in its *own* class dict
#: (see :meth:`ColumnArtifact.__init_subclass__`).
_OWNED_METHODS = ("save", "load", "verify")


class ColumnArtifact:
    """Per-class columns of one census, persistent and structurally audited.

    Subclasses declare the schema below and add their query methods.  The
    constructor takes ``n``, every column by name and the metadata fields
    named in :attr:`META`; required columns must be present, optional ones
    default to ``None``.
    """

    #: Schema tag written into every artifact (guards against foreign files).
    SCHEMA = ""
    #: On-disk format version; bump on any incompatible schema change.
    FORMAT_VERSION = 0
    #: Short kind name: telemetry label and error-message noun.
    KIND = ""
    #: Every column, in on-disk order, with its dtype.  ``cert_words`` is
    #: ``uint64[C, W]``; every other per-class column is one-dimensional.
    COLUMNS: Dict[str, str] = {}
    #: Ragged groups: indptr column → the value columns sharing it.  The
    #: first value column carries the group's CSR audit.
    CSR: Dict[str, Tuple[str, ...]] = {}
    #: Per-artifact columns: saved and checksummed, never permuted or merged.
    SHARED: Tuple[str, ...] = ()
    #: Columns present only when the artifact was built with them (the UCG
    #: group); ``None`` otherwise.
    OPTIONAL: Tuple[str, ...] = ()
    #: Metadata beside ``n``: meta key → attribute/constructor name.  Bools
    #: are stored as npz scalars, anything else as JSON under ``<key>_json``.
    META: Dict[str, str] = {}
    #: Removal probes per edge (one per endpoint, or one folded minimum).
    REM_PROBES_PER_EDGE = 1
    #: Shard-file prefix of :meth:`_build_parts` (kept stable for resume).
    SHARD_PREFIX = "shard"

    def __init_subclass__(cls, **kwargs) -> None:
        # Each kind gets its own binding of the persistence entry points, so
        # a wrapper installed through one kind's class dict (the layer
        # tracer in perfbench/layers.py, a test mock) never reaches the
        # others.
        super().__init_subclass__(**kwargs)
        for name in _OWNED_METHODS:
            if name not in cls.__dict__:
                setattr(cls, name, ColumnArtifact.__dict__[name])

    def __init__(self, n: int, **fields) -> None:
        unknown = set(fields) - set(self.COLUMNS) - set(self.META.values())
        if unknown:
            raise TypeError(f"unknown {self.KIND}-store fields: {sorted(unknown)}")
        missing = [
            name
            for name in self.COLUMNS
            if name not in self.OPTIONAL and fields.get(name) is None
        ]
        if missing:
            raise TypeError(f"missing {self.KIND}-store columns: {missing}")
        self.n = int(n)
        for name in self.COLUMNS:
            setattr(self, name, fields.get(name))
        for attr in self.META.values():
            setattr(self, attr, fields.get(attr))
        self._artifact_checksum = None  # checksum stamped on the loaded artifact

    # ------------------------------------------------------------------ #
    # Schema helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def _part_names(cls, optional: bool) -> List[str]:
        """Per-class column names of a part (``optional``: with the UCG group)."""
        return [
            name
            for name in cls.COLUMNS
            if name not in cls.SHARED and (optional or name not in cls.OPTIONAL)
        ]

    @classmethod
    def _dense_names(cls) -> List[str]:
        ragged = set(cls.CSR)
        for values in cls.CSR.values():
            ragged.update(values)
        return [
            name
            for name in cls.COLUMNS
            if name not in ragged and name not in cls.SHARED
        ]

    def _columns(self) -> Dict[str, object]:
        """Every present column, in on-disk order."""
        return {
            name: getattr(self, name)
            for name in self.COLUMNS
            if getattr(self, name) is not None
        }

    def _meta_fields(self) -> Dict[str, object]:
        return {attr: getattr(self, attr) for attr in self.META.values()}

    # ------------------------------------------------------------------ #
    # Parts: the unit every build path produces
    # ------------------------------------------------------------------ #

    @classmethod
    def _empty_part(cls, n: int, optional: bool = False) -> dict:
        part = {}
        for name in cls._part_names(optional):
            if name == "cert_words":
                part[name] = pack_certificates([], n)
            elif name in cls.CSR:
                part[name] = np.zeros(1, dtype=np.int64)
            else:
                part[name] = np.zeros(0, dtype=cls.COLUMNS[name])
        return part

    @classmethod
    def _merge_parts(cls, parts: Sequence[dict], n: int, optional: bool = False) -> dict:
        """Concatenate column parts (CSR offsets rebased) into one part.

        The single merge site for every build path — in-worker batches,
        shard files, the record-census conversion — so the column set
        cannot drift between them.
        """
        parts = [part for part in parts if part["num_edges"].shape[0]] or [
            cls._empty_part(n, optional)
        ]
        names = cls._part_names(optional)
        merged = {
            name: np.concatenate([part[name] for part in parts])
            for name in cls._dense_names()
        }
        for indptr, values in cls.CSR.items():
            if indptr not in names:
                continue
            merged[values[0]], merged[indptr] = concat_csr(
                [(part[values[0]], part[indptr]) for part in parts]
            )
            for name in values[1:]:
                merged[name] = np.concatenate([part[name] for part in parts])
        return {name: merged[name] for name in names}

    @classmethod
    def _from_parts(
        cls, n: int, parts: Sequence[dict], optional: bool = False, **fields
    ) -> "ColumnArtifact":
        """A store from column parts plus its metadata/shared ``fields``."""
        return cls(n=n, **fields, **cls._merge_parts(parts, n, optional))

    @classmethod
    def _build_parts(
        cls,
        worker: Callable[[tuple], dict],
        n: int,
        extra: tuple = (),
        fingerprint: Optional[Dict[str, object]] = None,
        *,
        jobs: Optional[int] = None,
        shard_level: Optional[int] = None,
        batch_size: int = 512,
        shard_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        progress=None,
        fault_plan=None,
    ) -> List[dict]:
        """The one build: analyse every connected class on ``n`` vertices.

        The generation tree is cut into disjoint, jointly exhaustive
        subtrees below its level-``shard_level`` roots; each worker task
        ``(roots, n, batch_size, *extra)`` streams its subtrees through
        :func:`stream_batches`.  The fan-out runs through
        :func:`repro.engine.run_shards`: ``jobs`` workers (serial for
        ``None``/``0``/``1``), per-attempt ``timeout``, ``max_retries``
        pool attempts before the in-parent fallback, ``progress`` manifest
        snapshots and ``fault_plan`` injection.  With ``shard_dir`` every
        finished shard persists as ``{SHARD_PREFIX}_XXXX_of_YYYY.npz``,
        stamped with the schema tag, format version, ``n`` and the
        ``fingerprint`` extras, and an interrupted build resumes from every
        shard that verifies.  Returns the parts in shard order; callers
        merge them and sort into canonical census order, so the result is
        identical for any ``jobs``, shard level, batch size or resume
        history.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        workers = resolve_jobs(jobs)
        if shard_level is None:
            shard_level = max(0, min(6, n - 2))
        shard_level = max(0, min(shard_level, n))
        chunks = chunk_evenly(enumerate_graphs(shard_level), max(1, workers * 4))
        report = run_shards(
            worker,
            [(chunk, n, batch_size) + tuple(extra) for chunk in chunks],
            jobs=jobs,
            shard_dir=shard_dir,
            prefix=cls.SHARD_PREFIX,
            fingerprint={
                "kind": cls.SCHEMA,
                "format_version": cls.FORMAT_VERSION,
                "n": int(n),
                **(fingerprint or {}),
            },
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )
        return report.parts

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #

    def sort_canonical(self) -> "ColumnArtifact":
        """A copy of the store in canonical census order (stable no-op key)."""
        order = canonical_sort_indices(self.num_edges, self.cert_words, self.n)
        return self.permute(order)

    def permute(self, order) -> "ColumnArtifact":
        """A copy with class ``order[i]`` moved to row ``i`` (all columns)."""
        columns = {name: getattr(self, name)[order] for name in self._dense_names()}
        for indptr, values in self.CSR.items():
            offsets = getattr(self, indptr)
            if offsets is None:
                continue
            for name in values:
                columns[name], columns[indptr] = gather_segments(
                    getattr(self, name), offsets, order
                )
        for name in self.SHARED:
            columns[name] = getattr(self, name)
        return type(self)(n=self.n, **self._meta_fields(), **columns)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.num_edges.shape[0])

    def graph_at(self, index: int) -> Graph:
        """Rebuild the canonical representative stored at row ``index``."""
        return certificate_to_graph(self.cert_words[index], self.n)

    def graphs(self) -> List[Graph]:
        """Rebuild every stored representative (canonical census order)."""
        return [self.graph_at(i) for i in range(len(self))]

    @property
    def nbytes(self) -> int:
        """Resident bytes across every column."""
        return sum(array.nbytes for array in self._columns().values())

    def content_checksum(self) -> str:
        """sha256 over every column's name, dtype, shape and bytes."""
        return content_checksum(self._columns())

    def _summary_fields(self) -> Dict[str, object]:
        """Kind-specific :meth:`summary` entries."""
        return {}

    def summary(self) -> Dict[str, object]:
        """Artifact metadata (used by the CLI, the service and the reports)."""
        return {
            "n": self.n,
            "classes": len(self),
            **self._summary_fields(),
            "format_version": self.FORMAT_VERSION,
            "nbytes": self.nbytes,
            "column_bytes": {
                name: array.nbytes for name, array in self._columns().items()
            },
        }

    def _invariant_errors(self) -> List[str]:
        """Kind-specific structural checks of :meth:`verify`."""
        return []

    def verify(self) -> Dict[str, object]:
        """Audit the artifact: checksum + structural invariants.

        Returns ``{"ok", "classes", "checksum", "errors"}`` where
        ``checksum`` is ``"ok"`` / ``"mismatch"`` (vs the stamp written by
        :meth:`save`, when the artifact carries one) / ``"absent"``.
        Generic checks: the CSR layout of every ragged group and equal
        lengths of its value columns, edge counts within ``[0, C(n,2)]``,
        per-class probe counts (:attr:`REM_PROBES_PER_EDGE` removal probes
        per edge, one addition probe per non-edge) and finite dense float
        columns; each kind adds its own invariants.  A corrupt artifact is
        caught here, at audit time, instead of mid-query.
        """
        classes = len(self)
        errors: List[str] = []
        for indptr, values in self.CSR.items():
            offsets = getattr(self, indptr)
            if offsets is None:
                continue
            group = indptr[: -len("_indptr")]
            head = getattr(self, values[0])
            errors += csr_invariant_errors(group, head.shape[0], offsets, classes)
            for name in values[1:]:
                if getattr(self, name).shape != head.shape:
                    errors.append(f"{group}: {name} and {values[0]} lengths differ")
        pairs = self.n * (self.n - 1) // 2
        edges = np.asarray(self.num_edges, dtype=np.int64)
        if classes:
            if bool(np.any(edges < 0)) or bool(np.any(edges > pairs)):
                errors.append(f"num_edges outside [0, {pairs}]")
            elif not errors:
                per_edge = self.REM_PROBES_PER_EDGE
                if bool(np.any(np.diff(self.rem_indptr) != per_edge * edges)):
                    factor = f"{per_edge}*" if per_edge != 1 else ""
                    errors.append(f"rem: per-class probe counts != {factor}num_edges")
                if bool(np.any(np.diff(self.add_indptr) != pairs - edges)):
                    errors.append("add: per-class probe counts != non-edges")
            for name in self._dense_names():
                column = np.asarray(getattr(self, name))
                if column.dtype.kind == "f" and not bool(np.all(np.isfinite(column))):
                    errors.append(f"{name} contains non-finite values")
        errors += self._invariant_errors()
        if self._artifact_checksum is None:
            checksum = "absent"
        elif self.content_checksum() == self._artifact_checksum:
            checksum = "ok"
        else:
            checksum = "mismatch"
            errors.append("content checksum does not match the saved stamp")
        return {
            "ok": not errors,
            "classes": classes,
            "checksum": checksum,
            "errors": errors,
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str, format: Optional[str] = None, compress: bool = False) -> str:
        """Publish the artifact at ``path``; returns the path written.

        ``format="npz"`` (default for ``*.npz`` paths) writes one NumPy
        archive; ``format="dir"`` writes a directory of raw ``.npy``
        columns plus ``meta.json``, loadable with ``mmap=True`` so large
        artifacts never enter resident memory at once.  Both carry the
        schema tag, the format version, ``n``, the kind's metadata and the
        content checksum.  The write is atomic: readers see the old
        artifact or the new one, and a reader holding the old columns
        mapped keeps them.
        """
        start = time.perf_counter()
        if format is None:
            format = "npz" if str(path).endswith(".npz") else "dir"
        if format not in ("npz", "dir"):
            raise ValueError("format must be 'npz' or 'dir'")
        columns = self._columns()
        checksum = content_checksum(columns)
        meta = self._meta_fields()
        if format == "npz":
            if not str(path).endswith(".npz"):
                path = f"{path}.npz"
            payload = dict(columns)
            payload["schema"] = np.str_(self.SCHEMA)
            payload["format_version"] = np.int64(self.FORMAT_VERSION)
            payload["n"] = np.int64(self.n)
            for key, attr in self.META.items():
                value = meta[attr]
                if isinstance(value, bool):
                    payload[key] = np.bool_(value)
                else:
                    payload[f"{key}_json"] = np.str_(json.dumps(value, sort_keys=True))
            payload["checksum"] = np.str_(checksum)
            writer = np.savez_compressed if compress else np.savez
            _publish_file(path, lambda handle: writer(handle, **payload))
        else:
            info = {
                "schema": self.SCHEMA,
                "format_version": self.FORMAT_VERSION,
                "n": self.n,
                "columns": sorted(columns),
                "checksum": checksum,
            }
            info.update({key: meta[attr] for key, attr in self.META.items()})
            _publish_dir(path, info, columns)
        obs.record_artifact_io("save", self.KIND, path, time.perf_counter() - start)
        return path

    @classmethod
    def load(cls, path: str, mmap: bool = False) -> "ColumnArtifact":
        """Load an artifact written by :meth:`save`.

        ``mmap=True`` memory-maps the columns and is only supported for the
        directory format (zip archives cannot be mapped page-aligned).
        Artifacts of another kind or format version raise ``ValueError``.
        """
        start = time.perf_counter()
        if os.path.isdir(path):
            with open(os.path.join(path, "meta.json")) as handle:
                meta = json.load(handle)
            cls._check_meta(meta.get("schema"), meta.get("format_version"), path)
            mmap_mode = "r" if mmap else None
            columns = {
                name: np.load(os.path.join(path, f"{name}.npy"), mmap_mode=mmap_mode)
                for name in meta["columns"]
            }
            fields = {attr: meta.get(key) for key, attr in cls.META.items()}
            store = cls(n=meta["n"], **fields, **columns)
            store._artifact_checksum = meta.get("checksum")
        elif mmap:
            raise ValueError(
                "mmap loading requires the directory format; save with "
                "format='dir' for memory-mappable artifacts"
            )
        else:
            with np.load(path, allow_pickle=False) as data:
                schema = str(data["schema"]) if "schema" in data else None
                version = (
                    int(data["format_version"]) if "format_version" in data else None
                )
                cls._check_meta(schema, version, path)
                fields = {}
                for key, attr in cls.META.items():
                    if f"{key}_json" in data:
                        fields[attr] = json.loads(str(data[f"{key}_json"]))
                    else:
                        fields[attr] = data[key].item()
                columns = {
                    name: data[name]
                    for name in cls.COLUMNS
                    if name not in cls.OPTIONAL or name in data
                }
                store = cls(n=int(data["n"]), **fields, **columns)
                if "checksum" in data:
                    store._artifact_checksum = str(data["checksum"])
        obs.record_artifact_io("load", cls.KIND, path, time.perf_counter() - start)
        return store

    @classmethod
    def _check_meta(cls, schema: Optional[str], version: Optional[int], path: str) -> None:
        if schema != cls.SCHEMA:
            raise ValueError(f"{path!r} is not a {cls.KIND}-store artifact")
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"{path!r} has {cls.KIND}-store format version {version}; "
                f"this build reads version {cls.FORMAT_VERSION}"
            )


def ordered_interval_errors(group: str, lo, hi) -> List[str]:
    """``["<group>: interval lo > hi"]`` when any stored interval is reversed."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    if lo.shape == hi.shape and lo.shape[0] and bool(np.any(lo > hi)):
        return [f"{group}: interval lo > hi"]
    return []


def peek_artifact(path: str) -> Optional[Tuple[str, str, int]]:
    """``(schema, format, n)`` of the artifact at ``path``, or ``None``.

    Reads only ``meta.json`` (dir format) or the small metadata entries of
    the zip (npz format) — no column data.  Foreign, corrupt or
    unrecognised files give ``None``.
    """
    try:
        if os.path.isdir(path):
            meta_path = os.path.join(path, "meta.json")
            if not os.path.isfile(meta_path):
                return None
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            if not isinstance(meta, dict) or "schema" not in meta or "n" not in meta:
                return None
            return str(meta["schema"]), "dir", int(meta["n"])
        if not str(path).endswith(".npz"):
            return None
        with np.load(path, allow_pickle=False) as data:
            if "schema" not in data or "n" not in data:
                return None
            return str(data["schema"]), "npz", int(data["n"])
    except LOAD_ERRORS:
        return None


# --------------------------------------------------------------------------- #
# Atomic publishing
# --------------------------------------------------------------------------- #


def _sibling(path: str, tag: str) -> str:
    """A hidden, unique name next to ``path`` (same filesystem, so renames
    are atomic; hidden, so directory scans skip it)."""
    head, tail = os.path.split(os.path.abspath(path))
    return os.path.join(head, f".{tail}.{tag}-{os.getpid()}-{uuid.uuid4().hex[:8]}")


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems that refuse dir fsync
        pass
    finally:
        os.close(fd)


def _write_synced(path: str, write: Callable[[object], None]) -> None:
    with open(path, "xb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())


def _publish_file(path: str, write: Callable[[object], None]) -> None:
    """Write a sibling temp file, fsync it, then rename it over ``path``."""
    tmp = _sibling(path, "tmp")
    try:
        _write_synced(tmp, write)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _publish_dir(path: str, meta: Dict[str, object], columns: Dict[str, object]) -> None:
    """Write a sibling temp directory, fsync it, then swap it in by renames.

    Column files are never truncated in place: an existing artifact is
    renamed aside and removed only after the new one is in place, so
    readers with the old columns mapped keep valid (unlinked) pages.  A
    non-empty directory that is not an artifact is refused, never replaced.
    """
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise FileExistsError(f"{path!r} exists and is not a directory")
        if os.listdir(path) and not os.path.exists(os.path.join(path, "meta.json")):
            raise FileExistsError(
                f"refusing to replace {path!r}: a non-empty directory that is "
                "not an artifact"
            )
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = _sibling(path, "tmp")
    os.mkdir(tmp)
    try:
        for name, array in columns.items():
            _write_synced(
                os.path.join(tmp, f"{name}.npy"),
                lambda handle, array=array: np.save(handle, array),
            )

        def write_meta(handle) -> None:
            handle.write((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())

        _write_synced(os.path.join(tmp, "meta.json"), write_meta)
        _fsync_dir(tmp)
        if os.path.isdir(path):
            old = _sibling(path, "old")
            os.rename(path, old)
            try:
                os.rename(tmp, path)
            except BaseException:
                os.rename(old, path)
                raise
            shutil.rmtree(old, ignore_errors=True)
        else:
            os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(parent)


# --------------------------------------------------------------------------- #
# The shard loop every build worker runs
# --------------------------------------------------------------------------- #


def stream_batches(
    roots: Sequence[Graph],
    n: int,
    batch_size: int,
    analyse: Callable[[List[Graph]], dict],
    store: str,
) -> List[dict]:
    """Generate → canonicalise → batch → flush one shard of the tree.

    Walks the canonical-augmentation subtrees below ``roots`` up to ``n``
    vertices, keeps the connected graphs in canonical form and hands them
    to ``analyse`` in batches of ``batch_size``; returns one column part per
    batch.  Each flushed graph's memoised automorphism record is dropped
    after its batch, so a shard's memory stays bounded by one batch.
    """
    parts: List[dict] = []
    pending: List[Graph] = []

    def flush() -> None:
        parts.append(analyse(pending))
        for graph in pending:
            clear_canonical_record(graph)
        obs.counter(
            "repro_stream_classes_total",
            "Graph classes analysed by streamed store builds",
            store=store,
        ).inc(len(pending))
        pending.clear()

    for root in roots:
        for graph in iter_graphs_from(root, n):
            if not is_connected(graph):
                continue
            pending.append(canonical_graph(graph))
            if len(pending) >= batch_size:
                flush()
    if pending:
        flush()
    return parts


# --------------------------------------------------------------------------- #
# Process-wide store cache shared by every artifact kind
# --------------------------------------------------------------------------- #


_STORE_CACHE: "OrderedDict[tuple, ColumnArtifact]" = OrderedDict()

#: One re-entrant lock guards every mutation of :data:`_STORE_CACHE` — the
#: cache is shared by ``cached_store``, ``cached_delta_store`` and
#: ``cached_weighted_store``, and the service layer calls all three from
#: concurrent request threads.  The lock is held across a whole miss
#: (including the build/load) so the hit/miss/eviction counters stay exact
#: and two threads never build the same artifact twice; artifact loads are
#: milliseconds, and the expensive kernel queries run outside the lock.
_STORE_CACHE_LOCK = threading.RLock()

#: Upper bound on cached stores.  Small on purpose: an n = 8 store is a few
#: MB resident but an n = 9 store is tens of MB, and a long-lived process
#: cycling through artifacts (the ensemble/experiment runners) must not
#: accumulate every store it ever touched.
STORE_CACHE_MAX = 8


def _artifact_stamp(path: str) -> tuple:
    """``(mtime_ns, size)`` of an artifact, so rewrites miss the cache.

    Load-keyed cache entries are not determined by the path alone — a
    long-lived process may regenerate an artifact in place and must not
    keep being served the old columns.  The directory format stamps every
    file in the directory, so republishing any column invalidates the
    entry.
    """
    if os.path.isdir(path):
        # Per-file stamps, not an aggregate: a same-clock-tick rewrite of
        # one column leaves the directory-wide max mtime (and total size)
        # unchanged but never that file's own pre-write mtime.
        return tuple(
            (name,) + _artifact_stamp(os.path.join(path, name))
            for name in sorted(os.listdir(path))
        )
    stat = os.stat(path)
    return (stat.st_mtime_ns, stat.st_size)


def load_key(tag: str, path: str, mmap: bool) -> tuple:
    """Cache key of a load: absolute path, ``mmap`` flag and file stamp."""
    return (tag, os.path.abspath(path), bool(mmap), _artifact_stamp(path))


def cached_artifact(key: tuple, cache: str, make: Callable[[], ColumnArtifact]):
    """The cached store under ``key``, or ``make()`` on a miss.

    Every lookup ticks the ``cache``-labelled hit or miss counter; a miss
    inserts the new store and evicts least-recently-used entries beyond
    :data:`STORE_CACHE_MAX`.  Every artifact kind shares this one LRU and
    its lock.
    """
    with _STORE_CACHE_LOCK:
        store = _STORE_CACHE.get(key)
        hit = store is not None
        obs.counter(
            "repro_cache_hits_total" if hit else "repro_cache_misses_total",
            "Store-cache lookups served from memory"
            if hit
            else "Store-cache lookups that had to build or load",
            cache=cache,
        ).inc()
        if store is None:
            store = make()
        _STORE_CACHE[key] = store
        _STORE_CACHE.move_to_end(key)
        while len(_STORE_CACHE) > max(1, STORE_CACHE_MAX):
            _STORE_CACHE.popitem(last=False)
            obs.counter(
                "repro_cache_evictions_total", "LRU evictions from the store cache",
                cache="store-lru",
            ).inc()
        return store


def clear_store_cache() -> None:
    """Drop the store cache (used by cold-start benchmarks and tests)."""
    with _STORE_CACHE_LOCK:
        _STORE_CACHE.clear()


# Pre-register the cache counter families at import so a fresh exposition
# always carries them — a build-only run never performs a cache lookup,
# and a dashboard watching hit rate needs the zero series to exist.
if obs.metrics_enabled():
    obs.counter(
        "repro_cache_hits_total",
        "Store-cache lookups served from memory",
        cache="census-store",
    )
    obs.counter(
        "repro_cache_misses_total",
        "Store-cache lookups that had to build or load",
        cache="census-store",
    )
    obs.counter(
        "repro_cache_evictions_total",
        "LRU evictions from the store cache",
        cache="store-lru",
    )
