"""Durable sweep results: an append-only JSONL store and a content cache.

A sweep's durable artifact is one JSONL file:

* line 1 — the sweep header: ``{"kind": "sweep-header", "schema": 1,
  "spec": <SweepSpec document>}``,
* every further line — one completed cell: ``{"kind": "record",
  "cell": <index>, "label": <algorithm label>, "record":
  <ExperimentRecord document>}`` — or, for a cell the experiment
  service quarantined after repeated failures, ``{"kind": "cell-error",
  "cell": <index>, "label": <label>, "error": <reason>}``, holding the
  cell's position so the rest of the sweep still completes in order.

Lines are written in deterministic cell order as records complete (the
sweep scheduler streams them in order — see
:meth:`repro.analysis.SweepRunner.iter_cells`) and each line is flushed
on write, so an interrupted sweep leaves a valid prefix behind.
:func:`run_sweep` with ``resume=True`` reads that prefix, skips every
cell whose record already exists, reruns only the remainder with the
cells' original explicit seeds, and therefore reproduces the one-shot
file byte for byte — the acceptance test compares the files with
``filecmp``.

The store refuses to resume against a file whose header spec differs
from the requested spec: silently mixing two sweeps' records would
poison both.

Orthogonal to per-sweep files, :class:`ResultCache` is a
content-addressed record cache shared across sweeps: every record is
filed under its run spec's :meth:`~repro.api.specs.RunSpec.content_hash`,
so any later run or sweep containing the same (algorithm, workload,
seed) cell — in any grid, under any output path — is served from disk
instead of executing.  The cache stores the record document verbatim,
which is why cache hits reproduce store files byte for byte.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from concurrent.futures import BrokenExecutor

from ..analysis.experiments import ExperimentRecord, SweepRunner
from ..errors import AnalysisError, StoreError
from ..faults import fault_point, injected_os_error
from .records import canonical_json
from .specs import SPEC_SCHEMA_VERSION, RunSpec, SweepSpec

__all__ = [
    "RecordStore",
    "ResultCache",
    "StoredSweep",
    "SweepStoreWriter",
    "run_sweep",
    "load_sweep",
]

_HEADER_KIND = "sweep-header"
_RECORD_KIND = "record"
_ERROR_KIND = "cell-error"
_CACHE_KIND = "cached-record"
_HASH_HEX_LENGTH = 64


class ResultCache:
    """Content-addressed experiment-record cache, shared across sweeps.

    Entries live under ``root`` as ``<hash[:2]>/<hash>.json`` (sharded so
    no directory grows unbounded), one canonical-JSON document per entry:
    the run spec's document, its content hash, and the record document —
    self-describing enough to audit with nothing but ``cat``.

    Writes are atomic (temp file + :func:`os.replace`) and idempotent:
    the first record filed under a hash wins and later puts are no-ops,
    so concurrent sweeps sharing a cache cannot corrupt an entry or flip
    a stored result.  ``hits`` / ``misses`` / ``writes`` count this
    instance's traffic; tests pin "zero executions on a warm cache" and
    "no double-write on resume" with them.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _entry_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, spec: RunSpec) -> Optional[ExperimentRecord]:
        """Return the cached record for ``spec``, or ``None`` on a miss.

        A stored entry whose run document does not match ``spec`` (hash
        collision or hand-edited file) is an error, not a silent miss:
        serving the wrong record would corrupt downstream stores.
        """
        digest = spec.content_hash()
        path = self._entry_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalysisError(
                f"{path}: cache entry is not valid JSON: {exc}"
            ) from exc
        if payload.get("kind") != _CACHE_KIND or "record" not in payload:
            raise AnalysisError(
                f"{path}: not a result-cache entry; was this directory "
                "written by something else?"
            )
        if payload.get("run") != spec.to_dict():
            raise AnalysisError(
                f"{path}: cached run spec does not match the requested "
                f"spec under hash {digest}; the entry is corrupt (or "
                "hand-edited) — evict it with 'repro cache --evict'"
            )
        self.hits += 1
        return ExperimentRecord.from_dict(payload["record"])

    def put(self, spec: RunSpec, record: ExperimentRecord) -> bool:
        """File ``record`` under ``spec``'s hash; ``False`` if already cached."""
        digest = spec.content_hash()
        path = self._entry_path(digest)
        if path.exists():
            return False
        payload = {
            "kind": _CACHE_KIND,
            "schema": SPEC_SCHEMA_VERSION,
            "hash": digest,
            "run": spec.to_dict(),
            "record": record.to_dict(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(canonical_json(payload) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            # A full disk (or vanished directory) must leave the cache
            # clean: no .tmp litter, no truncated entry under the hash.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise StoreError(
                f"cannot write cache entry {path}: {exc}"
            ) from exc
        self.writes += 1
        return True

    def _entry_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in sorted(shard.glob("*.json")):
                digest = path.stem
                if len(digest) == _HASH_HEX_LENGTH and digest.startswith(shard.name):
                    yield path

    def entries(self) -> List[Dict[str, Any]]:
        """Return ``{"hash", "experiment", "algorithm", "workload", "seed",
        "bytes"}`` summaries of every entry, sorted by hash."""
        summaries = []
        for path in self._entry_files():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise AnalysisError(
                    f"{path}: cache entry is not valid JSON: {exc}"
                ) from exc
            run = payload.get("run", {})
            summaries.append(
                {
                    "hash": path.stem,
                    "experiment": run.get("experiment"),
                    "algorithm": run.get("algorithm", {}).get("name"),
                    "workload": run.get("workload", {}).get("name"),
                    "seed": run.get("seed"),
                    "bytes": path.stat().st_size,
                }
            )
        return summaries

    def stats(self) -> Dict[str, Any]:
        """Return entry count, total bytes, and this instance's traffic."""
        count = 0
        total_bytes = 0
        for path in self._entry_files():
            count += 1
            total_bytes += path.stat().st_size
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def evict(self, digest: str) -> bool:
        """Remove the entry under ``digest``; ``False`` if absent."""
        if len(digest) != _HASH_HEX_LENGTH or not all(
            c in "0123456789abcdef" for c in digest
        ):
            raise AnalysisError(
                f"not a sha256 content hash: {digest!r} (expected 64 hex "
                "characters, as printed by 'repro cache')"
            )
        path = self._entry_path(digest)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def clear(self) -> int:
        """Remove every entry, returning how many were removed."""
        removed = 0
        for path in list(self._entry_files()):
            path.unlink()
            removed += 1
        return removed


class RecordStore:
    """Line-oriented JSONL file with canonical encoding and append."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """``True`` when the file exists and is non-empty."""
        return self.path.exists() and self.path.stat().st_size > 0

    def append(self, payload: Dict[str, Any]) -> None:
        """Append one canonical JSON line and flush it to disk."""
        line = canonical_json(payload) + "\n"
        fault = fault_point("store.append", kind=str(payload.get("kind")))
        try:
            with self.path.open("a", encoding="utf-8") as handle:
                if fault is not None:
                    if fault.action == "enospc":
                        raise injected_os_error(28, "disk full")  # ENOSPC
                    if fault.action == "torn":
                        # A crash mid-write: half a line, no newline —
                        # exactly what discard_partial_tail heals.
                        handle.write(line[: max(1, len(line) // 2)])
                        handle.flush()
                        raise injected_os_error(5, "torn tail write")  # EIO
                handle.write(line)
                handle.flush()
                fsync_fault = fault_point("store.fsync", kind=str(payload.get("kind")))
                if fsync_fault is not None:
                    raise injected_os_error(5, "fsync failed")  # EIO
        except OSError as exc:
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc

    def discard_partial_tail(self) -> None:
        """Drop a trailing partial line left behind by a crash mid-write.

        Truncating back to the last complete line restores the invariant
        that the file is a clean prefix of the sweep — which is what
        makes the resumed file byte-identical to a one-shot run.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with self.path.open("r+b") as handle:
            handle.truncate(data.rfind(b"\n") + 1)

    def read_all(self) -> List[Dict[str, Any]]:
        """Return every parsed line (ignoring a trailing partial line).

        A crash can truncate the final line mid-write; a resumed sweep
        must not choke on it.  Anything before the last newline must
        parse, though — corruption there is an error, not noise.
        """
        if not self.path.exists():
            return []
        text = self.path.read_text(encoding="utf-8")
        complete, _, partial = text.rpartition("\n")
        if not complete:
            return []
        entries = []
        for number, line in enumerate(complete.split("\n"), start=1):
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise AnalysisError(
                    f"{self.path}: line {number} is not valid JSON: {exc}"
                ) from exc
        return entries


@dataclass(frozen=True)
class StoredSweep:
    """The parsed contents of a sweep's JSONL file."""

    spec: SweepSpec
    #: Completed cells as (cell index, algorithm label, record), in file order.
    entries: Tuple[Tuple[int, str, ExperimentRecord], ...]
    #: Quarantined cells as (cell index, label, error reason), in file order.
    errors: Tuple[Tuple[int, str, str], ...] = ()

    def completed_cells(self) -> Set[int]:
        """Return the set of cell indices with a stored record."""
        return {cell for cell, _, _ in self.entries}

    def error_cells(self) -> Set[int]:
        """Return the set of cell indices holding a cell-error line."""
        return {cell for cell, _, _ in self.errors}

    def records_by_label(self) -> Dict[str, List[ExperimentRecord]]:
        """Return records grouped by algorithm label, in cell order.

        Matches :meth:`repro.api.specs.SweepSpec.run` output for a
        complete sweep.
        """
        grouped: Dict[str, List[ExperimentRecord]] = {
            label: [] for label in self.spec.labels()
        }
        for _, label, record in sorted(self.entries, key=lambda entry: entry[0]):
            grouped.setdefault(label, []).append(record)
        return grouped

    def records(self) -> List[ExperimentRecord]:
        """Return all records in cell order."""
        return [
            record
            for _, _, record in sorted(self.entries, key=lambda entry: entry[0])
        ]


def _parse_store(store: RecordStore, num_cells: Optional[int] = None) -> StoredSweep:
    entries = store.read_all()
    if not entries:
        raise AnalysisError(f"{store.path}: empty or missing sweep store")
    header = entries[0]
    if header.get("kind") != _HEADER_KIND or "spec" not in header:
        raise AnalysisError(
            f"{store.path}: first line is not a sweep header; this file "
            "was not written by run_sweep"
        )
    spec = SweepSpec.from_dict(header["spec"])
    cells: List[Tuple[int, str, ExperimentRecord]] = []
    errors: List[Tuple[int, str, str]] = []
    seen_cells: Set[int] = set()
    for entry in entries[1:]:
        kind = entry.get("kind")
        if kind not in (_RECORD_KIND, _ERROR_KIND):
            raise AnalysisError(
                f"{store.path}: unexpected line kind {entry.get('kind')!r}"
            )
        payload_key = "record" if kind == _RECORD_KIND else "error"
        missing = {"cell", "label", payload_key} - set(entry)
        if missing:
            raise AnalysisError(
                f"{store.path}: {kind} line is missing {sorted(missing)}"
            )
        cell = int(entry["cell"])
        if num_cells is not None and not 0 <= cell < num_cells:
            raise AnalysisError(
                f"{store.path}: record for cell {cell} is outside the "
                f"spec's {num_cells}-cell grid"
            )
        if cell in seen_cells:
            raise AnalysisError(
                f"{store.path}: duplicate record for cell {cell} (were two "
                "sweeps racing on this file?)"
            )
        seen_cells.add(cell)
        if kind == _RECORD_KIND:
            cells.append(
                (
                    cell,
                    str(entry["label"]),
                    ExperimentRecord.from_dict(entry["record"]),
                )
            )
        else:
            errors.append((cell, str(entry["label"]), str(entry["error"])))
    return StoredSweep(spec=spec, entries=tuple(cells), errors=tuple(errors))


def load_sweep(path: "str | Path") -> StoredSweep:
    """Load a sweep store written by :func:`run_sweep`."""
    return _parse_store(RecordStore(path))


class SweepStoreWriter:
    """In-order, resumable writer of one sweep's JSONL store.

    The single authority on the store's byte layout, shared by the
    serial :func:`run_sweep` path and the experiment service's
    dispatcher: construction replays ``run_sweep``'s header/resume
    protocol exactly (heal a partial tail, adopt a matching prefix or
    refuse a foreign one, write the header on a fresh file), and
    :meth:`write` appends record lines **in ascending cell order** no
    matter the order records arrive in — out-of-order completions (a
    worker fleet finishes cells in whatever order leases land) are
    buffered and flushed as soon as every smaller unwritten cell is in.

    Since a serial sweep writes its pending cells in ascending order
    anyway, both paths produce the same file, byte for byte.
    """

    def __init__(
        self, spec: SweepSpec, path: "str | Path", resume: bool = False
    ) -> None:
        spec.require_sweepable()
        self.spec = spec
        self.store = RecordStore(path)
        self.labels = spec.cell_labels()
        self.num_cells = len(self.labels)
        #: Cells whose line (record or cell-error) is on disk (the resumed
        #: prefix at construction; grows as buffered lines flush).
        self.done: Set[int] = set()
        self._entries: List[Tuple[int, str, ExperimentRecord]] = []
        self._errors: List[Tuple[int, str, str]] = []
        #: Buffered store lines (full line documents) awaiting in-order flush.
        self._buffer: Dict[int, Dict[str, Any]] = {}
        self.written = 0
        if self.store.exists():
            if not resume:
                raise AnalysisError(
                    f"{self.store.path} already exists; pass resume=True "
                    "(CLI: --resume) to continue an interrupted sweep, or "
                    "choose a fresh output path"
                )
            self.store.discard_partial_tail()
        if self.store.exists():
            # (still) non-empty after healing: a real prefix to resume from.
            stored = _parse_store(self.store, num_cells=self.num_cells)
            if stored.spec.to_dict() != spec.to_dict():
                raise AnalysisError(
                    f"{self.store.path} was written for a different sweep "
                    "spec; refusing to mix records from two sweeps in one "
                    "file"
                )
            self.done = stored.completed_cells() | stored.error_cells()
            self._entries = list(stored.entries)
            self._errors = list(stored.errors)
        else:
            # Fresh file — or a crash landed mid-header-write and healing
            # emptied it; either way the sweep starts from the beginning.
            self.store.append(
                {
                    "kind": _HEADER_KIND,
                    "schema": SPEC_SCHEMA_VERSION,
                    "spec": spec.to_dict(),
                }
            )
        self._order: Deque[int] = deque(
            index for index in range(self.num_cells) if index not in self.done
        )

    def pending(self) -> List[int]:
        """Cells without a record yet (written or buffered), ascending."""
        return [index for index in self._order if index not in self._buffer]

    def write(self, cell: int, record_doc: Dict[str, Any]) -> ExperimentRecord:
        """File ``cell``'s record document; returns the parsed record.

        The document is validated immediately (a malformed record must
        fail at the producer, not corrupt the file) but hits disk only
        once every smaller unwritten cell has arrived — preserving the
        serial path's byte layout under out-of-order completion.
        """
        if not 0 <= cell < self.num_cells:
            raise AnalysisError(
                f"cell {cell} is outside the spec's {self.num_cells}-cell grid"
            )
        if cell in self.done or cell in self._buffer:
            raise AnalysisError(
                f"{self.store.path}: cell {cell} already has a record"
            )
        record = ExperimentRecord.from_dict(record_doc)
        self._buffer[cell] = {
            "kind": _RECORD_KIND,
            "cell": cell,
            "label": self.labels[cell],
            "record": record_doc,
        }
        self._flush_ready()
        return record

    def write_error(self, cell: int, error: str) -> None:
        """File a cell-error line for a quarantined ``cell``.

        Holds the cell's position in the in-order layout (buffered and
        flushed exactly like a record), so quarantining one poison cell
        lets every later cell's record still reach the file.
        """
        if not 0 <= cell < self.num_cells:
            raise AnalysisError(
                f"cell {cell} is outside the spec's {self.num_cells}-cell grid"
            )
        if cell in self.done or cell in self._buffer:
            raise AnalysisError(
                f"{self.store.path}: cell {cell} already has a record"
            )
        self._buffer[cell] = {
            "kind": _ERROR_KIND,
            "cell": cell,
            "label": self.labels[cell],
            "error": str(error),
        }
        self._flush_ready()

    def _flush_ready(self) -> None:
        while self._order and self._order[0] in self._buffer:
            index = self._order.popleft()
            doc = self._buffer.pop(index)
            self.store.append(doc)
            if doc["kind"] == _RECORD_KIND:
                self._entries.append(
                    (
                        index,
                        self.labels[index],
                        ExperimentRecord.from_dict(doc["record"]),
                    )
                )
            else:
                self._errors.append((index, self.labels[index], doc["error"]))
            self.done.add(index)
            self.written += 1

    @property
    def buffered(self) -> int:
        """Records held back waiting for a smaller cell to complete."""
        return len(self._buffer)

    def stored(self) -> StoredSweep:
        """Return the written contents as a :class:`StoredSweep`.

        Matches the file exactly (buffered records are not included —
        they are not on disk).
        """
        return StoredSweep(
            spec=self.spec,
            entries=tuple(self._entries),
            errors=tuple(self._errors),
        )


def run_sweep(
    spec: SweepSpec,
    path: "str | Path",
    runner: Optional[SweepRunner] = None,
    resume: bool = False,
    max_cells: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    retries: int = 0,
    on_retry: Optional[Callable[[int, str], None]] = None,
) -> StoredSweep:
    """Execute ``spec``, appending each record to the JSONL file at ``path``.

    Parameters
    ----------
    runner:
        Sweep scheduler to execute cells on (serial by default).  Records
        are consumed in cell order via the streaming
        :meth:`~repro.analysis.SweepRunner.iter_cells`, so each is
        appended — and flushed — as soon as it completes.
    resume:
        Allow ``path`` to already contain a prefix of this sweep; cells
        with stored records are skipped and only the remainder runs.
        Without ``resume``, an existing non-empty file is an error.
    max_cells:
        Stop after executing this many *new* cells (the store keeps its
        valid prefix).  This is the deterministic stand-in for an
        interrupted sweep, used by the resume tests and the CI smoke leg.
    cache:
        Optional content-addressed :class:`ResultCache`.  Cells whose run
        spec already has a cached record are served from it (the stored
        record document is appended verbatim, keeping the JSONL file
        byte-identical to an executed sweep) and fresh records are filed
        back.  Resume and cache compose: resumed cells never touch the
        cache, so resuming over a warm cache does not double-write.

    progress:
        Optional ``(completed, total)`` callback, invoked once with the
        resumed state before any cell runs and again after every
        completed cell — what ``repro sweep --progress`` renders.
    retries:
        How many times to resume the remaining cells after the executor
        breaks (a worker process OOM-killed or segfaulted breaks the
        whole pool).  The store's flushed prefix survives each retry —
        only cells without a record rerun — so the final file is still
        byte-identical to an uninterrupted sweep.  Zero (the default)
        re-raises the first breakage, as before.
    on_retry:
        Optional ``(attempt, reason)`` callback, invoked before each
        retry — what ``repro sweep --progress`` reports retries with.

    Returns the complete (or, with ``max_cells``, partial) stored sweep.
    """
    if retries < 0:
        raise AnalysisError(f"retries must be non-negative, got {retries}")
    if max_cells is not None and max_cells < 0:
        raise AnalysisError(f"max_cells must be non-negative, got {max_cells}")
    writer = SweepStoreWriter(spec, path, resume=resume)
    cells = spec.cells()
    pending = writer.pending()
    if max_cells is not None:
        pending = pending[:max_cells]
    if progress is not None:
        progress(len(writer.done), writer.num_cells)
    if pending:
        own_runner = runner is None
        runner = runner if runner is not None else SweepRunner()
        attempt = 0
        try:
            while pending:
                try:
                    stream = runner.iter_cells(
                        [cells[index] for index in pending], cache=cache
                    )
                    for index, record in zip(pending, stream):
                        writer.write(index, record.to_dict())
                        if progress is not None:
                            progress(len(writer.done), writer.num_cells)
                    break
                except BrokenExecutor as exc:
                    # iter_cells already dropped the broken pool; the
                    # next iteration gets a fresh one from the runner.
                    attempt += 1
                    if attempt > retries:
                        raise
                    pending = [
                        index for index in pending if index not in writer.done
                    ]
                    if on_retry is not None:
                        on_retry(attempt, str(exc) or type(exc).__name__)
        finally:
            if own_runner:
                runner.close()
    # The writer's adopted prefix plus the records just flushed is exactly
    # the file's contents — no need to re-read and re-parse it from disk.
    return writer.stored()
