"""Zero-copy shared-memory plane for graph workloads.

A sweep over one workload runs many (algorithm × seed) cells against the
same graph.  Shipping that graph to worker processes by pickle costs
serialisation per cell, and — much worse on this repository's workloads —
every worker re-derives the triangle oracle (``edge_support`` /
``triangles``) that verification needs, paying the dominant setup cost
once per workload *per worker*.  This module materialises a
:class:`~repro.graphs.csr.CSRGraph`'s arrays into one
:mod:`multiprocessing.shared_memory` segment instead:

* :func:`share_csr` (parent side) computes the triangle oracle and copies
  it, with the CSR arrays, into a fresh segment and returns a
  :class:`SharedGraphOwner` whose :class:`SharedGraphHandle` is picklable
  in O(bytes of the manifest), not O(bytes of the graph);
* :func:`attach_shared_graph` (worker side) maps the segment and rebuilds
  the ``CSRGraph`` as read-only zero-copy views over the mapping, with the
  oracle caches pre-populated — a worker never recomputes what the parent
  already knows.

Lifecycle is refcounted on both sides so segments cannot leak:

* the **owner** unlinks the segment when closed; a ``weakref.finalize``
  ties unlink to garbage collection, so even a dropped owner releases the
  name (and the POSIX unlink-while-mapped semantics keep attached workers
  valid until they unmap);
* each **attachment** registers a finalizer on the attached ``CSRGraph``;
  when the last graph viewing a segment is collected the mapping is
  closed.  NumPy views can outlive the finalizer call by a few
  deallocations (``BufferError`` from ``memoryview.release``), so closes
  that cannot complete yet are parked and re-tried on the next attach or
  release — and, at the latest, at interpreter exit when the mapping dies
  with the process.

CPython 3.8–3.12 register *attached* segments with the resource tracker
as if the attaching process owned them (bpo-39959).  Because the tracker
daemon (and its name set) is shared across a process tree, that
re-registration is an idempotent no-op here — the attach path simply
leaves it alone (see :func:`_open_untracked`), and passes ``track=False``
where the real fix landed (3.13+).

Platforms without ``multiprocessing.shared_memory`` (or without a usable
``/dev/shm``) degrade cleanly: :func:`shm_available` probes once, and
the sweep scheduler and the service dispatcher then ship workloads by
pickle or run spec instead.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

try:  # pragma: no cover - import failure only on exotic platforms
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]
    SHM_AVAILABLE = False

__all__ = [
    "SHM_AVAILABLE",
    "SharedArraySpec",
    "SharedGraphHandle",
    "SharedGraphOwner",
    "active_attachments",
    "attach_shared_graph",
    "disown_tracker",
    "reap_pending",
    "segment_exists",
    "share_csr",
    "shm_available",
]

#: Segment offsets are rounded up to this many bytes so every attached
#: array view is safely aligned for its dtype.
_ALIGNMENT = 64

#: The CSR arrays every handle must carry, in manifest order.
_REQUIRED_FIELDS = ("indptr", "indices", "edge_u", "edge_v")

#: Optional oracle caches: manifest field -> CSRGraph slot.
_ORACLE_FIELDS = {"support": "_support", "triangles": "_triangles"}

_HAS_TRACK_PARAM = SHM_AVAILABLE and "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


@dataclass(frozen=True)
class SharedArraySpec:
    """Manifest entry for one array inside a shared segment."""

    field: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(size) for size in self.shape))

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        count = 1
        for size in self.shape:
            count *= size
        return count * np.dtype(self.dtype).itemsize

    def to_dict(self) -> dict:
        """Return the JSON-ready manifest entry (inverse of :meth:`from_dict`)."""
        return {
            "field": self.field,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SharedArraySpec":
        """Rebuild a manifest entry from :meth:`to_dict` output."""
        missing = {"field", "dtype", "shape", "offset"} - set(payload)
        if missing:
            raise GraphError(
                f"shared array spec is missing {sorted(missing)}"
            )
        return cls(
            field=str(payload["field"]),
            dtype=str(payload["dtype"]),
            shape=tuple(payload["shape"]),
            offset=int(payload["offset"]),
        )


@dataclass(frozen=True)
class SharedGraphHandle:
    """A picklable name-plus-manifest reference to a shared graph.

    The handle carries no graph data: pickling one costs O(manifest
    bytes) regardless of graph size, which is what lets the sweep
    scheduler ship a 10k-node workload to every worker for a few hundred
    bytes.  :func:`attach_shared_graph` rebuilds the
    :class:`~repro.graphs.csr.CSRGraph` as zero-copy read-only views.
    """

    segment: str
    num_nodes: int
    num_edges: int
    arrays: Tuple[SharedArraySpec, ...]
    total_bytes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrays", tuple(self.arrays))
        fields = [spec.field for spec in self.arrays]
        missing = set(_REQUIRED_FIELDS) - set(fields)
        if missing:
            raise GraphError(
                f"shared graph handle is missing required arrays {sorted(missing)}"
            )
        unknown = set(fields) - set(_REQUIRED_FIELDS) - set(_ORACLE_FIELDS)
        if unknown:
            raise GraphError(
                f"shared graph handle carries unknown arrays {sorted(unknown)}"
            )
        if len(set(fields)) != len(fields):
            raise GraphError(f"shared graph handle repeats arrays: {fields}")

    def to_dict(self) -> dict:
        """Return the JSON-ready manifest document (inverse of :meth:`from_dict`).

        Handles travel between processes either by pickle (the sweep
        scheduler's pool) or as canonical-JSON protocol frames (the
        experiment service's lease messages); both carry exactly the
        manifest, never graph bytes.
        """
        return {
            "segment": self.segment,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "arrays": [spec.to_dict() for spec in self.arrays],
            "total_bytes": self.total_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SharedGraphHandle":
        """Rebuild a handle from :meth:`to_dict` output (validated as usual)."""
        missing = {"segment", "num_nodes", "num_edges", "arrays", "total_bytes"} - set(
            payload
        )
        if missing:
            raise GraphError(
                f"shared graph handle document is missing {sorted(missing)}"
            )
        return cls(
            segment=str(payload["segment"]),
            num_nodes=int(payload["num_nodes"]),
            num_edges=int(payload["num_edges"]),
            arrays=tuple(
                SharedArraySpec.from_dict(spec) for spec in payload["arrays"]
            ),
            total_bytes=int(payload["total_bytes"]),
        )


# ---------------------------------------------------------------------------
# availability probing
# ---------------------------------------------------------------------------

_PROBE_RESULT: Optional[bool] = None


def shm_available() -> bool:
    """``True`` when shared-memory segments can actually be created.

    Import success is not enough — a sandboxed or misconfigured platform
    can expose the module but fail at ``shm_open`` time — so the first
    call creates and unlinks a tiny probe segment and the verdict is
    cached for the process lifetime.
    """
    global _PROBE_RESULT
    if not SHM_AVAILABLE:
        return False
    if _PROBE_RESULT is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
        except Exception:
            _PROBE_RESULT = False
        else:
            _PROBE_RESULT = True
    return _PROBE_RESULT


def _require_shm() -> None:
    if not SHM_AVAILABLE:
        raise GraphError(
            "multiprocessing.shared_memory is not available on this platform"
        )


def _open_untracked(name: str):
    """Attach to an existing segment without adopting ownership of it.

    On 3.8–3.12 ``SharedMemory(name=...)`` registers the segment with the
    resource tracker as if the attaching process created it (bpo-39959).
    Within one process tree the tracker daemon — and its name *set* — is
    shared by fork/spawn children, so the re-registration is an idempotent
    no-op and needs no correction; calling ``unregister`` here would
    instead erase the owner's entry, losing the crash-cleanup safety net
    and provoking a tracker ``KeyError`` when the owner later unlinks.
    3.13+ has the real fix (``track=False``), which this uses when
    available.
    """
    if _HAS_TRACK_PARAM:  # pragma: no cover - exercised on 3.13+ only
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


def disown_tracker(segment: str) -> None:
    """Drop *this process's* resource-tracker entry for ``segment``.

    The no-correction rule in :func:`_open_untracked` holds only inside
    one process tree.  A worker launched with ``subprocess.Popen`` (the
    service fleet) starts its **own** tracker daemon: on 3.8–3.12 the
    attach-side re-registration (bpo-39959) lands there, and at worker
    exit that private tracker would *unlink the owner's still-live
    segment*.  Such workers must call this after attaching.  Safe to
    call even when the tracker entry does not exist; no-op on 3.13+
    (attachments are untracked) and where shm is unavailable.
    """
    if not SHM_AVAILABLE or _HAS_TRACK_PARAM:
        return
    # The tracker stores the raw POSIX name (leading slash) as
    # registered by ``SharedMemory.__init__``, not the public ``.name``.
    raw = segment if segment.startswith("/") else "/" + segment
    try:
        resource_tracker.unregister(raw, "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        pass


def segment_exists(name: str) -> bool:
    """``True`` when a segment of this name currently exists (test probe)."""
    if not SHM_AVAILABLE:
        return False
    try:
        probe = _open_untracked(name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


# ---------------------------------------------------------------------------
# parent side: share
# ---------------------------------------------------------------------------


def _close_segment(shm) -> bool:
    """Close a mapping; ``False`` when live array views still pin it."""
    try:
        shm.close()
    except BufferError:
        return False
    return True


def _unlink_segment(shm) -> None:
    try:
        shm.unlink()
    except FileNotFoundError:
        # ``SharedMemory.unlink`` unregisters from the resource tracker
        # only *after* a successful ``shm_unlink``; when the name is
        # already gone (another process raced the unlink) the entry
        # would linger and the tracker would warn — and re-raise the
        # ENOENT — at process exit.  Drop it by hand.
        if resource_tracker is not None:
            try:
                resource_tracker.unregister(
                    getattr(shm, "_name", shm.name), "shared_memory"
                )
            except Exception:  # pragma: no cover - tracker already gone
                pass


def _owner_cleanup(shm) -> None:
    """Finalizer target: unlink the segment and drop the owner's mapping.

    Unlink happens first and unconditionally — releasing the *name* is
    the leak that matters (attached processes keep their mappings valid
    under POSIX unlink-while-mapped semantics).  The owner's own mapping
    close is best-effort: a still-exported buffer only delays the unmap
    until process exit, it cannot resurrect the name.
    """
    _unlink_segment(shm)
    _close_segment(shm)


class SharedGraphOwner:
    """Parent-side ownership of one shared graph segment.

    Closing the owner unlinks the segment (idempotently); a
    ``weakref.finalize`` guarantees the same cleanup when an owner is
    dropped without an explicit :meth:`close` — including interpreter
    exit, where all pending finalizers run.
    """

    __slots__ = ("handle", "_shm", "_finalizer", "__weakref__")

    def __init__(self, handle: SharedGraphHandle, shm) -> None:
        self.handle = handle
        self._shm = shm
        self._finalizer = weakref.finalize(self, _owner_cleanup, shm)

    @property
    def closed(self) -> bool:
        """``True`` once the segment has been unlinked."""
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the segment (idempotent; attached workers stay valid)."""
        self._finalizer()

    def __enter__(self) -> "SharedGraphOwner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SharedGraphOwner(segment={self.handle.segment!r}, {state})"


def share_csr(csr: CSRGraph) -> SharedGraphOwner:
    """Materialise ``csr`` and its triangle oracle into one shared segment.

    The oracle caches (``edge_support`` / ``triangles``) are computed here
    if they are not already, so no attached worker ever recomputes them:
    verification needs the oracle for every cell, so paying it once in
    the parent is always a net win.  Returns the segment's owner.
    """
    _require_shm()
    csr.edge_support()
    csr.triangles()

    payload: List[Tuple[str, np.ndarray]] = [
        (field, getattr(csr, field)) for field in _REQUIRED_FIELDS
    ]
    payload.extend(
        (field, getattr(csr, slot)) for field, slot in _ORACLE_FIELDS.items()
    )

    specs: List[SharedArraySpec] = []
    offset = 0
    for field, array in payload:
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        specs.append(
            SharedArraySpec(
                field=field,
                dtype=np.dtype(array.dtype).str,
                shape=tuple(array.shape),
                offset=offset,
            )
        )
        offset += array.nbytes
    total_bytes = max(offset, 1)

    shm = shared_memory.SharedMemory(create=True, size=total_bytes)
    try:
        for spec, (_, array) in zip(specs, payload):
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            view[...] = array
            del view  # release the buffer export before close() can run
        handle = SharedGraphHandle(
            segment=shm.name,
            num_nodes=csr.num_nodes,
            num_edges=csr.num_edges,
            arrays=tuple(specs),
            total_bytes=total_bytes,
        )
    except BaseException:
        _owner_cleanup(shm)
        raise
    return SharedGraphOwner(handle, shm)


# ---------------------------------------------------------------------------
# worker side: attach
# ---------------------------------------------------------------------------


class _Attachment:
    __slots__ = ("shm", "refcount")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.refcount = 0


#: This process's open attachments: segment name -> refcounted mapping.
_ATTACHMENTS: Dict[str, _Attachment] = {}

#: Mappings whose close raised ``BufferError`` (views still draining);
#: re-tried by :func:`reap_pending` on the next attach/release.
_PENDING_CLOSE: List = []


def reap_pending() -> int:
    """Retry deferred mapping closes; return how many are still pending."""
    still_pending = [shm for shm in _PENDING_CLOSE if not _close_segment(shm)]
    _PENDING_CLOSE[:] = still_pending
    return len(still_pending)


def active_attachments() -> Dict[str, int]:
    """Return this process's live attachments as ``{segment: refcount}``."""
    return {name: entry.refcount for name, entry in _ATTACHMENTS.items()}


def _release_attachment(segment: str) -> None:
    """Finalizer target: drop one reference to an attached segment.

    Runs while the dying ``CSRGraph``'s array views are still reachable
    (weakref callbacks fire before slot teardown), so an immediate close
    usually raises ``BufferError``; such mappings are parked on the
    pending list and reaped once the views are gone.
    """
    entry = _ATTACHMENTS.get(segment)
    if entry is not None:
        entry.refcount -= 1
        if entry.refcount <= 0:
            del _ATTACHMENTS[segment]
            if not _close_segment(entry.shm):
                _PENDING_CLOSE.append(entry.shm)
    reap_pending()


def attach_shared_graph(handle: SharedGraphHandle) -> CSRGraph:
    """Attach ``handle`` and return its graph as read-only zero-copy views.

    Attachments are refcounted per process: many graphs may view one
    segment through a single mapping, and the mapping is closed when the
    last of them is garbage collected.  The returned ``CSRGraph`` is
    indistinguishable from a locally built snapshot — same arrays, same
    immutability — except that any oracle caches the sharer included
    arrive pre-populated.
    """
    _require_shm()
    reap_pending()
    entry = _ATTACHMENTS.get(handle.segment)
    created = entry is None
    if created:
        try:
            shm = _open_untracked(handle.segment)
        except FileNotFoundError as exc:
            raise GraphError(
                f"shared graph segment {handle.segment!r} no longer exists "
                "(was its owner closed before the workers attached?)"
            ) from exc
        entry = _Attachment(shm)
    try:
        if entry.shm.size < handle.total_bytes:
            raise GraphError(
                f"shared graph segment {handle.segment!r} is smaller than "
                f"its manifest claims ({entry.shm.size} < "
                f"{handle.total_bytes} bytes)"
            )

        arrays: Dict[str, np.ndarray] = {}
        for spec in handle.arrays:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=entry.shm.buf, offset=spec.offset
            )
            view.setflags(write=False)
            arrays[spec.field] = view

        csr = CSRGraph(
            handle.num_nodes,
            arrays["indptr"],
            arrays["indices"],
            arrays["edge_u"],
            arrays["edge_v"],
        )
    except BaseException:
        # A mapping opened just for this failed attach must not linger at
        # refcount 0; views created above may still pin it, so the close
        # is parked if it cannot complete yet.
        if created and not _close_segment(entry.shm):
            _PENDING_CLOSE.append(entry.shm)
        raise
    for field, slot in _ORACLE_FIELDS.items():
        if field in arrays:
            setattr(csr, slot, arrays[field])
    _ATTACHMENTS[handle.segment] = entry
    entry.refcount += 1
    weakref.finalize(csr, _release_attachment, handle.segment)
    return csr
