"""Persistent worker-fleet experiment service.

The third execution tier, above in-process calls and per-call process
pools: a long-lived **dispatcher** (:class:`Dispatcher`) owns a cell
queue fed from :class:`~repro.api.specs.SweepSpec` submissions and
leases cells to resident **worker** processes (:func:`worker_main`)
over a local socket protocol of length-prefixed canonical-JSON frames
(:mod:`repro.service.protocol`).  Completed records stream into the
same JSONL store format ``repro sweep`` writes — byte-identical to a
serial run — while the fleet amortises process spawn, imports and
workload construction across cells, jobs and whole sweeps.

Fault tolerance is lease-based (:mod:`repro.service.leases`): every
leased cell carries a deadline, workers heartbeat, and a killed, wedged
or evicted worker's cells are requeued and re-executed — execution is
at-least-once, recording exactly-once, and records are deterministic in
the cell's explicit seed, so retries change nothing.

Command-line surface: ``repro serve DIR`` (dispatcher, with managed
workers), ``repro worker DIR`` (extra capacity), ``repro submit DIR
SPEC`` (run a sweep on the fleet), ``repro status DIR`` (live fleet and
job state).  :class:`ServiceClient` is the same control plane from
Python.
"""

from .dispatcher import Dispatcher
from .events import EVENTS_FILE_NAME, EventLog, read_events
from .leases import CellLeaseTable, Lease
from .protocol import (
    PROTOCOL_VERSION,
    ServiceAddress,
    ServiceClient,
    read_service_info,
)
from .worker import worker_main

__all__ = [
    "EVENTS_FILE_NAME",
    "PROTOCOL_VERSION",
    "CellLeaseTable",
    "Dispatcher",
    "EventLog",
    "Lease",
    "ServiceAddress",
    "ServiceClient",
    "read_events",
    "read_service_info",
    "worker_main",
]
