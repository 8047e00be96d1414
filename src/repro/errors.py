"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers embedding the simulator can catch library failures with a single
``except`` clause while still distinguishing the specific failure modes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for invalid graph constructions or queries.

    Examples include adding a self-loop, querying the neighbourhood of a
    vertex that does not exist, or constructing a generator with parameters
    outside its documented domain.
    """


class HashingError(ReproError):
    """Raised for invalid hash-family parameters.

    Examples include requesting 0-wise independence or a hash range that is
    not a positive integer.
    """


class SimulationError(ReproError):
    """Base class for errors raised by the CONGEST simulator."""


class TopologyError(SimulationError):
    """Raised when a node attempts to use a communication link that does not
    exist in the current communication topology (e.g. sending to a
    non-neighbour in the standard CONGEST model)."""


class ProtocolError(SimulationError):
    """Raised when a protocol is configured outside its valid range (e.g.
    a repetition count below 1 or an ε outside ``[0, 1]``)."""


class RoundLimitExceededError(SimulationError):
    """Raised when an execution exceeds its configured round budget.

    Algorithm A3 in the paper explicitly stops once its round budget is
    exhausted; the simulator surfaces budget exhaustion through this error so
    the algorithm wrapper can convert it into the paper's "stop early"
    behaviour.
    """


class VerificationError(ReproError):
    """Raised when an algorithm output fails a soundness check.

    Soundness (every reported triple is a real triangle) is an unconditional
    requirement of the paper's output model; completeness failures are
    reported as data (miss rates), not exceptions.
    """


class AnalysisError(ReproError):
    """Raised for invalid analysis or experiment-harness configurations."""


class StoreError(AnalysisError):
    """Raised when a result store or cache cannot be written durably.

    Examples include a full disk during a cache put (the partially
    written temporary entry is unlinked before this is raised) or a
    store file whose directory vanished mid-run.  Subclasses
    :class:`AnalysisError` so existing ``except ReproError`` /
    ``except AnalysisError`` harness code keeps catching it.
    """


class FaultError(ReproError):
    """Raised for invalid fault-injection schedules or rules.

    Examples include a rule naming an unknown injection point, an action
    the point does not support, or a schedule file that is not a
    canonical fault-schedule document.
    """


class ServiceError(ReproError):
    """Raised for experiment-service failures (dispatcher, workers, protocol).

    Examples include connecting to a directory with no running service,
    malformed or oversized protocol frames, submitting a spec the
    dispatcher rejects, or waiting on a job whose cells failed.
    """
