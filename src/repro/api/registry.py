"""Named registries of algorithms and workload generators.

The declarative run-spec layer (:mod:`repro.api.specs`) and the ``repro``
CLI refer to algorithms and workloads *by name*.  This module owns those
names: a registry entry couples a name to the factory that builds the
object (an algorithm class from :mod:`repro.core`, a generator function
from :mod:`repro.graphs.generators`), a one-line summary, and a parameter
schema derived from the factory's signature — so ``repro list --json``
can tell a user exactly which parameters each name accepts without
importing anything else.

Every algorithm and generator already in the repository is registered at
import time, below.  Third-party extensions use the same two decorators::

    from repro.api import register_algorithm, register_workload

    @register_algorithm("my-lister", kind="listing")
    class MyLister(TriangleAlgorithm):
        ...

    @register_workload("my-workload")
    def my_workload(num_nodes: int, seed=None) -> Graph:
        ...

Names are case-insensitive and must be unique; registering a taken name
raises :class:`~repro.errors.AnalysisError`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import AnalysisError

__all__ = [
    "ParameterSchema",
    "AlgorithmEntry",
    "WorkloadEntry",
    "register_algorithm",
    "register_workload",
    "unregister_algorithm",
    "unregister_workload",
    "get_algorithm",
    "get_workload",
    "list_algorithms",
    "list_workloads",
]


@dataclass(frozen=True)
class ParameterSchema:
    """One constructor/generator parameter, as advertised by the registry."""

    name: str
    required: bool
    default: Any = None
    annotation: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-ready description of the parameter."""
        payload: Dict[str, Any] = {"name": self.name, "required": self.required}
        if not self.required:
            payload["default"] = self.default
        if self.annotation:
            payload["annotation"] = self.annotation
        return payload


def _first_doc_line(obj: Any) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0].strip() if doc else ""


def _schema_from_factory(factory: Callable[..., Any]) -> Tuple[ParameterSchema, ...]:
    """Derive the parameter schema from a factory's call signature.

    ``inspect.signature`` on a class resolves to its ``__init__`` (minus
    ``self``), so algorithm classes and generator functions are handled
    uniformly.  Variadic parameters are omitted — registry names exist so
    specs can be validated, and ``**kwargs`` cannot be.
    """
    parameters: List[ParameterSchema] = []
    for parameter in inspect.signature(factory).parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        required = parameter.default is inspect.Parameter.empty
        annotation = (
            ""
            if parameter.annotation is inspect.Parameter.empty
            else str(parameter.annotation)
        )
        parameters.append(
            ParameterSchema(
                name=parameter.name,
                required=required,
                default=None if required else parameter.default,
                annotation=annotation,
            )
        )
    return tuple(parameters)


def _check_params(
    entry_kind: str,
    name: str,
    schema: Tuple[ParameterSchema, ...],
    params: Mapping[str, Any],
) -> None:
    """Reject unknown or missing-required parameters with a clear error."""
    known = {parameter.name for parameter in schema}
    unknown = set(params) - known
    if unknown:
        raise AnalysisError(
            f"{entry_kind} {name!r} does not accept parameters "
            f"{sorted(unknown)}; valid parameters are {sorted(known)}"
        )
    missing = {
        parameter.name
        for parameter in schema
        if parameter.required and parameter.name not in params
    }
    if missing:
        raise AnalysisError(
            f"{entry_kind} {name!r} requires parameters {sorted(missing)}"
        )


@dataclass(frozen=True)
class AlgorithmEntry:
    """A named, buildable algorithm with its parameter schema."""

    name: str
    factory: Callable[..., Any]
    summary: str
    kind: str
    model: str
    #: Whether runs produce :class:`~repro.core.output.AlgorithmResult`
    #: records that the sweep/verification harness understands.  The
    #: counting extension returns its own result type, so it can be run
    #: but not swept.
    sweepable: bool
    parameters: Tuple[ParameterSchema, ...]

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`AnalysisError` for unknown/missing parameters."""
        _check_params("algorithm", self.name, self.parameters, params)

    def build(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Instantiate the algorithm with the given constructor parameters."""
        params = dict(params or {})
        self.validate_params(params)
        return self.factory(**params)

    def describe(self) -> Dict[str, Any]:
        """Return a JSON-ready description (what ``repro list --json`` emits)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "kind": self.kind,
            "model": self.model,
            "sweepable": self.sweepable,
            "parameters": [parameter.to_dict() for parameter in self.parameters],
        }


@dataclass(frozen=True)
class WorkloadEntry:
    """A named, buildable workload generator with its parameter schema."""

    name: str
    factory: Callable[..., Any]
    summary: str
    #: Whether the generator accepts a ``seed`` argument.  Deterministic
    #: constructions (cycles, cliques, lollipops) do not; for them the
    #: sweep's cell seed only drives the algorithm.
    takes_seed: bool
    #: Whether the generator returns ``(graph, metadata)`` instead of a
    #: bare graph (the planted and heavy-edge gadget families do); the
    #: registry unwraps the graph.
    returns_tuple: bool
    parameters: Tuple[ParameterSchema, ...]

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`AnalysisError` for unknown/missing parameters."""
        _check_params("workload", self.name, self.parameters, params)

    def resolve(
        self,
        params: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Return the validated keyword arguments :meth:`build` calls with.

        ``seed`` is the per-run seed supplied by the harness; a ``seed``
        pinned inside ``params`` takes precedence (that is how a sweep
        holds a workload fixed while resampling the algorithm's coins),
        and a generator without a ``seed`` parameter never receives one.
        Two runs whose resolved calls are equal build the same graph.
        """
        kwargs = dict(params or {})
        if self.takes_seed and seed is not None and "seed" not in kwargs:
            kwargs["seed"] = seed
        self.validate_params(kwargs)
        return kwargs

    def build(
        self,
        params: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> Any:
        """Build the workload graph from the call :meth:`resolve` returns."""
        built = self.factory(**self.resolve(params, seed))
        return built[0] if self.returns_tuple else built

    def describe(self) -> Dict[str, Any]:
        """Return a JSON-ready description (what ``repro list --json`` emits)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "takes_seed": self.takes_seed,
            "parameters": [parameter.to_dict() for parameter in self.parameters],
        }


_ALGORITHMS: Dict[str, AlgorithmEntry] = {}
_WORKLOADS: Dict[str, WorkloadEntry] = {}


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_algorithm(
    name: str,
    *,
    kind: str,
    summary: Optional[str] = None,
    sweepable: bool = True,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Return a decorator registering an algorithm factory under ``name``.

    ``kind`` labels the problem the algorithm solves (``"finding"``,
    ``"listing"`` or ``"counting"``).  The decorated factory is returned
    unchanged, so registration does not alter the class.
    """
    key = _normalize(name)

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        if key in _ALGORITHMS:
            raise AnalysisError(f"algorithm {name!r} is already registered")
        _ALGORITHMS[key] = AlgorithmEntry(
            name=key,
            factory=factory,
            summary=summary or _first_doc_line(factory),
            kind=kind,
            model=getattr(factory, "model", "CONGEST"),
            sweepable=sweepable,
            parameters=_schema_from_factory(factory),
        )
        return factory

    return decorator


def register_workload(
    name: str,
    *,
    summary: Optional[str] = None,
    returns_tuple: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Return a decorator registering a workload generator under ``name``."""
    key = _normalize(name)

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        if key in _WORKLOADS:
            raise AnalysisError(f"workload {name!r} is already registered")
        schema = _schema_from_factory(factory)
        _WORKLOADS[key] = WorkloadEntry(
            name=key,
            factory=factory,
            summary=summary or _first_doc_line(factory),
            takes_seed=any(parameter.name == "seed" for parameter in schema),
            returns_tuple=returns_tuple,
            parameters=schema,
        )
        return factory

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (primarily for tests and plugins)."""
    _ALGORITHMS.pop(_normalize(name), None)


def unregister_workload(name: str) -> None:
    """Remove a registered workload (primarily for tests and plugins)."""
    _WORKLOADS.pop(_normalize(name), None)


def get_algorithm(name: str) -> AlgorithmEntry:
    """Look up an algorithm entry by (case-insensitive) name."""
    key = _normalize(name)
    if key not in _ALGORITHMS:
        raise AnalysisError(
            f"unknown algorithm {name!r}; registered algorithms are "
            f"{sorted(_ALGORITHMS)}"
        )
    return _ALGORITHMS[key]


def get_workload(name: str) -> WorkloadEntry:
    """Look up a workload entry by (case-insensitive) name."""
    key = _normalize(name)
    if key not in _WORKLOADS:
        raise AnalysisError(
            f"unknown workload {name!r}; registered workloads are "
            f"{sorted(_WORKLOADS)}"
        )
    return _WORKLOADS[key]


def list_algorithms() -> List[AlgorithmEntry]:
    """Return every registered algorithm entry, sorted by name."""
    return [_ALGORITHMS[key] for key in sorted(_ALGORITHMS)]


def list_workloads() -> List[WorkloadEntry]:
    """Return every registered workload entry, sorted by name."""
    return [_WORKLOADS[key] for key in sorted(_WORKLOADS)]


# ---------------------------------------------------------------------------
# Built-in registrations: every algorithm and generator in the repository.
# Registry names follow the classes' ``name`` attributes (lower-cased), so
# experiment tables and registry lookups agree.
# ---------------------------------------------------------------------------

from ..core.a1_sampling import HeavySamplingFinder as _HeavySamplingFinder
from ..core.a2_heavy import HeavyHashingLister as _HeavyHashingLister
from ..core.a3_light import LightTrianglesLister as _LightTrianglesLister
from ..core.baselines import (
    LocalListing as _LocalListing,
    NaiveTwoHopListing as _NaiveTwoHopListing,
)
from ..core.clique_dolev import DolevCliqueListing as _DolevCliqueListing
from ..core.counting import TriangleCounting as _TriangleCounting
from ..core.finding import TriangleFinding as _TriangleFinding
from ..core.listing import TriangleListing as _TriangleListing
from ..graphs import generators as _generators

register_algorithm("a1-heavy-sampling", kind="finding")(_HeavySamplingFinder)
register_algorithm("a2-heavy-hashing", kind="listing")(_HeavyHashingLister)
register_algorithm("a3-light-listing", kind="listing")(_LightTrianglesLister)
register_algorithm("theorem1-finding", kind="finding")(_TriangleFinding)
register_algorithm("theorem2-listing", kind="listing")(_TriangleListing)
register_algorithm("dolev-clique-listing", kind="listing")(_DolevCliqueListing)
register_algorithm("naive-two-hop", kind="listing")(_NaiveTwoHopListing)
register_algorithm("local-listing", kind="listing")(_LocalListing)
register_algorithm("triangle-counting", kind="counting", sweepable=False)(
    _TriangleCounting
)

register_workload("gnp")(_generators.gnp_random_graph)
register_workload("bipartite")(_generators.triangle_free_bipartite)
register_workload("cycle")(_generators.cycle_graph)
register_workload("complete")(_generators.complete_graph)
register_workload("empty")(_generators.empty_graph)
register_workload("planted", returns_tuple=True)(_generators.planted_triangle_graph)
register_workload("heavy-edge", returns_tuple=True)(_generators.heavy_edge_gadget)
register_workload("ba")(_generators.barabasi_albert_graph)
register_workload("random-regular")(_generators.random_regular_graph)
register_workload("lollipop")(_generators.lollipop_graph)
register_workload("union-of-cliques")(_generators.union_of_cliques)
