"""Declarative, JSON-serializable run and sweep specifications.

A spec is a frozen description of an experiment that round-trips
losslessly through JSON (``spec == Spec.from_json(spec.to_json())``) and
*resolves* to the existing public classes — running a spec is, by
construction, identical to wiring the same constructors up by hand:

* :class:`AlgorithmSpec` — a registered algorithm name plus constructor
  parameters,
* :class:`WorkloadSpec` — a registered workload name plus generator
  parameters (pin ``seed`` in the parameters to hold the workload fixed
  across a sweep; leave it out to resample the workload from each cell's
  seed),
* :class:`RunSpec` — one (algorithm, workload, seed) execution, and
  the one form a sweep cell takes: :class:`repro.analysis.SweepRunner`
  executes lists of run specs and a fleet lease carries one,
* :class:`SweepSpec` — an (algorithms × seeds) grid over one workload,
  whose :meth:`SweepSpec.cells` are its run specs in execution order.

Custom algorithms and workloads join sweeps by name, through
:func:`repro.api.register_algorithm` and
:func:`repro.api.register_workload`.

Documents are versioned (``"schema": 1``) so stored specs stay readable
as the format evolves.  All parameter values must be JSON scalars,
arrays or objects; tuples are canonicalised to lists at construction so
equality after a JSON round-trip is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analysis.experiments import ExperimentRecord, SweepRunner, run_single
from ..errors import AnalysisError
from .records import canonical_json
from .registry import AlgorithmEntry, WorkloadEntry, get_algorithm, get_workload

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "AlgorithmSpec",
    "WorkloadSpec",
    "RunSpec",
    "SweepSpec",
    "load_spec",
]

#: Version stamped into every serialized spec document.
SPEC_SCHEMA_VERSION = 1


def _canonical_value(value: Any, where: str) -> Any:
    """Return ``value`` restricted and canonicalised to JSON types.

    Tuples become lists and dictionary keys must be strings, so a spec
    compares equal to itself after a JSON round-trip.  Anything that JSON
    cannot represent is rejected here, at construction, instead of
    surfacing later as a serialization failure inside the store.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise AnalysisError(
            f"{where}: NaN/Infinity cannot be represented in JSON, got {value!r}"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item, where) for item in value]
    if isinstance(value, Mapping):
        canonical = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise AnalysisError(
                    f"{where}: mapping keys must be strings, got {key!r}"
                )
            canonical[key] = _canonical_value(item, where)
        return canonical
    raise AnalysisError(
        f"{where}: parameter values must be JSON scalars, arrays or "
        f"objects, got {type(value).__name__} ({value!r})"
    )


def _canonical_params(params: Optional[Mapping[str, Any]], where: str) -> Dict[str, Any]:
    if params is None:
        return {}
    return {key: _canonical_value(value, where) for key, value in dict(params).items()}


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_non_negative(seed: int, where: str, context: str = "") -> None:
    """Reject a negative seed where the spec is built.

    numpy's generators reject negative seeds only when a cell runs, so a
    sweep holding one would stop partway and leave a store that can never
    complete; refusing it here fails the spec before any cell executes.
    """
    if seed < 0:
        raise AnalysisError(
            f"{where} must be non-negative, got {seed!r}{context}"
        )


def _require_mapping(payload: Any, where: str) -> Mapping[str, Any]:
    """Reject non-object document fields with a catchable error.

    Everything reachable from a user-supplied JSON file must fail as
    :class:`AnalysisError` (the CLI's exit-2 contract), never as a raw
    ``TypeError``/``KeyError`` from indexing a string.
    """
    if not isinstance(payload, Mapping):
        raise AnalysisError(
            f"{where} must be a JSON object, got {type(payload).__name__} "
            f"({payload!r})"
        )
    return payload


def _check_schema_version(payload: Mapping[str, Any], where: str) -> None:
    version = payload.get("schema", SPEC_SCHEMA_VERSION)
    if not isinstance(version, int) or version < 1 or version > SPEC_SCHEMA_VERSION:
        raise AnalysisError(
            f"{where}: unsupported spec schema version {version!r} "
            f"(this build reads versions 1..{SPEC_SCHEMA_VERSION})"
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm name plus constructor parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Optional display label; sweeps require distinct labels when the
    #: same algorithm appears twice with different parameters.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", _canonical_params(self.params, f"algorithm {self.name!r}")
        )
        if self.label is not None and not isinstance(self.label, str):
            raise AnalysisError(
                f"algorithm label must be a string, got {self.label!r}"
            )

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params
        # dict; hash the canonical JSON form instead (order-insensitive,
        # consistent with the generated __eq__).
        return hash((self.name, json.dumps(self.params, sort_keys=True), self.label))

    @property
    def display_label(self) -> str:
        """The label records are grouped under (defaults to the name)."""
        return self.label if self.label is not None else self.name

    def entry(self) -> AlgorithmEntry:
        """Resolve the registry entry this spec names."""
        return get_algorithm(self.name)

    def build(self) -> Any:
        """Instantiate the algorithm exactly as the direct constructor would."""
        return self.entry().build(self.params)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready document form."""
        payload: Dict[str, Any] = {"name": self.name, "params": dict(self.params)}
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AlgorithmSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = _require_mapping(payload, "algorithm spec")
        if "name" not in payload:
            raise AnalysisError("algorithm spec is missing 'name'")
        return cls(
            name=str(payload["name"]),
            params=_require_mapping(
                payload.get("params", {}), "algorithm spec 'params'"
            ),
            label=payload.get("label"),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A registered workload name plus generator parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", _canonical_params(self.params, f"workload {self.name!r}")
        )

    def __hash__(self) -> int:
        # See AlgorithmSpec.__hash__: the params dict needs a canonical form.
        return hash((self.name, json.dumps(self.params, sort_keys=True)))

    def entry(self) -> WorkloadEntry:
        """Resolve the registry entry this spec names."""
        return get_workload(self.name)

    def build(self, seed: Optional[int] = None) -> Any:
        """Build the workload graph (``seed`` is the per-run harness seed)."""
        return self.entry().build(self.params, seed=seed)

    def build_key(self, seed: Optional[int] = None) -> str:
        """Return the identity of the generator call :meth:`build` makes.

        The canonical JSON of the registered name and the resolved
        parameters, with the effective seed: a pinned ``seed`` parameter,
        else ``seed`` when the generator takes one, else none.  Two specs
        and seeds with equal keys build equal graphs, so the sweep's
        per-process workload cache shares one graph between them.
        """
        entry = self.entry()
        return canonical_json(
            {"name": entry.name, "params": entry.resolve(self.params, seed=seed)}
        )

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready document form."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = _require_mapping(payload, "workload spec")
        if "name" not in payload:
            raise AnalysisError("workload spec is missing 'name'")
        return cls(
            name=str(payload["name"]),
            params=_require_mapping(
                payload.get("params", {}), "workload spec 'params'"
            ),
        )


@dataclass(frozen=True)
class RunSpec:
    """One (algorithm, workload, seed) execution, as a JSON document.

    A run spec is also a sweep cell: :meth:`repro.analysis.SweepRunner.run_cells`
    executes lists of them, serially or pickled to pool workers, and a
    fleet lease carries one as its ``run`` document.
    """

    algorithm: AlgorithmSpec
    workload: WorkloadSpec
    seed: int = 0
    experiment: str = "run"

    def __post_init__(self) -> None:
        if not _is_integer(self.seed):
            raise AnalysisError(
                f"run spec seed must be an integer, got {self.seed!r}"
            )
        _require_non_negative(self.seed, "run spec seed")

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready document form (versioned)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": "run",
            "experiment": self.experiment,
            "algorithm": self.algorithm.to_dict(),
            "workload": self.workload.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = _require_mapping(payload, "run spec")
        _check_schema_version(payload, "run spec")
        kind = payload.get("kind", "run")
        if kind != "run":
            raise AnalysisError(f"expected a run spec, got kind={kind!r}")
        missing = {"algorithm", "workload"} - set(payload)
        if missing:
            raise AnalysisError(f"run spec is missing {sorted(missing)}")
        return cls(
            algorithm=AlgorithmSpec.from_dict(payload["algorithm"]),
            workload=WorkloadSpec.from_dict(payload["workload"]),
            seed=payload.get("seed", 0),
            experiment=str(payload.get("experiment", "run")),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse JSON text produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Return the spec's content address: sha256 of its canonical JSON.

        Two specs hash equal exactly when their :meth:`to_dict` documents
        are equal — the same identity a JSON round-trip preserves — so the
        hash is stable across processes, sessions and machines.  This is
        the key :class:`repro.api.store.ResultCache` files records under.
        """
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()

    def run_raw(self) -> Any:
        """Build and run, returning the algorithm's native result object."""
        graph = self.workload.build(seed=self.seed)
        return self.algorithm.build().run(graph, seed=self.seed)

    def run(self) -> ExperimentRecord:
        """Run and return the verified :class:`ExperimentRecord`.

        Only sweepable algorithms produce experiment records; for the
        counting extension use :meth:`run_raw`.  The workload is built
        afresh, bypassing the sweep's per-process workload cache.
        """
        entry = self.algorithm.entry()
        if not entry.sweepable:
            raise AnalysisError(
                f"algorithm {entry.name!r} does not produce experiment "
                "records; use run_raw() for its native result"
            )
        graph = self.workload.build(seed=self.seed)
        return run_single(self.experiment, self.algorithm.build(), graph, self.seed)


@dataclass(frozen=True)
class SweepSpec:
    """An (algorithms × seeds) grid over one workload, as a JSON document.

    Its cells are run specs ordered workload-major (all algorithms of a
    seed adjacent), so the per-process workload cache builds each graph
    once.
    """

    experiment: str
    algorithms: Tuple[AlgorithmSpec, ...]
    workload: WorkloadSpec
    seeds: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for seed in self.seeds:
            if not _is_integer(seed):
                raise AnalysisError(
                    f"sweep seeds must be integers, got {seed!r} in "
                    f"{self.seeds!r}"
                )
            _require_non_negative(seed, "sweep seeds", f" in {self.seeds!r}")
        if not self.algorithms:
            raise AnalysisError("a sweep spec needs at least one algorithm")
        if not self.seeds:
            raise AnalysisError("a sweep spec needs at least one seed")
        labels = [algorithm.display_label for algorithm in self.algorithms]
        if len(set(labels)) != len(labels):
            raise AnalysisError(
                f"sweep algorithm labels must be distinct, got {labels}; "
                "give repeated algorithms explicit labels"
            )

    @classmethod
    def with_spawned_seeds(
        cls,
        experiment: str,
        algorithms: "Tuple[AlgorithmSpec, ...] | List[AlgorithmSpec]",
        workload: WorkloadSpec,
        base_seed: int,
        num_seeds: int,
    ) -> "SweepSpec":
        """Build a spec whose seeds are spawned from one base seed.

        Seeds are derived once, here, with
        :meth:`SweepRunner.spawn_seeds` and stored explicitly in the
        spec, so the serialized document pins the exact grid.
        """
        return cls(
            experiment=experiment,
            algorithms=tuple(algorithms),
            workload=workload,
            seeds=tuple(SweepRunner.spawn_seeds(base_seed, num_seeds)),
        )

    def labels(self) -> List[str]:
        """Return the algorithm labels, in spec order."""
        return [algorithm.display_label for algorithm in self.algorithms]

    def cells(self) -> List[RunSpec]:
        """Return the grid's cells as run specs, workload-major.

        Each cell has a standalone :class:`RunSpec` identity; its
        :meth:`RunSpec.content_hash` is what the result cache keys the
        cell's record under, independent of which sweep executed it.
        """
        return [
            RunSpec(
                algorithm=algorithm,
                workload=self.workload,
                seed=seed,
                experiment=self.experiment,
            )
            for seed in self.seeds
            for algorithm in self.algorithms
        ]

    def cell_labels(self) -> List[str]:
        """Return the algorithm label of each cell, aligned with :meth:`cells`."""
        labels = self.labels()
        return [label for _ in self.seeds for label in labels]

    def require_sweepable(self) -> None:
        """Reject grids containing algorithms without experiment records."""
        for algorithm in self.algorithms:
            entry = algorithm.entry()
            if not entry.sweepable:
                raise AnalysisError(
                    f"algorithm {entry.name!r} cannot be swept (it does "
                    "not produce experiment records)"
                )

    def run(
        self, runner: Optional[SweepRunner] = None
    ) -> Dict[str, List[ExperimentRecord]]:
        """Execute the grid and return its records grouped by label.

        Each label's records come in seed order, identical to sweeping
        that algorithm alone; ``runner`` defaults to a serial one.
        """
        self.require_sweepable()
        runner = runner if runner is not None else SweepRunner()
        grouped: Dict[str, List[ExperimentRecord]] = {
            label: [] for label in self.labels()
        }
        records = runner.run_cells(self.cells())
        for label, record in zip(self.cell_labels(), records):
            grouped[label].append(record)
        return grouped

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready document form (versioned)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": "sweep",
            "experiment": self.experiment,
            "algorithms": [algorithm.to_dict() for algorithm in self.algorithms],
            "workload": self.workload.to_dict(),
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = _require_mapping(payload, "sweep spec")
        _check_schema_version(payload, "sweep spec")
        kind = payload.get("kind", "sweep")
        if kind != "sweep":
            raise AnalysisError(f"expected a sweep spec, got kind={kind!r}")
        missing = {"experiment", "algorithms", "workload", "seeds"} - set(payload)
        if missing:
            raise AnalysisError(f"sweep spec is missing {sorted(missing)}")
        algorithms = payload["algorithms"]
        if not isinstance(algorithms, (list, tuple)):
            raise AnalysisError("sweep spec 'algorithms' must be a JSON array")
        seeds = payload["seeds"]
        if not isinstance(seeds, (list, tuple)):
            raise AnalysisError("sweep spec 'seeds' must be a JSON array")
        return cls(
            experiment=str(payload["experiment"]),
            algorithms=tuple(
                AlgorithmSpec.from_dict(algorithm) for algorithm in algorithms
            ),
            workload=WorkloadSpec.from_dict(payload["workload"]),
            seeds=tuple(seeds),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse JSON text produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def load_spec(text: str) -> "RunSpec | SweepSpec":
    """Parse a spec document of either kind from JSON text."""
    payload = json.loads(text)
    if not isinstance(payload, Mapping):
        raise AnalysisError("a spec document must be a JSON object")
    kind = payload.get("kind")
    if kind == "run":
        return RunSpec.from_dict(payload)
    if kind == "sweep":
        return SweepSpec.from_dict(payload)
    raise AnalysisError(
        f"spec documents must declare kind 'run' or 'sweep', got {kind!r}"
    )
