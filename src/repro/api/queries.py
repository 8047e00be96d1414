"""Versioned query documents for the online triangle service.

The batch side of ``repro.api`` describes *experiments* (RunSpec/SweepSpec);
this module describes *questions* asked of a live, continuously updated
graph.  A :class:`QuerySpec` is a frozen, JSON-round-tripping document —
``{"schema": 1, "kind": ..., "params": {...}}`` — validated eagerly so a
malformed spec fails as :class:`~repro.errors.AnalysisError` (the CLI's
exit-2 contract) before it ever reaches an engine or a socket.  A
:class:`QueryResult` carries the answer plus the snapshot ``version`` it
was computed against, so a client can pin exactly which graph state it
observed.

The registered kinds mirror what the incremental oracle maintains:

* ``count`` — global triangle count and graph shape,
* ``node-counts`` — per-node triangle counts (all nodes or a subset),
* ``edge-support`` — common-neighbour count per queried edge,
* ``delta-since`` — the journal of batches applied after a given version.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import AnalysisError
from .records import canonical_json, canonical_json_object
from .specs import _canonical_params, _check_schema_version, _require_mapping

__all__ = [
    "QUERY_SCHEMA_VERSION",
    "QueryKind",
    "QueryResult",
    "QuerySpec",
    "get_query_kind",
    "list_query_kinds",
]

QUERY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QueryParameter:
    name: str
    required: bool
    description: str

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "required": self.required,
            "description": self.description,
        }


@dataclass(frozen=True)
class QueryKind:
    """A registered query kind plus its parameter contract."""

    name: str
    description: str
    parameters: Tuple[QueryParameter, ...] = ()

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "parameters": [p.describe() for p in self.parameters],
        }

    def validate_params(self, params: Mapping[str, Any]) -> None:
        known = {p.name for p in self.parameters}
        for key in params:
            if key not in known:
                raise AnalysisError(
                    f"query kind {self.name!r} does not accept parameter {key!r} "
                    f"(accepts: {sorted(known) or 'none'})"
                )
        for parameter in self.parameters:
            if parameter.required and parameter.name not in params:
                raise AnalysisError(
                    f"query kind {self.name!r} requires parameter {parameter.name!r}"
                )


_QUERY_KINDS: Dict[str, QueryKind] = {}


def _register(kind: QueryKind) -> None:
    _QUERY_KINDS[kind.name] = kind


_register(
    QueryKind(
        name="count",
        description="Global triangle count plus graph shape at the answered version.",
    )
)
_register(
    QueryKind(
        name="node-counts",
        description="Per-node triangle counts, for all nodes or an explicit subset.",
        parameters=(
            QueryParameter(
                name="nodes",
                required=False,
                description="List of node ids; omitted means every node.",
            ),
        ),
    )
)
_register(
    QueryKind(
        name="edge-support",
        description="Common-neighbour count per queried edge (null for absent edges).",
        parameters=(
            QueryParameter(
                name="edges",
                required=True,
                description="Non-empty list of [u, v] pairs.",
            ),
        ),
    )
)
_register(
    QueryKind(
        name="delta-since",
        description="Batches applied after a given version, from the serving journal.",
        parameters=(
            QueryParameter(
                name="version",
                required=True,
                description="Non-negative snapshot version the client last observed.",
            ),
        ),
    )
)


def list_query_kinds() -> Tuple[QueryKind, ...]:
    """All registered query kinds, sorted by name."""
    return tuple(_QUERY_KINDS[name] for name in sorted(_QUERY_KINDS))


def get_query_kind(name: str) -> QueryKind:
    try:
        return _QUERY_KINDS[name]
    except KeyError:
        raise AnalysisError(
            f"unknown query kind {name!r} (known: {sorted(_QUERY_KINDS)})"
        ) from None


def _check_int(value: Any, where: str, *, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AnalysisError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise AnalysisError(f"{where} must be >= {minimum}, got {value}")
    return value


def _validate_typed_params(kind: str, params: Mapping[str, Any]) -> None:
    if kind == "node-counts" and "nodes" in params:
        nodes = params["nodes"]
        if not isinstance(nodes, list):
            raise AnalysisError(f"query parameter 'nodes' must be a list, got {nodes!r}")
        for node in nodes:
            _check_int(node, "each entry of query parameter 'nodes'", minimum=0)
    elif kind == "edge-support":
        edges = params["edges"]
        if not isinstance(edges, list) or not edges:
            raise AnalysisError(
                f"query parameter 'edges' must be a non-empty list of [u, v] pairs, got {edges!r}"
            )
        for pair in edges:
            if not isinstance(pair, list) or len(pair) != 2:
                raise AnalysisError(
                    f"each entry of query parameter 'edges' must be a [u, v] pair, got {pair!r}"
                )
            for endpoint in pair:
                _check_int(endpoint, "each edge endpoint", minimum=0)
    elif kind == "delta-since":
        _check_int(params["version"], "query parameter 'version'", minimum=0)


@dataclass(frozen=True)
class QuerySpec:
    """One question for the query engine, frozen and canonical."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise AnalysisError(f"query kind must be a non-empty string, got {self.kind!r}")
        entry = get_query_kind(self.kind)
        params = _canonical_params(self.params, f"QuerySpec({self.kind}).params")
        entry.validate_params(params)
        _validate_typed_params(self.kind, params)
        object.__setattr__(self, "params", params)

    def __hash__(self) -> int:
        return hash((self.kind, json.dumps(self.params, sort_keys=True)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA_VERSION,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "QuerySpec":
        doc = _require_mapping(payload, "QuerySpec document")
        _check_schema_version(doc, "QuerySpec document")
        known = {"schema", "kind", "params"}
        unknown = set(doc) - known
        if unknown:
            raise AnalysisError(
                f"QuerySpec document has unknown fields {sorted(unknown)} (accepts {sorted(known)})"
            )
        if "kind" not in doc:
            raise AnalysisError("QuerySpec document is missing the 'kind' field")
        params = doc.get("params", {})
        if params is None:
            params = {}
        return cls(kind=doc["kind"], params=_require_mapping(params, "QuerySpec params"))

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "QuerySpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"QuerySpec document is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def content_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


class QueryResult:
    """An answer pinned to the snapshot version it was computed against.

    Immutable, like :class:`QuerySpec`.  Public construction (and
    :meth:`from_dict`/:meth:`from_json`) walks ``payload`` and rejects
    anything JSON cannot carry.  The query engine builds its payloads from
    Python ints, lists and ``None`` only, so it constructs through
    :meth:`_trusted`, which skips that walk and also accepts the payload
    as canonical JSON text (``delta-since`` splices its journal's
    per-batch fragments).  Such a result encodes by splicing the text and
    decodes a fresh :attr:`payload` on every read, so no caller can alias,
    or change, the state it was built from.
    """

    __slots__ = ("kind", "version", "_payload")

    def __init__(self, kind: str, version: int, payload: Mapping[str, Any]) -> None:
        if not isinstance(kind, str) or not kind:
            raise AnalysisError(f"result kind must be a non-empty string, got {kind!r}")
        if isinstance(version, bool) or not isinstance(version, int) or version < 0:
            raise AnalysisError(f"result version must be a non-negative integer, got {version!r}")
        self._set(kind, version, _canonical_params(payload, f"QueryResult({kind}).payload"))

    @classmethod
    def _trusted(cls, kind: str, version: int, payload: "Dict[str, Any] | str") -> "QueryResult":
        """Build without validation from a JSON-typed mapping or canonical JSON text."""
        result = object.__new__(cls)
        result._set(kind, version, payload)
        return result

    def _set(self, kind: str, version: int, payload: "Mapping[str, Any] | str") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "_payload", payload)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (QueryResult._trusted, (self.kind, self.version, self._payload))

    @property
    def payload(self) -> Mapping[str, Any]:
        if isinstance(self._payload, str):
            return json.loads(self._payload)
        return self._payload

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.version, self.payload) == (other.kind, other.version, other.payload)

    def __hash__(self) -> int:
        return hash((self.kind, self.version, json.dumps(self.payload, sort_keys=True)))

    def __repr__(self) -> str:
        return f"QueryResult(kind={self.kind!r}, version={self.version!r}, payload={self.payload!r})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA_VERSION,
            "kind": self.kind,
            "version": self.version,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "QueryResult":
        doc = _require_mapping(payload, "QueryResult document")
        _check_schema_version(doc, "QueryResult document")
        for fieldname in ("kind", "version", "payload"):
            if fieldname not in doc:
                raise AnalysisError(f"QueryResult document is missing the {fieldname!r} field")
        return cls(
            kind=doc["kind"],
            version=doc["version"],
            payload=_require_mapping(doc["payload"], "QueryResult payload"),
        )

    def to_json(self) -> str:
        if not isinstance(self._payload, str):
            return canonical_json(self.to_dict())
        return canonical_json_object(
            {
                "schema": str(QUERY_SCHEMA_VERSION),
                "kind": json.dumps(self.kind),
                "version": str(self.version),
                "payload": self._payload,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QueryResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"QueryResult document is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
