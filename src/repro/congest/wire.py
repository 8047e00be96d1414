"""On-wire size accounting and typed wire schemas for message payloads.

The CONGEST model constrains the number of *bits* crossing each edge per
round, so every payload the simulator carries needs a well-defined bit size.
This module centralises that accounting:

* a node identifier costs ``⌈log2 n⌉`` bits,
* an edge (pair of identifiers) costs ``2⌈log2 n⌉`` bits,
* a boolean flag costs 1 bit,
* a hash-function description costs whatever its ``encoded_bits()`` reports,
* small integers cost their binary length (at least 1 bit),
* empty containers and ``None`` cost 1 bit (nothing is free on the wire).

Algorithms may always override the default by passing an explicit ``bits``
argument to :meth:`repro.congest.node.NodeContext.send`; the defaults here
exist so the common cases stay concise and consistent.

Typed wire schemas
------------------

Besides the scalar defaults, the module hosts the **wire-schema registry**:
every message kind the paper's protocols put on the wire (hash descriptor,
filtered edge batch, landmark announcement, neighbourhood/withholding id
lists, routed clique edges) declares a :class:`WireSchema` — a fixed set of
int64 element columns plus a vectorized ``bit_size(lengths, n)``.  Schemas
are what the columnar payload plane
(:meth:`repro.congest.runtime.MessagePlane.extend_columns`) carries: a whole
``(targets, columns)`` batch is staged and sized with numpy reductions
instead of one Python ``send``/``default_bit_size`` call per message.  A
schema only names and sizes its columns: typed traffic is never turned back
into payload objects, and receivers read it as destination-grouped columns
(:meth:`repro.congest.runtime.DeliveredPhase.channel`).  The per-node
reference closures send plain object payloads instead, charged the same
bits, and the differential tests compare the two kernels' outputs and
costs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError


def id_bits(num_nodes: int) -> int:
    """Return the number of bits needed to name one of ``num_nodes`` nodes."""
    if num_nodes < 1:
        raise SimulationError(f"num_nodes must be positive, got {num_nodes}")
    return max(1, math.ceil(math.log2(num_nodes)))


def edge_bits(num_nodes: int) -> int:
    """Return the number of bits needed to name an edge (two node ids)."""
    return 2 * id_bits(num_nodes)


def integer_bits(value: int) -> int:
    """Return the number of bits of the binary representation of ``value``."""
    magnitude = abs(int(value))
    return max(1, magnitude.bit_length()) + (1 if value < 0 else 0)


def default_bit_size(payload: Any, num_nodes: int) -> int:
    """Return the default on-wire size of ``payload`` in bits.

    Supported payloads:

    * ``bool`` — 1 bit,
    * ``int`` — interpreted as a node identifier (``⌈log2 n⌉`` bits),
    * ``str`` — 8 bits per character (protocol tags are short constant
      strings, so this keeps them O(1) bits as the algorithms assume),
    * tuples/lists of supported payloads — the sum of their element sizes
      (so an edge ``(u, v)`` costs ``2⌈log2 n⌉`` bits), floored at 1 bit for
      empty containers — like ``None``, an empty set still occupies a
      message slot and is never free on the wire,
    * objects exposing ``encoded_bits()`` (e.g.
      :class:`repro.hashing.HashFunction`) — whatever that method reports,
    * ``None`` — 1 bit (a bare signal).

    Raises
    ------
    SimulationError
        For payload types without a defined default size.  Such payloads
        must be sent with an explicit ``bits`` argument.
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return id_bits(num_nodes)
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (tuple, list)):
        return max(1, sum(default_bit_size(element, num_nodes) for element in payload))
    if isinstance(payload, frozenset) or isinstance(payload, set):
        return max(1, sum(default_bit_size(element, num_nodes) for element in payload))
    encoded_bits = getattr(payload, "encoded_bits", None)
    if callable(encoded_bits):
        return int(encoded_bits())
    raise SimulationError(
        f"no default bit size defined for payload of type {type(payload).__name__}; "
        "pass an explicit bits= argument"
    )


# ----------------------------------------------------------------------
# typed wire schemas
# ----------------------------------------------------------------------
class WireSchema:
    """A typed message kind: named int64 element columns + vectorized sizing.

    A *message* under a schema is a run of consecutive element rows in the
    schema's flattened columns (delimited by an offsets array in the
    columnar plane).  Subclasses declare

    * :attr:`kind` — the registry key and channel identifier,
    * :attr:`columns` — the per-element column names,
    * :meth:`element_bits` — the on-wire cost of one element row.

    The default :meth:`bit_size` charges ``max(1, length · element_bits)``
    per message — the pattern every protocol in the paper uses (``len(S) ·
    ⌈log2 n⌉`` bits for an id list, ``len(E) · 2⌈log2 n⌉`` for an edge
    batch, 1 bit for an empty announcement).
    """

    #: Registry key; also the channel name in :class:`~repro.congest.runtime.PhaseTraffic`.
    kind: str = "abstract"
    #: Names of the per-element int64 columns.
    columns: Tuple[str, ...] = ()
    #: Elements per message when the schema is fixed-width (``None`` = ragged).
    fixed_length: Optional[int] = None

    def element_bits(self, num_nodes: int) -> int:
        """Return the on-wire cost of one element row, in bits."""
        raise NotImplementedError

    def bit_size(
        self, lengths: np.ndarray | Sequence[int], num_nodes: int
    ) -> np.ndarray:
        """Return the per-message bit sizes for a batch of element counts.

        Vectorized over the whole batch: one numpy expression sizes every
        message, replacing the per-payload ``default_bit_size`` recursion of
        the scalar path.  Empty messages are floored at 1 bit (consistent
        with :func:`default_bit_size` on empty containers).
        """
        counts = np.asarray(lengths, dtype=np.int64)
        return np.maximum(counts * np.int64(self.element_bits(num_nodes)), 1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kind={self.kind!r}, columns={self.columns!r})"


class IdListSchema(WireSchema):
    """A list of node identifiers (A1 samples, A3's NX/S/V sets, naive's
    neighbourhoods).

    One element = one node id = ``⌈log2 n⌉`` bits; the reference closures'
    constant protocol tag is O(1) and not charged, matching their explicit
    ``bits=max(1, len · id_bits)`` arguments.
    """

    columns = ("member",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def element_bits(self, num_nodes: int) -> int:
        return id_bits(num_nodes)


class FlagSchema(WireSchema):
    """A 1-bit announcement (A3's ``in_X`` / ``in_U`` broadcasts)."""

    columns = ("flag",)
    fixed_length = 1

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def element_bits(self, num_nodes: int) -> int:
        return 1


class EdgeListSchema(WireSchema):
    """A batch of canonical edges (A2's filtered edge sets ``E_ja``).

    One element = one edge = ``2⌈log2 n⌉`` bits.
    """

    columns = ("u", "v")

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def element_bits(self, num_nodes: int) -> int:
        return edge_bits(num_nodes)


class HashDescriptorSchema(WireSchema):
    """A k-wise hash-function description (A2 step 1).

    One element = one GF(p) coefficient = ``⌈log2 p⌉`` bits, so a whole
    descriptor of ``k`` coefficients costs ``k⌈log2 p⌉`` bits — exactly
    :meth:`repro.hashing.KWiseIndependentFamily.description_bits`.  The
    prime and range are public parameters derived from ``n`` and ε, so they
    parameterize the schema instance instead of travelling on the wire.
    """

    kind = "hash-descriptor"
    columns = ("coefficient",)

    def __init__(self, independence: int, prime: int) -> None:
        if independence < 1:
            raise SimulationError(f"independence must be positive, got {independence}")
        if prime < 2:
            raise SimulationError(f"prime must be at least 2, got {prime}")
        self.independence = independence
        self.prime = prime
        self.fixed_length = independence

    def element_bits(self, num_nodes: int) -> int:
        return max(1, math.ceil(math.log2(self.prime)))


class RoutedEdgeSchema(WireSchema):
    """One routed edge of the Dolev clique baseline (edge + group triple).

    Each message carries exactly one edge; the assigned group triple rides
    along as an index into the publicly computable triple list, so the
    charged size stays the reference's ``2⌈log2 n⌉`` bits per edge.
    """

    kind = "routed-edge"
    columns = ("u", "v", "triple")
    fixed_length = 1

    def element_bits(self, num_nodes: int) -> int:
        return edge_bits(num_nodes)


#: Singleton schemas for the protocols' unparameterized message kinds.
A1_SAMPLE_SCHEMA = IdListSchema("a1-sample")
A2_EDGE_SCHEMA = EdgeListSchema("a2-edges")
A3_NX_SCHEMA = IdListSchema("a3-landmark-neighborhood")
A3_S_SCHEMA = IdListSchema("a3-candidate-set")
A3_V_SCHEMA = IdListSchema("a3-withholding-set")
A3_IN_X_SCHEMA = FlagSchema("a3-landmark-flag")
A3_IN_U_SCHEMA = FlagSchema("a3-active-flag")
NAIVE_NEIGHBORHOOD_SCHEMA = IdListSchema("naive-neighborhood")

#: The wire-schema registry: every registered message kind by name.
WIRE_SCHEMAS: Dict[str, WireSchema] = {}


def register_schema(schema: WireSchema) -> WireSchema:
    """Register ``schema`` under its kind (idempotent for the same object).

    Raises
    ------
    SimulationError
        When a *different* schema object is already registered under the
        same kind — two message kinds must never share a channel name.
    """
    existing = WIRE_SCHEMAS.get(schema.kind)
    if existing is not None and existing is not schema:
        raise SimulationError(f"wire schema kind {schema.kind!r} already registered")
    WIRE_SCHEMAS[schema.kind] = schema
    return schema


def schema_for(kind: str) -> WireSchema:
    """Return the registered schema for ``kind``.

    Raises
    ------
    SimulationError
        For unknown kinds.
    """
    try:
        return WIRE_SCHEMAS[kind]
    except KeyError:
        raise SimulationError(f"unknown wire schema kind {kind!r}") from None


for _schema in (
    A1_SAMPLE_SCHEMA,
    A2_EDGE_SCHEMA,
    A3_NX_SCHEMA,
    A3_S_SCHEMA,
    A3_V_SCHEMA,
    A3_IN_X_SCHEMA,
    A3_IN_U_SCHEMA,
    NAIVE_NEIGHBORHOOD_SCHEMA,
):
    register_schema(_schema)
del _schema
