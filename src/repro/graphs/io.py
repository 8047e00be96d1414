"""Edge-list serialization for :class:`~repro.graphs.graph.Graph`.

Experiments frequently need to persist the exact workload graph next to the
measured results so a run can be audited or replayed.  The format is a plain
text edge list:

* a header line ``# nodes <n>``,
* optional comment lines starting with ``#``,
* one ``u v`` pair per line in canonical (sorted) order.

The format is deliberately trivial — it round-trips exactly and diffs
cleanly in version control.  Paths ending in ``.gz`` are transparently
gzip-compressed on write and decompressed on read, so large workload files
never need to live uncompressed on disk.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, TextIO, Union

from ..errors import GraphError
from .graph import Graph

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str) -> TextIO:
    """Open a path as text, transparently gzipping when it ends in ``.gz``."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_edge_list(graph: Graph, destination: Union[PathLike, TextIO], comments: Iterable[str] = ()) -> None:
    """Write ``graph`` as an edge list to a path or text stream.

    Parameters
    ----------
    graph:
        The graph to serialise.
    destination:
        A filesystem path (gzip-compressed when it ends in ``.gz``) or an
        open text stream.
    comments:
        Optional comment lines (without the leading ``#``) written after the
        header, e.g. generator parameters and seeds.
    """
    if isinstance(destination, (str, Path)):
        with _open_text(destination, "w") as handle:
            _write(graph, handle, comments)
    else:
        _write(graph, destination, comments)


def _write(graph: Graph, handle: TextIO, comments: Iterable[str]) -> None:
    handle.write(f"# nodes {graph.num_nodes}\n")
    for comment in comments:
        handle.write(f"# {comment}\n")
    for u, v in graph.edges():
        handle.write(f"{u} {v}\n")


def read_edge_list(source: Union[PathLike, TextIO]) -> Graph:
    """Read a graph previously written by :func:`write_edge_list`.

    Paths ending in ``.gz`` are decompressed transparently.

    Raises
    ------
    GraphError
        If the header is missing or a line cannot be parsed.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source, "r") as handle:
            return _read(handle)
    return _read(source)


def _parse_edge_line(stripped: str, line_number: int) -> "tuple[int, int]":
    parts = stripped.split()
    if len(parts) != 2:
        raise GraphError(
            f"line {line_number}: expected 'u v', got {stripped!r}"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(
            f"line {line_number}: endpoints must be integers, got {stripped!r}"
        ) from exc
    return u, v


def _read(handle: TextIO) -> Graph:
    header = handle.readline()
    if not header.startswith("# nodes "):
        raise GraphError(
            "edge-list files must start with a '# nodes <n>' header line"
        )
    try:
        num_nodes = int(header[len("# nodes "):].strip())
    except ValueError as exc:
        raise GraphError(f"could not parse node count from header {header!r}") from exc
    pairs = []
    try:
        for line_number, line in enumerate(handle, start=2):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                pairs.append(_parse_edge_line(stripped, line_number))
    except GraphError:
        # An invalid edge on an earlier line is reported first.
        Graph(num_nodes, pairs)
        raise
    return Graph(num_nodes, pairs)


def read_edge_stream(source: Union[PathLike, TextIO]):
    """Lazily yield canonical ``(u, v)`` pairs from an edge-list source.

    The ingest-channel counterpart of :func:`read_edge_list`: nothing is
    materialised — lines are read one at a time (gzip members included),
    so arbitrarily large ``.gz`` edge streams can be applied in bounded
    memory.  Differences from the graph reader:

    * no header is required; ``# ...`` comment lines (including a
      ``# nodes <n>`` header, if present) and blank lines are skipped,
    * duplicate edges are passed through unchanged — consumers such as
      :meth:`DeltaGraph.apply_batch` deduplicate per batch,
    * pairs are canonicalised to ``u < v``; self-loops raise
      :class:`~repro.errors.GraphError` with the offending line number,

    Node-range validation is the consumer's job (the stream does not know
    the graph it will be applied to).
    """
    if isinstance(source, (str, Path)):
        def _iter_path():
            with _open_text(source, "r") as handle:
                yield from _iter_edge_stream(handle)

        return _iter_path()
    return _iter_edge_stream(source)


def _iter_edge_stream(handle: TextIO):
    for line_number, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        u, v = _parse_edge_line(stripped, line_number)
        if u == v:
            raise GraphError(f"line {line_number}: self-loop {u} {v} is not an edge")
        yield (u, v) if u < v else (v, u)


def to_edge_list_string(graph: Graph, comments: Iterable[str] = ()) -> str:
    """Return the edge-list serialisation of ``graph`` as a string."""
    buffer = io.StringIO()
    _write(graph, buffer, comments)
    return buffer.getvalue()


def from_edge_list_string(text: str) -> Graph:
    """Parse a graph from an edge-list string produced by :func:`to_edge_list_string`."""
    return _read(io.StringIO(text))
