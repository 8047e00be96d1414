"""Steer a :class:`~repro.graphs.csr.CSRGraph` membership strategy in tests.

``CSRGraph.has_edges`` answers from a dense boolean matrix, a packed
bitset or a binary search of the sorted edge keys, chosen per graph by
size and fill.  Differential tests run under each strategy in turn so all
three stay pinned to the same answers.
"""

import contextlib
from unittest import mock

from repro.graphs import CSRGraph

STRATEGIES = ["dense", "bitset", "sorted-key"]


@contextlib.contextmanager
def forced_strategy(strategy):
    """Turn off the strategies ahead of ``strategy`` and leave its own rule
    live while the block runs.

    ``dense`` patches nothing; ``bitset`` turns the dense path off, so the
    real ``_use_bitset`` rule (fill floor and byte cap) still decides;
    ``sorted-key`` turns both off.  A graph filled enough for the dense
    rule therefore lands on ``strategy`` only if the selection rules work.
    """
    if strategy == "dense":
        yield
        return
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(CSRGraph, "_use_dense", lambda self: False))
        if strategy == "sorted-key":
            stack.enter_context(mock.patch.object(CSRGraph, "_use_bitset", lambda self: False))
        yield


@contextlib.contextmanager
def pinned_strategy(strategy):
    """Put every graph with at least one edge on ``strategy`` while the
    block runs, whatever its size and fill (for suites whose drawn graphs
    are too small or sparse for the real rules to reach every strategy)."""
    dense = strategy == "dense"
    bitset = strategy == "bitset"
    with mock.patch.object(
        CSRGraph, "_use_dense", lambda self: dense and self.num_edges > 0
    ), mock.patch.object(
        CSRGraph, "_use_bitset", lambda self: bitset and self.num_edges > 0
    ):
        yield


def membership_strategy(view: CSRGraph) -> str:
    """The strategy ``has_edges`` takes on ``view``."""
    if view._use_dense():
        return "dense"
    return "bitset" if view._use_bitset() else "sorted-key"
