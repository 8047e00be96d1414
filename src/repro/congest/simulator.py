"""Phase-based CONGEST simulator with exact round accounting.

The algorithms in the paper are *phase structured*: each step ("every node
sends its hash function to its neighbours", "every node k sends the set
``S(j, k)`` to each neighbour j with a small set", ...) has all nodes
enqueue data for their neighbours and then wait until the slowest link has
delivered everything before the next step begins.  For such protocols the
round cost of a phase in the CONGEST model is exactly

    ``max over directed edges e of ⌈ queued_bits(e) / B ⌉``

where ``B`` is the per-round bandwidth.  The simulator exploits this: instead
of stepping every round individually (which would make large experiments
infeasible in Python), :meth:`CongestSimulator.run_phase` computes that
maximum, advances the global round counter by it, and delivers all queued
messages at once.  The accounting is identical to literal round-by-round
execution of the same phase-synchronous protocol: the test suite replays
every phase of the paper's protocols with at most ``B`` bits per directed
link per round and checks that the replay takes exactly the charged rounds.

Execution mechanics — per-node RNG seeding, on-demand contexts, the
batched message plane, vectorized delivery fan-out, metrics recording and
round-limit enforcement — live in the shared
:class:`~repro.congest.runtime.CongestRuntime` kernel; this class is the
*policy* layer that decides how a phase's round cost is computed from the
drained traffic (the clique variant overrides only
:meth:`_communication_targets`).

The simulator also enforces the model's knowledge discipline: node programs
receive only :class:`~repro.congest.node.NodeContext` objects built from the
input graph's local neighbourhoods.  The root generator draws every
node's child seed when the simulator is built
(:func:`~repro.congest.runtime.spawn_child_seeds`); the n private
generators are seeded from them in one vectorized pass on the first read
of ``node_rngs`` (:func:`~repro.congest.runtime.child_generators`), and the
contexts are built on the first read of ``contexts``.  The batched
kernels read only ``node_rngs``, the CSR and ``output_table``, so a batched
run builds no context at all, and one that draws nothing (naive's) builds
no generator either.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..graphs.graph import Graph
from ..types import NodeId
from .bandwidth import DEFAULT_BANDWIDTH, BandwidthPolicy
from .metrics import ExecutionMetrics, PhaseReport
from .node import NodeContext, OutputTable
from .runtime import CongestRuntime, DeliveredPhase, PhaseTraffic, max_link_bits

class CongestSimulator:
    """Simulate a phase-synchronous protocol in the standard CONGEST model.

    Parameters
    ----------
    graph:
        The network topology (also the input graph).
    bandwidth:
        The per-edge per-round bandwidth policy.  Defaults to
        ``⌈log2 n⌉``-bit messages.
    seed:
        Seed for the per-node private randomness: an int, ``None`` (fresh
        entropy) or a ``np.random.Generator``, which is used as the root
        and advanced.  The root draws one child seed per node, and node
        ``v``'s generator draws exactly what
        ``np.random.default_rng(child_seed_v)`` would, although all n are
        seeded in one vectorized pass.  Executions are reproducible, and
        node programs cannot share randomness implicitly.
    round_limit:
        Optional budget; exceeding it raises
        :class:`~repro.errors.RoundLimitExceededError`.  Algorithm A3 uses
        this to implement the paper's "stop as soon as the round complexity
        exceeds the budget" rule.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth: BandwidthPolicy = DEFAULT_BANDWIDTH,
        seed: Optional[int | np.random.Generator] = None,
        round_limit: Optional[int] = None,
    ) -> None:
        self._runtime = CongestRuntime(graph, bandwidth, round_limit)
        self._output_table = OutputTable(graph.num_nodes)
        # Each context gets the immutable CSR view's sorted neighbour row
        # (zero-copy) and builds its neighbour frozenset only if read.  The
        # factory must not hold the simulator: that cycle would keep every
        # finished run's output and traffic alive until a collection.
        csr = graph.csr()
        targets = self._communication_targets
        plane = self._runtime.plane
        output = self._output_table

        def build_context(node: NodeId, rng: np.random.Generator) -> NodeContext:
            neighbor_row = csr.neighbor_slice(node)
            return NodeContext(
                node_id=node,
                num_nodes=graph.num_nodes,
                neighbors=neighbor_row,
                comm_targets=targets(neighbor_row),
                rng=rng,
                plane=plane,
                output=output,
            )

        self._runtime.seed_nodes(seed, build_context)

    # ------------------------------------------------------------------
    # topology hooks (overridden by the clique variant)
    # ------------------------------------------------------------------
    @staticmethod
    def _communication_targets(neighbor_row: np.ndarray) -> Optional[np.ndarray]:
        """Return the nodes a node with this neighbour row may address directly.

        In the standard CONGEST model the communication topology *is* the
        input graph, so the targets are the node's sorted neighbour row
        itself, shared rather than copied.  The clique variant returns
        ``None``, the "all other nodes" sentinel.
        """
        return neighbor_row

    @property
    def model_name(self) -> str:
        """Human-readable name of the communication model."""
        return "CONGEST"

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> CongestRuntime:
        """The shared execution kernel this simulator drives."""
        return self._runtime

    @property
    def graph(self) -> Graph:
        """The input graph / network topology."""
        return self._runtime.graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n`` in the network."""
        return self._runtime.graph.num_nodes

    @property
    def bandwidth(self) -> BandwidthPolicy:
        """The bandwidth policy in force."""
        return self._runtime.bandwidth

    @property
    def contexts(self) -> List[NodeContext]:
        """The per-node contexts, indexed by node identifier (built on first read)."""
        return self._runtime.contexts

    def context(self, node: NodeId) -> NodeContext:
        """Return the context of a single node."""
        return self._runtime.contexts[node]

    @property
    def node_rngs(self) -> List[np.random.Generator]:
        """Each node's private generator (the one its context holds)."""
        return self._runtime.node_rngs

    @property
    def output_table(self) -> OutputTable:
        """The network's output tuple, shared by every output door."""
        return self._output_table

    @property
    def metrics(self) -> ExecutionMetrics:
        """The execution metrics accumulated so far."""
        return self._runtime.metrics

    @property
    def total_rounds(self) -> int:
        """Rounds elapsed so far."""
        return self._runtime.metrics.total_rounds

    @property
    def round_limit(self) -> Optional[int]:
        """The configured round budget, if any."""
        return self._runtime.round_limit

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def for_each_node(self, action: Callable[[NodeContext], None]) -> None:
        """Run a local-computation step on every node.

        Local computation is free in the CONGEST model, so this does not
        advance the round counter.  The ``action`` receives each node's
        context in identifier order.
        """
        for context in self._runtime.contexts:
            action(context)

    def stage_columns(
        self,
        schema,
        src,
        dst,
        data,
        lengths=None,
        bits=None,
    ) -> None:
        """Stage a network-wide typed batch on the message plane.

        The batched phase kernels' staging door: one call enqueues an
        entire phase's columnar traffic (``src``/``dst`` per message plus
        the schema's flattened element columns).  Callers are the layer-3
        array programs, which construct destinations from each sender's CSR
        neighbour row — the topology every per-node fast path validates —
        and are differentially tested against the per-node reference
        closures, so the per-destination membership checks are not repeated
        here.
        """
        self._runtime.plane.extend_columns(
            schema, src, dst, data, lengths=lengths, bits=bits
        )

    def stage_sizes(self, schema, src, dst, lengths=None, bits=None) -> None:
        """Stage a network-wide typed batch by its sizes alone.

        The door for traffic no receiver reads (flag announcements, the
        sets a kernel already knows the consequences of): the same
        messages, element counts and on-wire sizes
        :meth:`stage_columns` would stage, hence the same rounds, bits and
        per-node tallies, with no element columns built.  Reading the
        kind's delivered channel raises
        :class:`~repro.errors.SimulationError`.
        """
        self._runtime.plane.extend_sizes(
            schema, src, dst, lengths=lengths, bits=bits
        )

    def _phase_cost(self, traffic: PhaseTraffic) -> Tuple[int, int]:
        """Return ``(rounds, reported max bits)`` for one phase's traffic.

        The standard CONGEST rule: the phase lasts as long as the most
        loaded directed link needs.
        """
        link_bits = max_link_bits(traffic, self.num_nodes)
        rounds = self._runtime.bandwidth.rounds_for_bits(link_bits, self.num_nodes)
        return rounds, link_bits

    def run_phase(self, name: str = "phase", extra_rounds: int = 0) -> PhaseReport:
        """Deliver everything queued by :meth:`NodeContext.send` and charge rounds.

        Object payloads land in the receivers' inboxes.  Typed traffic
        staged for this phase is charged like any other, but nothing
        delivers it: only :meth:`exchange_phase` hands typed channels back.

        Parameters
        ----------
        name:
            Label recorded in the metrics for this phase.
        extra_rounds:
            Additional rounds to charge on top of the communication cost.
            Used for steps the paper charges even when no data flows (e.g. a
            fixed one-round announcement that may be empty for some nodes).

        Returns
        -------
        PhaseReport
            The cost of this phase.

        Raises
        ------
        RoundLimitExceededError
            If the cumulative round count would exceed the configured budget.
        """
        return self._complete_phase(name, extra_rounds).report

    def exchange_phase(
        self, name: str = "phase", extra_rounds: int = 0
    ) -> DeliveredPhase:
        """Run one phase and hand its typed channels back.

        Same accounting and inbox delivery as :meth:`run_phase` (same
        rounds, link-bit maxima, message/bit totals, per-node delivery
        tallies, round-budget enforcement), but the phase's typed channels
        come back as a :class:`~repro.congest.runtime.DeliveredPhase`: the
        driving batched kernel consumes the destination-grouped channel
        arrays in place, and no per-node ``InboxSlice`` is built for them.

        Raises
        ------
        RoundLimitExceededError
            If the cumulative round count would exceed the configured
            budget — after recording the phase, exactly like
            :meth:`run_phase`.
        """
        return self._complete_phase(name, extra_rounds)

    def _complete_phase(self, name: str, extra_rounds: int) -> DeliveredPhase:
        """Drain, cost and complete one phase (shared by both phase doors)."""
        traffic = self._runtime.collect_traffic()
        rounds, link_bits = self._phase_cost(traffic)
        return self._runtime.complete_phase(
            name, rounds + extra_rounds, traffic, link_bits
        )

    def charge_rounds(self, rounds: int, name: str = "charged") -> PhaseReport:
        """Charge a fixed number of rounds without moving any data.

        Used when an algorithm's specification charges a deterministic,
        data-independent number of rounds (for instance a worst-case phase
        length that every node waits out regardless of the actual traffic).
        """
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        report = PhaseReport(
            name=name, rounds=rounds, messages=0, bits=0, max_link_bits=0
        )
        self._runtime.metrics.record_phase(report)
        self._runtime.enforce_round_limit()
        return report

    # ------------------------------------------------------------------
    # output collection
    # ------------------------------------------------------------------
    def collect_outputs(self) -> Dict[NodeId, frozenset]:
        """Return the per-node output sets ``(T_0, ..., T_{n-1})``."""
        return {
            node: self._output_table.node_output(node) for node in range(self.num_nodes)
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.num_nodes}, "
            f"m={self.graph.num_edges}, rounds={self.total_rounds})"
        )
