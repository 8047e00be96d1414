"""Phase accounting against a literal round-by-round replay of real traffic.

:meth:`CongestSimulator.run_phase` charges a phase
``max over directed links of ⌈bits / B⌉`` rounds in one step.  These tests
check that rule on the paper's own protocols rather than on toy programs:
every phase of A1, A2, A3 (and the Dolev clique baseline) is run on both
kernels, and each phase's drained :class:`~repro.congest.runtime.PhaseTraffic`
is replayed literally before it is delivered — every directed link forwards
its queue first-in first-out, at most ``B = bits_per_round(n)`` bits per
round, until all queues are empty.  The replay must take exactly the
charged rounds, its busiest link must carry the reported
``max_link_bits``, and the bits and messages it delivers to each node must
equal the simulator's per-node tallies.

Dolev's one phase is a Lenzen routing instance on the clique, which is
charged by Lenzen's theorem (``c · ⌈max per-node load / n⌉``) rather than
per link; for it the deliveries are replayed the same way and the per-node
load is recounted message by message.

The theorem-level compositions (Theorem 1 finding, Theorem 2 listing), the
naive two-hop baselines and the counting protocol are replayed the same
way.  Hand-built phases with closed-form costs (a single identifier, a
neighbourhood exchange, a convergecast, an oversized message, a flood) pin
the charged rounds to exact numbers on both delivery doors
(``run_phase`` and ``exchange_phase``) and on both network models, and the
replay itself is checked on traffic small enough to count by hand.

The accounting is wrapped from outside through ``monkeypatch``; the
simulator has no test hook.
"""

import math
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import (
    BandwidthPolicy,
    CliqueSimulator,
    CongestSimulator,
    LenzenRouter,
    id_bits,
)
from repro.congest import runtime as runtime_module
from repro.congest import simulator as simulator_module
from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    LocalListing,
    NaiveTwoHopListing,
    TriangleCounting,
    TriangleFinding,
    TriangleListing,
)
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    lollipop_graph,
)

PROTOCOLS = {
    "A1": lambda kernel: HeavySamplingFinder(epsilon=0.3, kernel=kernel),
    "A2": lambda kernel: HeavyHashingLister(epsilon=0.4, kernel=kernel),
    "A3": lambda kernel: LightTrianglesLister(epsilon=0.3, kernel=kernel),
    "Dolev": lambda kernel: DolevCliqueListing(kernel=kernel),
    "Thm1": lambda kernel: TriangleFinding(repetitions=2, kernel=kernel),
    "Thm2": lambda kernel: TriangleListing(repetitions=2, kernel=kernel),
}
#: Protocols with a single execution path (no ``kernel`` option).
KERNELLESS_PROTOCOLS = {
    "naive-two-hop": NaiveTwoHopListing,
    "local-listing": LocalListing,
    "triangle-counting": lambda: TriangleCounting(disseminate=True),
}
#: ``B = ⌈log2 n⌉``: one node identifier per link per round.
ONE_ID = BandwidthPolicy(minimum_bits=1)
KERNELS = ["reference", "batched"]


def replay_links(traffic, per_round):
    """Deliver ``traffic`` one round at a time over its directed links.

    Each link forwards at most ``per_round`` bits per round from the head
    of its FIFO queue; a message is delivered once its last bit has
    crossed.  A zero-bit message needs no bandwidth and is delivered as
    soon as it reaches the head of its queue.  Returns ``(rounds, busiest
    link's total bits, bits received per node, messages received per
    node)``.
    """
    queues = {}
    for src, dst, bits in zip(
        traffic.src.tolist(), traffic.dst.tolist(), traffic.bits.tolist()
    ):
        queues.setdefault((src, dst), deque()).append(bits)
    busiest = max((sum(queue) for queue in queues.values()), default=0)
    bits_received = Counter()
    messages_received = Counter()
    rounds = 0
    while True:
        for (_, dst), queue in queues.items():
            while queue and queue[0] == 0:
                queue.popleft()
                messages_received[dst] += 1
        queues = {link: queue for link, queue in queues.items() if queue}
        if not queues:
            return rounds, busiest, bits_received, messages_received
        rounds += 1
        for (_, dst), queue in queues.items():
            budget = per_round
            while queue and budget:
                sent = min(budget, queue[0])
                queue[0] -= sent
                budget -= sent
                bits_received[dst] += sent
                if queue[0] == 0:
                    queue.popleft()
                    messages_received[dst] += 1


class PhaseReplay:
    """Replays every accounted phase; keeps the delivery totals per simulator."""

    def __init__(self):
        self.phases = 0
        self.received = {}  # simulator -> (bits Counter, messages Counter)

    def _tally(self, simulator, bits_received, messages_received):
        bits, messages = self.received.setdefault(simulator, (Counter(), Counter()))
        bits.update(bits_received)
        messages.update(messages_received)

    def phase_cost(self, original):
        def checked(simulator, traffic):
            rounds, link_bits = original(simulator, traffic)
            per_round = simulator.bandwidth.bits_per_round(simulator.num_nodes)
            replayed, busiest, bits, messages = replay_links(traffic, per_round)
            assert replayed == rounds
            assert busiest == link_bits
            self._tally(simulator, bits, messages)
            self.phases += 1
            return rounds, link_bits

        return checked

    def lenzen_account(self, original):
        def checked(router, traffic, name):
            report = original(router, traffic, name)
            simulator = router._simulator
            num_nodes = simulator.num_nodes
            per_round = simulator.bandwidth.bits_per_round(num_nodes)
            sent, received = Counter(), Counter()
            for src, dst, bits in zip(
                traffic.src.tolist(), traffic.dst.tolist(), traffic.bits.tolist()
            ):
                units = max(1, math.ceil(bits / per_round))
                sent[src] += units
                received[dst] += units
            load = max([*sent.values(), *received.values()], default=0)
            expected = (
                router._constant_rounds * max(1, math.ceil(load / num_nodes))
                if load
                else 0
            )
            assert report.rounds == expected
            _, _, bits, messages = replay_links(traffic, per_round)
            self._tally(simulator, bits, messages)
            self.phases += 1
            return report

        return checked

    def assert_tallies_match(self):
        for simulator, (bits, messages) in self.received.items():
            metrics = simulator.metrics
            assert metrics.bits_received_per_node == {
                node: bits[node] for node in messages
            }
            assert metrics.messages_received_per_node == dict(messages)


class LinkBitsBranches:
    """Records which reduction :func:`max_link_bits` took on each phase.

    Stands in for numpy inside the runtime module: only the sort-and-segment
    branch calls ``argsort`` within ``max_link_bits``.
    """

    def __init__(self):
        self.taken = []
        self._argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self._argsorts += 1
        return np.argsort(*args, **kwargs)

    def wrap(self, original):
        def spied(traffic, num_nodes):
            before = self._argsorts
            link_bits = original(traffic, num_nodes)
            if traffic.count:
                self.taken.append("sort" if self._argsorts > before else "bincount")
            return link_bits

        return spied


def install_replay(monkeypatch):
    """Replay every phase accounted from here on; return the replay log."""
    replay = PhaseReplay()
    monkeypatch.setattr(
        CongestSimulator,
        "_phase_cost",
        replay.phase_cost(CongestSimulator._phase_cost),
    )
    monkeypatch.setattr(
        LenzenRouter,
        "_account_instance",
        replay.lenzen_account(LenzenRouter._account_instance),
    )
    return replay


def run_replayed(monkeypatch, protocol, kernel, graph, seed):
    """Run one protocol with every phase replayed; return the replay log."""
    replay = install_replay(monkeypatch)
    PROTOCOLS[protocol](kernel).run(graph, seed=seed)
    replay.assert_tallies_match()
    return replay


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@settings(max_examples=10, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=26),
    edge_probability=st.floats(min_value=0.05, max_value=0.9),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    run_seed=st.integers(min_value=0, max_value=2**16),
)
def test_replay_takes_the_charged_rounds(
    protocol, kernel, num_nodes, edge_probability, graph_seed, run_seed
):
    graph = gnp_random_graph(num_nodes, edge_probability, seed=graph_seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        replay = run_replayed(monkeypatch, protocol, kernel, graph, run_seed)
    if graph.num_edges:
        assert replay.phases


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "num_nodes, edge_probability, branch",
    [(300, 0.01, "sort"), (40, 0.3, "bincount")],
    ids=["sparse", "dense"],
)
def test_replay_reaches_both_link_bit_reductions(
    monkeypatch, kernel, num_nodes, edge_probability, branch
):
    # Small drawn graphs keep the link-key range small, so only a sparse
    # network large enough for the histogram to dwarf the records sends
    # max_link_bits down its sort-and-segment branch.
    branches = LinkBitsBranches()
    monkeypatch.setattr(runtime_module, "np", branches)
    monkeypatch.setattr(
        simulator_module, "max_link_bits", branches.wrap(simulator_module.max_link_bits)
    )
    graph = gnp_random_graph(num_nodes, edge_probability, seed=5)
    replay = run_replayed(monkeypatch, "A1", kernel, graph, seed=2)
    assert replay.phases
    assert branch in branches.taken


@pytest.mark.parametrize("protocol", sorted(KERNELLESS_PROTOCOLS))
@settings(max_examples=10, deadline=None)
@given(
    num_nodes=st.integers(min_value=3, max_value=26),
    edge_probability=st.floats(min_value=0.05, max_value=0.9),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    run_seed=st.integers(min_value=0, max_value=2**16),
)
def test_replay_of_single_path_protocols(
    protocol, num_nodes, edge_probability, graph_seed, run_seed
):
    # A Hamiltonian cycle keeps the graph connected, which the counting
    # protocol's spanning tree needs.
    drawn = gnp_random_graph(num_nodes, edge_probability, seed=graph_seed)
    graph = Graph(
        num_nodes,
        [*drawn.edges(), *((v, (v + 1) % num_nodes) for v in range(num_nodes))],
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        replay = install_replay(monkeypatch)
        KERNELLESS_PROTOCOLS[protocol]().run(graph, seed=run_seed)
        replay.assert_tallies_match()
    assert replay.phases


def traffic_of(*messages):
    """A phase's traffic columns from ``(src, dst, bits)`` triples."""
    src, dst, bits = zip(*messages) if messages else ((), (), ())
    return SimpleNamespace(
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        bits=np.array(bits, dtype=np.int64),
    )


class TestReplayOracle:
    """The replay is the reference here, so check it on countable traffic."""

    def test_empty_traffic_takes_no_rounds(self):
        assert replay_links(traffic_of(), 8) == (0, 0, Counter(), Counter())

    def test_message_of_exactly_b_bits_takes_one_round(self):
        rounds, busiest, bits, messages = replay_links(traffic_of((0, 1, 8)), 8)
        assert (rounds, busiest) == (1, 8)
        assert bits == {1: 8}
        assert messages == {1: 1}

    def test_one_bit_over_b_takes_a_second_round(self):
        rounds, busiest, _, messages = replay_links(traffic_of((0, 1, 9)), 8)
        assert (rounds, busiest) == (2, 9)
        assert messages == {1: 1}

    def test_small_messages_share_a_round(self):
        rounds, _, bits, messages = replay_links(
            traffic_of((0, 1, 4), (0, 1, 4)), 8
        )
        assert rounds == 1
        assert bits == {1: 8}
        assert messages == {1: 2}

    def test_parallel_links_do_not_add_up(self):
        traffic = traffic_of((1, 0, 8), (2, 0, 8), (3, 0, 8))
        rounds, busiest, bits, messages = replay_links(traffic, 8)
        assert (rounds, busiest) == (1, 8)
        assert bits == {0: 24}
        assert messages == {0: 3}

    def test_opposite_directions_are_separate_links(self):
        rounds, busiest, bits, _ = replay_links(
            traffic_of((0, 1, 8), (1, 0, 8)), 8
        )
        assert (rounds, busiest) == (1, 8)
        assert bits == {0: 8, 1: 8}

    def test_zero_bit_message_is_delivered_without_a_round(self):
        rounds, busiest, bits, messages = replay_links(traffic_of((0, 1, 0)), 8)
        assert (rounds, busiest) == (0, 0)
        assert bits == Counter()
        assert messages == {1: 1}


def star_graph(leaves):
    """A star with the centre at node 0."""
    return Graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])


def send_one_identifier(simulator):
    simulator.context(0).send(1, 5)


def exchange_neighbourhoods(simulator):
    for context in simulator.contexts:
        neighbors = context.sorted_neighbors()
        bits = len(neighbors) * id_bits(context.num_nodes)
        context.broadcast(("N", tuple(neighbors)), bits=bits)


def announce_identifiers(simulator):
    for context in simulator.contexts:
        context.broadcast_bits(context.node_id, bits=id_bits(context.num_nodes))


def ping_through_bulk_send(simulator):
    for context in simulator.contexts:
        targets = context.sorted_neighbors()
        context.bulk_send(
            targets, [context.node_id] * len(targets), bits=id_bits(context.num_nodes)
        )


def address_every_other_node(simulator):
    # Clique model: node 0 reaches nodes that are not its input-graph
    # neighbours.
    for target in range(1, simulator.num_nodes):
        simulator.context(0).send(target, target)


def converge_three_identifiers(simulator):
    for leaf in range(1, simulator.num_nodes):
        simulator.context(leaf).send(0, (leaf, leaf, leaf))


def queue_four_identifiers_on_one_link(simulator):
    for _ in range(4):
        simulator.context(0).send(1, 3)


def send_one_oversized_message(simulator):
    per_round = simulator.bandwidth.bits_per_round(simulator.num_nodes)
    simulator.context(0).send(1, "blob", bits=5 * per_round + 1)


def send_zero_bit_messages(simulator):
    simulator.context(0).send(1, "tick", bits=0)
    simulator.context(2).send(1, "tick", bits=0)


def id_rounds(simulator, identifiers):
    """Rounds to push ``identifiers`` node ids over one link."""
    num_nodes = simulator.num_nodes
    per_round = simulator.bandwidth.bits_per_round(num_nodes)
    return -(-identifiers * id_bits(num_nodes) // per_round)


#: name -> (simulator factory, enqueue step, expected rounds)
HAND_BUILT_PHASES = {
    "clique-single-identifier": (
        lambda: CliqueSimulator(complete_graph(9), bandwidth=ONE_ID, seed=0),
        send_one_identifier,
        lambda simulator: 1,
    ),
    "clique-neighbourhood-exchange": (
        lambda: CliqueSimulator(complete_graph(6), bandwidth=ONE_ID, seed=0),
        exchange_neighbourhoods,
        lambda simulator: id_rounds(simulator, 5),
    ),
    "clique-identifier-announcement": (
        lambda: CliqueSimulator(complete_graph(5), bandwidth=ONE_ID, seed=0),
        announce_identifiers,
        lambda simulator: 1,
    ),
    "clique-beyond-input-edges": (
        lambda: CliqueSimulator(cycle_graph(6), bandwidth=ONE_ID, seed=0),
        address_every_other_node,
        lambda simulator: 1,
    ),
    "barabasi-albert-announcement": (
        lambda: CongestSimulator(
            barabasi_albert_graph(24, 3, seed=5), bandwidth=ONE_ID, seed=0
        ),
        announce_identifiers,
        lambda simulator: 1,
    ),
    "barabasi-albert-neighbourhood-exchange": (
        lambda: CongestSimulator(
            barabasi_albert_graph(24, 3, seed=5), bandwidth=ONE_ID, seed=0
        ),
        exchange_neighbourhoods,
        lambda simulator: id_rounds(simulator, simulator.graph.max_degree()),
    ),
    "cycle-bulk-ping": (
        lambda: CongestSimulator(cycle_graph(8), bandwidth=ONE_ID, seed=0),
        ping_through_bulk_send,
        lambda simulator: 1,
    ),
    "star-convergecast": (
        lambda: CongestSimulator(star_graph(7), bandwidth=ONE_ID, seed=0),
        converge_three_identifiers,
        lambda simulator: id_rounds(simulator, 3),
    ),
    "one-link-queue": (
        lambda: CongestSimulator(cycle_graph(32), bandwidth=ONE_ID, seed=0),
        queue_four_identifiers_on_one_link,
        lambda simulator: id_rounds(simulator, 4),
    ),
    "oversized-message": (
        lambda: CongestSimulator(cycle_graph(16), bandwidth=ONE_ID, seed=0),
        send_one_oversized_message,
        lambda simulator: 6,
    ),
    "zero-bit-messages": (
        lambda: CongestSimulator(cycle_graph(3), bandwidth=ONE_ID, seed=0),
        send_zero_bit_messages,
        lambda simulator: 0,
    ),
}


def deliver(simulator, door):
    """Run one phase through ``door`` and return its report."""
    if door == "run_phase":
        return simulator.run_phase("hand-built")
    return simulator.exchange_phase("hand-built").report


@pytest.mark.parametrize("door", ["run_phase", "exchange_phase"])
@pytest.mark.parametrize("scenario", sorted(HAND_BUILT_PHASES))
def test_hand_built_phase_costs_its_closed_form(monkeypatch, scenario, door):
    make_simulator, enqueue, expected_rounds = HAND_BUILT_PHASES[scenario]
    replay = install_replay(monkeypatch)
    simulator = make_simulator()
    enqueue(simulator)
    report = deliver(simulator, door)
    assert replay.phases == 1
    assert report.rounds == expected_rounds(simulator)
    replay.assert_tallies_match()
    # Object payloads reach the inboxes on either door.
    delivered = sum(len(context.received()) for context in simulator.contexts)
    assert delivered == report.messages


def eccentricity(graph, source):
    """Largest hop distance from ``source`` (breadth-first search)."""
    distance = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    reached.append(neighbor)
        frontier = reached
    assert len(distance) == graph.num_nodes
    return max(distance.values())


@pytest.mark.parametrize(
    "graph, source",
    [
        (cycle_graph(9), 0),
        (lollipop_graph(4, 5), 0),
        (star_graph(6), 3),
        (complete_graph(6), 2),
        (barabasi_albert_graph(30, 2, seed=9), 29),
    ],
    ids=["cycle", "lollipop", "star-leaf", "clique", "barabasi-albert"],
)
def test_flood_takes_the_source_eccentricity(monkeypatch, graph, source):
    # Nodes that learnt the source's identifier last phase forward it to
    # every neighbour; one identifier per link costs one round per phase.
    replay = install_replay(monkeypatch)
    simulator = CongestSimulator(graph, bandwidth=ONE_ID, seed=0)
    informed, frontier = {source}, [source]
    while len(informed) < graph.num_nodes:
        for node in frontier:
            simulator.context(node).broadcast(source, bits=id_bits(graph.num_nodes))
        assert simulator.run_phase("flood").rounds == 1
        frontier = [
            context.node_id
            for context in simulator.contexts
            if context.node_id not in informed and context.received()
        ]
        assert frontier
        informed.update(frontier)
    assert replay.phases == simulator.total_rounds == eccentricity(graph, source)
    replay.assert_tallies_match()
