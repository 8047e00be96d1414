"""Phase accounting against a literal round-by-round replay of real traffic.

:meth:`CongestSimulator.run_phase` charges a phase
``max over directed links of ⌈bits / B⌉`` rounds in one step.  These tests
check that rule on the paper's own protocols rather than on toy programs:
every phase of A1, A2, A3, the Dolev clique baseline and the naive two-hop
baseline is run on both kernels, and each phase's drained :class:`~repro.congest.runtime.PhaseTraffic`
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

The theorem-level compositions (Theorem 1 finding, Theorem 2 listing) and
the counting protocol are replayed the same way.  Hand-built phases with closed-form costs (a single identifier, a
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
from repro.congest.wire import A3_S_SCHEMA
from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
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
    "naive-two-hop": lambda kernel: NaiveTwoHopListing(kernel=kernel),
}
#: Protocols with a single execution path (no ``kernel`` option).
KERNELLESS_PROTOCOLS = {
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
        # Phases with a kind staged by its sizes alone (no element columns).
        self.sizes_only_phases = 0
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
            self.sizes_only_phases += any(
                channel.sizes_only for channel in traffic.channels
            )
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


def link_traffic(num_nodes, edge_probability, order, seed=5):
    """``(src, dst, bits)`` over every directed edge of a drawn graph.

    ``order`` is ``"src-major"`` (CSR order, one message per link),
    ``"dst-major"`` (one per link, receiver-major), ``"repeated"`` (CSR
    order, each link's messages consecutive, one to three of them) or
    ``"shuffled"`` (one to three per link, in random order).
    """
    csr = gnp_random_graph(num_nodes, edge_probability, seed=seed).csr()
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(csr.indptr))
    dst = csr.indices
    rng = np.random.default_rng(seed)
    if order == "dst-major":
        ranks = np.lexsort((src, dst))
        src, dst = src[ranks], dst[ranks]
    elif order in ("repeated", "shuffled"):
        copies = rng.integers(1, 4, size=src.shape[0])
        src, dst = np.repeat(src, copies), np.repeat(dst, copies)
        if order == "shuffled":
            ranks = rng.permutation(src.shape[0])
            src, dst = src[ranks], dst[ranks]
    return src, dst, rng.integers(1, 60, size=src.shape[0])


#: One named traffic case per reduction of ``max_link_bits``:
#: ``(num_nodes, edge_probability, order, reduction)``.  The link-key span
#: n² is at most four times the message count only on the small dense
#: network, so only there do shuffled keys take the histogram.
LINK_BIT_CASES = {
    "one-per-link-src-major": (40, 0.3, "src-major", "one-per-link"),
    "one-per-link-dst-major": (300, 0.01, "dst-major", "one-per-link"),
    "segment-in-place": (300, 0.01, "repeated", "segment"),
    "histogram": (40, 0.3, "shuffled", "histogram"),
    "sort-and-segment": (300, 0.01, "shuffled", "sort"),
}


@pytest.mark.parametrize("case", sorted(LINK_BIT_CASES))
def test_replay_reaches_every_link_bit_reduction(monkeypatch, case):
    # Each reduction is reached by its named case on a real phase, and its
    # result is checked against a brute-force per-link sum and against the
    # literal replay, which recounts the busiest link itself.
    num_nodes, edge_probability, order, reduction = LINK_BIT_CASES[case]
    taken = []
    reduce_links = runtime_module._link_bits_reduction

    def spied(traffic, n):
        branch, link_bits = reduce_links(traffic, n)
        taken.append((branch, link_bits))
        return branch, link_bits

    monkeypatch.setattr(runtime_module, "_link_bits_reduction", spied)
    src, dst, bits = link_traffic(num_nodes, edge_probability, order)
    per_link = Counter()
    for link, size in zip(zip(src.tolist(), dst.tolist()), bits.tolist()):
        per_link[link] += size
    if reduction == "one-per-link":
        assert max(Counter(zip(src.tolist(), dst.tolist())).values()) == 1
    replay = install_replay(monkeypatch)
    simulator = CongestSimulator(gnp_random_graph(num_nodes, edge_probability, seed=5))
    simulator.stage_sizes(A3_S_SCHEMA, src, dst, lengths=np.ones_like(bits), bits=bits)
    report = simulator.exchange_phase("link-bits").report
    replay.assert_tallies_match()
    assert replay.phases == 1
    assert taken == [(reduction, max(per_link.values()))]
    assert report.max_link_bits == max(per_link.values())


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("protocol", ["A2", "A3", "Thm1"])
def test_replay_covers_sizes_only_phases(monkeypatch, protocol, kernel):
    # The batched kernels stage A3's flags, landmark neighbourhoods and S
    # sets, and A2's dense step 2, by their sizes alone; those phases are
    # replayed from the same flat (src, dst, bits) records as any other,
    # while the reference closures stage every element.
    graph = gnp_random_graph(40, 0.4, seed=11)
    replay = run_replayed(monkeypatch, protocol, kernel, graph, seed=3)
    assert replay.phases
    assert bool(replay.sizes_only_phases) == (kernel == "batched")


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


def stage_ragged_batch(simulator, sizes_only):
    """``j`` identifiers on each link ``j → j+1`` of a cycle, with or
    without the identifiers themselves."""
    num_nodes = simulator.num_nodes
    src = np.arange(num_nodes, dtype=np.int64)
    dst = (src + 1) % num_nodes
    if sizes_only:
        simulator.stage_sizes(A3_S_SCHEMA, src, dst, lengths=src)
    else:
        simulator.stage_columns(
            A3_S_SCHEMA,
            src,
            dst,
            {"member": np.zeros(int(src.sum()), dtype=np.int64)},
            lengths=src,
        )


@pytest.mark.parametrize("door", ["run_phase", "exchange_phase"])
@pytest.mark.parametrize("sizes_only", [False, True], ids=["columns", "sizes-only"])
def test_sizes_only_phase_costs_its_closed_form(door, sizes_only):
    # The busiest link carries n - 1 identifiers, one per round.
    with pytest.MonkeyPatch.context() as monkeypatch:
        replay = install_replay(monkeypatch)
        simulator = CongestSimulator(cycle_graph(12), bandwidth=ONE_ID, seed=0)
        stage_ragged_batch(simulator, sizes_only)
        report = deliver(simulator, door)
        replay.assert_tallies_match()
    assert replay.phases == 1
    assert replay.sizes_only_phases == sizes_only
    assert report.rounds == id_rounds(simulator, 11)
    # Node 1 receives node 0's empty set, charged the one-bit floor.
    assert simulator.metrics.bits_received_per_node[1] == 1


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
