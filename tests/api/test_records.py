"""Record serialization: lossless to_dict/from_dict and canonical JSON."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.api.records import canonical_json, canonical_json_object
from repro.analysis import ExperimentRecord, VerificationReport, verify_result
from repro.congest.metrics import AlgorithmCost, ExecutionMetrics, PhaseReport
from repro.core import TriangleListing
from repro.graphs import gnp_random_graph

_SMALL_INTS = st.integers(min_value=0, max_value=2**32)
_NAMES = st.text(min_size=1, max_size=16)

_PHASES = st.builds(
    PhaseReport,
    name=_NAMES,
    rounds=_SMALL_INTS,
    messages=_SMALL_INTS,
    bits=_SMALL_INTS,
    max_link_bits=_SMALL_INTS,
)

_METRICS = st.builds(
    ExecutionMetrics,
    total_rounds=_SMALL_INTS,
    total_messages=_SMALL_INTS,
    total_bits=_SMALL_INTS,
    phases=st.lists(_PHASES, max_size=4),
    bits_received_per_node=st.dictionaries(
        st.integers(min_value=0, max_value=200), _SMALL_INTS, max_size=5
    ),
    messages_received_per_node=st.dictionaries(
        st.integers(min_value=0, max_value=200), _SMALL_INTS, max_size=5
    ),
)

_TRIANGLES = st.sets(
    st.lists(
        st.integers(min_value=0, max_value=50), min_size=3, max_size=3, unique=True
    ).map(lambda t: tuple(sorted(t))),
    max_size=5,
).map(frozenset)

_REPORTS = st.builds(
    VerificationReport,
    algorithm=_NAMES,
    sound=st.booleans(),
    total_truth=_SMALL_INTS,
    total_reported=_SMALL_INTS,
    recall=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    missed=_TRIANGLES,
    spurious=_TRIANGLES,
    solves_finding=st.booleans(),
    solves_listing=st.booleans(),
)

_EXTRAS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
    max_size=3,
)

_RECORDS = st.builds(
    ExperimentRecord,
    experiment=_NAMES,
    algorithm=_NAMES,
    model=_NAMES,
    num_nodes=_SMALL_INTS,
    num_edges=_SMALL_INTS,
    num_triangles=_SMALL_INTS,
    seed=_SMALL_INTS,
    rounds=_SMALL_INTS,
    messages=_SMALL_INTS,
    bits=_SMALL_INTS,
    recall=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    sound=st.booleans(),
    solves_finding=st.booleans(),
    solves_listing=st.booleans(),
    truncated=st.booleans(),
    extra=_EXTRAS,
)


class TestRoundTrips:
    @given(record=_RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_experiment_record(self, record):
        payload = json.loads(json.dumps(record.to_dict()))
        assert ExperimentRecord.from_dict(payload) == record

    @given(metrics=_METRICS)
    @settings(max_examples=60, deadline=None)
    def test_execution_metrics(self, metrics):
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert ExecutionMetrics.from_dict(payload) == metrics

    @given(report=_REPORTS)
    @settings(max_examples=60, deadline=None)
    def test_verification_report(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert VerificationReport.from_dict(payload) == report

    @given(phase=_PHASES)
    @settings(max_examples=30, deadline=None)
    def test_phase_report(self, phase):
        assert PhaseReport.from_dict(json.loads(json.dumps(phase.to_dict()))) == phase

    def test_algorithm_cost(self):
        cost = AlgorithmCost(rounds=3, messages=14, bits=150, max_bits_received=20)
        assert AlgorithmCost.from_dict(json.loads(json.dumps(cost.to_dict()))) == cost


class TestRealRunRoundTrip:
    def test_real_metrics_and_report_round_trip(self):
        graph = gnp_random_graph(20, 0.5, seed=4)
        result = TriangleListing(repetitions=1, epsilon=0.5).run(graph, seed=4)
        metrics = result.metrics
        assert ExecutionMetrics.from_dict(metrics.to_dict()) == metrics
        report = verify_result(result, graph)
        assert VerificationReport.from_dict(report.to_dict()) == report

    def test_equal_records_serialize_to_identical_bytes(self):
        graph = gnp_random_graph(20, 0.5, seed=4)
        results = [
            TriangleListing(repetitions=1, epsilon=0.5).run(graph, seed=4)
            for _ in range(2)
        ]
        reports = [verify_result(result, graph) for result in results]
        lines = {canonical_json(report.to_dict()) for report in reports}
        assert len(lines) == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
def test_spliced_object_matches_canonical_json(document):
    members = {key: canonical_json(value) for key, value in document.items()}
    assert canonical_json_object(members) == canonical_json(document)
