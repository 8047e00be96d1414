"""Registry: completeness over the repository, schemas, decorators."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    get_algorithm,
    get_workload,
    list_algorithms,
    list_workloads,
    register_algorithm,
    register_workload,
    unregister_algorithm,
    unregister_workload,
)
from repro.core import TriangleAlgorithm
from repro.errors import AnalysisError
from repro.graphs import Graph, generators


def _all_subclasses(cls):
    found = set()
    for subclass in cls.__subclasses__():
        found.add(subclass)
        found |= _all_subclasses(subclass)
    return found


class TestCompleteness:
    def test_every_triangle_algorithm_subclass_is_registered(self):
        registered_factories = {entry.factory for entry in list_algorithms()}
        for subclass in _all_subclasses(TriangleAlgorithm):
            assert subclass in registered_factories, (
                f"{subclass.__name__} is a TriangleAlgorithm but is not "
                "registered in repro.api"
            )

    def test_composite_algorithms_are_registered(self):
        for name in (
            "theorem1-finding",
            "theorem2-listing",
            "dolev-clique-listing",
            "triangle-counting",
        ):
            assert get_algorithm(name) is not None

    def test_every_public_generator_is_registered(self):
        registered_factories = {entry.factory for entry in list_workloads()}
        public_generators = [
            getattr(generators, name)
            for name in dir(generators)
            if not name.startswith("_")
            and callable(getattr(generators, name))
            and getattr(getattr(generators, name), "__module__", "")
            == generators.__name__
        ]
        assert public_generators, "no generators found — test is broken"
        for generator in public_generators:
            assert generator in registered_factories, (
                f"generator {generator.__name__} is not registered in repro.api"
            )

    def test_counting_is_not_sweepable(self):
        assert not get_algorithm("triangle-counting").sweepable
        assert get_algorithm("theorem2-listing").sweepable


class TestSchemas:
    def test_algorithm_schema_matches_constructor(self):
        entry = get_algorithm("a1-heavy-sampling")
        names = [parameter.name for parameter in entry.parameters]
        assert names == [
            "epsilon",
            "sample_cap_constant",
            "kernel",
            "chunk_bytes",
        ]
        required = [p.name for p in entry.parameters if p.required]
        assert required == ["epsilon"]

    def test_describe_is_json_serializable(self):
        for entry in list_algorithms() + list_workloads():
            json.dumps(entry.describe())

    def test_unknown_parameter_rejected(self):
        with pytest.raises(AnalysisError, match="does not accept"):
            get_algorithm("naive-two-hop").build({"bogus": 1})

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(AnalysisError, match="requires parameters"):
            get_algorithm("a2-heavy-hashing").build({})

    def test_workload_unknown_parameter_rejected(self):
        with pytest.raises(AnalysisError, match="does not accept"):
            get_workload("cycle").build({"seed": 1})


class TestLookup:
    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("Theorem2-Listing") is get_algorithm("theorem2-listing")

    def test_unknown_algorithm_names_registered_ones(self):
        with pytest.raises(AnalysisError, match="registered algorithms"):
            get_algorithm("no-such-algorithm")

    def test_unknown_workload_names_registered_ones(self):
        with pytest.raises(AnalysisError, match="registered workloads"):
            get_workload("no-such-workload")

    def test_listings_are_sorted(self):
        names = [entry.name for entry in list_algorithms()]
        assert names == sorted(names)
        names = [entry.name for entry in list_workloads()]
        assert names == sorted(names)


class TestDecorators:
    def test_register_and_unregister_algorithm(self):
        @register_algorithm("test-dummy-algo", kind="listing")
        class Dummy:
            name = "test-dummy-algo"
            model = "CONGEST"

            def __init__(self, knob: int = 3) -> None:
                self.knob = knob

        try:
            entry = get_algorithm("test-dummy-algo")
            assert entry.factory is Dummy
            assert entry.build({"knob": 5}).knob == 5
        finally:
            unregister_algorithm("test-dummy-algo")
        with pytest.raises(AnalysisError):
            get_algorithm("test-dummy-algo")

    def test_register_and_unregister_workload(self):
        @register_workload("test-dummy-workload")
        def dummy_workload(num_nodes: int, seed=None) -> Graph:
            return Graph(num_nodes)

        try:
            entry = get_workload("test-dummy-workload")
            assert entry.takes_seed
            graph = entry.build({"num_nodes": 4}, seed=1)
            assert graph.num_nodes == 4
        finally:
            unregister_workload("test-dummy-workload")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="already registered"):
            register_algorithm("theorem2-listing", kind="listing")(object)
        with pytest.raises(AnalysisError, match="already registered"):
            register_workload("gnp")(lambda: None)


class TestWorkloadBuild:
    def test_tuple_returning_generators_are_unwrapped(self):
        graph = get_workload("planted").build(
            {"num_nodes": 12, "num_planted": 2}, seed=3
        )
        assert isinstance(graph, Graph)
        graph = get_workload("heavy-edge").build({"num_nodes": 10, "support": 4})
        assert isinstance(graph, Graph)

    def test_pinned_seed_overrides_harness_seed(self):
        entry = get_workload("gnp")
        params = {"num_nodes": 20, "edge_probability": 0.5, "seed": 9}
        first = entry.build(params, seed=1)
        second = entry.build(params, seed=2)
        assert sorted(first.edges()) == sorted(second.edges())

    def test_harness_seed_resamples(self):
        entry = get_workload("gnp")
        params = {"num_nodes": 20, "edge_probability": 0.5}
        first = entry.build(params, seed=1)
        second = entry.build(params, seed=2)
        assert sorted(first.edges()) != sorted(second.edges())
