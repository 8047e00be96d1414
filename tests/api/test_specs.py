"""Specs: JSON round-trips, resolution, and spec-vs-constructor parity."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    AlgorithmSpec,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    list_algorithms,
    load_spec,
)
from repro.analysis import SweepRunner
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
from repro.errors import AnalysisError
from repro.graphs import gnp_random_graph

# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)
_PARAMS = st.dictionaries(st.text(min_size=1, max_size=10), _JSON_VALUES, max_size=4)
_NAMES = st.text(min_size=1, max_size=20)


class TestJsonRoundTrip:
    @given(name=_NAMES, params=_PARAMS, label=st.none() | _NAMES)
    @settings(max_examples=60, deadline=None)
    def test_algorithm_spec_round_trips(self, name, params, label):
        spec = AlgorithmSpec(name=name, params=params, label=label)
        assert AlgorithmSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @given(name=_NAMES, params=_PARAMS)
    @settings(max_examples=60, deadline=None)
    def test_workload_spec_round_trips(self, name, params):
        spec = WorkloadSpec(name=name, params=params)
        assert WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @given(
        algorithm_params=_PARAMS,
        workload_params=_PARAMS,
        seed=st.integers(min_value=0, max_value=2**62),
        experiment=_NAMES,
    )
    @settings(max_examples=60, deadline=None)
    def test_run_spec_round_trips(
        self, algorithm_params, workload_params, seed, experiment
    ):
        spec = RunSpec(
            algorithm=AlgorithmSpec("theorem2-listing", algorithm_params),
            workload=WorkloadSpec("gnp", workload_params),
            seed=seed,
            experiment=experiment,
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_json(spec.to_json(indent=2)) == spec

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**62), min_size=1, max_size=4
        ),
        params=_PARAMS,
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_spec_round_trips(self, seeds, params):
        spec = SweepSpec(
            experiment="sweep",
            algorithms=(
                AlgorithmSpec("theorem2-listing", params, label="a"),
                AlgorithmSpec("naive-two-hop", label="b"),
            ),
            workload=WorkloadSpec("gnp", {"num_nodes": 10, "edge_probability": 0.5}),
            seeds=tuple(seeds),
        )
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_tuples_canonicalise_to_lists(self):
        spec = WorkloadSpec("union-of-cliques", {"clique_sizes": (3, 4)})
        assert spec.params["clique_sizes"] == [3, 4]
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_non_json_params_rejected(self):
        with pytest.raises(AnalysisError, match="JSON"):
            AlgorithmSpec("theorem2-listing", {"rng": object()})
        with pytest.raises(AnalysisError, match="keys must be strings"):
            WorkloadSpec("gnp", {"map": {1: 2}})

    def test_unsupported_schema_version_rejected(self):
        payload = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 5}),
        ).to_dict()
        payload["schema"] = 999
        with pytest.raises(AnalysisError, match="schema version"):
            RunSpec.from_dict(payload)

    def test_load_spec_dispatches_on_kind(self):
        run = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 5}),
        )
        assert load_spec(run.to_json()) == run
        sweep = SweepSpec(
            experiment="e",
            algorithms=(AlgorithmSpec("naive-two-hop"),),
            workload=WorkloadSpec("cycle", {"num_nodes": 5}),
            seeds=(1,),
        )
        assert load_spec(sweep.to_json()) == sweep
        with pytest.raises(AnalysisError, match="kind"):
            load_spec(json.dumps({"schema": 1}))


# ---------------------------------------------------------------------------
# resolution and parity with the direct constructors
# ---------------------------------------------------------------------------

#: Constructor parameters used for the all-registry differential test.
#: Every registered algorithm appears here, mapped to (params, the direct
#: constructor call they must resolve to).
_DIFFERENTIAL_CASES = {
    "a1-heavy-sampling": (
        {"epsilon": 0.5},
        lambda: HeavySamplingFinder(epsilon=0.5),
    ),
    "a2-heavy-hashing": (
        {"epsilon": 0.5},
        lambda: HeavyHashingLister(epsilon=0.5),
    ),
    "a3-light-listing": (
        {"epsilon": 0.5},
        lambda: LightTrianglesLister(epsilon=0.5),
    ),
    "theorem1-finding": (
        {"repetitions": 1, "epsilon": 0.5},
        lambda: TriangleFinding(repetitions=1, epsilon=0.5),
    ),
    "theorem2-listing": (
        {"repetitions": 1, "epsilon": 0.5},
        lambda: TriangleListing(repetitions=1, epsilon=0.5),
    ),
    "dolev-clique-listing": ({}, DolevCliqueListing),
    "naive-two-hop": ({}, NaiveTwoHopListing),
    "local-listing": ({}, LocalListing),
    "triangle-counting": ({}, TriangleCounting),
}

_WORKLOAD = WorkloadSpec("gnp", {"num_nodes": 24, "edge_probability": 0.5})
_SEED = 13


class TestSpecConstructorParity:
    def test_every_registered_algorithm_has_a_differential_case(self):
        assert set(_DIFFERENTIAL_CASES) == {
            entry.name for entry in list_algorithms()
        }

    @pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_CASES))
    def test_spec_run_matches_direct_constructor(self, name):
        """Same seeds ⇒ identical ExecutionMetrics and outputs, per algorithm."""
        params, direct_constructor = _DIFFERENTIAL_CASES[name]
        spec = RunSpec(
            algorithm=AlgorithmSpec(name, params),
            workload=_WORKLOAD,
            seed=_SEED,
        )
        # Round-trip the spec through JSON first: the resolved run must be
        # identical for the original and the rehydrated document.
        rehydrated = RunSpec.from_json(spec.to_json())
        assert rehydrated == spec

        graph = gnp_random_graph(24, 0.5, seed=_SEED)
        direct = direct_constructor().run(graph, seed=_SEED)
        via_spec = rehydrated.run_raw()

        if name == "triangle-counting":
            assert via_spec == direct
            return
        assert via_spec.output == direct.output
        assert via_spec.metrics == direct.metrics
        assert via_spec.cost == direct.cost
        assert via_spec.algorithm == direct.algorithm
        assert via_spec.parameters == direct.parameters
        assert via_spec.truncated == direct.truncated

    def test_run_record_matches_run_single_fields(self):
        spec = RunSpec(
            algorithm=AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5}),
            workload=_WORKLOAD,
            seed=_SEED,
            experiment="parity",
        )
        record = spec.run()
        assert record.experiment == "parity"
        assert record.seed == _SEED
        assert record.sound
        result = spec.run_raw()
        assert record.rounds == result.cost.rounds
        assert record.bits == result.cost.bits

    def test_counting_run_record_is_rejected(self):
        spec = RunSpec(
            algorithm=AlgorithmSpec("triangle-counting"),
            workload=_WORKLOAD,
            seed=_SEED,
        )
        with pytest.raises(AnalysisError, match="run_raw"):
            spec.run()


class TestSweepSpec:
    def _spec(self, seeds=(1, 2)):
        return SweepSpec(
            experiment="grid",
            algorithms=(
                AlgorithmSpec(
                    "theorem2-listing", {"repetitions": 1, "epsilon": 0.5}
                ),
                AlgorithmSpec("naive-two-hop"),
            ),
            workload=WorkloadSpec("gnp", {"num_nodes": 20, "edge_probability": 0.5}),
            seeds=seeds,
        )

    def test_cells_are_picklable_and_workload_major(self):
        spec = self._spec()
        cells = spec.cells()
        assert len(cells) == 4
        assert all(isinstance(cell, RunSpec) for cell in cells)
        assert [cell.seed for cell in cells] == [1, 1, 2, 2]
        assert [cell.algorithm for cell in cells] == list(spec.algorithms) * 2
        for cell in cells:
            assert cell.workload == spec.workload
            assert cell.experiment == spec.experiment
            assert pickle.loads(pickle.dumps(cell)) == cell
        assert spec.cell_labels() == [
            "theorem2-listing",
            "naive-two-hop",
            "theorem2-listing",
            "naive-two-hop",
        ]

    def test_run_groups_cell_records_by_label(self):
        spec = self._spec()
        via_spec = spec.run()
        direct = {label: [] for label in spec.labels()}
        for label, cell in zip(spec.cell_labels(), spec.cells()):
            direct[label].append(cell.run())
        assert via_spec == direct
        assert list(via_spec) == spec.labels()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(AnalysisError, match="distinct"):
            SweepSpec(
                experiment="dup",
                algorithms=(
                    AlgorithmSpec("naive-two-hop"),
                    AlgorithmSpec("naive-two-hop"),
                ),
                workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                seeds=(1,),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(AnalysisError, match="algorithm"):
            SweepSpec(
                experiment="e",
                algorithms=(),
                workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                seeds=(1,),
            )
        with pytest.raises(AnalysisError, match="seed"):
            SweepSpec(
                experiment="e",
                algorithms=(AlgorithmSpec("naive-two-hop"),),
                workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                seeds=(),
            )

    def test_unsweepable_algorithm_rejected(self):
        spec = SweepSpec(
            experiment="count",
            algorithms=(AlgorithmSpec("triangle-counting"),),
            workload=WorkloadSpec("gnp", {"num_nodes": 12, "edge_probability": 0.6}),
            seeds=(1,),
        )
        with pytest.raises(AnalysisError, match="cannot be swept"):
            spec.run()

    def test_with_spawned_seeds_matches_runner_seeds(self):
        spec = SweepSpec.with_spawned_seeds(
            "spawned",
            [AlgorithmSpec("naive-two-hop")],
            WorkloadSpec("cycle", {"num_nodes": 6}),
            base_seed=42,
            num_seeds=3,
        )
        assert list(spec.seeds) == SweepRunner.spawn_seeds(42, 3)

    def test_negative_seeds_rejected_where_the_spec_is_built(self):
        with pytest.raises(AnalysisError, match=r"non-negative, got -2 in \(1, -2, 3\)"):
            SweepSpec(
                experiment="e",
                algorithms=(AlgorithmSpec("naive-two-hop"),),
                workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                seeds=(1, -2, 3),
            )
        with pytest.raises(AnalysisError, match="base seed must be non-negative, got -1"):
            SweepSpec.with_spawned_seeds(
                "e",
                [AlgorithmSpec("naive-two-hop")],
                WorkloadSpec("cycle", {"num_nodes": 4}),
                base_seed=-1,
                num_seeds=2,
            )
        with pytest.raises(AnalysisError, match="run spec seed must be non-negative, got -7"):
            RunSpec(
                algorithm=AlgorithmSpec("naive-two-hop"),
                workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                seed=-7,
            )
        payload = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 4}),
        ).to_dict()
        payload["seed"] = -7
        with pytest.raises(AnalysisError, match="non-negative, got -7"):
            RunSpec.from_dict(payload)


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned."""

    def test_non_string_label_rejected(self):
        with pytest.raises(AnalysisError, match="label must be a string"):
            AlgorithmSpec("naive-two-hop", label=5)

    def test_non_integer_seeds_rejected(self):
        for bad_seeds in ((1.7,), (True,), ("3",)):
            with pytest.raises(AnalysisError, match="seeds must be integers"):
                SweepSpec(
                    experiment="e",
                    algorithms=(AlgorithmSpec("naive-two-hop"),),
                    workload=WorkloadSpec("cycle", {"num_nodes": 4}),
                    seeds=bad_seeds,
                )

    def test_nested_spec_payloads_must_be_objects(self):
        with pytest.raises(AnalysisError, match="JSON object"):
            AlgorithmSpec.from_dict("theorem1-finding")
        with pytest.raises(AnalysisError, match="missing 'name'"):
            WorkloadSpec.from_dict({})

    def test_run_spec_non_integer_seed_rejected(self):
        payload = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 4}),
        ).to_dict()
        for bad_seed in (7.9, True, "7"):
            payload["seed"] = bad_seed
            with pytest.raises(AnalysisError, match="seed must be an integer"):
                RunSpec.from_dict(payload)

    def test_non_finite_floats_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(AnalysisError, match="NaN/Infinity"):
                AlgorithmSpec("theorem2-listing", {"epsilon": bad})
            with pytest.raises(AnalysisError, match="NaN/Infinity"):
                WorkloadSpec("gnp", {"edge_probability": bad})

    def test_specs_are_hashable_value_objects(self):
        first = AlgorithmSpec("theorem2-listing", {"a": 1, "b": 2})
        second = AlgorithmSpec("theorem2-listing", {"b": 2, "a": 1})
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        workload = WorkloadSpec("gnp", {"num_nodes": 10, "edge_probability": 0.5})
        assert hash(workload) == hash(
            WorkloadSpec("gnp", {"edge_probability": 0.5, "num_nodes": 10})
        )
        run = RunSpec(algorithm=first, workload=workload, seed=1)
        assert len({run, RunSpec(algorithm=second, workload=workload, seed=1)}) == 1
