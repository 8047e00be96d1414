"""QuerySpec/QueryResult documents: validation, round-trips, registry."""

import json
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.api import (
    QUERY_SCHEMA_VERSION,
    QueryResult,
    QuerySpec,
    get_query_kind,
    list_query_kinds,
)
from repro.errors import AnalysisError


class TestRegistry:
    def test_kinds_are_sorted_and_complete(self):
        names = [kind.name for kind in list_query_kinds()]
        assert names == ["count", "delta-since", "edge-support", "node-counts"]

    def test_get_unknown_kind(self):
        with pytest.raises(AnalysisError, match="unknown query kind"):
            get_query_kind("cliques")

    def test_describe_shape(self):
        doc = get_query_kind("edge-support").describe()
        assert doc["name"] == "edge-support"
        assert doc["parameters"][0]["required"] is True


class TestQuerySpecValidation:
    def test_minimal_count(self):
        spec = QuerySpec(kind="count")
        assert spec.params == {}

    def test_unknown_param_rejected(self):
        with pytest.raises(AnalysisError, match="does not accept parameter"):
            QuerySpec(kind="count", params={"limit": 5})

    def test_missing_required_param(self):
        with pytest.raises(AnalysisError, match="requires parameter"):
            QuerySpec(kind="edge-support")

    def test_edges_must_be_pairs(self):
        with pytest.raises(AnalysisError, match="pair"):
            QuerySpec(kind="edge-support", params={"edges": [[1, 2, 3]]})
        with pytest.raises(AnalysisError, match="non-empty"):
            QuerySpec(kind="edge-support", params={"edges": []})
        with pytest.raises(AnalysisError, match="integer"):
            QuerySpec(kind="edge-support", params={"edges": [["a", "b"]]})

    def test_nodes_must_be_ints(self):
        with pytest.raises(AnalysisError, match="integer"):
            QuerySpec(kind="node-counts", params={"nodes": [1.5]})
        with pytest.raises(AnalysisError, match="list"):
            QuerySpec(kind="node-counts", params={"nodes": 3})

    def test_version_must_be_non_negative_int(self):
        with pytest.raises(AnalysisError, match=">= 0"):
            QuerySpec(kind="delta-since", params={"version": -1})
        with pytest.raises(AnalysisError, match="integer"):
            QuerySpec(kind="delta-since", params={"version": True})

    def test_tuples_canonicalise_to_lists(self):
        spec = QuerySpec(kind="edge-support", params={"edges": [(0, 1)]})
        assert spec.params == {"edges": [[0, 1]]}


class TestQuerySpecRoundTrip:
    def test_json_round_trip(self):
        spec = QuerySpec(kind="node-counts", params={"nodes": [3, 1]})
        again = QuerySpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_dict_schema_field(self):
        doc = QuerySpec(kind="count").to_dict()
        assert doc["schema"] == QUERY_SCHEMA_VERSION

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(AnalysisError, match="unknown fields"):
            QuerySpec.from_dict({"kind": "count", "extra": 1})

    def test_from_dict_requires_kind(self):
        with pytest.raises(AnalysisError, match="missing the 'kind'"):
            QuerySpec.from_dict({"schema": 1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(AnalysisError, match="JSON object"):
            QuerySpec.from_dict([1, 2])

    def test_from_json_rejects_garbage(self):
        with pytest.raises(AnalysisError, match="not valid JSON"):
            QuerySpec.from_json("{nope")

    def test_future_schema_rejected(self):
        with pytest.raises(AnalysisError, match="schema"):
            QuerySpec.from_dict({"schema": 99, "kind": "count"})

    def test_specs_are_hashable(self):
        a = QuerySpec(kind="node-counts", params={"nodes": [1]})
        b = QuerySpec(kind="node-counts", params={"nodes": [1]})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestQueryResult:
    def test_round_trip(self):
        result = QueryResult(kind="count", version=4, payload={"triangles": 9})
        again = QueryResult.from_json(result.to_json())
        assert again == result

    def test_version_validated(self):
        with pytest.raises(AnalysisError, match="non-negative"):
            QueryResult(kind="count", version=-1, payload={})

    def test_missing_fields_rejected(self):
        with pytest.raises(AnalysisError, match="missing the 'payload'"):
            QueryResult.from_dict({"kind": "count", "version": 0})

    def test_payload_must_be_jsonable(self):
        with pytest.raises(AnalysisError):
            QueryResult(kind="count", version=0, payload={"x": object()})
        # Only the engine's private constructor skips this walk.
        where = r"QueryResult\(count\)\.payload: "
        with pytest.raises(AnalysisError, match=where + "parameter values must be JSON scalars"):
            QueryResult(kind="count", version=0, payload={"x": np.int64(3)})
        with pytest.raises(AnalysisError, match=where + "mapping keys must be strings, got 1"):
            QueryResult(kind="count", version=0, payload={"x": {1: 2}})
        with pytest.raises(AnalysisError, match=where + "NaN/Infinity cannot be represented"):
            QueryResult(kind="count", version=0, payload={"x": [float("nan")]})
        for bad in ({"x": np.int64(3)}, {"x": {1: 2}}, {"x": float("nan")}):
            with pytest.raises(AnalysisError):
                QueryResult.from_dict({"kind": "count", "version": 0, "payload": bad})
        with pytest.raises(AnalysisError, match="NaN/Infinity"):
            QueryResult.from_json('{"kind":"count","version":0,"payload":{"x":NaN}}')

    def test_canonical_json_is_stable(self):
        result = QueryResult(kind="count", version=1, payload={"b": 1, "a": 2})
        assert json.loads(result.to_json()) == result.to_dict()
        assert result.to_json().index('"a"') < result.to_json().index('"b"')

    def test_is_frozen_and_picklable(self):
        result = QueryResult(kind="count", version=2, payload={"triangles": 1})
        with pytest.raises(FrozenInstanceError):
            result.version = 3
        assert pickle.loads(pickle.dumps(result)) == result

    def test_spliced_payload_matches_validated_result(self):
        text = '{"batches":[{"version":3}],"from_version":2}'
        spliced = QueryResult._trusted("delta-since", 3, text)
        public = QueryResult("delta-since", 3, json.loads(text))
        assert spliced == public and hash(spliced) == hash(public)
        assert spliced.to_json() == public.to_json()
        assert repr(spliced) == repr(public)
        assert pickle.loads(pickle.dumps(spliced)).to_json() == spliced.to_json()
        # Each read decodes afresh: changing one copy leaves the result as it was.
        spliced.payload["batches"].clear()
        assert spliced.payload == json.loads(text)
