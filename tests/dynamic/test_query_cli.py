"""The ``repro query`` verb: one-shot, client mode, --json, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.api.cli import main
from repro.dynamic import QueryServer, TriangleQueryEngine
from repro.graphs import Graph, write_edge_list


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def k4_minus_one():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.edges.gz"
    write_edge_list(k4_minus_one(), path)
    return str(path)


@pytest.fixture()
def batch_file(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"insert": [[2, 3]], "delete": [[0, 1]]}), encoding="utf-8")
    return str(path)


class TestListQueries:
    def test_human(self, capsys):
        code, out, _ = _run(capsys, "list", "queries")
        assert code == 0
        assert "edge-support" in out and "delta-since" in out

    def test_json(self, capsys):
        code, out, _ = _run(capsys, "list", "queries", "--json")
        assert code == 0
        payload = json.loads(out)
        names = {kind["name"] for kind in payload["queries"]}
        assert names == {"count", "node-counts", "edge-support", "delta-since"}
        assert "algorithms" not in payload

    def test_all_includes_queries(self, capsys):
        code, out, _ = _run(capsys, "list", "--json")
        assert json.loads(out)["queries"]


class TestOneShot:
    def test_default_count(self, capsys, graph_file):
        code, out, _ = _run(capsys, "query", "--graph", graph_file)
        assert code == 0
        assert "triangles=2" in out

    def test_count_json(self, capsys, graph_file):
        code, out, _ = _run(capsys, "query", "--graph", graph_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["payload"]["triangles"] == 2
        assert payload["result"]["version"] == 0

    def test_workload_source(self, capsys):
        code, out, _ = _run(
            capsys,
            "query",
            "--workload",
            "gnp",
            "--workload-params",
            '{"num_nodes": 30, "edge_probability": 0.3}',
            "--seed",
            "7",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["payload"]["num_nodes"] == 30

    def test_apply_then_query(self, capsys, graph_file, batch_file):
        code, out, _ = _run(
            capsys, "query", "--graph", graph_file, "--apply", batch_file,
            "--kind", "count", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 1
        # K4 minus (0,1): triangles (0,2,3) and (1,2,3).
        assert payload["result"]["payload"]["triangles"] == 2
        (applied,) = payload["applied"]
        assert applied["created_count"] == 2 and applied["destroyed_count"] == 2

    def test_apply_edges_stream(self, capsys, graph_file, tmp_path):
        edges = tmp_path / "extra.edges"
        edges.write_text("# a comment\n\n2 3\n3 2\n", encoding="utf-8")
        code, out, _ = _run(
            capsys, "query", "--graph", graph_file, "--apply-edges", str(edges),
            "--kind", "count", "--json",
        )
        assert code == 0
        assert json.loads(out)["result"]["payload"]["triangles"] == 4  # full K4

    def test_apply_only_no_query(self, capsys, graph_file, batch_file):
        code, out, _ = _run(capsys, "query", "--graph", graph_file, "--apply", batch_file)
        assert code == 0
        assert "applied batch" in out and "triangles=" not in out

    def test_spec_file(self, capsys, graph_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"schema": 1, "kind": "edge-support", "params": {"edges": [[0, 1]]}}),
            encoding="utf-8",
        )
        code, out, _ = _run(capsys, "query", "--graph", graph_file, "--spec", str(spec), "--json")
        assert code == 0
        assert json.loads(out)["result"]["payload"]["support"] == [2]

    def test_node_counts_text(self, capsys, graph_file):
        code, out, _ = _run(
            capsys, "query", "--graph", graph_file, "--kind", "node-counts",
            "--params", '{"nodes": [0, 2]}',
        )
        assert code == 0
        assert "0\t2" in out and "2\t1" in out


class TestErrorContract:
    def test_unknown_kind_exits_2(self, capsys, graph_file):
        code, _, err = _run(capsys, "query", "--graph", graph_file, "--kind", "nope")
        assert code == 2
        assert "unknown query kind" in err

    def test_malformed_params_exit_2(self, capsys, graph_file):
        code, _, err = _run(
            capsys, "query", "--graph", graph_file, "--kind", "edge-support",
            "--params", "not-json",
        )
        assert code == 2 and "JSON" in err

    def test_missing_required_param_exits_2(self, capsys, graph_file):
        code, _, err = _run(capsys, "query", "--graph", graph_file, "--kind", "edge-support")
        assert code == 2
        assert "requires parameter" in err

    def test_spec_and_kind_conflict(self, capsys, graph_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "count"}', encoding="utf-8")
        code, _, err = _run(
            capsys, "query", "--graph", graph_file, "--spec", str(spec), "--kind", "count"
        )
        assert code == 2 and "mutually exclusive" in err

    def test_malformed_spec_document_exits_2(self, capsys, graph_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "count", "surprise": 1}', encoding="utf-8")
        code, _, err = _run(capsys, "query", "--graph", graph_file, "--spec", str(spec))
        assert code == 2 and "unknown fields" in err

    def test_malformed_batch_file_exits_2(self, capsys, graph_file, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text('{"inserts": [[0, 1]]}', encoding="utf-8")
        code, _, err = _run(capsys, "query", "--graph", graph_file, "--apply", str(batch))
        assert code == 2 and "unknown fields" in err

    @pytest.mark.parametrize("pair", [[0, 2.7], [True, 3], ["1", "4"]], ids=["float", "bool", "str"])
    def test_non_integer_batch_endpoint_exits_2(self, capsys, graph_file, tmp_path, pair):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"insert": [pair]}), encoding="utf-8")
        code, out, err = _run(capsys, "query", "--graph", graph_file, "--apply", str(batch))
        assert code == 2 and "integer (u, v) pairs" in err and "applied batch" not in out

    def test_no_source_no_root_exits_2(self, capsys):
        code, _, err = _run(capsys, "query")
        assert code == 2 and "nothing to query" in err

    def test_source_plus_root_exits_2(self, capsys, graph_file, tmp_path):
        code, _, err = _run(capsys, "query", str(tmp_path), "--graph", graph_file)
        assert code == 2 and "drop ROOT" in err

    def test_graph_and_workload_conflict(self, capsys, graph_file):
        code, _, err = _run(
            capsys, "query", "--graph", graph_file, "--workload", "gnp"
        )
        assert code == 2 and "mutually exclusive" in err

    def test_params_without_kind(self, capsys, graph_file):
        code, _, err = _run(capsys, "query", "--graph", graph_file, "--params", "{}")
        assert code == 2 and "--params needs --kind" in err


class TestClientMode:
    def test_query_and_apply_against_running_server(self, capsys, tmp_path, batch_file):
        engine = TriangleQueryEngine(k4_minus_one(), listing=False)
        with QueryServer(tmp_path / "svc", engine):
            root = str(tmp_path / "svc")
            code, out, _ = _run(capsys, "query", root, "--json")
            assert code == 0
            assert json.loads(out)["result"]["payload"]["triangles"] == 2

            code, out, _ = _run(capsys, "query", root, "--apply", batch_file, "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["version"] == 1

            code, out, _ = _run(capsys, "query", root, "--kind", "count")
            assert code == 0
            assert "triangles=2 (version 1" in out

    def test_stop_flag(self, capsys, tmp_path):
        engine = TriangleQueryEngine(k4_minus_one())
        server = QueryServer(tmp_path / "svc", engine)
        server.start()
        try:
            code, out, _ = _run(capsys, "query", str(tmp_path / "svc"), "--stop")
            assert code == 0
            server.wait()
        finally:
            server.stop()
        assert not (tmp_path / "svc" / "service.json").exists()

    def test_missing_service_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "query", str(tmp_path / "nowhere"), "--kind", "count")
        assert code == 2

    def test_stop_and_serve_conflict(self, capsys, tmp_path):
        code, _, err = _run(capsys, "query", str(tmp_path), "--serve", "--stop")
        assert code == 2 and "mutually exclusive" in err
