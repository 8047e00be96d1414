#!/usr/bin/env python3
"""Visualising the ε-heavy / light decomposition that drives the algorithms.

The paper's upper bounds rest on one structural idea: split the triangles of
the network into the ε-heavy ones (some edge lies in at least n^ε triangles)
and the rest, attack the heavy ones with hashing (Algorithm A2) and the light
ones with the ∆(X) landmark filter (Algorithm A3), and choose ε to balance
the two costs.

This example builds a workload with both kinds of triangles (a union of
cliques of very different sizes plus a sparse random background), shows how
the decomposition shifts as ε varies, and runs A2 and A3 separately to show
which component is responsible for which triangles.

Run with::

    python examples/heavy_light_decomposition.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import recall_by_heaviness
from repro.core import HeavyHashingLister, LightTrianglesLister
from repro.graphs import Graph, count_triangles, gnp_random_graph, union_of_cliques


def build_workload(seed: int = 3):
    """A 12-clique, two 5-cliques and a sparse background on 70 nodes."""
    cliques = union_of_cliques([12, 5, 5])
    background = gnp_random_graph(70, 0.06, seed=seed)
    return Graph(70, [*background.edges(), *cliques.edges()])


def main() -> None:
    graph = build_workload()
    total = count_triangles(graph)
    print(f"Workload: n={graph.num_nodes}, m={graph.num_edges}, triangles={total}\n")

    print("Heavy/light split as a function of epsilon (threshold = n^epsilon):")
    print("  epsilon  threshold  heavy  light")
    from repro.graphs import heavy_triangles, light_triangles

    for epsilon in (0.2, 0.35, 0.5, 0.65, 0.8):
        threshold = graph.num_nodes ** epsilon
        heavy = len(heavy_triangles(graph, epsilon))
        light = len(light_triangles(graph, epsilon))
        print(f"  {epsilon:>7.2f}  {threshold:>9.1f}  {heavy:>5}  {light:>5}")

    epsilon = 0.5
    print(f"\nRunning the two component algorithms at epsilon = {epsilon}:")
    heavy_run = HeavyHashingLister(epsilon=epsilon).run(graph, seed=11)
    light_run = LightTrianglesLister(epsilon=epsilon).run(graph, seed=11)
    heavy_split = recall_by_heaviness(heavy_run, graph, epsilon)
    light_split = recall_by_heaviness(light_run, graph, epsilon)

    print(f"  A2 (heavy machinery): {heavy_run.rounds} rounds, "
          f"recall on heavy triangles = {heavy_split['heavy']:.2f}, "
          f"on light = {heavy_split['light']:.2f}")
    print(f"  A3 (light machinery): {light_run.rounds} rounds, "
          f"recall on heavy triangles = {light_split['heavy']:.2f}, "
          f"on light = {light_split['light']:.2f}")

    union = heavy_run.triangles_found() | light_run.triangles_found()
    print(f"\n  union of one A2 pass and one A3 pass: {len(union)}/{total} triangles")
    print("  (Theorem 2 repeats the pair ceil(c log n) times to push the union to all of T(G).)")


if __name__ == "__main__":
    main()
