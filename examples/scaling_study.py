#!/usr/bin/env python3
"""Scaling study: measured round complexity vs the paper's bounds.

Sweeps the network size, runs the naive baseline, the Theorem-1 finder, one
Theorem-2 listing pass and the Dolev et al. clique algorithm on each size,
fits growth exponents, and prints a compact comparison against the
asymptotic predictions of Table 1.

This is the script version of the `benchmarks/` scaling experiments, meant
for interactive exploration; pass a different maximum size or density on the
command line, e.g.::

    python examples/scaling_study.py --max-nodes 160 --probability 0.4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import SweepRunner, fit_power_law, render_table
from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec
from repro.core import finding_epsilon_asymptotic, listing_epsilon_asymptotic


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nodes", type=int, default=120,
                        help="largest network size in the sweep (default 120)")
    parser.add_argument("--probability", type=float, default=0.5,
                        help="edge probability of the G(n, p) workloads (default 0.5)")
    parser.add_argument("--points", type=int, default=5,
                        help="number of sweep points (default 5)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    smallest = max(24, args.max_nodes // args.points)
    sizes = sorted({smallest + i * (args.max_nodes - smallest) // (args.points - 1)
                    for i in range(args.points)})

    # One declarative run spec per (algorithm, size) cell; the registry
    # resolves the names to the same constructors the hand-wired loop used.
    algorithms = {
        "naive": AlgorithmSpec("naive-two-hop"),
        "finding": AlgorithmSpec(
            "theorem1-finding",
            {"repetitions": 1, "epsilon": finding_epsilon_asymptotic()},
        ),
        "listing": AlgorithmSpec(
            "theorem2-listing",
            {"repetitions": 1, "epsilon": listing_epsilon_asymptotic()},
        ),
        "clique": AlgorithmSpec("dolev-clique-listing"),
    }
    runs = [
        RunSpec(
            algorithm=spec,
            workload=WorkloadSpec(
                "gnp",
                {
                    "num_nodes": num_nodes,
                    "edge_probability": args.probability,
                    "seed": 7000 + num_nodes,  # pinned: same graph per size
                },
            ),
            seed=1,
            experiment="scaling-study",
        )
        for num_nodes in sizes
        for spec in algorithms.values()
    ]
    rows = []
    series = {name: [] for name in algorithms}
    names = list(algorithms)
    # Stream records in cell order so each size prints as it completes
    # (this script is for interactive exploration).
    stream = SweepRunner().iter_cells(runs)
    for num_nodes in sizes:
        cell_records = [next(stream) for _ in names]
        measured = dict(zip(names, (record.rounds for record in cell_records)))
        for name in names:
            series[name].append(measured[name])
        rows.append([str(num_nodes)] + [str(measured[name]) for name in names])
        print(f"  measured n={num_nodes}: naive={measured['naive']} "
              f"finding={measured['finding']} listing={measured['listing']} "
              f"clique={measured['clique']}")

    print()
    print(render_table(
        ["n", "naive (d_max)", "Thm 1 finding", "Thm 2 listing (1 pass)", "Dolev clique"],
        rows,
    ))

    print("\nFitted growth exponents (theory in parentheses):")
    expectations = {
        "naive": "1.00",
        "finding": "0.67 + log factors",
        "listing": "0.75 + log factors",
        "clique": "0.33 + log factors",
    }
    for name, values in series.items():
        fit = fit_power_law([float(n) for n in sizes], [float(v) for v in values])
        print(f"  {name:<8} {fit.exponent:5.2f}   (theory: {expectations[name]})")

    print("\nNote: at simulator-scale n the CONGEST algorithms are still in their"
          "\npre-asymptotic regime (the landmark set of A3 is tiny), so their fitted"
          "\nexponents sit between the naive baseline's 1.0 and the asymptotic value;"
          "\nthe ordering and the baseline/clique exponents already match the theory.")


if __name__ == "__main__":
    main()
