"""Workload definitions and the engine calls the benchmark times.

A workload is a seeded data graph, a query list, the engines it runs
and an optional per-machine memory budget. ``--seed 0`` is the default:
it reproduces the generator seeds of ``repro.graphs.datasets`` (dblp 11,
roadnet 7, livejournal 13) and partitions with ``build_context``'s
default seed 0. Seed ``s`` shifts both by ``s``, except where a
workload fixes its graph and partition and lets the seed only reorder
the edge rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.crystal import run_crystal
from repro.baselines.psgl import run_psgl
from repro.baselines.seed import run_seed
from repro.core.engine import run_rads
from repro.graphs.datasets import build_context
from repro.graphs.generators import barabasi_albert, grid_graph, watts_strogatz
from repro.graphs.partition import bfs_partition
from repro.query.queries import QUERIES

#: simulated machines, as in the paper's main cluster and benchmarks/conftest.py
M = 10


def dblp_edges(seed: int, n: int) -> tuple[np.ndarray, int]:
    """Watts-Strogatz small world, the DBLP stand-in."""
    return watts_strogatz(n, 6, 0.1, seed=11 + seed), n


def road_edges(seed: int, side: int) -> tuple[np.ndarray, int]:
    """Grid with 8% of edges dropped, the RoadNet stand-in."""
    return grid_graph(side, side, drop_frac=0.08, seed=7 + seed), side * side


def ba_edges(seed: int, n: int, m: int) -> tuple[np.ndarray, int]:
    """Barabasi-Albert power law, the LiveJournal stand-in."""
    return barabasi_albert(n, m, seed=13 + seed), n


def reordered(edges: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The graph and its seed-0 BFS partition, with the edge rows in a
    seeded order: (edges, n, owner). Seed 0 keeps the generator's order."""
    owner = bfs_partition(edges, n, M, seed=0)
    if seed:
        edges = edges[np.random.default_rng(seed).permutation(len(edges))]
    return edges, n, owner


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> (canonical edges, n, partitioner for build_context)
    graph: Callable[[int], tuple[np.ndarray, int, str | np.ndarray]]
    queries: tuple[str, ...]
    #: run on each query, in this order
    engines: tuple[str, ...]
    budget: int | None = None  # simulated bytes per machine


#: why each workload is here: BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dblp-mix",
            lambda s: (*dblp_edges(s, 2000), "bfs"),
            ("q1",),
            ("rads", "psgl", "seed", "crystal"),
        ),
        Workload(
            "ba-budget",
            # one graph and partition for every seed: another generator or
            # partition seed can split a machine's candidates into two
            # region groups, which doubles RADS's job count; renaming the
            # vertices is no way out, as ids order the symmetry breaking.
            # RADS's peak trie is 0.23 MB, PSgL's and SEED's 0.68 and
            # 6.6 MB per machine, so the budget sits 1.7x from both sides
            lambda s: reordered(*ba_edges(0, 700, 3), s),
            ("q3",),
            ("rads", "psgl", "seed"),
            budget=400_000,
        ),
    )
}


def make_graph(spark, w: Workload, seed: int):
    """The workload's GraphContext at ``seed``."""
    edges, n, partitioner = w.graph(seed)
    return build_context(
        spark, edges, n, m=M, partitioner=partitioner, seed=seed, name=w.name
    )


def run_engine(gc, index, engine: str, qn: str, budget: int | None):
    """One engine call with the arguments ``repro.tables._run_engine``
    passes. Returns the RunMetrics."""
    p = QUERIES[qn]
    if engine == "rads":
        _, met = run_rads(
            gc, p, qn, bytes_budget=budget,
            sequential_groups=budget is not None,
            group_mem_bytes=None if budget is None else budget // 8,
        )
    elif engine == "psgl":
        _, met = run_psgl(gc, p, qn, bytes_budget=budget)
    elif engine == "seed":
        _, met = run_seed(gc, p, qn, bytes_budget=budget)
    elif engine == "crystal":
        _, met = run_crystal(gc, p, index, qn, bytes_budget=budget)
    else:
        raise ValueError(engine)
    return met
