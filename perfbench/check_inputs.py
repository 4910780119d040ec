"""Self-check of the benchmark's seeded inputs.

    python3 perfbench/check_inputs.py

At the default seed (0) the benchmark's generators, fed with the lite
sizes, must give the same edge array and vertex ownership as
``make_context(spark, name, "lite", m=10)``; another seed must give
another graph. Exits 1 on a mismatch.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from workloads import M, ba_edges, dblp_edges, road_edges  # noqa: E402

#: dataset name -> the benchmark generator at that dataset's lite size
LITE = {
    "dblp": lambda seed: dblp_edges(seed, 6000),
    "roadnet": lambda seed: road_edges(seed, 90),
    "livejournal": lambda seed: ba_edges(seed, 2500, 5),
}


def main() -> int:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[2] --driver-memory 1g --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false --conf spark.driver.host=127.0.0.1 "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    from repro.graphs.datasets import build_context, make_context

    spark = SparkSession.builder.appName("perfbench-check-inputs").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    bad = 0
    try:
        for name, gen in LITE.items():
            ref = make_context(spark, name, "lite", m=M)
            edges, n = gen(0)
            got = build_context(spark, edges, n, m=M, seed=0, name=name)
            same = np.array_equal(ref.edges_np, got.edges_np) and np.array_equal(
                ref.owner_np, got.owner_np
            )
            other = not np.array_equal(gen(1)[0], edges)
            print(f"{name}: seed 0 matches make_context: {same}; seed 1 differs: {other}")
            bad += (not same) + (not other)
            ref.unpersist()
            got.unpersist()
    finally:
        spark.stop()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
