"""Single-Machine Enumeration (SM-E) and the border-distance split.

Proposition 1: if ``Span_P(u_start) <= BD(v)`` then every embedding
mapping u_start→v is entirely local to v's machine, so it can be found
on the partition alone. We compute the split by filtering the
per-vertex border distance ``GraphContext.bd_np`` (one multi-source BFS
over local edges per graph, see ``partition.border_distance``);
candidates with ``BD(v) >= span`` form C1. SM-E enumerates them with
R-Meef's per-machine round kernel (``rmeef._machine_task``) over the
machine-local CSR ``GraphContext.local_csr``: there nothing is foreign,
so nothing is fetched and no edge is ever undetermined.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.rmeef import embeddings, machine_tasks
from repro.graphs.datasets import GraphContext
from repro.query.pattern import Pattern
from repro.query.plan import Plan


def _vertex_df(gc: GraphContext, mask: np.ndarray) -> DataFrame:
    """(v, machine) of the vertices selected by ``mask``."""
    v = np.nonzero(mask)[0].astype(np.int64)
    return gc.spark.createDataFrame(
        pd.DataFrame({"v": v, "machine": gc.owner_np[v].astype(np.int32)}),
        schema="v long, machine int",
    )


def split_candidates(
    gc: GraphContext, pattern: Pattern, u_start: int
) -> tuple[DataFrame, DataFrame]:
    """(C1, C_rest) for the starting query vertex — both (v, machine).

    Candidates are owned vertices passing the degree filter. C1 are
    those with BD >= span (Prop. 1 ⇒ handled by SM-E); the rest go to
    the distributed R-Meef phase.
    """
    cand = gc.deg_np >= pattern.degree(u_start)
    far = gc.bd_np >= pattern.span(u_start)
    return _vertex_df(gc, cand & far), _vertex_df(gc, cand & ~far)


def sme_tasks(
    gc: GraphContext, pattern: Pattern, plan: Plan, c1: DataFrame
) -> DataFrame:
    """Lazy: R-Meef's per-machine task over the machine-local CSR, with
    C1 as the start candidates, no budget and one group per machine.
    Rows as :func:`rmeef.machine_tasks` returns them: the embeddings and
    one metering row per (machine, round), whose fetchV and undetermined
    pairs are zero by Prop. 1."""
    graph = (gc.local_csr, gc.owner_np, gc.deg_np, gc.n_vertices)
    payload = c1.select("machine", "v", F.lit(-1).alias("g"))
    return machine_tasks(payload, graph, pattern, plan, None, False)


def sme_enumerate(
    gc: GraphContext, pattern: Pattern, plan: Plan, c1: DataFrame
) -> DataFrame:
    """Lazy: SM-E's embeddings of the C1 candidates, one column per
    query vertex (u0..u{n-1})."""
    return embeddings(sme_tasks(gc, pattern, plan, c1), pattern.n)
