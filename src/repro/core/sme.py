"""Single-Machine Enumeration (SM-E) and the border-distance split.

Proposition 1: if ``Span_P(u_start) <= BD(v)`` then every embedding
mapping u_start→v is entirely local to v's machine, so it can be found
by a single-machine algorithm over the partition alone. We compute the
split by filtering the per-vertex border distance ``GraphContext.bd_np``
(one multi-source BFS over local edges per graph, see
``partition.border_distance``); candidates with ``BD(v) >= span`` form
C1 and are enumerated per machine by a TurboIso-lite backtracking
enumerator inside ``applyInPandas``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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


def border_vertices(gc: GraphContext) -> DataFrame:
    """(v, machine) of vertices with at least one foreign neighbor."""
    return _vertex_df(gc, gc.bd_np == 0)


def local_edges(gc: GraphContext) -> DataFrame:
    """(src, dst, machine): edges whose both endpoints share a machine."""
    return gc.edges_o.filter(F.col("src_m") == F.col("dst_m")).select(
        "src", "dst", F.col("src_m").alias("machine")
    )


def vertices_within_border(gc: GraphContext, depth: int) -> DataFrame:
    """(v, machine) — vertices whose border distance is <= ``depth``."""
    return _vertex_df(gc, gc.bd_np <= depth)


def split_candidates(
    gc: GraphContext, pattern: Pattern, u_start: int
) -> tuple[DataFrame, DataFrame]:
    """(C1, C_rest) for the starting query vertex — both (v, machine).

    Candidates are owned vertices passing the degree filter. C1 are
    those with BD >= span (Prop. 1 ⇒ handled by SM-E); the rest go to
    the distributed R-Meef phase.
    """
    cand = gc.degree_np() >= pattern.degree(u_start)
    far = gc.bd_np >= pattern.span(u_start)
    return _vertex_df(gc, cand & far), _vertex_df(gc, cand & ~far)


# ---------------- backtracking enumerator (TurboIso-lite) ----------------

def enumerate_backtracking(
    adj: dict[int, set[int]],
    pattern: Pattern,
    order: Sequence[int],
    start_candidates: Iterable[int],
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings (tuples indexed by query-vertex id) of ``pattern``
    in the graph ``adj``, matching along ``order`` (order[0] ranges over
    ``start_candidates``). Applies injectivity, degree filtering, every
    pattern edge, and the pattern's symmetry-breaking constraints —
    the IsJoinable/SubgraphSearch structure of the generic backtracking
    framework the paper builds on.
    """
    n = pattern.n
    pos = {u: i for i, u in enumerate(order)}
    back_nbrs = [[w for w in pattern.adj[order[i]] if pos[w] < i] for i in range(n)]
    sb_at = [
        [
            (a, b)
            for a, b in pattern.symmetry_breaking_pairs
            if max(pos[a], pos[b]) == i
        ]
        for i in range(n)
    ]
    f: dict[int, int] = {}
    used: set[int] = set()
    empty: set[int] = set()

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(f[u] for u in range(n))
            return
        u = order[i]
        cand: set[int] | None = None
        for w in back_nbrs[i]:
            s = adj.get(f[w], empty)
            cand = set(s) if cand is None else cand & s
        if not cand:
            return
        dq = pattern.degree(u)
        for v in sorted(cand):
            if v in used or len(adj.get(v, empty)) < dq:
                continue
            f[u] = v
            ok = all(f[a] < f[b] for a, b in sb_at[i])
            if ok:
                used.add(v)
                yield from rec(i + 1)
                used.discard(v)
            del f[u]

    u0 = order[0]
    d0 = pattern.degree(u0)
    for v in sorted(set(start_candidates)):
        if len(adj.get(v, empty)) < d0:
            continue
        f[u0] = v
        used.add(v)
        yield from rec(1)
        used.discard(v)
        del f[u0]


def sme_enumerate(
    gc: GraphContext, pattern: Pattern, plan: Plan, c1: DataFrame
) -> DataFrame:
    """Run SM-E per machine over C1 via ``applyInPandas``.

    Each machine group receives its local edges plus its C1 candidates
    and runs the backtracking enumerator over the partition-induced
    subgraph — no cross-machine data, exactly Prop. 1's promise.
    Returns embeddings with one column per query vertex (u0..u{n-1}).
    """
    order = plan.matching_order
    n = pattern.n
    payload = local_edges(gc).select(
        "machine", F.col("src").alias("a"), F.col("dst").alias("b"),
        F.lit(0).alias("kind"),
    ).unionByName(
        c1.select(
            "machine", F.col("v").alias("a"), F.lit(-1).alias("b"),
            F.lit(1).alias("kind"),
        )
    )
    out_schema = ", ".join(f"u{u} long" for u in range(n))
    # applyInPandas closures must not capture the unpicklable GraphContext
    pat, mo = pattern, order

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        edges = pdf[pdf["kind"] == 0]
        cands = pdf.loc[pdf["kind"] == 1, "a"].to_numpy()
        adj: dict[int, set[int]] = {}
        for s, d in zip(edges["a"].to_numpy(), edges["b"].to_numpy()):
            adj.setdefault(int(s), set()).add(int(d))
        rows = list(enumerate_backtracking(adj, pat, mo, (int(v) for v in cands)))
        return pd.DataFrame(rows, columns=[f"u{u}" for u in range(n)], dtype="int64")

    return payload.groupBy("machine").applyInPandas(run, schema=out_schema)
