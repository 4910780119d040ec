"""R-Meef: region-grouped expand / verify & filter (Sec. 3.2, Alg. 4).

Each machine runs R-Meef on its own, with no barrier between machines:
one ``groupBy("machine").applyInPandas`` task per machine walks that
machine's region groups in ascending ``g`` (Sec. 6) and, within a
group, runs the plan's rounds level by level over numpy arrays. The
task sees the graph the way the machine does: CSR adjacency, the
replicated ownership map and degrees. Every embedding keeps its home
machine (owner of its start vertex) for its whole life, so
intermediate results never move between machines — the paper's core
claim. SM-E (``core/sme.py``) is the same task over the machine-local
CSR, where nothing is foreign.

Expand — per leaf of the round's unit: the pivot's neighbors, then the
         degree, injectivity and symmetry-breaking filters. A
         verification edge incident to the leaf is checked at once when
         machine m can see it (an endpoint owned by m or in m's fetch
         cache); otherwise it is *undetermined* (Definition 4) and the
         row passes with the edge pending. The rows left are exactly
         the EC set of Definition 3.
Verify & Filter — the distinct undetermined ``(v_x, v_u)`` pairs of
         each pending edge are the verifyE requests (the EVI dedupes
         shared ones); ECs whose edge is missing are dropped.

Metering (DESIGN.md §2), per (machine, group, round):

* fetchV — adjacency bytes ``(deg(v) + 2) * 8`` of each foreign pivot
  not yet in the fetch cache. The cache lives for one region group:
  it is reset when the machine moves to its next group, so a group's
  memory is released with it;
* verifyE — 17 bytes per distinct undetermined pair, per pending edge;
* EC rows, and the exact embedding-trie size of the EC set (Sec. 5):
  level-j nodes are its distinct matching-order (j+1)-prefixes.

With a budget, a group's round stops as soon as its EC rows × 20 B
exceed it. A trie has at least one node per EC row, so that round
trips the budget whatever the exact trie size, and a task never holds
much more than budget / 20 rows. The machine then stops.

The driver checkpoints the task output once, collects the metering
rows and replays them into :class:`RunMetrics` in (group, round) order.
fetchV, verifyE, EC rows and trie nodes are summed over machines per
(group, round); ``peak_intermediate_rows`` is the largest such sum, and
``peak_group_trie_bytes`` the largest single machine's trie. On a trip
only the records up to the first (group, round) that trips count; the
EC rows and trie size of that round are lower bounds.
"""
from __future__ import annotations

import json
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.emtrie import list_bytes
from repro.core.metrics import (
    TRIE_NODE_BYTES,
    VERIFY_PAIR_BYTES,
    VERTEX_BYTES,
    RunMetrics,
)
from repro.graphs.datasets import GraphContext
from repro.graphs.generators import csr_expand
from repro.query.pattern import Pattern
from repro.query.plan import Plan

#: first-leaf expansion rows per chunk of a round's input
CHUNK_ROWS = 1 << 16


def _round_specs(pattern: Pattern, plan: Plan) -> list[tuple]:
    """Plain-data plan for the task. Per round: (pivot, leaves, matched
    query vertices in matching order, pending edges); each leaf is
    (u, degree, injectivity columns, symmetry-breaking pairs,
    verification-edge endpoints)."""
    matched = [plan.units[0].piv]
    specs = []
    for i in range(plan.rounds):
        leaves, pending = [], []
        for u in plan.leaf_order(i):
            sb = [
                (a, b)
                for a, b in pattern.symmetry_breaking_pairs
                if u in (a, b) and (a if b == u else b) in matched
            ]
            ver = [x for x, _ in plan.verification_edges_for_leaf(i, u)]
            leaves.append((u, pattern.degree(u), list(matched), sb, ver))
            pending += [(x, u) for x in ver]
            matched.append(u)
        mo = [u for u in plan.matching_order if u in matched]
        specs.append((plan.units[i].piv, leaves, mo, pending))
    return specs


def _take(R: dict, sel: np.ndarray) -> dict:
    return {k: c[sel] for k, c in R.items()}


def _trie_nodes(R: dict, cols: list[int]) -> int:
    """Distinct prefixes of the rows over ``cols`` (in order), summed
    over prefix lengths: the node count of the merged trie."""
    if not len(R[cols[0]]):
        return 0
    order = np.lexsort([R[c] for c in reversed(cols)])
    new = np.zeros(len(order) - 1, dtype=bool)
    nodes = 0
    for c in cols:
        s = R[c][order]
        new |= s[1:] != s[:-1]
        nodes += 1 + int(new.sum())
    return nodes


def _machine_task(graph, specs, n_cols, budget, has_groups):
    """The per-machine R-Meef task for ``applyInPandas``. It takes the
    machine's (machine, v, g) payload rows (g = -1: a start candidate,
    else its region group) and returns the machine's embeddings (``meta``
    null) plus one JSON metering row per (group, round) (``u*`` = -1).
    ``graph`` is ((indptr, indices, edge keys), owner, degrees, n): numpy
    arrays only, as the task must not capture the unpicklable
    GraphContext. Over ``GraphContext.local_csr`` nothing is foreign, so
    nothing is fetched and no edge is undetermined: that is SM-E."""
    (indptr, indices, ekeys), owner, deg, n = graph

    def has_edge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = a * n + b
        pos = np.minimum(np.searchsorted(ekeys, q), len(ekeys) - 1)
        return ekeys[pos] == q

    def expand(R: dict, m: int, p: int, leaves, cache: np.ndarray):
        """One round's expansion of ``R``: the EC rows, with an
        (exists, undetermined) flag pair per pending edge."""
        for u, du, inj, sb, ver in leaves:
            row, nb = csr_expand(indptr, indices, R[p])
            R = _take(R, row)
            keep = deg[nb] >= du
            for x in inj:
                keep &= nb != R[x]
            for a, b in sb:
                keep &= (nb if a == u else R[a]) < (nb if b == u else R[b])
            R = _take(R, keep)
            R[u] = nb[keep]
            for x in ver:
                ex = has_edge(R[x], R[u])
                local = (owner[R[x]] == m) | (owner[R[u]] == m)
                local |= np.isin(R[x], cache) | np.isin(R[u], cache)
                keep = ex | ~local
                R = _take(R, keep)
                R[("ex", x, u)] = ex[keep]
                R[("ud", x, u)] = ~local[keep]
        return R

    def over(nodes: int) -> bool:
        return budget is not None and nodes * TRIE_NODE_BYTES > budget

    def run_group(m: int, g: int, starts: np.ndarray, meter: list):
        """Rounds of one region group; returns its embeddings or None
        when the budget trips."""
        R = {specs[0][0]: starts}
        cache = np.empty(0, dtype=np.int64)  # fetched foreign vertices
        for i, (p, leaves, mo, pending) in enumerate(specs):
            rec = {"g": g, "round": i, "fetch_n": 0, "fetch_deg": 0, "pairs": 0}
            if i > 0:
                pv = np.unique(R[p])
                new = np.setdiff1d(pv[owner[pv] != m], cache, assume_unique=True)
                rec["fetch_n"], rec["fetch_deg"] = len(new), int(deg[new].sum())
                cache = np.union1d(cache, new)
            # expand in chunks of the pivot's fan-out, so an over-budget
            # round stops after the chunk that crosses the budget
            fan = np.cumsum(deg[R[p]]) - deg[R[p]]
            cuts = np.flatnonzero(np.diff(fan // CHUNK_ROWS)) + 1
            parts, rows = [], 0
            for sel in np.split(np.arange(len(R[p])), cuts):
                parts.append(expand(_take(R, sel), m, p, leaves, cache))
                rows += len(parts[-1][p])
                if over(rows):
                    break
            EC = {k: np.concatenate([P[k] for P in parts]) for k in parts[0]}
            # one trie node per EC row at least: a lower bound is enough
            nodes = rows if over(rows) else _trie_nodes(EC, mo)
            rec.update(ec_rows=rows, trie_nodes=nodes, tripped=over(nodes))
            meter.append(rec)
            if rec["tripped"]:
                return None
            keep = np.ones(rows, dtype=bool)
            for x, u in pending:
                ud = EC[("ud", x, u)]
                rec["pairs"] += len(np.unique(EC[x][ud] * n + EC[u][ud]))
                keep &= EC[("ex", x, u)]
            R = {u: EC[u][keep] for u in mo}
        return R

    cols = [f"u{u}" for u in range(n_cols)]

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        m = int(pdf["machine"].iloc[0])
        starts = pdf.loc[pdf["g"] < 0, "v"]
        groups = pdf.loc[pdf["g"] >= 0, ["v", "g"]]
        starts = groups[groups["v"].isin(starts)] if has_groups else starts.to_frame().assign(g=0)
        meter: list[dict] = []
        out = []
        for g, vs in starts.groupby("g")["v"]:
            R = run_group(m, int(g), vs.to_numpy(np.int64), meter)
            if R is None:
                out = []  # the run failed: its embeddings are never used
                break
            out.append(pd.DataFrame({c: R[u] for u, c in enumerate(cols)}))
        emb = pd.concat(out) if out else pd.DataFrame({c: [] for c in cols}, dtype="int64")
        emb["meta"] = None
        rows = pd.DataFrame({c: -1 for c in cols}, index=range(len(meter)), dtype="int64")
        rows["meta"] = [json.dumps(r) for r in meter]
        return pd.concat([emb, rows], ignore_index=True)

    return run


def machine_tasks(
    payload: DataFrame, graph, pattern: Pattern, plan: Plan,
    budget: int | None, has_groups: bool,
) -> DataFrame:
    """Lazy: one :func:`_machine_task` per machine over the (machine, v, g)
    ``payload``; columns u0..u{n-1} and ``meta``."""
    cols = [f"u{u}" for u in range(pattern.n)]
    schema = ", ".join(f"{c} long" for c in cols) + ", meta string"
    task = _machine_task(graph, _round_specs(pattern, plan), pattern.n, budget, has_groups)
    return payload.groupBy("machine").applyInPandas(task, schema)


def embeddings(out: DataFrame, n_cols: int) -> DataFrame:
    """The embedding rows of :func:`machine_tasks`' output."""
    return out.filter(F.col("meta").isNull()).select(*[f"u{u}" for u in range(n_cols)])


def run_rmeef(
    gc: GraphContext,
    pattern: Pattern,
    plan: Plan,
    start_candidates: DataFrame,
    metrics: RunMetrics,
    *,
    bytes_budget: int | None = None,
    groups: DataFrame | None = None,
    measure_compression: bool = False,
) -> DataFrame | None:
    """Run the distributed phase; returns the embedding DataFrame
    (columns u0..u{n-1}) or None when the budget was exceeded
    (``metrics.failed`` is set). ``start_candidates``: (machine, v) of
    dp0.piv candidates assigned to the distributed phase; ``groups``:
    optional (machine, v, g) region-group assignment (None: one group
    per machine). All Spark work is done when it returns."""
    # one shuffle: the machine's candidates (g = -1) and, if any, its
    # group assignment travel together; the task joins them
    payload = start_candidates.select("machine", "v", F.lit(-1).alias("g"))
    if groups is not None:
        payload = payload.unionByName(groups.select("machine", "v", "g"))
    graph = (gc.csr, gc.owner_np, gc.deg_np, gc.n_vertices)
    out = machine_tasks(
        payload, graph, pattern, plan, bytes_budget, groups is not None
    ).localCheckpoint()
    meter = [json.loads(r["meta"]) for r in out.filter(F.col("meta").isNotNull()).collect()]
    metrics.rounds = plan.rounds
    specs = _round_specs(pattern, plan)
    if not _replay(meter, specs, metrics, bytes_budget, measure_compression):
        return None
    return embeddings(out, pattern.n)


def _replay(meter, specs, metrics, bytes_budget, measure_compression) -> bool:
    """Fold the per-(machine, group, round) metering rows into
    ``metrics`` in the sequential (group, round) order; False on a trip."""
    tot: dict = defaultdict(lambda: defaultdict(int))
    for r in meter:
        t = tot[(r["g"], r["round"])]
        for k in ("fetch_n", "fetch_deg", "pairs", "ec_rows", "trie_nodes"):
            t[k] += r[k]
        t["peak_nodes"] = max(t["peak_nodes"], r["trie_nodes"])
        t["tripped"] |= r["tripped"]
    metrics.extras.setdefault("peak_group_trie_bytes", 0)
    if measure_compression:
        metrics.extras.setdefault("el_bytes", 0)
        metrics.extras.setdefault("et_bytes", 0)
    for (g, i), t in sorted(tot.items()):
        if t["fetch_n"]:
            metrics.add_comm("fetchV", (t["fetch_deg"] + 2 * t["fetch_n"]) * VERTEX_BYTES)
        width = len(specs[i][2])
        metrics.see_intermediate(t["ec_rows"], width)
        peak = t["peak_nodes"] * TRIE_NODE_BYTES
        ex = metrics.extras
        ex["peak_group_trie_bytes"] = max(ex["peak_group_trie_bytes"], peak)
        if measure_compression:
            ex["el_bytes"] = max(ex["el_bytes"], list_bytes(t["ec_rows"], width))
            ex["et_bytes"] = max(ex["et_bytes"], t["trie_nodes"] * TRIE_NODE_BYTES)
        if t["tripped"]:
            metrics.failed = True
            metrics.fail_reason = (
                f"round {i}: a machine's embedding trie of region group {g} "
                f"needs at least {peak} B, over the per-machine budget of "
                f"{bytes_budget} B"
            )
            return False
        if t["pairs"]:
            metrics.add_comm("verifyE", t["pairs"] * VERIFY_PAIR_BYTES)
    return True
