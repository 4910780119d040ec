"""SM-E tests: border distance on a path (Prop. 1's precondition), the
candidate split, R-Meef's round kernel as the single-machine
enumerator, and SM-E end to end against the DuckDB oracle."""
import json
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.rmeef import _machine_task, _round_specs, embeddings
from repro.core.sme import sme_enumerate, sme_tasks, split_candidates
from repro.graphs.datasets import build_context
from repro.graphs.generators import csr_with_keys
from repro.oracle import assert_equivalent
from repro.query.pattern import Pattern, count_injective_homomorphisms
from repro.query.plan import choose_plan
from repro.query.queries import ALL_QUERIES, QUERIES
from repro.sqlgen import pattern_sql

TRIANGLE = Pattern(3, ((0, 1), (1, 2), (0, 2)), "triangle")


@pytest.fixture(scope="module")
def path_gc(spark_tuned):
    """A 10-vertex path split in the middle: machine 0 owns 0..4,
    machine 1 owns 5..9. Border vertices are exactly 4 and 5."""
    edges = np.array([[i, i + 1] for i in range(9)])
    owner = np.array([0] * 5 + [1] * 5)
    return build_context(spark_tuned, edges, 10, partitioner=owner, name="path10")


def test_border_vertices_on_path(path_gc):
    border = np.flatnonzero(path_gc.bd_np == 0)
    assert set(zip(border, path_gc.owner_np[border])) == {(4, 0), (5, 1)}


@pytest.mark.parametrize(
    "depth,expected",
    [
        (0, {4, 5}),
        (1, {3, 4, 5, 6}),
        (2, {2, 3, 4, 5, 6, 7}),
        (4, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
    ],
)
def test_vertices_within_border_path(path_gc, depth, expected):
    assert set(np.flatnonzero(path_gc.bd_np <= depth)) == expected


def test_split_candidates_partitions(path_gc):
    p = Pattern(3, ((0, 1), (1, 2)), "path3")  # span(1) = 1
    pl = choose_plan(p)
    u0 = pl.units[0].piv
    c1, rest = split_candidates(path_gc, p, u0)
    c1v = {r["v"] for r in c1.collect()}
    restv = {r["v"] for r in rest.collect()}
    assert c1v.isdisjoint(restv)
    # all degree-qualified vertices covered
    deg_ok = {
        r["v"]
        for r in path_gc.degrees.filter(f"deg >= {p.degree(u0)}").collect()
    }
    assert c1v | restv == deg_ok
    # Prop. 1 precondition: C1 vertices have BD >= span
    span = p.span(u0)
    near = set(np.flatnonzero(path_gc.bd_np <= span - 1))
    assert c1v.isdisjoint(near)


# ---------------- the round kernel as a single-machine enumerator ----------------

def _adj(edges):
    a = {}
    for x, y in edges:
        a.setdefault(x, set()).add(y)
        a.setdefault(y, set()).add(x)
    return a


def _kernel(edges, n, pattern, starts):
    """Embeddings R-Meef's per-machine task finds on one machine that
    owns the whole graph ``edges``, from the start candidates ``starts``."""
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    csr = csr_with_keys(e, n)
    graph = (csr, np.zeros(n, dtype=np.int64), np.diff(csr[0]), n)
    task = _machine_task(graph, _round_specs(pattern, choose_plan(pattern)), pattern.n, None, False)
    out = task(pd.DataFrame({"machine": 0, "v": sorted(starts), "g": -1}))
    emb = out[out["meta"].isna()][[f"u{u}" for u in range(pattern.n)]]
    return [tuple(r) for r in emb.itertuples(index=False)]


def test_kernel_triangle_in_k4():
    res = _kernel([(a, b) for a in range(4) for b in range(a + 1, 4)], 4, TRIANGLE, range(4))
    assert len(res) == 4  # C(4,3) under symmetry breaking


def test_kernel_matches_bruteforce():
    import random

    rng = random.Random(5)
    edges = {(a, b) for a in range(8) for b in range(a + 1, 8) if rng.random() < 0.5}
    adj = _adj(edges)
    for qn in ("q1", "q2", "q4"):
        p = QUERIES[qn]
        got = len(_kernel(edges, 8, p, range(8)))
        want = count_injective_homomorphisms(p, adj) // len(p.automorphisms)
        assert got == want, qn


def test_kernel_respects_start_candidates():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    all_res = _kernel(edges, 5, TRIANGLE, range(5))
    some = _kernel(edges, 5, TRIANGLE, [2])
    assert some and set(some) <= set(all_res)
    # results from a start set only map the start vertex into that set
    u0 = choose_plan(TRIANGLE).units[0].piv
    assert all(r[u0] == 2 for r in some)


# ---------------- SM-E locality (Prop. 1 end-to-end) ----------------

def test_sme_embeddings_are_fully_local(gc_road):
    p = QUERIES["q1"]
    pl = choose_plan(p)
    c1, _ = split_candidates(gc_road, p, pl.units[0].piv)
    df = sme_enumerate(gc_road, p, pl, c1)
    rows = df.collect()
    owner = gc_road.owner_np
    for r in rows:
        machines = {owner[r[f"u{u}"]] for u in range(p.n)}
        assert len(machines) == 1  # never crosses a machine


def _sql_from_c1(p, u0):
    """The oracle's embeddings that map ``u0`` into the table ``c1``: the
    edge relation that binds ``u0`` in ``pattern_sql`` is restricted to
    C1, so DuckDB never enumerates the whole pattern first (seconds to
    a minute on the dense tiny graphs)."""
    k = next(k for k, e in enumerate(p.edges) if u0 in e)
    col = "src" if p.edges[k][0] == u0 else "dst"
    rel = f"(SELECT * FROM edges WHERE {col} IN (SELECT v FROM c1)) e{k}"
    return re.sub(rf"\bedges e{k}\b", rel, pattern_sql(p))


@pytest.mark.parametrize("qn", sorted(ALL_QUERIES))
@pytest.mark.parametrize("fixture", ["gc_dblp", "gc_road", "gc_lj", "gc_uk", "gc_dblp_hash"])
def test_sme_is_local_and_matches_oracle(request, fixture, qn):
    """Prop. 1: over the machine-local CSR, SM-E fetches nothing and
    leaves no edge undetermined, and finds exactly the oracle's
    embeddings whose start vertex is in C1."""
    gc = request.getfixturevalue(fixture)
    p = ALL_QUERIES[qn]
    pl = choose_plan(p)
    u0 = pl.units[0].piv
    c1, _ = split_candidates(gc, p, u0)
    out = sme_tasks(gc, p, pl, c1).localCheckpoint()
    meter = [json.loads(r["meta"]) for r in out.filter("meta IS NOT NULL").collect()]
    c1 = c1.toPandas()
    assert len(meter) == pl.rounds * c1["machine"].nunique()
    assert all(r["fetch_n"] == 0 and r["pairs"] == 0 for r in meter)
    assert_equivalent(embeddings(out, p.n), _sql_from_c1(p, u0), edges=gc.edges_pdf, c1=c1)
