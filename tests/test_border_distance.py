"""Border distance (Prop. 1's precondition), computed once per graph as
``GraphContext.bd_np``, and the SM-E candidate split that filters it."""
from collections import deque

import numpy as np
import pytest

from repro.core.engine import run_rads
from repro.core.sme import split_candidates
from repro.graphs.datasets import build_context, make_context, make_edges
from repro.graphs.partition import (
    BD_UNREACHABLE,
    bfs_partition,
    border_distance,
    hash_partition,
)
from repro.query.plan import choose_plan
from repro.query.queries import ALL_QUERIES, QUERIES


def _vs(df):
    return sorted(r["v"] for r in df.collect())


def _fingerprint(vs):
    return len(vs), sum(vs), sum(v * v for v in vs)


def _reference_bd(edges, owner, n):
    """Queue-based multi-source BFS over local edges from the border."""
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    bd = [BD_UNREACHABLE] * n
    q = deque()
    for v in range(n):
        if any(owner[w] != owner[v] for w in adj[v]):
            bd[v] = 0
            q.append(v)
    while q:
        x = q.popleft()
        for y in adj[x]:
            if owner[y] == owner[x] and bd[y] == BD_UNREACHABLE:
                bd[y] = bd[x] + 1
                q.append(y)
    return bd


@pytest.mark.parametrize("name", ["roadnet", "dblp", "livejournal"])
@pytest.mark.parametrize("part", ["bfs", "hash"])
def test_border_distance_matches_reference(name, part):
    edges, n = make_edges(name, "tiny")
    owner = bfs_partition(edges, n, 4) if part == "bfs" else hash_partition(n, 4)
    assert border_distance(edges, owner, n).tolist() == _reference_bd(edges, owner, n)


def test_one_machine_has_no_border(spark_tuned):
    gc1 = make_context(spark_tuned, "dblp", "tiny", m=1)
    assert (gc1.bd_np == BD_UNREACHABLE).all()
    p = QUERIES["q2"]
    u0 = choose_plan(p).units[0].piv
    c1, rest = split_candidates(gc1, p, u0)
    want = np.nonzero(gc1.deg_np >= p.degree(u0))[0].tolist()
    assert _vs(c1) == want and _vs(rest) == []
    _, met = run_rads(gc1, p, "q2")
    assert met.comm_bytes == 0
    gc1.unpersist()


def test_borderless_machine_next_to_bordered_ones(spark_tuned):
    """Machine 0 owns a triangle with no foreign neighbor; machines 1
    and 2 split a path 3-4-5-6-7 between 5 and 6."""
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [5, 6], [6, 7]])
    owner = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    gc = build_context(spark_tuned, edges, 8, partitioner=owner, name="borderless")
    assert gc.bd_np.tolist() == [BD_UNREACHABLE] * 3 + [2, 1, 0, 0, 1]
    gc.unpersist()


def test_hash_partition_border_vertices_at_distance_zero(gc_dblp_hash):
    e, owner = gc_dblp_hash.edges_np, gc_dblp_hash.owner_np
    cut = owner[e[:, 0]] != owner[e[:, 1]]
    border = np.zeros(gc_dblp_hash.n_vertices, dtype=bool)
    border[e[cut].ravel()] = True
    assert ((gc_dblp_hash.bd_np == 0) == border).all()


#: (span, degree) of the start vertex -> (C1, rest) fingerprints
#: (count, sum, sum of squares of the vertex ids) on gc_road, as the
#: iterative-join BFS over local edges computed them
ROAD_SPLIT = {
    (1, 3): ((122, 12557, 1692061), (49, 4663, 516385)),
    (1, 4): ((70, 7004, 877644), (37, 3630, 407366)),
    (2, 2): ((105, 10564, 1518130), (91, 8546, 972540)),
    (2, 3): ((85, 9026, 1283856), (86, 8194, 924590)),
    (3, 2): ((70, 7539, 1153055), (126, 11571, 1337615)),
}


@pytest.mark.parametrize("qn", sorted(ALL_QUERIES))
def test_split_candidates_on_road(gc_road, qn):
    p = ALL_QUERIES[qn]
    u0 = choose_plan(p).units[0].piv
    c1, rest = split_candidates(gc_road, p, u0)
    want = ROAD_SPLIT[(p.span(u0), p.degree(u0))]
    assert (_fingerprint(_vs(c1)), _fingerprint(_vs(rest))) == want
