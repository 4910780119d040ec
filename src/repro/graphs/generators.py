"""Deterministic synthetic graph generators (numpy edge arrays).

Each generator returns a canonical undirected edge array of shape
(E, 2) with ``src < dst``, no self loops, no duplicates. These stand in
for the paper's four public graphs (see DESIGN.md §3): a perturbed grid
for RoadNet, Watts–Strogatz for DBLP, Barabási–Albert for LiveJournal
and UK2002.
"""
from __future__ import annotations

import numpy as np


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Dedupe + orient (min, max) + drop self loops."""
    e = edges.astype(np.int64)
    e = e[e[:, 0] != e[:, 1]]
    e = np.stack([e.min(axis=1), e.max(axis=1)], axis=1)
    return np.unique(e, axis=0)


def grid_graph(rows: int, cols: int, *, drop_frac: float = 0.0, seed: int = 0) -> np.ndarray:
    """RoadNet-like: 2-D lattice with a random fraction of edges removed.

    Sparse (avg degree < 4), huge diameter relative to size — the regime
    where the paper's SM-E handles almost everything.
    """
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    e = np.concatenate([right, down])
    if drop_frac > 0:
        g = np.random.default_rng(seed)
        keep = g.random(len(e)) >= drop_frac
        e = e[keep]
    return _canonical(e)


def watts_strogatz(n: int, k: int, p: float, *, seed: int = 0) -> np.ndarray:
    """DBLP-like small world: ring lattice (k/2 each side) with rewiring.

    High clustering coefficient → plenty of triangles, like a
    co-authorship graph.
    """
    if k % 2 or k >= n:
        raise ValueError("k must be even and < n")
    g = np.random.default_rng(seed)
    v = np.arange(n)
    srcs, dsts = [], []
    for j in range(1, k // 2 + 1):
        srcs.append(v)
        dsts.append((v + j) % n)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    rewire = g.random(len(src)) < p
    dst = dst.copy()
    dst[rewire] = g.integers(0, n, rewire.sum())
    return _canonical(np.stack([src, dst], axis=1))


def barabasi_albert(n: int, m: int, *, seed: int = 0) -> np.ndarray:
    """LiveJournal/UK-like: preferential attachment → power-law degrees.

    Implemented with the repeated-endpoints trick: each new vertex picks
    ``m`` targets uniformly from the flat list of all edge endpoints so
    far (probability ∝ degree).
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    g = np.random.default_rng(seed)
    # seed graph: star on m+1 vertices (keeps it connected)
    endpoints: list[int] = []
    edges: list[tuple[int, int]] = []
    for v in range(1, m + 1):
        edges.append((0, v))
        endpoints += [0, v]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            t = endpoints[g.integers(0, len(endpoints))]
            if t != v:
                targets.add(int(t))
        for t in targets:
            edges.append((t, v))
            endpoints += [t, v]
    return _canonical(np.array(edges))


def degrees_of(edges: np.ndarray, n: int) -> np.ndarray:
    """Degree array from a canonical edge array."""
    d = np.zeros(n, dtype=np.int64)
    np.add.at(d, edges[:, 0], 1)
    np.add.at(d, edges[:, 1], 1)
    return d


def adjacency_csr(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) CSR adjacency of the symmetric graph, each row's
    neighbors in ascending order."""
    both = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    cnt = np.bincount(both[:, 0], minlength=n)
    indptr[1:] = np.cumsum(cnt)
    return indptr, both[:, 1].copy()


def csr_with_keys(
    edges: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, edge keys) of the symmetric graph: the CSR
    adjacency and the ``src * n + dst`` key of every entry, sorted
    because the CSR rows are, so an edge test is a binary search."""
    indptr, indices = adjacency_csr(edges, n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return indptr, indices, src * n + indices


def csr_expand(
    indptr: np.ndarray, indices: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, nbr): every neighbor of every ``vs[i]``, vectorised; ``row``
    is ``i`` repeated deg(vs[i]) times, neighbors in ascending order."""
    cnt = indptr[vs + 1] - indptr[vs]
    row = np.repeat(np.arange(len(vs)), cnt)
    starts = np.repeat(indptr[vs] - np.cumsum(cnt) + cnt, cnt)
    return row, indices[starts + np.arange(len(row))]
