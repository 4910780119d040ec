"""Run metrics shared by RADS and all baselines.

Communication is metered analytically from the dataflow (DESIGN.md §2):
every engine reports the bytes it would have moved over the network and
the largest intermediate result it materialized. ``failed`` is the
simulated out-of-memory: an intermediate exceeded ``bytes_budget``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: bytes per vertex id on the wire / in an embedding-list entry
VERTEX_BYTES = 8
#: bytes per embedding-trie node: vertex (8) + parent pointer (8) + childCount (4)
TRIE_NODE_BYTES = 20
#: bytes of a verifyE request (two vertex ids) + its boolean response
VERIFY_PAIR_BYTES = 2 * VERTEX_BYTES + 1


@dataclass
class RunMetrics:
    """Outcome + cost model of one engine × query × dataset run."""

    engine: str
    query: str
    dataset: str
    n_embeddings: int = 0
    elapsed_s: float = 0.0
    comm_bytes: int = 0
    comm_breakdown: dict[str, int] = field(default_factory=dict)
    peak_intermediate_rows: int = 0
    peak_intermediate_bytes: int = 0
    rounds: int = 0
    failed: bool = False
    fail_reason: str = ""
    extras: dict = field(default_factory=dict)

    def add_comm(self, kind: str, nbytes: int) -> None:
        """Accumulate ``nbytes`` of simulated network traffic under ``kind``."""
        nbytes = int(nbytes)
        self.comm_bytes += nbytes
        self.comm_breakdown[kind] = self.comm_breakdown.get(kind, 0) + nbytes

    def see_intermediate(self, rows: int, width_cols: int) -> None:
        """Record an intermediate result of ``rows`` embeddings of
        ``width_cols`` vertices each (embedding-list cost model)."""
        rows = int(rows)
        b = rows * width_cols * VERTEX_BYTES
        if rows > self.peak_intermediate_rows:
            self.peak_intermediate_rows = rows
        if b > self.peak_intermediate_bytes:
            self.peak_intermediate_bytes = b

    def row(self) -> dict:
        """Flat dict for result tables."""
        return {
            "engine": self.engine,
            "query": self.query,
            "dataset": self.dataset,
            "embeddings": self.n_embeddings,
            "time_s": round(self.elapsed_s, 3),
            "comm_MB": round(self.comm_bytes / 1e6, 4),
            "peak_MB": round(self.peak_intermediate_bytes / 1e6, 4),
            "failed": self.failed,
        }
