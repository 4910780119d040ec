"""Golden metering test: RADS's simulated costs on fixed tiny inputs.

The values were recorded from the earlier implementation of R-Meef as
driver-coordinated DataFrame rounds. The per-machine task meters the
same quantities with the same definitions (fetchV cache per region
group, distinct verifyE pairs, EC rows, exact trie nodes), so every
value must match exactly.
"""
import re

import pytest

from repro.core.engine import run_rads
from repro.query.queries import QUERIES

#: case -> (fixture, query, run_rads kwargs, expected metrics)
GOLDEN = {
    "dblp-q1": ("gc_dblp", "q1", {}, dict(
        n=691, comm={"fetchV": 7216, "verifyE": 204}, peak_rows=1699,
        peak_bytes=40776, trie=22280, el=40776, et=50780)),
    "dblp-q4": ("gc_dblp", "q4", {}, dict(
        n=3501, comm={"fetchV": 3848, "verifyE": 6307}, peak_rows=4172,
        peak_bytes=139800, trie=65120, el=140040, et=151140)),
    "dblp-q6": ("gc_dblp", "q6", {}, dict(
        n=2792, comm={"fetchV": 17528}, peak_rows=29871,
        peak_bytes=1194840, trie=331920, el=1194840, et=803400)),
    "dblp-q2-groups": ("gc_dblp", "q2", dict(group_mem_bytes=4_000, sequential_groups=True), dict(
        n=4009, comm={"verifyE": 3876}, peak_rows=552,
        peak_bytes=17664, trie=5820, el=128288, et=116260)),
    "dblp-q4-groups": ("gc_dblp", "q4", dict(group_mem_bytes=2_000, sequential_groups=True), dict(
        n=3501, comm={"fetchV": 5584, "verifyE": 8806}, peak_rows=268,
        peak_bytes=10720, trie=4060, el=140040, et=151140)),
    "hash-q4": ("gc_dblp_hash", "q4", {}, dict(
        n=3501, comm={"fetchV": 10736, "verifyE": 28101}, peak_rows=7709,
        peak_bytes=246688, trie=79080, el=246688, et=209360)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_metering(request, case):
    fixture, qn, kw, want = GOLDEN[case]
    gc = request.getfixturevalue(fixture)
    _, met = run_rads(gc, QUERIES[qn], qn, measure_compression=True, **kw)
    assert not met.failed, met.fail_reason
    got = dict(
        n=met.n_embeddings,
        comm=met.comm_breakdown,
        peak_rows=met.peak_intermediate_rows,
        peak_bytes=met.peak_intermediate_bytes,
        trie=met.extras["peak_group_trie_bytes"],
        el=met.extras["el_bytes"],
        et=met.extras["et_bytes"],
    )
    assert got == want


def _trip_round(met) -> int:
    return int(re.match(r"round (\d+):", met.fail_reason).group(1))


#: (budget, run_rads kwargs) -> (tripping round, comm) for livejournal q6
BUDGET_TRIPS = {
    "b64": (64, {}, 0, {}),
    "b100k": (100_000, {}, 1, {"fetchV": 22528}),
    "b100k-groups": (
        100_000, dict(group_mem_bytes=12_500, sequential_groups=True), 1, {"fetchV": 22528}
    ),
}


@pytest.mark.parametrize("case", sorted(BUDGET_TRIPS))
def test_golden_budget_trip(gc_lj, case):
    budget, kw, round_, comm = BUDGET_TRIPS[case]
    df, met = run_rads(gc_lj, QUERIES["q6"], "q6", bytes_budget=budget, **kw)
    assert met.failed and df is None
    assert _trip_round(met) == round_
    assert met.comm_breakdown == comm
    assert met.extras["peak_group_trie_bytes"] > budget
