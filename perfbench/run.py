"""Benchmark entry point: one workload, one seed, one fresh Spark process.

    python3 perfbench/run.py --workload dblp-mix --seed 0 --seconds 10 --trace 0

Run from the repository root. The engines are imported from ``src/``
of this checkout; nothing needs to be installed or built. Order of work:

1. set-up, ``SETUPS`` times: Spark session start, ``build_context`` and,
   on a workload that runs Crystal, ``build_clique_index``; ``setup_s``
   is the median. The first set-up also launches the JVM; the later ones
   restart the session in it;
2. the correctness reference: DuckDB embedding counts, untimed;
3. an untimed warm-up: one pass of the workload;
4. timed passes (every engine on every query, one after another, one
   client) until ``--seconds`` have passed, at least one pass. With
   ``--trace 1`` untraced and traced passes alternate.

The run's scratch space (Spark local dir, temporary files of the JVM and
of Python, DuckDB temp dir, clique index) lives under ``.perfbench/`` and
is deleted when the run ends; traced runs leave their spans in
``.perfbench/spans-<workload>-seed<n>.json``.

Human-readable progress goes to stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 1 when
an engine call raised or returned a wrong embedding count, and without a
result line when the checkout holds no engine sources or the run broke.
"""
from __future__ import annotations

import argparse
from gc import collect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
if not (SRC / "repro" / "core" / "engine.py").is_file():
    sys.exit(f"perfbench: no engine sources at {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from repro.baselines.crystal import build_clique_index  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_graph, run_engine  # noqa: E402

SETUPS = 3
DRIVER_MEMORY = "2g"
DUCKDB_CONFIG = {"memory_limit": "1GB", "max_temp_directory_size": "2GB", "threads": 2}
#: span names of the engine entry points
ENGINE_SPAN = {
    "rads": "engine.run_rads",
    "psgl": "psgl.run_psgl",
    "seed": "seed.run_seed",
    "crystal": "crystal.run_crystal",
}
SESSION_CONF = {
    "spark.sql.shuffle.partitions": 32,
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": -1,
}


def spark_launch_args(run_dir: Path) -> str:
    """JVM launch settings; they must be fixed before the JVM starts."""
    cores = min(4, os.cpu_count() or 1)
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(run_dir / "spark-local"),
        "spark.sql.warehouse.dir": str(run_dir / "warehouse"),
        # a fixed heap: G1 resizing it differently from run to run moved RSS by 35%
        "spark.driver.extraJavaOptions": f"-Xms{DRIVER_MEMORY}",
    }
    conf = " ".join(f"--conf {k}={v}" for k, v in confs.items())
    return f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} {conf} pyspark-shell"


def spark_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait for the JVM to end. The JVM
    exits when its stdin closes; stopping the context first ends its
    Python workers."""
    jvm = spark.sparkContext._gateway.proc
    spark.stop()
    jvm.stdin.close()
    try:
        jvm.wait(timeout=60)
    except subprocess.TimeoutExpired:
        jvm.kill()
        jvm.wait()


def setup(w, seed: int, tracer: Tracer, run_dir: Path, i: int):
    """One set-up; returns (spark, gc, clique index or None, timing record)."""
    t0 = time.perf_counter()
    spark = spark_session()
    rec = {"session_s": time.perf_counter() - t0}
    tracer.sc = spark.sparkContext
    # the spans read their job counts after their clock stops
    with tracer.span("datasets.build_context", setup=i) as ctx:
        gc = make_graph(spark, w, seed)
    rec["build_context_s"] = ctx["dur_s"]
    index = None
    if "crystal" in w.engines:
        with tracer.span("crystal.build_clique_index", setup=i) as idx:
            index = build_clique_index(gc, str(run_dir / "clique-index"))
        rec["build_clique_index_s"] = idx["dur_s"]
    rec["setup_s"] = sum(rec.values())
    return spark, gc, index, rec


def oracle_counts(gc, queries, run_dir: Path) -> dict[str, int]:
    """DuckDB COUNT(*) of each query's embeddings."""
    import duckdb

    from repro.query.queries import QUERIES
    from repro.sqlgen import pattern_sql

    tmp = run_dir / "duckdb"
    tmp.mkdir(exist_ok=True)
    con = duckdb.connect(config={**DUCKDB_CONFIG, "temp_directory": str(tmp)})
    try:
        con.register("edges", gc.edges_pdf)
        return {
            qn: con.execute(
                f"SELECT COUNT(*) FROM ({pattern_sql(QUERIES[qn])}) t"
            ).fetchone()[0]
            for qn in queries
        }
    finally:
        con.close()


def settle(sc) -> None:
    """Collect garbage in both processes before a timed call, so that the
    blocks earlier calls checkpointed are freed between calls rather than
    at a random point inside one."""
    collect()
    sc._jvm.System.gc()


def call(gc, index, tracer: Tracer, engine: str, qn: str, tag: str, budget) -> dict:
    """Time one engine call in its own span; the span's job and task
    counts are read after its clock stops."""
    rec = {"pass": tag, "query": qn, "engine": engine}
    settle(gc.spark.sparkContext)
    first = len(tracer.spans)
    try:
        with tracer.span(ENGINE_SPAN[engine], pass_=tag) as span:
            met = run_engine(gc, index, engine, qn, budget)
    except Exception as e:  # counted in error_rate
        met, rec["error"] = None, repr(e)[:300]
    for sp in tracer.spans[first:]:
        sp["query"] = qn
    rec["s"], rec["jobs"] = span["dur_s"], span["jobs"]
    if met is not None:
        rec.update(
            embeddings=met.n_embeddings,
            failed=met.failed,
            comm=dict(met.comm_breakdown),
            peak_rows=met.peak_intermediate_rows,
            extras={k: v for k, v in met.extras.items() if isinstance(v, (int, float))},
        )
    return rec


def run_pass(gc, index, w, tracer: Tracer, tag: str) -> list[dict]:
    recs = []
    for qn in w.queries:
        for engine in w.engines:
            r = call(gc, index, tracer, engine, qn, tag, w.budget)
            print(
                f"  {tag:>9} {qn} {engine:<8} {r['s']:8.3f} s {r['jobs']:4d} jobs "
                f"embeddings={r.get('embeddings')} failed={r.get('failed')}"
                + (f" error={r['error']}" if "error" in r else ""),
                flush=True,
            )
            recs.append(r)
    return recs


def gate(calls: list[dict], expected: dict[str, int]) -> list[str]:
    """Problems with ``calls``: errors, budget trips of RADS (it must
    complete, or there is no answer to check) and embedding counts that
    differ from the DuckDB count."""
    bad = []
    for c in calls:
        where = f"{c['pass']} {c['query']} {c['engine']}"
        if "error" in c:
            bad.append(f"{where}: {c['error']}")
        elif c["failed"]:
            if c["engine"] == "rads":
                bad.append(f"{where}: unexpected budget failure")
        elif c["embeddings"] != expected[c["query"]]:
            bad.append(f"{where}: {c['embeddings']} embeddings, expected {expected[c['query']]}")
    return bad


def per_pass(calls: list[dict]) -> dict[str, float]:
    """End-to-end quantities of one pass."""
    out = {f"{e}_s": 0.0 for e in ENGINE_SPAN}
    out.update(rads_comm=0, baseline_comm=0, rads_peak_trie=0, budget_trips=0, rads_jobs=0)
    for c in calls:
        out[f"{c['engine']}_s"] += c["s"]
        comm = c.get("comm", {})
        if c["engine"] == "rads":
            out["rads_comm"] += comm.get("fetchV", 0) + comm.get("verifyE", 0)
            out["rads_jobs"] += c["jobs"]
            out["rads_peak_trie"] = max(
                out["rads_peak_trie"], c.get("extras", {}).get("peak_group_trie_bytes", 0)
            )
        else:
            out["baseline_comm"] += comm.get("shuffle", 0)
        out["budget_trips"] += bool(c.get("failed"))
    return out


def layer_pass(spans: list[dict], calls: list[dict]) -> dict[str, float]:
    """Per-layer quantities of one traced pass."""
    def tot(name, key):
        return sum(s[key] for s in spans if s["name"] == name)

    rads = [c for c in calls if c["engine"] == "rads" and "error" not in c]
    ex = [c.get("extras", {}) for c in rads]
    n_emb = sum(c["embeddings"] for c in rads if not c["failed"])
    out = {
        "plan.choose_plan_s": tot("plan.choose_plan", "dur_s"),
        "sme.split_candidates_s": tot("sme.split_candidates", "dur_s"),
        "sme.split_candidates_jobs": tot("sme.split_candidates", "jobs"),
        "sme.sme_enumerate_s": tot("sme.sme_enumerate", "dur_s"),
        "sme.sme_enumerate_tasks": tot("sme.sme_enumerate", "tasks"),
        "sme.c1_candidates": sum(e.get("c1_candidates", 0) for e in ex),
        "sme.local_share": sum(e.get("sme_embeddings", 0) for e in ex) / max(1, n_emb),
        "regions.assign_region_groups_s": tot("regions.assign_region_groups", "dur_s"),
        "regions.assign_region_groups_jobs": tot("regions.assign_region_groups", "jobs"),
        "regions.groups": sum(e.get("n_region_groups", 0) for e in ex),
        "rmeef.run_rmeef_s": tot("rmeef.run_rmeef", "dur_s"),
        "rmeef.run_rmeef_jobs": tot("rmeef.run_rmeef", "jobs"),
        "rmeef.run_rmeef_tasks": tot("rmeef.run_rmeef", "tasks"),
        "rmeef.fetchV_MB": sum(c["comm"].get("fetchV", 0) for c in rads) / 1e6,
        "rmeef.verifyE_MB": sum(c["comm"].get("verifyE", 0) for c in rads) / 1e6,
        "rmeef.peak_ec_rows": max((c["peak_rows"] for c in rads), default=0),
        "engine.run_rads_s": tot("engine.run_rads", "dur_s"),
        "engine.self_s": tot("engine.run_rads", "self_s"),
        "crystal.run_crystal_s": tot("crystal.run_crystal", "dur_s"),
        "crystal.run_crystal_jobs": tot("crystal.run_crystal", "jobs"),
    }
    for eng in ("psgl", "seed"):
        span = ENGINE_SPAN[eng]
        out[f"{span}_s"] = tot(span, "dur_s")
        out[f"{span}_jobs"] = tot(span, "jobs")
        out[f"{eng}.peak_rows"] = max(
            (c["peak_rows"] for c in calls if c["engine"] == eng and "error" not in c),
            default=0,
        )
    return out


def jvm_peak_rss_mb(sc) -> float:
    """VmHWM of the Spark driver JVM."""
    pid = sc._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM for the Spark JVM")


def dir_mb(path: Path) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # Spark deletes shuffle files while we walk
    return total / 1e6


def med(xs):
    return statistics.median(xs)


def e2e_metrics(setups: list[dict], passes: list[dict]) -> dict:
    """End-to-end metrics: medians over set-ups and untraced passes."""
    def over_passes(key, scale=1.0):
        return med([p[key] for p in passes]) / scale

    metrics = {
        "setup_s": (med([s["setup_s"] for s in setups]), "s"),
        "rads_s": (over_passes("rads_s"), "s"),
        "psgl_s": (over_passes("psgl_s"), "s"),
        "seed_s": (over_passes("seed_s"), "s"),
        "rads_comm_MB": (over_passes("rads_comm", 1e6), "MB"),
        "baseline_comm_MB": (over_passes("baseline_comm", 1e6), "MB"),
        "rads_peak_trie_MB": (over_passes("rads_peak_trie", 1e6), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(tracer: Tracer, setups: list[dict], traced: list, passes: list[dict],
                  local_mb: float, rss_mb: float) -> dict:
    """Per-layer metrics: medians over traced passes (and set-ups)."""
    layers = [layer_pass(spans, recs) for recs, spans in traced]
    metrics = {k: med([l[k] for l in layers]) for k in layers[0]}
    rads_s = med([p["rads_s"] for p in passes])
    rads_jobs = med([p["rads_jobs"] for p in passes])

    def setup_span(name, key):
        return med([s[key] for s in tracer.spans if s["name"] == name] or [0])

    metrics.update({
        "spark.session_cold_s": setups[0]["session_s"],
        "datasets.build_context_s": setup_span("datasets.build_context", "dur_s"),
        "datasets.build_context_jobs": setup_span("datasets.build_context", "jobs"),
        "crystal.build_clique_index_s": setup_span("crystal.build_clique_index", "dur_s"),
        "engine.run_rads_jobs": rads_jobs,
        "engine.s_per_job": rads_s / max(1, rads_jobs),
        "trace.rads_overhead_s": med([per_pass(r)["rads_s"] for r, _ in traced]) - rads_s,
        "budget_trips": med([p["budget_trips"] for p in passes]),
        "spark.local_dir_MB": local_mb,
        "spark.jvm_peak_rss_MB": rss_mb,
    })
    units = {"_s": "s", "_per_job": "s", "_MB": "MB", "_share": "ratio"}
    return {
        k: {"value": v, "unit": next((u for suf, u in units.items() if k.endswith(suf)), "count")}
        for k, v in sorted(metrics.items())
    }


def print_layers(spans: list[dict]) -> None:
    """Per-query span table of one traced pass."""
    print(f"  {'query':<6}{'span':<32}{'s':>9}{'self_s':>9}{'jobs':>6}{'tasks':>7}", flush=True)
    for s in spans:
        print(
            f"  {s.get('query', '?'):<6}{s['name']:<32}{s['dur_s']:9.3f}{s['self_s']:9.3f}"
            f"{s['jobs']:6d}{s['tasks']:7d}",
            flush=True,
        )


def bench(w, seed: int, seconds: float, trace: bool, run_dir: Path) -> int:
    os.environ.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        SPARK_LOCAL_DIRS=str(run_dir / "spark-local"),
        TMPDIR=str(run_dir / "tmp"),
        # for every JVM, the spark-submit launcher's too: temporary files
        # (native libraries, Spark's artifact dir) in the scratch space,
        # and no hsperfdata file
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={run_dir / 'tmp'} -XX:-UsePerfData",
        PYSPARK_SUBMIT_ARGS=spark_launch_args(run_dir),
    )
    import pyspark

    print(
        f"perfbench {w.name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"nproc={os.cpu_count()} pyspark={pyspark.__version__} "
        f"launch=[{os.environ['PYSPARK_SUBMIT_ARGS']}] session={SESSION_CONF}",
        flush=True,
    )
    tracer = Tracer(None)
    setups = []
    spark = None
    try:
        for i in range(SETUPS):
            if spark is not None:
                spark.stop()
            spark, gc, index, rec = setup(w, seed, tracer, run_dir, i)
            setups.append(rec)
            print("  setup " + " ".join(f"{k}={v:.3f}" for k, v in rec.items()), flush=True)
        print(f"  graph: {gc.n_vertices} vertices, {gc.n_edges} edges, m={gc.n_machines}",
              flush=True)

        t0 = time.perf_counter()
        expected = oracle_counts(gc, w.queries, run_dir)
        print(f"  duckdb counts {expected} in {time.perf_counter() - t0:.2f} s", flush=True)

        t0 = time.perf_counter()
        calls = run_pass(gc, index, w, tracer, "warm-up")
        warmup_s = time.perf_counter() - t0

        untraced, traced = [], []  # per pass: call records (and spans)
        t_start = time.perf_counter()
        while (
            not untraced
            or (trace and not traced)
            or time.perf_counter() - t_start < seconds
        ):
            if trace and len(traced) < len(untraced):
                first = len(tracer.spans)
                with tracer.patch_engine():
                    recs = run_pass(gc, index, w, tracer, f"traced-{len(traced)}")
                traced.append((recs, tracer.spans[first:]))
            else:
                recs = run_pass(gc, index, w, tracer, f"pass-{len(untraced)}")
                untraced.append(recs)
            calls += recs

        problems = gate(calls, expected)
        for p in problems:
            print(f"  GATE: {p}", flush=True)
        passes = [per_pass(p) for p in untraced]
        local_mb = dir_mb(run_dir / "spark-local")
        rss = jvm_peak_rss_mb(spark.sparkContext)
    finally:
        if spark is not None:
            stop_spark(spark)
    print(
        f"  passes={len(untraced)} traced={len(traced)} warmup_s={warmup_s:.3f} "
        f"setup_cold_s={setups[0]['setup_s']:.3f} rss_MB={rss:.1f} local_dir_MB={local_mb:.1f}",
        flush=True,
    )
    if trace:
        print_layers(traced[-1][1])
        out = layer_metrics(tracer, setups, traced, passes, local_mb, rss)
        spans_out = OUT / f"spans-{w.name}-seed{seed}.json"
        spans_out.write_text(json.dumps({"workload": w.name, "seed": seed, "spans": tracer.spans},
                                        indent=1))
        print(f"  spans written to {spans_out}", flush=True)
    else:
        out = e2e_metrics(setups, passes)
    for name, v in out.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}", flush=True)
    failed = len(problems)  # at most one per call
    print(f"  error_rate = {failed / len(calls):.4f} ({failed}/{len(calls)} calls)", flush=True)
    print(json.dumps({"correct": not problems, "attempted": len(calls), "failed": failed,
                      "metrics": out}))
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    run_dir = OUT / f"run-{os.getpid()}-{time.time_ns()}"
    for sub in ("spark-local", "tmp"):
        (run_dir / sub).mkdir(parents=True)
    try:
        return bench(WORKLOADS[a.workload], a.seed, a.seconds, bool(a.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
