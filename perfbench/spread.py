"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dblp-mix --seeds 10

Runs ``run.py`` once per seed (0, 1, ...), one after another, and prints
for each metric the median and the quartile spread (Q3 - Q1) / median,
next to a third of the metric's bound in BENCHMARK.json: the spread a
steady benchmark stays below. Results are appended to
``.perfbench/spread-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = ROOT / ".perfbench" / f"spread-{a.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in range(a.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        results.append(res)
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **res}) + "\n")
        print(f"seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        b = bounds.get(name)
        flag = "" if b is None else (" ok" if spread < b / 3 else " WIDE")
        print(f"{name:>20} median={q2:.4g} spread={spread:.3f}"
              + ("" if b is None else f" bound/3={b / 3:.3f}{flag}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
