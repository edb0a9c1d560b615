"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench/reference/set-a.jsonl
    python3 bench/collect.py --summary bench/reference/set-a.jsonl [bench/reference/set-b.jsonl]

The first form runs `bench/run.py` once per seed on every workload of
BENCHMARK.json, for its `run_seconds`, as a fresh process from the
checkout root, appends each result (with the run's wall time) to --out
as one JSON line, and prints the summary.
The summary gives, per workload and metric, the median and the spread
(third quartile less first, over the median, from
statistics.quantiles(values, n=4)).  Given two files it also gives the
drift of the second median from the first, signed so that positive is
worse, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads: list[str], seeds: list[int], seconds: int, trace: int, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            row = {"workload": workload, "seed": seed, "trace": trace, "wall_s": round(wall, 3), "result": result}
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}", flush=True)


def _load(path: Path) -> dict:
    """{workload: {metric: [values]}}, plus failed shares under the key '_failed'."""
    table: dict = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        res = row["result"]
        per = table.setdefault(row["workload"], {})
        per.setdefault("_failed", []).append((res["failed"], res["attempted"]))
        per.setdefault("_wall_s", []).append(row["wall_s"])
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return table


def summary(paths: list[Path]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    tables = [_load(p) for p in paths]
    for workload in tables[0]:
        walls = tables[0][workload]["_wall_s"]
        print(f"\n{workload}  ({len(walls)} runs, median run {statistics.median(walls):.1f} s, "
              f"failed {sum(f for f, _ in tables[0][workload]['_failed'])}"
              f"/{sum(a for _, a in tables[0][workload]['_failed'])})")
        print(f"  {'metric':32} {'median':>12} {'spread':>8} {'bound':>7}" + ("  median2   spread2   drift" if len(tables) > 1 else ""))
        for name, values in tables[0][workload].items():
            if name.startswith("_") or len(values) < 2:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics.get(name, {}).get("bound")
            line = f"  {name:32} {med:12.5g} {spread:8.2%} {bound if bound is not None else '':>7}"
            if len(tables) > 1 and name in tables[1].get(workload, {}):
                other = tables[1][workload][name]
                med2 = statistics.median(other)
                a, _, b = statistics.quantiles(other, n=4)
                worse = 1 if metrics.get(name, {}).get("better") == "lower" else -1
                drift = worse * (med2 - med) / med if med else 0.0
                line += f"  {med2:9.5g} {(b - a) / med2 if med2 else 0.0:8.2%} {drift:+7.2%}"
            print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append results here")
    parser.add_argument("--summary", type=Path, nargs="+", help="summarise these result files instead of running")
    args = parser.parse_args()
    if args.summary:
        summary(args.summary)
        return 0
    if args.out is None:
        parser.error("--out is required unless --summary is given")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    collect(workloads, _seeds(args.seeds), spec["run_seconds"], args.trace, args.out)
    summary([args.out])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
