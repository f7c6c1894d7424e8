#!/usr/bin/env python3
"""Repeat the benchmark and summarise the spread of every metric.

Run N seeds of one workload, untraced at full size, and print, per
metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the quartile spread
as a share of the median and max - min; with ``BENCHMARK.json`` at hand
each spread is also shown as a share of the metric's bound::

    python3 perfbench/repeat.py --workload oltp --runs 10 --out .bench_out/oltp-a.json

Compare two saved sets of the same workload: the median of each metric
in the second set against the first, in the metric's worse direction,
as a share of the first median, next to the bound; and the share of
failed operations, which must match exactly::

    python3 perfbench/repeat.py --compare .bench_out/oltp-a.json .bench_out/oltp-b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    for line in lines:
        if line.startswith("as_timed "):
            result["as_timed"] = json.loads(line.split(" ", 1)[1])
        for field in line.split():
            if field.startswith("host_probe_us="):
                result["host_probe_us"] = float(field.split("=", 1)[1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range": max(values) - min(values),
    }


def summarise(runs: list[dict], bench: dict, as_timed: bool = False) -> list[str]:
    """Spread of each metric over the runs; with ``as_timed``, of the
    values before scaling to the reference host speed."""
    names = list(runs[0]["metrics"])
    lines = [f"{'metric':>36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max-min':>12} {'/bound':>7}"]
    for name in names:
        if as_timed:
            values = [run["as_timed"][name] for run in runs]
        else:
            values = [run["metrics"][name]["value"] for run in runs]
        s = spread(values)
        bound = bench.get(name, {}).get("bound")
        of_bound = f"{s['iqr_share'] / bound:7.2f}" if bound else ""
        lines.append(f"{name:>36} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                     f"{s['iqr_share']:8.4f} {s['range']:12.6g} {of_bound}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    walls = [run["wall_s"] for run in runs]
    lines.append(f"failed share per run: {sorted(shares)}; wall per run: "
                 f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return lines


def compare(first: dict, second: dict, bench: dict) -> list[str]:
    lines = [f"{first['workload']}: {len(first['runs'])} runs vs {len(second['runs'])} runs",
             f"{'metric':>36} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6}  verdict"]
    for name in first["runs"][0]["metrics"]:
        a = statistics.median(run["metrics"][name]["value"] for run in first["runs"])
        b = statistics.median(run["metrics"][name]["value"] for run in second["runs"])
        meta = bench.get(name, {})
        sign = -1.0 if meta.get("better") == "higher" else 1.0
        worse = sign * (b - a) / a if a else 0.0
        bound = meta.get("bound")
        verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE")
        lines.append(f"{name:>36} {a:12.6g} {b:12.6g} {worse:9.4f} {bound if bound else '':>6}  {verdict}")
    share_a = {run["failed"] / run["attempted"] for run in first["runs"]}
    share_b = {run["failed"] / run["attempted"] for run in second["runs"]}
    lines.append(f"failed share: {sorted(share_a)} vs {sorted(share_b)}: "
                 f"{'same' if share_a == share_b and len(share_a) == 1 else 'DIFFERENT'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="save the runs as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    bench = load_bench()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        print("\n".join(compare(sets[0], sets[1], bench)))
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    runs = []
    for i in range(args.runs):
        run = run_once(args.workload, args.first_seed + i, seconds)
        runs.append(run)
        print(f"seed {run['seed']}: {run['wall_s']:.1f} s", file=sys.stderr, flush=True)
    print("\n".join(summarise(runs, bench)))
    print("as timed, before scaling to the reference host speed:")
    print("\n".join(summarise(runs, bench, as_timed=True)[:-1]))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
