#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

One run sets the workload up several times (``setup_s`` is the median),
runs the closed-loop mix for ``--seconds`` seconds, then crashes and
restarts the engine several times, timing each restart to the first
correct read. Every answer is checked against the workload's own model;
a wrong answer, or an operation the engine fails, ends the run with
exit code 1 and a result line that counts it as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` installs the
layer timers of :mod:`tracing` and prints the per-layer metrics of
:mod:`layers` instead, writing the spans to ``.bench_out/`` as gzipped CSV. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    REFERENCE_PROBE_S,
    OracleError,
    Samples,
    host_probe,
    host_scale,
    median,
)

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("ingest_rows_s", "1/s"),
    ("scan_p50_ms", "ms"),
    ("agg_p50_ms", "ms"),
    ("restart_s", "s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
]

WORKLOADS = ("oltp", "analytics", "served")
# The timed phase is cut into windows of whole rounds this long; each
# window's timings are scaled by its own host probe (see README).
WINDOW_S = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke runs every workload in seconds")
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the engine from the checkout's ``src`` and the workload."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no engine sources under {src}")
    sys.path.insert(0, src)
    return importlib.import_module(name)


def drive(module, args, workdir: str, tracer, windows: list, cycles: list) -> dict:
    """Set up, run the timed phase, crash/restart; returns raw results.

    ``windows`` and ``cycles`` are filled as the run goes, so a run that
    fails part-way still shows how many operations it completed.
    """
    size = module.SIZES[args.size]

    def mark(phase: str) -> None:
        # Spans are kept for the two phases the layer metrics read.
        if tracer is not None:
            tracer.phase = phase if phase in ("timed", "restart") else None

    setup_times = []
    workload = None
    try:
        for i in range(size.setups):
            if workload is not None:
                workload.close()
                shutil.rmtree(workload.path, ignore_errors=True)
            workload = module.Workload(size, args.seed, os.path.join(workdir, f"db{i}"), mark)
            mark("setup")
            gc.collect()
            probes = [host_probe() for _ in range(3)]
            t0 = time.perf_counter()
            workload.setup()
            seconds = time.perf_counter() - t0
            probes += [host_probe() for _ in range(3)]
            setup_times.append((seconds, host_scale(probes)))
        space_amp = workload.space_amp()
        before = workload.counters() if tracer else {}
        gc.collect()
        mark("timed")
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            window = Samples()
            windows.append(window)
            end = min(time.perf_counter() + WINDOW_S, deadline)
            while time.perf_counter() < end:
                t0 = time.perf_counter()
                workload.round(window)
                window.end_round(time.perf_counter() - t0)
        mark("between")
        after = workload.counters() if tracer else {}
        gc.collect()
        workload.begin_restarts()
        for _ in range(size.cycles):
            cycles.append(workload.restart_cycle())
        mark("final")
        workload.final_check()
        peak_rss = workload.peak_rss_mb()
    finally:
        if workload is not None:
            workload.close()
    return {
        "setup_times": setup_times,
        "space_amp": space_amp,
        "samples": Samples.merged(windows),
        "at_reference": Samples.merged(w.at_reference_speed() for w in windows),
        "windows": len(windows),
        "host_probe_us": 1e6 * median([w.probe_s / w.rounds for w in windows]),
        "cycles": cycles,
        "peak_rss_mb": peak_rss,
        "before": before,
        "after": after,
    }


def end_to_end(module, raw: dict, s, scaled: bool) -> dict:
    """The end-to-end metrics from samples ``s``; with ``scaled``, set-up
    and restart times are brought to the reference host speed too."""

    def at_speed(seconds: float, factor: float) -> float:
        return seconds * factor if scaled else seconds

    return {
        "setup_s": median([at_speed(t, f) for t, f in raw["setup_times"]]),
        "throughput_ops_s": s.ops / s.wall_s,
        "read_p50_ms": s.percentile_ms(module.READ_KINDS, 50),
        "write_p50_ms": s.percentile_ms(module.WRITE_KINDS, 50),
        "ingest_rows_s": s.ingest_rows / s.ingest_s,
        "scan_p50_ms": s.percentile_ms(module.SCAN_KINDS, 50),
        "agg_p50_ms": s.percentile_ms(module.AGG_KINDS, 50),
        "restart_s": median([
            at_speed(c["restart_s"], REFERENCE_PROBE_S / c["probe_s"]) for c in raw["cycles"]
        ]),
        "space_amp": raw["space_amp"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def report_lines(module, raw: dict, values: dict, as_timed: dict) -> list[str]:
    """Human-readable summary printed above the JSON line."""
    s = raw["samples"]
    lines = [
        f"rounds={s.rounds} ops={s.ops} wall_s={s.wall_s:.3f} windows={raw['windows']} "
        f"host_probe_us={raw['host_probe_us']:.2f} (reference {REFERENCE_PROBE_S * 1e6:.0f})",
        f"setup_s as timed={[round(t, 3) for t, _f in raw['setup_times']]} "
        f"restart_s as timed={[round(c['restart_s'], 4) for c in raw['cycles']]}",
        "samples: " + " ".join(f"{k}={len(v)}" for k, v in sorted(s.by_kind.items())),
        # The write tail did not repeat between seeds (quartile spread of
        # 9-73% over five seeds), so it is printed here, not reported.
        f"write_p99_ms={raw['at_reference'].percentile_ms(module.WRITE_KINDS, 99):.4g} "
        f"over {s.count(module.WRITE_KINDS)} writes "
        f"({int(s.count(module.WRITE_KINDS) * 0.01)} beyond it)",
        f"  {'metric':>40}   {'value':>12} {'as timed':>12}",
    ]
    lines += [
        f"  {name:>40} = {value:12.6g} {as_timed.get(name, value):12.6g}"
        for name, value in values.items()
    ]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run and every process it starts (the server of
    # ``served`` inherits it), so the host probe times the CPU the engine
    # runs on and no hand-off waits for another CPU (see README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A stop request unwinds like an error, so the server process and
    # the data directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    module = load_workload(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    windows: list = []
    cycles: list = []
    try:
        raw = drive(module, args, workdir, tracer, windows, cycles)
    except Exception as exc:  # a wrong answer, or an operation that failed
        # A timed operation is recorded before its answer is checked, so a
        # wrong answer is among those completed; an operation the engine
        # failed never was, and is added.
        completed = sum(w.ops for w in windows) + len(cycles)
        wrong = isinstance(exc, OracleError)
        traceback.print_exc()
        print(f"perfbench: {'wrong answer' if wrong else 'failed operation'}: {exc!r}", file=sys.stderr)
        print(json.dumps({"correct": not wrong, "attempted": max(completed + (not wrong), 1),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = raw["samples"].ops + len(raw["cycles"])
    if tracer is None:
        values = end_to_end(module, raw, raw["at_reference"], scaled=True)
        as_timed = end_to_end(module, raw, raw["samples"], scaled=False)
        units = dict(END_TO_END)
    else:
        import layers

        values = layers.compute(tracer, raw["samples"], raw["before"], raw["after"], raw["cycles"])
        units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
        values = {name: values[name] for name in units}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv.gz"))
        problems = layers.check_expectations(args.workload, values)
        as_timed = {}
        s = raw["at_reference"]
        print(f"traced throughput_ops_s={s.ops / s.wall_s:.6g} (at reference speed)")
        if problems:
            for problem in problems:
                print(f"perfbench: layer check: {problem}", file=sys.stderr)
            return 1
    for line in report_lines(module, raw, values, as_timed):
        print(line)
    if as_timed:
        # The same metrics before scaling to the reference host speed.
        print("as_timed " + json.dumps(as_timed))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
