"""Shared pieces of the benchmark workloads.

Latency recording and the host-speed probe, the oracle's failure type,
seeded key generators, the resource probes behind ``space_amp`` and
``peak_rss_mb``, and the reads of an engine's own counters that the
traced run divides by.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass

import numpy as np


class OracleError(AssertionError):
    """The engine returned an answer that disagrees with the model."""


def expect(condition: bool, message: str) -> None:
    """Fail the run when the engine's answer does not match the model."""
    if not condition:
        raise OracleError(message)


def same_float(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@dataclass(frozen=True)
class Size:
    """Input sizes for one workload; ``smoke`` and ``full`` instances.

    ``rows`` is the main table's loaded row count, ``setups`` how many
    times set-up is repeated (its median is ``setup_s``), ``warmup``
    the rounds run before the timed phase, ``merge_every`` the rounds
    between synchronous merges, ``cycles`` the crash/restart cycles and
    ``tail_rounds`` the rounds of writes before each crash.
    """

    rows: int
    setups: int
    warmup: int
    merge_every: int
    cycles: int
    tail_rounds: int


class Samples:
    """Per-kind latency samples (seconds) plus totals, for one window.

    ``wall_s`` is the wall time of the window's rounds: every operation,
    merge and checkpoint, and the client's own work between them (the
    oracle's compares and model updates), but not the host probes.
    """

    def __init__(self) -> None:
        self.by_kind: dict[str, list[float]] = {}
        self.ops = 0
        self.wall_s = 0.0
        self.ingest_rows = 0
        self.ingest_s = 0.0
        self.rounds = 0
        self.probe_s = 0.0

    def add(self, kind: str, seconds: float, ops: int = 1) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)
        self.ops += ops

    def add_maintenance(self, seconds: float) -> None:
        """Merges and checkpoints: inside the phase time, not operations."""
        self.by_kind.setdefault("maintenance", []).append(seconds)

    def add_ingest(self, rows: int, seconds: float) -> None:
        self.add("ingest", seconds)
        self.ingest_rows += rows
        self.ingest_s += seconds

    def end_round(self, seconds: float) -> None:
        """Close a round that took ``seconds`` of wall time and sample
        the host's speed (see host_probe)."""
        self.rounds += 1
        self.wall_s += seconds
        self.probe_s += host_probe()

    def scaled(self, factor: float) -> "Samples":
        """These samples with every time multiplied by ``factor``."""
        out = Samples()
        out.by_kind = {kind: [v * factor for v in values] for kind, values in self.by_kind.items()}
        out.ops, out.wall_s = self.ops, self.wall_s * factor
        out.ingest_rows, out.ingest_s = self.ingest_rows, self.ingest_s * factor
        out.rounds, out.probe_s = self.rounds, self.probe_s
        return out

    def at_reference_speed(self) -> "Samples":
        """Scaled by this window's own host probe (see host_probe)."""
        return self.scaled(REFERENCE_PROBE_S * self.rounds / self.probe_s)

    def percentile_ms(self, kinds, q: float) -> float:
        values = [v for kind in kinds for v in self.by_kind.get(kind, [])]
        if not values:
            raise OracleError(f"no samples of {kinds}")
        return float(np.percentile(np.asarray(values), q)) * 1e3

    def count(self, kinds) -> int:
        return sum(len(self.by_kind.get(kind, [])) for kind in kinds)

    @classmethod
    def merged(cls, parts) -> "Samples":
        out = cls()
        for part in parts:
            for kind, values in part.by_kind.items():
                out.by_kind.setdefault(kind, []).extend(values)
            out.ops += part.ops
            out.wall_s += part.wall_s
            out.ingest_rows += part.ingest_rows
            out.ingest_s += part.ingest_s
            out.rounds += part.rounds
            out.probe_s += part.probe_s
        return out


#: ``host_probe`` on the reference host (2 vCPU Xeon at 2.0 GHz) at its
#: typical speed. Timings are scaled by REFERENCE_PROBE_S / probe.
REFERENCE_PROBE_S = 700e-6

_PROBE_ARRAY = np.arange(256, dtype=np.int64)[::-1].copy()


def host_probe() -> float:
    """Seconds a fixed piece of interpreter and numpy work takes now.

    The host this benchmark was tuned on is shared, and its speed drifts
    by up to a third over seconds to minutes (another tenant on the
    sibling hyperthread, say); every timing of a run drifts with it.
    This loop — dict and list updates and small ``np.unique`` /
    ``np.argsort`` calls, the kind of work the engine does, but none of
    the engine's code — drifts with the host, so timings divided by it
    move with the engine and less with the host. In one 40 s ``oltp``
    run, not pinned to a CPU, the per-window spread (coefficient of variation) of the point
    read median fell from 0.089 as timed to 0.074 scaled, and of the
    write median from 0.156 to 0.115.

    Garbage collection is off while the probe runs, so the engine's heap
    — however large a change makes it — cannot slow the probe and cancel
    part of that change; ``test_perfbench`` plants an engine slow-down
    and checks that the probe does not move with it. The same loop in a
    child process tracked the host worse than no probe at all (spread
    0.109 against 0.089 as timed), perhaps because it woke on another
    CPU than the engine's.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict = {}
        out = []
        for i in range(300):
            d[i & 63] = d.get(i & 63, 0) + i
            out.append((i, str(i & 15)))
        for _ in range(20):
            np.unique(_PROBE_ARRAY % 37)
            order = np.argsort(_PROBE_ARRAY, kind="stable")
            (_PROBE_ARRAY[order] > 100).nonzero()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_scale(probes) -> float:
    """Factor that brings timings taken at these probe readings to the
    reference host speed."""
    return REFERENCE_PROBE_S / median(probes)


class ZipfKeys:
    """Zipf-skewed draws over ``n`` keys, hot keys spread by a permutation."""

    def __init__(self, rng: np.random.Generator, n: int, s: float = 0.99):
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
        self._cdf = np.cumsum(weights) / weights.sum()
        self._perm = rng.permutation(n)
        self._rng = rng
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def next(self) -> int:
        if self._pos >= len(self._buf):
            ranks = np.searchsorted(self._cdf, self._rng.random(4096), side="right")
            self._buf = self._perm[np.minimum(ranks, len(self._perm) - 1)]
            self._pos = 0
        key = int(self._buf[self._pos])
        self._pos += 1
        return key


def allocated_bytes(path: str) -> int:
    """Bytes the file system allocated under ``path`` (st_blocks x 512)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_blocks * 512
            except FileNotFoundError:
                pass
    return total


def value_bytes(value) -> int:
    """Live user bytes of one value: 8 per number, UTF-8 length per string."""
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 8


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OracleError(f"no VmHWM for pid {pid}")


def engine_counters(db, user_bytes: int) -> dict:
    """Cumulative engine counters of one in-process ``Database``."""
    stats = db.stats()
    registry = db.metrics_snapshot()["registry"]
    nvm = stats.get("nvm", {})
    wal = stats.get("wal", {})
    return {
        "nvm_flush_calls": nvm.get("flush_calls", 0),
        "nvm_drain_calls": nvm.get("drain_calls", 0),
        "nvm_lines_flushed": nvm.get("lines_flushed", 0),
        "nvm_bytes_read": nvm.get("bytes_read", 0),
        "wal_syncs": wal.get("syncs", 0),
        "wal_bytes": wal.get("bytes", 0),
        "wal_commits_durable": wal.get("commits_durable", 0),
        "txn_commits": stats["commits"],
        "txn_aborts": stats["aborts"],
        "txn_conflicts": stats["conflicts"],
        "checkpoint_tables": registry.get("engine_checkpoint_tables_total", 0),
        "mvcc_hits": registry.get("mvcc_cache_hits_total", 0),
        "mvcc_misses": registry.get("mvcc_cache_misses_total", 0),
        "user_bytes": user_bytes,
    }


def restart_record(t0: float, t_open: float, t1: float, report, **extra) -> dict:
    """One crash/restart cycle: times, recovery phases and extras."""
    record = {
        "restart_s": t1 - t0,
        "open_s": t_open - t0,
        "first_read_s": t1 - t_open,
        "recovery_total_s": report.total_seconds,
        "records_replayed": report.log_records_replayed,
    }
    for name, seconds in report.phases:
        key = "phase:" + name
        record[key] = record.get(key, 0.0) + seconds
    record.update(extra)
    return record


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))
