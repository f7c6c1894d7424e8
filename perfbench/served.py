"""``served``: a ``python -m repro.server`` process with NVM tenants.

One client thread drives one connection in a closed loop (each request
waits for its reply) with INSERT, INSERT_MANY, point QUERY, range QUERY
and AGGREGATE requests against three hot tenants. Reads go to each
tenant's ``items`` table, loaded at set-up and indexed on ``id``; writes
append to its unindexed ``events`` table, so the cost of a read does not
drift as the run writes (the server has no merge request, and a delta
that grew all run would make later reads dearer). Every round also
sends one point read to one of three cold tenants in turn; with
``--max-attached 4`` that read always misses the tenant LRU — the only
bounded cache in the program — and pays a lazy tenant attach and an
eviction, so a known share of requests (one per round) takes that path.

Between the timed phase and each restart the server is SIGKILLed and
started again; the restart is timed from the kill to the first correct
answer over a fresh connection, which includes process start-up,
catalog and tenant recovery, and the listener coming up.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import time

import numpy as np

from common import (
    Samples,
    Size,
    allocated_bytes,
    expect,
    host_probe,
    median,
    proc_peak_rss_mb,
    value_bytes,
)
from repro import Between, Eq
from repro.server.client import ReproClient
from repro.server.proc import free_port, spawn_server

SIZES = {
    "smoke": Size(rows=300, setups=2, warmup=3, merge_every=0, cycles=2, tail_rounds=2),
    "full": Size(rows=4000, setups=3, warmup=20, merge_every=0, cycles=9, tail_rounds=5),
}

HOST = "127.0.0.1"
HOT = ("hot-0", "hot-1", "hot-2")
COLD = ("cold-0", "cold-1", "cold-2")
MAX_ATTACHED = 4
COLD_ROWS = 200
GROUPS = [f"g{i:02d}" for i in range(16)]
LOAD_BATCH = 1000
INGEST_BATCH = 32
RANGE_WIDTH = 20
AGG_WIDTH = 200
SCHEMA = [["id", "int64"], ["grp", "string"], ["qty", "int64"]]
EVENTS = [["eid", "int64"], ["grp", "string"], ["qty", "int64"]]
READY_TIMEOUT_S = 60.0

# One round, fixed across seeds: (kind, hot tenant slot). The cold read
# rotates through the cold tenants by round number.
_MIX = (
    [("read", t) for t in range(3) for _ in range(2)]
    + [("insert", t) for t in range(3)]
    + [("ingest", 0), ("range", 1), ("range", 2), ("agg", 0), ("cold", 0)]
)
PLAN = tuple(random.Random(13).sample(_MIX, len(_MIX)))

READ_KINDS = ("read", "cold")
WRITE_KINDS = ("insert",)
SCAN_KINDS = ("range",)
AGG_KINDS = ("agg",)


class Workload:
    def __init__(self, size: Size, seed: int, path: str, mark):
        self.size = size
        self.path = path
        self.mark = mark
        self.rng = np.random.default_rng(seed)
        self.proc: subprocess.Popen | None = None
        self.client: ReproClient | None = None
        self.port = free_port()
        self.rounds = 0
        self.server_peak_mb = 0.0
        # The model: per tenant, acknowledged (grp, qty) rows by id, of
        # ``items`` and of ``events``.
        self.rows: dict[str, list[tuple]] = {t: [] for t in HOT + COLD}
        self.events: dict[str, list[tuple]] = {t: [] for t in HOT}

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------

    def _spawn(self) -> float:
        """Start the server; returns the time its READY line arrived."""
        os.makedirs(self.path, exist_ok=True)
        self.proc = spawn_server(
            self.path, self.port, mode="nvm", workers=2, capture=True,
            extra_args=["--max-attached", MAX_ATTACHED],
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if line.startswith(b"READY"):
                return time.perf_counter()
            if not line and self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not come up (exit {self.proc.poll()})")

    def _connect(self) -> None:
        self.client = ReproClient(HOST, self.port)

    def _kill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        self.client.close()  # the server is gone: this only drops the socket
        self.client = None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def _new_rows(self, model: list, key: str, count: int) -> list[dict]:
        grp = self.rng.integers(0, len(GROUPS), count)
        qty = self.rng.integers(1, 100, count)
        return [{key: len(model) + i, "grp": GROUPS[int(grp[i])], "qty": int(qty[i])}
                for i in range(count)]

    @staticmethod
    def _ack(model: list, key: str, rows: list[dict]) -> None:
        for row in rows:
            expect(row[key] == len(model), "ids out of order")
            model.append((row["grp"], row["qty"]))

    def _row(self, tenant: str, key: int) -> dict:
        grp, qty = self.rows[tenant][key]
        return {"id": key, "grp": grp, "qty": qty}

    def setup(self) -> None:
        self._spawn()
        self._connect()
        client = self.client
        # Cold tenants first: the hot ones end set-up attached, and the
        # LRU only ever evicts a cold tenant afterwards.
        for tenant in COLD + HOT:
            client.create_tenant(tenant)
            client.create_table("items", SCHEMA, tenant=tenant)
            client.create_index("items", "id", tenant=tenant)
            if tenant in HOT:
                client.create_table("events", EVENTS, tenant=tenant)
            model = self.rows[tenant]
            total = self.size.rows if tenant in HOT else COLD_ROWS
            while len(model) < total:
                rows = self._new_rows(model, "id", min(LOAD_BATCH, total - len(model)))
                expect(client.insert_many("items", rows, tenant=tenant) == len(rows), "load lost rows")
                self._ack(model, "id", rows)
        scratch = Samples()
        for _ in range(self.size.warmup):
            self.round(scratch)

    def live_bytes(self) -> int:
        tables = list(self.rows.values()) + list(self.events.values())
        return sum(16 + value_bytes(grp) for rows in tables for grp, _q in rows)

    def space_amp(self) -> float:
        return allocated_bytes(self.path) / self.live_bytes()

    def peak_rss_mb(self) -> float:
        return self.server_peak_mb

    def _registry(self) -> dict:
        return self.client.metrics()

    def counters(self) -> dict:
        registry = self._registry()

        def total(prefix: str, field: str | None = None) -> float:
            out = 0.0
            for key, value in registry.items():
                if key.split("{", 1)[0] == prefix and 'op="metrics"' not in key:
                    out += value[field] if field else value
            return out

        return {
            "server_exec_s": total("server_exec_seconds", "sum"),
            "server_queue_s": total("server_queue_seconds", "sum"),
            "server_attaches": total("server_tenant_attaches_total"),
            "server_evictions": total("server_tenant_evictions_total"),
            "server_rejected": total("server_rejected_total"),
        }

    # ------------------------------------------------------------------
    # The timed mix
    # ------------------------------------------------------------------

    def round(self, s: Samples) -> None:
        for kind, slot in PLAN:
            getattr(self, "_op_" + kind)(s, COLD[self.rounds % 3] if kind == "cold" else HOT[slot])
        self.rounds += 1

    def _read(self, s: Samples, tenant: str, kind: str) -> None:
        key = int(self.rng.integers(0, len(self.rows[tenant])))
        t0 = time.perf_counter()
        rows = self.client.query("items", Eq("id", key), tenant=tenant)
        s.add(kind, time.perf_counter() - t0)
        expect(rows == [self._row(tenant, key)], f"{tenant} read of {key}: {rows}")

    def _op_read(self, s: Samples, tenant: str) -> None:
        self._read(s, tenant, "read")

    def _op_cold(self, s: Samples, tenant: str) -> None:
        self._read(s, tenant, "cold")

    def _op_insert(self, s: Samples, tenant: str) -> None:
        model = self.events[tenant]
        row = self._new_rows(model, "eid", 1)[0]
        t0 = time.perf_counter()
        self.client.insert("events", row, tenant=tenant)
        s.add("insert", time.perf_counter() - t0)
        self._ack(model, "eid", [row])

    def _op_ingest(self, s: Samples, tenant: str) -> None:
        model = self.events[tenant]
        rows = self._new_rows(model, "eid", INGEST_BATCH)
        t0 = time.perf_counter()
        count = self.client.insert_many("events", rows, tenant=tenant)
        s.add_ingest(len(rows), time.perf_counter() - t0)
        expect(count == len(rows), "INSERT_MANY lost rows")
        self._ack(model, "eid", rows)

    def _op_range(self, s: Samples, tenant: str) -> None:
        lo = int(self.rng.integers(0, len(self.rows[tenant]) - RANGE_WIDTH))
        t0 = time.perf_counter()
        rows = self.client.query("items", Between("id", lo, lo + RANGE_WIDTH - 1), tenant=tenant)
        s.add("range", time.perf_counter() - t0)
        rows.sort(key=lambda r: r["id"])
        expect(rows == [self._row(tenant, k) for k in range(lo, lo + RANGE_WIDTH)],
               f"{tenant} range from {lo}")

    def _op_agg(self, s: Samples, tenant: str) -> None:
        lo = int(self.rng.integers(0, len(self.rows[tenant]) - AGG_WIDTH))
        t0 = time.perf_counter()
        got = self.client.aggregate("items", "sum", column="qty", group_by="grp",
                                    predicate=Between("id", lo, lo + AGG_WIDTH - 1), tenant=tenant)
        s.add("agg", time.perf_counter() - t0)
        want: dict = {}
        for grp, qty in self.rows[tenant][lo:lo + AGG_WIDTH]:
            want[grp] = want.get(grp, 0) + qty
        expect({k: int(v) for k, v in got.items()} == want, f"{tenant} aggregate from {lo}")

    # ------------------------------------------------------------------
    # Kill and restart
    # ------------------------------------------------------------------

    def begin_restarts(self) -> None:
        self.server_peak_mb = proc_peak_rss_mb(self.proc.pid)

    def restart_cycle(self) -> dict:
        self.mark("tail")
        scratch = Samples()
        for _ in range(self.size.tail_rounds):
            for tenant in HOT:
                self._op_ingest(scratch, tenant)
                self._op_insert(scratch, tenant)
        tenant = HOT[0]
        known = len(self.rows[tenant]) - 1
        self.mark("restart")
        gc.collect()
        probe = median([host_probe() for _ in range(3)])
        t0 = time.perf_counter()
        self._kill()
        t_ready = self._spawn()
        self._connect()
        rows = self.client.query("items", Eq("id", known), tenant=tenant)
        t1 = time.perf_counter()
        self.mark("check")
        expect(rows == [self._row(tenant, known)], f"first read after restart: {rows}")
        self.check_state()
        reports = self.client.recovery_reports()
        expect(set(reports) == set(HOT + COLD), f"recovery reports for {sorted(reports)}")
        startup = self._registry()["server_startup_recovery_seconds"]
        record = {
            "probe_s": probe,
            "restart_s": t1 - t0,
            "kill_to_listen_s": t_ready - t0,
            "listen_to_first_read_s": t1 - t_ready,
            "first_read_s": t1 - t_ready,
            "startup_recovery_s": startup["sum"],
            "recovery_total_s": sum(r["total_seconds"] for r in reports.values()),
        }
        for report in reports.values():
            for phase, seconds in report["phases"].items():
                record["phase:" + phase] = record.get("phase:" + phase, 0.0) + seconds
        return record

    def final_check(self) -> None:
        self.check_state()

    def check_state(self) -> None:
        """Acked rows and counts per tenant, over the wire.

        Hot tenants go last so they end up attached.
        """
        for tenant in COLD + HOT:
            last = len(self.rows[tenant]) - 1
            rows = self.client.query("items", Eq("id", last), tenant=tenant)
            expect(rows == [self._row(tenant, last)], f"{tenant} read of {last}: {rows}")
            tables = [("items", "id", self.rows[tenant])]
            if tenant in HOT:
                tables.append(("events", "eid", self.events[tenant]))
            for table, key, model in tables:
                result = self.client.query_full(table, tenant=tenant)
                expect(result["count"] == len(model),
                       f"{tenant}.{table} has {result['count']} rows, model {len(model)}")
                got = sorted((r[key], r["grp"], r["qty"]) for r in result["rows"])
                expect(got == [(i, g, q) for i, (g, q) in enumerate(model)], f"{tenant}.{table} rows differ")

