"""``oltp``: a write-heavy, TPC-B-like mix on an NVM-mode engine.

Three tables: ``accounts`` (indexed on ``id``; read, updated), ``history``
(appended by single-row inserts and small ``insert_many`` batches) and a
static ``catalog`` (indexed, merged once at set-up, read by point
lookups). Reads are Zipf-skewed over accounts with a share drawn from
recently written keys; updates are read-modify-write transactions. The
engine runs with pmem FAST and no latency model, so the time goes to
the persistence protocol's flushes and to the Python engine itself.

Each crash leaves a fixed number of transactions open with uncommitted
updates and inserts; recovery must roll them back (the paper's
O(in-flight) fix-up), and the first indexed read afterwards pays the
lazy DRAM rebuilds.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque

import numpy as np

from common import (
    Samples,
    Size,
    ZipfKeys,
    allocated_bytes,
    engine_counters,
    expect,
    host_probe,
    median,
    restart_record,
    self_peak_rss_mb,
    value_bytes,
)
from repro import Between, DataType, Database, DurabilityMode, EngineConfig, Eq, aggregate

SIZES = {
    "smoke": Size(rows=1000, setups=2, warmup=3, merge_every=5, cycles=2, tail_rounds=2),
    "full": Size(rows=10000, setups=3, warmup=25, merge_every=25, cycles=15, tail_rounds=10),
}

BRANCHES = 50
NOTES = [f"note-{i:03d}" for i in range(100)]
CATALOG_ROWS = 2000
INGEST_BATCH = 16
RANGE_WIDTH = 32
AGG_WIDTH = 500
IN_FLIGHT = 4

# The operation mix of one round, in a fixed order that does not depend
# on the seed, so every run attempts whole rounds of the same operations.
_MIX = (
    ["read"] * 18 + ["catalog"] * 2 + ["rmw"] * 8 + ["history"] * 6
    + ["abort"] + ["ingest"] * 2 + ["range"] * 2 + ["agg"]
)
PLAN = tuple(random.Random(7).sample(_MIX, len(_MIX)))

READ_KINDS = ("read", "catalog")
WRITE_KINDS = ("rmw", "history")
SCAN_KINDS = ("range",)
AGG_KINDS = ("agg",)
# A balance no committed update produces: written by the transactions
# left open at a crash, so a rollback that fails shows in the compare.
UNCOMMITTED = -(10**12)


def engine_config() -> EngineConfig:
    # Defaults: pmem FAST, no latency model, no time-triggered maintenance.
    return EngineConfig(mode=DurabilityMode.NVM)


class Workload:
    def __init__(self, size: Size, seed: int, path: str, mark):
        self.size = size
        self.path = path
        self.mark = mark
        self.rng = np.random.default_rng(seed)
        self.n = size.rows
        self.keys = ZipfKeys(self.rng, self.n)
        self.recent: deque[int] = deque(maxlen=64)
        self.db: Database | None = None
        self.rounds = 0
        self.merges = True
        # The model: acknowledged state, kept apart from the engine.
        self.branch = [int(b) for b in self.rng.integers(0, BRANCHES, self.n)]
        self.balance = [int(b) for b in self.rng.integers(0, 100_000, self.n)]
        self.name_of = [f"acct-{i:07d}" for i in range(self.n)]
        self.history: list[tuple] = []  # hid -> (aid, delta, note)
        crng = np.random.default_rng(seed + 1)
        self.catalog = [
            (f"cat-{int(c):02d}", float(int(p)) / 4.0)
            for c, p in zip(crng.integers(0, 40, CATALOG_ROWS), crng.integers(1, 4000, CATALOG_ROWS))
        ]

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> None:
        db = self.db = Database(self.path, engine_config())
        db.create_table("accounts", {
            "id": DataType.INT64, "branch": DataType.INT64,
            "balance": DataType.INT64, "name": DataType.STRING,
        })
        db.create_table("history", {
            "hid": DataType.INT64, "aid": DataType.INT64,
            "delta": DataType.INT64, "note": DataType.STRING,
        })
        db.create_table("catalog", {
            "pid": DataType.INT64, "category": DataType.STRING, "price": DataType.FLOAT64,
        })
        db.bulk_insert("accounts", [self._account(i) for i in range(self.n)])
        db.bulk_insert("catalog", [
            {"pid": i, "category": c, "price": p} for i, (c, p) in enumerate(self.catalog)
        ])
        db.create_index("accounts", "id")
        db.create_index("catalog", "pid")
        db.merge("accounts")
        db.merge("catalog")
        scratch = Samples()
        for _ in range(self.size.warmup):
            self.round(scratch)

    def _account(self, i: int) -> dict:
        return {"id": i, "branch": self.branch[i], "balance": self.balance[i], "name": self.name_of[i]}

    def live_bytes(self) -> int:
        acct = sum(24 + value_bytes(name) for name in self.name_of)
        hist = sum(24 + value_bytes(note) for _aid, _d, note in self.history)
        cat = sum(16 + value_bytes(c) for c, _p in self.catalog)
        return acct + hist + cat

    def space_amp(self) -> float:
        return allocated_bytes(self.path) / self.live_bytes()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def counters(self) -> dict:
        return engine_counters(self.db, self.live_bytes())

    # ------------------------------------------------------------------
    # The timed mix
    # ------------------------------------------------------------------

    def round(self, s: Samples) -> None:
        for kind in PLAN:
            getattr(self, "_op_" + kind)(s)
        self.rounds += 1
        if self.merges and self.rounds % self.size.merge_every == 0:
            # Only accounts: merging the ever-growing history would cost
            # more the further a run gets, and no read touches it.
            t0 = time.perf_counter()
            self.db.merge("accounts")
            s.add_maintenance(time.perf_counter() - t0)

    def _read_key(self) -> int:
        if self.recent and self.rng.random() < 0.25:
            return self.recent[int(self.rng.integers(0, len(self.recent)))]
        return self.keys.next()

    def _op_read(self, s: Samples) -> None:
        key = self._read_key()
        t0 = time.perf_counter()
        rows = self.db.query("accounts", Eq("id", key)).rows()
        s.add("read", time.perf_counter() - t0)
        expect(rows == [self._account(key)], f"read of account {key}: {rows}")

    def _op_catalog(self, s: Samples) -> None:
        pid = int(self.rng.integers(0, CATALOG_ROWS))
        t0 = time.perf_counter()
        rows = self.db.query("catalog", Eq("pid", pid)).rows()
        s.add("catalog", time.perf_counter() - t0)
        category, price = self.catalog[pid]
        expect(rows == [{"pid": pid, "category": category, "price": price}],
               f"catalog read {pid}: {rows}")

    def _rmw(self, key: int, amount: int, commit: bool) -> int:
        txn = self.db.begin()
        result = txn.query("accounts", Eq("id", key))
        ref = result.refs()[0]
        seen = result.rows()[0]["balance"]
        txn.update("accounts", ref, {"balance": seen + amount})
        if commit:
            txn.commit()
        else:
            txn.abort()
        return seen

    def _op_rmw(self, s: Samples) -> None:
        key = self.keys.next()
        amount = int(self.rng.integers(-500, 501))
        t0 = time.perf_counter()
        seen = self._rmw(key, amount, commit=True)
        s.add("rmw", time.perf_counter() - t0)
        expect(seen == self.balance[key], f"rmw of {key} saw {seen}")
        self.balance[key] += amount
        self.recent.append(key)

    def _op_abort(self, s: Samples) -> None:
        key = self.keys.next()
        t0 = time.perf_counter()
        seen = self._rmw(key, 1_000_000, commit=False)
        s.add("abort", time.perf_counter() - t0)
        expect(seen == self.balance[key], f"aborted rmw of {key} saw {seen}")

    def _history_row(self) -> dict:
        aid = int(self.keys.next())
        return {
            "hid": len(self.history),
            "aid": aid,
            "delta": int(self.rng.integers(-500, 501)),
            "note": NOTES[int(self.rng.integers(0, len(NOTES)))],
        }

    def _ack_history(self, row: dict) -> None:
        expect(row["hid"] == len(self.history), "history ids out of order")
        self.history.append((row["aid"], row["delta"], row["note"]))

    def _op_history(self, s: Samples) -> None:
        row = self._history_row()
        t0 = time.perf_counter()
        self.db.insert("history", row)
        s.add("history", time.perf_counter() - t0)
        self._ack_history(row)

    def _op_ingest(self, s: Samples) -> None:
        rows = []
        for i in range(INGEST_BATCH):
            row = self._history_row()
            row["hid"] += i
            rows.append(row)
        t0 = time.perf_counter()
        refs = self.db.insert_many("history", rows)
        s.add_ingest(len(rows), time.perf_counter() - t0)
        expect(len(refs) == len(rows), "insert_many lost rows")
        for row in rows:
            self._ack_history(row)

    def _op_range(self, s: Samples) -> None:
        lo = int(self.rng.integers(0, self.n - RANGE_WIDTH))
        t0 = time.perf_counter()
        rows = self.db.query("accounts", Between("id", lo, lo + RANGE_WIDTH - 1)).rows()
        s.add("range", time.perf_counter() - t0)
        rows.sort(key=lambda r: r["id"])
        expect(rows == [self._account(i) for i in range(lo, lo + RANGE_WIDTH)],
               f"range scan from {lo}")

    def _op_agg(self, s: Samples) -> None:
        width = min(AGG_WIDTH, self.n // 4)
        lo = int(self.rng.integers(0, self.n - width))
        t0 = time.perf_counter()
        got = aggregate(
            self.db.query("accounts", Between("id", lo, lo + width - 1)),
            "sum", "balance", "branch",
        )
        s.add("agg", time.perf_counter() - t0)
        want: dict = {}
        for i in range(lo, lo + width):
            want[self.branch[i]] = want.get(self.branch[i], 0) + self.balance[i]
        expect({k: int(v) for k, v in got.items()} == want, f"aggregate from {lo}")

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------

    def begin_restarts(self) -> None:
        """Empty the deltas so every run's crash cycles start alike."""
        self.merges = False
        self.db.merge("accounts")
        self.db.merge("history")

    def restart_cycle(self) -> dict:
        self.mark("tail")
        scratch = Samples()
        for _ in range(self.size.tail_rounds):
            self.round(scratch)
        db = self.db
        # Open transactions at the crash: each holds an uncommitted
        # account update and an uncommitted history insert.
        pending_hids = []
        keys = [int(k) for k in self.rng.choice(self.n, IN_FLIGHT, replace=False)]
        for i, key in enumerate(keys):
            txn = db.begin()
            ref = txn.query("accounts", Eq("id", key)).refs()[0]
            txn.update("accounts", ref, {"balance": UNCOMMITTED})
            hid = len(self.history) + 1_000_000 + i
            txn.insert("history", {"hid": hid, "aid": key, "delta": 0, "note": "in-flight"})
            pending_hids.append(hid)
        delta_rows = sum(db.table(t).delta_row_count for t in db.table_names)
        known = self.recent[-1]
        db.crash()
        self.db = db = None
        self.mark("restart")
        gc.collect()
        probe = median([host_probe() for _ in range(3)])
        t0 = time.perf_counter()
        db = Database(self.path, engine_config())
        t_open = time.perf_counter()
        rows = db.query("accounts", Eq("id", known)).rows()
        t1 = time.perf_counter()
        self.mark("check")
        self.db = db
        expect(rows == [self._account(known)], f"first read after restart: {rows}")
        self.check_state(pending_hids)
        return restart_record(t0, t_open, t1, db.last_recovery, delta_rows_at_crash=delta_rows, probe_s=probe)

    def final_check(self) -> None:
        self.check_state()

    def check_state(self, pending_hids=()) -> None:
        """Every acked write readable; no open transaction's write visible."""
        db = self.db
        problems = db.verify()
        expect(problems == [], f"verify(): {problems[:3]}")
        acct = db.query("accounts")
        ids, _ = acct.column_array("id")
        order = np.argsort(ids)
        expect(np.array_equal(ids[order], np.arange(self.n)), "accounts rows lost or duplicated")
        bal, _ = acct.column_array("balance")
        expect(np.array_equal(bal[order], np.asarray(self.balance)), "account balances differ")
        br, _ = acct.column_array("branch")
        expect(np.array_equal(br[order], np.asarray(self.branch)), "account branches differ")
        hist = db.query("history")
        hids, _ = hist.column_array("hid")
        order = np.argsort(hids)
        expect(np.array_equal(hids[order], np.arange(len(self.history))),
               "history rows lost, duplicated or an open transaction's insert visible")
        deltas, _ = hist.column_array("delta")
        want = np.asarray([d for _a, d, _n in self.history], dtype=np.int64)
        expect(np.array_equal(deltas[order], want), "history deltas differ")
        for hid in pending_hids:
            expect(len(db.query("history", Eq("hid", hid))) == 0,
                   f"open transaction's insert {hid} visible after restart")

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

