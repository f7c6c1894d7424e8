"""``analytics``: a read-heavy mix on a LOG-mode engine with sync commit.

A ``sales`` fact table (ten times the ``oltp`` accounts table) joined to
a small ``stores`` dimension. Reads are grouped aggregates over a week
of days, range scans over two days, a join of one day's sales to their
stores, and equality lookups on ``sid`` — a column with no index — for
rows that sit in the large unmerged delta. Beside the reads run steady
``insert_many`` ingest batches and single-row inserts, each committed
with its own fsync (``group_commit_size=1``, no modelled delay).

Merges at fixed round counts each write a chained incremental
checkpoint. Before each crash a fixed log tail is written, and a fixed
number of transactions is left open with uncommitted inserts and
updates; restart is checkpoint load plus parallel replay (two workers).
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

from common import (
    Samples,
    Size,
    allocated_bytes,
    engine_counters,
    expect,
    host_probe,
    median,
    restart_record,
    same_float,
    self_peak_rss_mb,
    value_bytes,
)
from repro import Between, DataType, Database, DurabilityMode, EngineConfig, Eq, aggregate, hash_join

SIZES = {
    "smoke": Size(rows=10000, setups=2, warmup=3, merge_every=6, cycles=2, tail_rounds=3),
    "full": Size(rows=100000, setups=3, warmup=10, merge_every=40, cycles=9, tail_rounds=150),
}

DAYS = 365
STORES = 200
REGIONS = [f"region-{i:02d}" for i in range(12)]
PRODUCTS = 5000
INGEST_BATCH = 32
IN_FLIGHT = 3

_MIX = ["lookup"] * 4 + ["agg"] * 2 + ["range"] * 2 + ["join"] + ["ingest"] + ["insert"] * 4
PLAN = tuple(random.Random(11).sample(_MIX, len(_MIX)))

READ_KINDS = ("lookup",)
WRITE_KINDS = ("insert",)
SCAN_KINDS = ("range",)
AGG_KINDS = ("agg",)
COLUMNS = ("store", "product", "qty", "amount", "day")
ROW_BYTES = 8 * (1 + len(COLUMNS))


def engine_config() -> EngineConfig:
    return EngineConfig(
        mode=DurabilityMode.LOG,
        group_commit_size=1,
        wal_fsync_delay_s=0.0,
        incremental_checkpoints=True,
        checkpoint_after_merge=True,
        replay_workers=2,
    )


class Workload:
    def __init__(self, size: Size, seed: int, path: str, mark):
        self.size = size
        self.path = path
        self.mark = mark
        self.rng = np.random.default_rng(seed)
        self.db: Database | None = None
        self.rounds = 0
        self.merges = True
        # The model: every acknowledged sales row by sid, plus per
        # (day, store) counts and amount sums for the read checks.
        self.cols = {name: [] for name in COLUMNS}
        self.count = np.zeros((DAYS, STORES), dtype=np.int64)
        self.amount = np.zeros((DAYS, STORES), dtype=np.float64)
        self.region_of = [REGIONS[int(r)] for r in self.rng.integers(0, len(REGIONS), STORES)]
        self.merged_upto = 0

    @property
    def n(self) -> int:
        return len(self.cols["day"])

    def _new_rows(self, count: int) -> list[dict]:
        rng = self.rng
        first = self.n
        store = rng.integers(0, STORES, count)
        product = rng.integers(0, PRODUCTS, count)
        qty = rng.integers(1, 20, count)
        amount = rng.integers(1, 1000, count).astype(np.float64)
        day = rng.integers(0, DAYS, count)
        return [
            {"sid": first + i, "store": int(store[i]), "product": int(product[i]),
             "qty": int(qty[i]), "amount": float(amount[i]), "day": int(day[i])}
            for i in range(count)
        ]

    def _ack(self, rows: list[dict]) -> None:
        for row in rows:
            expect(row["sid"] == self.n, "sales ids out of order")
            for name in COLUMNS:
                self.cols[name].append(row[name])
            self.count[row["day"], row["store"]] += 1
            self.amount[row["day"], row["store"]] += row["amount"]

    def _row(self, sid: int) -> dict:
        row = {"sid": sid}
        for name in COLUMNS:
            row[name] = self.cols[name][sid]
        return row

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> None:
        db = self.db = Database(self.path, engine_config())
        db.create_table("sales", {
            "sid": DataType.INT64, "store": DataType.INT64, "product": DataType.INT64,
            "qty": DataType.INT64, "amount": DataType.FLOAT64, "day": DataType.INT64,
        })
        db.create_table("stores", {
            "store": DataType.INT64, "region": DataType.STRING, "name": DataType.STRING,
        })
        db.bulk_insert("stores", [
            {"store": i, "region": self.region_of[i], "name": f"store-{i:04d}"} for i in range(STORES)
        ])
        db.create_index("stores", "store")
        rows = self._new_rows(self.size.rows)
        db.bulk_insert("sales", rows)
        self._ack(rows)
        db.merge("stores")
        db.merge("sales")
        scratch = Samples()
        for _ in range(self.size.warmup):
            self.round(scratch)

    def live_bytes(self) -> int:
        stores = sum(8 + value_bytes(r) + value_bytes(f"store-{i:04d}") for i, r in enumerate(self.region_of))
        return self.n * ROW_BYTES + stores

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
            t0 = time.perf_counter()
            self.db.merge("sales")  # also writes a chained checkpoint
            s.add_maintenance(time.perf_counter() - t0)
            self.merged_upto = self.n

    def _op_lookup(self, s: Samples) -> None:
        # A row of the unmerged delta (or, right after a merge, a recent one).
        lo = min(self.merged_upto, self.n - 1)
        sid = int(self.rng.integers(lo, self.n))
        t0 = time.perf_counter()
        rows = self.db.query("sales", Eq("sid", sid)).rows()
        s.add("lookup", time.perf_counter() - t0)
        expect(rows == [self._row(sid)], f"lookup of sale {sid}: {rows}")

    def _op_agg(self, s: Samples) -> None:
        d = int(self.rng.integers(0, DAYS - 7))
        t0 = time.perf_counter()
        got = aggregate(self.db.query("sales", Between("day", d, d + 6)), "sum", "amount", "store")
        s.add("agg", time.perf_counter() - t0)
        counts = self.count[d:d + 7].sum(axis=0)
        sums = self.amount[d:d + 7].sum(axis=0)
        want = {store: float(sums[store]) for store in np.nonzero(counts)[0].tolist()}
        expect(set(got) == set(want), f"aggregate groups for days {d}..{d + 6}")
        expect(all(same_float(got[k], want[k]) for k in want), f"aggregate sums for days {d}..{d + 6}")

    def _op_range(self, s: Samples) -> None:
        d = int(self.rng.integers(0, DAYS - 2))
        t0 = time.perf_counter()
        result = self.db.query("sales", Between("day", d, d + 1))
        n = len(result)
        total = float(result.column_array("amount")[0].sum())
        s.add("range", time.perf_counter() - t0)
        expect(n == int(self.count[d:d + 2].sum()), f"range scan count for days {d}..{d + 1}")
        expect(same_float(total, float(self.amount[d:d + 2].sum())), f"range scan sum for days {d}..{d + 1}")

    def _op_join(self, s: Samples) -> None:
        d = int(self.rng.integers(0, DAYS))
        t0 = time.perf_counter()
        rows = hash_join(
            self.db.query("sales", Eq("day", d)), self.db.query("stores"), "store",
            left_columns=["sid", "store", "amount"], right_columns=["region"],
        )
        s.add("join", time.perf_counter() - t0)
        expect(len(rows) == int(self.count[d].sum()), f"join row count for day {d}")
        for row in rows:
            sid = row["sid"]
            expect(self.cols["day"][sid] == d and row["amount"] == self.cols["amount"][sid]
                   and row["region"] == self.region_of[row["store"]], f"join row {row}")

    def _op_ingest(self, s: Samples) -> None:
        rows = self._new_rows(INGEST_BATCH)
        t0 = time.perf_counter()
        self.db.insert_many("sales", rows)
        s.add_ingest(len(rows), time.perf_counter() - t0)
        self._ack(rows)

    def _op_insert(self, s: Samples) -> None:
        row = self._new_rows(1)[0]
        t0 = time.perf_counter()
        self.db.insert("sales", row)
        s.add("insert", time.perf_counter() - t0)
        self._ack([row])

    # ------------------------------------------------------------------
    # Crash and restart
    # ------------------------------------------------------------------

    def begin_restarts(self) -> None:
        """Merge and checkpoint, so every run's crash cycles start alike."""
        self.merges = False
        self.db.merge("sales")
        self.merged_upto = self.n

    def restart_cycle(self) -> dict:
        self.mark("tail")
        scratch = Samples()
        for _ in range(self.size.tail_rounds):
            self._op_ingest(scratch)
            self._op_insert(scratch)
        db = self.db
        known = self.n - 1
        # Open transactions at the crash: uncommitted inserts (past the
        # model's ids) and an uncommitted update of an acknowledged row.
        pending = []
        updated = self.rng.choice(self.n, IN_FLIGHT, replace=False).tolist()
        for i, sid in enumerate(updated):
            txn = db.begin()
            rows = self._new_rows(10)
            for j, row in enumerate(rows):
                row["sid"] = 10**9 + 100 * i + j
            txn.insert_many("sales", rows)
            pending += [row["sid"] for row in rows]
            ref = txn.query("sales", Eq("sid", sid)).refs()[0]
            txn.update("sales", ref, {"qty": -1})
        delta_rows = sum(db.table(t).delta_row_count for t in db.table_names)
        db.crash()
        self.db = db = None
        self.mark("restart")
        gc.collect()
        probe = median([host_probe() for _ in range(3)])
        t0 = time.perf_counter()
        db = Database(self.path, engine_config())
        t_open = time.perf_counter()
        rows = db.query("sales", Eq("sid", known)).rows()
        t1 = time.perf_counter()
        self.mark("check")
        self.db = db
        expect(rows == [self._row(known)], f"first read after restart: {rows}")
        self.check_state(pending)
        # Start the next cycle from a checkpoint, so every cycle replays
        # the same tail.
        db.checkpoint()
        return restart_record(t0, t_open, t1, db.last_recovery, delta_rows_at_crash=delta_rows, probe_s=probe)

    def final_check(self) -> None:
        self.check_state()

    def check_state(self, pending=()) -> None:
        """Every acked write readable; no open transaction's write visible."""
        db = self.db
        problems = db.verify()
        expect(problems == [], f"verify(): {problems[:3]}")
        result = db.query("sales")
        sid, _ = result.column_array("sid")
        order = np.argsort(sid)
        expect(np.array_equal(sid[order], np.arange(self.n)),
               "sales rows lost, duplicated or an open transaction's insert visible")
        for name in COLUMNS:
            got, _ = result.column_array(name)
            expect(np.array_equal(got[order], np.asarray(self.cols[name])), f"sales column {name} differs")
        for sid_ in pending[:3]:
            expect(len(db.query("sales", Eq("sid", sid_))) == 0, f"open insert {sid_} visible")
        expect(len(db.query("stores")) == STORES, "stores rows lost")

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
