"""Unit tests for group-key and delta indexes."""

import numpy as np
import pytest

from repro.index.delta_index import PersistentDeltaIndex, VolatileDeltaIndex
from repro.index.groupkey import GroupKeyIndex
from repro.index.table_index import TableIndex
from repro.query.predicate import Between, Eq, Ge, Gt, Le, Lt
from repro.query.scan import scan
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.merge import merge_table
from repro.storage.mvcc import NO_TID
from repro.storage.schema import Schema
from repro.storage.table import Table, unpack_rowref
from repro.storage.types import DataType

SCHEMA = Schema.of(k=DataType.INT64, v=DataType.STRING)


def _commit(table, values, cid=1):
    ref = table.insert_uncommitted(values, tid=1)
    mvcc, idx = table.mvcc_for(ref)
    mvcc.set_begin(idx, cid)
    mvcc.set_tid(idx, NO_TID)
    return ref


def _merged_table(backend, keys):
    table = Table.create(1, "t", SCHEMA, backend)
    for k in keys:
        _commit(table, [k, f"s{k}"])
    table.main, table.delta = merge_table(table, backend)
    return table


class TestGroupKeyIndex:
    def test_lookup_positions(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [5, 3, 5, 9, 3, 5])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        dict0 = table.main.columns[0].dictionary
        codes = table.main.column_codes(0)
        for value in (3, 5, 9):
            code = dict0.code_of(value)
            expected = sorted(np.nonzero(codes == code)[0])
            assert sorted(index.lookup(code)) == expected

    def test_lookup_range(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [1, 2, 3, 4, 5])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        dict0 = table.main.columns[0].dictionary
        lo = dict0.lower_bound(2)
        hi = dict0.upper_bound(4)
        positions = index.lookup_range(lo, hi)
        values = sorted(table.main.get_value(0, int(p)) for p in positions)
        assert values == [2, 3, 4]

    def test_empty_range(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [1, 2])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        assert index.lookup_range(1, 1).size == 0

    def test_null_bucket(self):
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        _commit(table, [None, "a"])
        _commit(table, [1, "b"])
        table.main, table.delta = merge_table(table, backend)
        col = table.main.columns[0]
        index = GroupKeyIndex.build(backend, col)
        assert len(index.lookup(col.null_code)) == 1

    def test_attach_after_restart(self, pool_dir):
        from repro.nvm.pool import PMemPool

        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        backend = NvmBackend(pool)
        table = _merged_table(backend, [4, 4, 2])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        offs = index.offsets_vector.offset
        poss = index.positions_vector.offset
        code = table.main.columns[0].dictionary.code_of(4)
        expected = sorted(index.lookup(code))
        pool.close()
        pool = PMemPool.open(pool_dir)
        backend = NvmBackend(pool)
        again = GroupKeyIndex.attach(backend, offs, poss)
        assert sorted(again.lookup(code)) == expected
        pool.close()


class TestDeltaIndexes:
    @pytest.fixture(params=["volatile", "persistent"])
    def delta_index(self, request, pool):
        if request.param == "volatile":
            return VolatileDeltaIndex()
        return PersistentDeltaIndex.create(NvmBackend(pool))

    def test_add_and_lookup(self, delta_index):
        delta_index.add(7, 0)
        delta_index.add(7, 3)
        delta_index.add(2, 1)
        assert sorted(delta_index.lookup(7)) == [0, 3]
        assert list(delta_index.lookup(2)) == [1]
        assert delta_index.lookup(99).size == 0

    def test_entry_count(self, delta_index):
        for i in range(5):
            delta_index.add(i % 2, i)
        assert delta_index.entry_count() == 5

    def test_volatile_rebuild(self):
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        for k in [5, 6, 5]:
            _commit(table, [k, "x"])
        index = VolatileDeltaIndex()
        index.rebuild(table.delta, 0)
        code = table.delta.dictionaries[0].code_of(5)
        assert sorted(index.lookup(code)) == [0, 2]

    def test_persistent_attach_no_rebuild(self, pool_dir):
        from repro.nvm.pool import PMemPool

        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        backend = NvmBackend(pool)
        index = PersistentDeltaIndex.create(backend)
        index.add(3, 11)
        off = index.offset
        pool.close()
        pool = PMemPool.open(pool_dir)
        again = PersistentDeltaIndex.attach(NvmBackend(pool), off)
        assert list(again.lookup(3)) == [11]
        assert not again.needs_rebuild_after_restart
        pool.close()


class TestTableIndex:
    def _table_with_index(self, backend, persistent=False):
        table = Table.create(1, "t", SCHEMA, backend)
        for k in [1, 2, 1, None]:
            _commit(table, [k, "x"])
        table.main, table.delta = merge_table(table, backend)
        for k in [2, 1]:
            _commit(table, [k, "y"], cid=2)
        index = TableIndex.build(backend, table, "k", persistent_delta=persistent)
        return table, index

    def test_probe_spans_partitions(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = index.probe_equal(table, 1)
        partitions = sorted(unpack_rowref(r)[0] for r in refs)
        assert len(refs) == 3
        assert partitions == [False, False, True]

    def test_probe_missing_value(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        assert index.probe_equal(table, 42) == []

    def test_probe_null(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = index.probe_null(table)
        assert len(refs) == 1
        assert table.get_row(refs[0])[0] is None

    def test_on_insert_maintains(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        ref = _commit(table, [77, "fresh"], cid=3)
        __, row = unpack_rowref(ref)
        index.on_insert(table.delta.get_code(0, row), row)
        assert len(index.probe_equal(table, 77)) == 1

    def test_stale_delta_detected_and_rebuilt(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        # Simulate a restart: rows exist but the volatile index forgot them.
        index.delta_index = VolatileDeltaIndex()
        index._delta_synced_rows = 0
        assert len(index.probe_equal(table, 1)) == 3

    def test_persistent_variant_on_nvm(self, pool):
        backend = NvmBackend(pool)
        table, index = self._table_with_index(backend, persistent=True)
        assert isinstance(index.delta_index, PersistentDeltaIndex)
        assert len(index.probe_equal(table, 1)) == 3


# ----------------------------------------------------------------------
# Indexed range scans against a full masked scan and a python oracle
# ----------------------------------------------------------------------

BIG = 2**53  # above this, float64 no longer holds every int64

RANGE_SCHEMA = Schema.of(i=DataType.INT64, f=DataType.FLOAT64, s=DataType.STRING)

# (i, f, s) per row: NULLs, NaN, duplicates, negatives and ints/floats
# around 2**53, where a compare done in float64 would round.
RANGE_MAIN_ROWS = [
    (None, None, None),
    (-5, -1.5, "a"),
    (3, 3.0, "c"),
    (BIG, float(BIG), "bb"),
    (BIG + 2, 1e300, "d"),
    (7, 2.5, "c"),
    (8, float("nan"), "e"),
]
RANGE_DELTA_ROWS = [
    (3, 2.5, "b"),
    (None, None, None),
    (BIG + 1, float(BIG) + 2, "ba"),
    (BIG + 3, -0.0, ""),
    (10, 3.0, "z"),
    (-5, -1.5, "a"),
    (2**62, 0.5, "c"),
    (11, float("nan"), "f"),
]

RANGE_BOUNDS = {
    "i": [-5, 3, 4, BIG + 1, 2.5, 3.0, float(BIG), float(BIG) + 2.0, 1e300,
          -1e300, float("inf"), float("-inf"), float("nan"), 2**70, -(2**70)],
    "f": [-1.5, 0, 2.5, 3, BIG, BIG + 1, BIG + 3, float(BIG) + 2.0,
          10**400, -(10**400), float("inf"), float("nan")],
    "s": ["", "a", "b", "ba", "c", "zz"],
}


def _python_in_range(v, low, high, include_low, include_high) -> bool:
    if v is None:
        return False
    if low is not None and not (v >= low if include_low else v > low):
        return False
    if high is not None and not (v <= high if include_high else v < high):
        return False
    return True


def _range_predicates(column, bounds):
    """Every range predicate over ``bounds``, with its (low, high,
    include_low, include_high) reading."""
    out = []
    for b in bounds:
        out += [
            (Lt(column, b), (None, b, True, False)),
            (Le(column, b), (None, b, True, True)),
            (Gt(column, b), (b, None, False, True)),
            (Ge(column, b), (b, None, True, True)),
        ]
    for lo in bounds[::2]:
        for hi in bounds[1::2]:
            out.append((Between(column, lo, hi), (lo, hi, True, True)))
    return out


def _range_table(backend, layout):
    table = Table.create(1, "r", RANGE_SCHEMA, backend)
    if layout in ("split", "empty_delta"):
        for row in RANGE_MAIN_ROWS:
            _commit(table, list(row))
    if layout == "empty_delta":
        for row in RANGE_DELTA_ROWS:
            _commit(table, list(row))
    table.main, table.delta = merge_table(table, backend)
    if layout in ("split", "delta_only"):
        rows = RANGE_DELTA_ROWS + (
            RANGE_MAIN_ROWS if layout == "delta_only" else []
        )
        for row in rows:
            _commit(table, list(row), cid=2)
    return table


@pytest.fixture(params=["volatile", "persistent"])
def range_backend(request, pool):
    if request.param == "volatile":
        return VolatileBackend(), False
    return NvmBackend(pool), True


def _visible_values(table, column):
    """(rowref, value) of every visible row, from a predicate-free scan."""
    full = scan(table, snapshot_cid=10)
    return list(zip(full.refs(), full.column(column)))


class TestIndexedRangeScans:
    @pytest.mark.parametrize("layout", ["split", "delta_only", "empty_delta"])
    @pytest.mark.parametrize("column", ["i", "f", "s"])
    def test_index_equals_masked_scan_and_oracle(
        self, range_backend, layout, column
    ):
        backend, persistent = range_backend
        table = _range_table(backend, layout)
        if layout == "empty_delta":
            assert table.delta.row_count == 0
        index = TableIndex.build(backend, table, column, persistent_delta=persistent)
        rows = _visible_values(table, column)
        for predicate, bounds in _range_predicates(column, RANGE_BOUNDS[column]):
            indexed = scan(table, snapshot_cid=10, predicate=predicate, index=index)
            masked = scan(table, snapshot_cid=10, predicate=predicate)
            expected = sorted(
                ref for ref, v in rows if _python_in_range(v, *bounds)
            )
            assert sorted(indexed.refs()) == expected, (predicate, bounds)
            assert sorted(masked.refs()) == expected, (predicate, bounds)

    @pytest.mark.parametrize("column", ["i", "f", "s"])
    def test_probe_range_mixed_inclusivity(self, range_backend, column):
        backend, persistent = range_backend
        table = _range_table(backend, "split")
        index = TableIndex.build(backend, table, column, persistent_delta=persistent)
        rows = _visible_values(table, column)
        bounds = RANGE_BOUNDS[column]
        for low in [None] + bounds[::3]:
            for high in [None] + bounds[1::3]:
                for include_low in (True, False):
                    for include_high in (True, False):
                        refs = index.probe_range(
                            table, low, high, include_low, include_high
                        )
                        expected = sorted(
                            ref
                            for ref, v in rows
                            if _python_in_range(
                                v, low, high, include_low, include_high
                            )
                        )
                        assert sorted(refs) == expected

    def test_float_bound_on_int64_above_2_53(self):
        backend = VolatileBackend()
        table = _range_table(backend, "delta_only")
        index = TableIndex.build(backend, table, "i")
        # float(BIG + 1) rounds to float(BIG); an int compare done in
        # float64 would count BIG + 1 as equal to the bound.
        result = scan(table, snapshot_cid=10, predicate=Gt("i", float(BIG)), index=index)
        assert sorted(result.column("i")) == [BIG + 1, BIG + 2, BIG + 3, 2**62]
        result = scan(table, snapshot_cid=10, predicate=Le("i", float(BIG)), index=index)
        assert BIG + 1 not in result.column("i")
        assert BIG in result.column("i")

    def test_unpublished_dictionary_value_never_matches(self, range_backend):
        backend, persistent = range_backend
        table = _range_table(backend, "split")
        index = TableIndex.build(backend, table, "i", persistent_delta=persistent)
        # A writer has added a new value to the dictionary and the index
        # but has not published the row yet (position == row_count).
        delta = table.delta
        code = delta.dictionaries[0].code_for_insert(12345)
        index.delta_index.add(code, delta.row_count)
        refs = index.probe_range(table, 12000, 13000)
        assert refs == []
        result = scan(table, snapshot_cid=10, predicate=Between("i", 0, 20000), index=index)
        assert sorted(result.column("i")) == [3, 3, 7, 8, 10, 11]
        masked = scan(table, snapshot_cid=10, predicate=Between("i", 0, 20000))
        assert sorted(masked.refs()) == sorted(result.refs())


class TestRangeScansInTransactions:
    @pytest.mark.parametrize("persistent", [False, True])
    def test_own_inserts_and_invalidations(self, tmp_path, persistent):
        from repro.core.config import DurabilityMode, EngineConfig
        from repro.core.database import Database

        db = Database(
            str(tmp_path / "db"),
            EngineConfig(
                mode=DurabilityMode.NVM,
                extent_size=2 * 1024 * 1024,
                persistent_delta_index=persistent,
            ),
        )
        try:
            db.create_table("t", {"k": DataType.INT64, "v": DataType.STRING})
            db.insert_many("t", [{"k": k, "v": f"r{k}"} for k in range(20)])
            db.merge("t")
            db.create_index("t", "k")
            for k in range(20, 30):
                db.insert("t", {"k": k, "v": f"r{k}"})
            everything = db.query("t")
            by_k = dict(zip(everything.column("k"), everything.refs()))
            assert len(by_k) == 30

            txn = db.begin()
            txn.insert("t", {"k": 15, "v": "mine"})
            txn.insert("t", {"k": 99, "v": "mine"})
            txn.delete("t", by_k[12])  # main row
            txn.delete("t", by_k[25])  # delta row
            table = db.table("t")
            predicates = [
                Between("k", 10, 26),
                Lt("k", 13),
                Le("k", 12),
                Gt("k", 24),
                Ge("k", 99),
                Between("k", 12.5, 25.0),
            ]
            for predicate in predicates:
                assert db._pick_index(table, predicate) is not None
                indexed = txn.query("t", predicate)
                masked = scan(table, predicate=predicate, ctx=txn.ctx)
                assert sorted(indexed.refs()) == sorted(masked.refs())
                seen = sorted(indexed.column("k"))
                assert 12 not in seen and 25 not in seen
                low, high, include_low, include_high = predicate.bounds()
                expected = sorted(
                    k
                    for k in [k for k in range(30) if k not in (12, 25)] + [15, 99]
                    if _python_in_range(k, low, high, include_low, include_high)
                )
                assert seen == expected, predicate
            txn.abort()
            # Outside the transaction none of its writes are visible.
            outside = sorted(db.query("t", Between("k", 10, 26)).column("k"))
            assert outside == list(range(10, 27))
        finally:
            db.close()


class TestNoPerValuePythonLoop:
    """Delta reads stay in code space: neither the index range probe
    nor ``Eq``/range predicates on the delta decode the dictionary
    value by value through ``values_list``. The steady state is
    pinned: a dictionary loaded by a restart builds its hash lookup
    once, which is a per-dictionary cost, not a per-read one."""

    def test_values_list_never_called(self, monkeypatch):
        from repro.storage.dictionary import UnsortedDictionary

        backend = VolatileBackend()
        table = _range_table(backend, "split")
        indexes = {
            column: TableIndex.build(backend, table, column)
            for column in ("i", "f", "s")
        }

        def forbidden(self):
            raise AssertionError("values_list called on the read path")

        monkeypatch.setattr(UnsortedDictionary, "values_list", forbidden)
        schema = table.schema
        for column, literals in (("i", [3, BIG + 1, 4.0, 2.5]), ("f", [2.5, 3]), ("s", ["c", "q"])):
            index = indexes[column]
            for literal in literals:
                Eq(column, literal).eval_delta(table.delta, schema)
                index.probe_range(table, literal, None)
                index.probe_range(table, None, literal, include_high=False)
                for predicate in (Lt(column, literal), Ge(column, literal)):
                    predicate.eval_delta(table.delta, schema)
                    scan(table, snapshot_cid=10, predicate=predicate, index=index)
                scan(table, snapshot_cid=10, predicate=Eq(column, literal), index=index)
                scan(table, snapshot_cid=10, predicate=Eq(column, literal))
            Between(column, literals[0], literals[-1]).eval_delta(table.delta, schema)


class TestPersistentLookupLiterals:
    """After a restart the delta dictionary answers ``code_of`` from its
    NVM hash map, which hashes raw bits: literals of another numeric
    type must still find the value python ``==`` would match."""

    def test_eq_literals_after_restart(self, tmp_path):
        from repro.core.config import DurabilityMode, EngineConfig
        from repro.core.database import Database

        path = str(tmp_path / "db")
        config = EngineConfig(
            mode=DurabilityMode.NVM,
            extent_size=2 * 1024 * 1024,
            persistent_dict_index=True,
        )
        db = Database(path, config)
        db.create_table("t", {"k": DataType.INT64, "f": DataType.FLOAT64})
        db.create_index("t", "k")
        for k in range(5):
            db.insert("t", {"k": k, "f": k + 0.5})
        db.insert("t", {"k": BIG + 1, "f": float(BIG)})
        db.close()
        db = Database(path, config)
        try:
            cases = [
                ("k", 3.0, [3]),
                ("k", np.int64(3), [3]),
                ("k", 3.5, []),
                ("k", float("nan"), []),
                ("k", float(BIG + 1), []),  # rounds to 2**53
                ("k", "3", []),
                ("f", 2.5, [2]),
                ("f", np.float64(2.5), [2]),
                ("f", BIG, [BIG + 1]),
                ("f", BIG + 1, []),  # no float equals it
            ]
            for column, literal, expected_k in cases:
                got = sorted(db.query("t", Eq(column, literal)).column("k"))
                assert got == expected_k, (column, literal)
        finally:
            db.close()
