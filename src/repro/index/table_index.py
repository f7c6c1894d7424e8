"""Composite per-table index: group-key over main + delta index.

One :class:`TableIndex` covers one column of one table. The group-key
half is regenerated at every merge (it indexes an immutable main
generation); the delta half is maintained per insert. The index is
stamped with the exact ``(main, delta)`` partition pair it covers so a
scan racing an online-merge cutover can detect a stale probe and fall
back to a full scan of its captured generation.
"""

from __future__ import annotations

import numpy as np

from repro.index.delta_index import (
    DeltaIndex,
    PersistentDeltaIndex,
    VolatileDeltaIndex,
)
from repro.index.groupkey import GroupKeyIndex
from repro.storage.backend import Backend, NvmBackend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import values_in_range
from repro.storage.main import MainPartition
from repro.storage.table import _DELTA_BIT, Table, pack_rowref
from repro.storage.types import NULL_CODE


def _make_delta_index(backend: Backend, persistent: bool) -> DeltaIndex:
    if persistent:
        if not isinstance(backend, NvmBackend):
            raise ValueError("persistent delta index requires NVM backend")
        return PersistentDeltaIndex.create(backend)
    return VolatileDeltaIndex()


class TableIndex:
    """Index over ``column`` of ``table`` spanning both partitions."""

    def __init__(
        self,
        column: str,
        group_key: GroupKeyIndex,
        delta_index: DeltaIndex,
        main_part: MainPartition | None = None,
        delta_part: DeltaPartition | None = None,
    ):
        self.column = column
        self.group_key = group_key
        self.delta_index = delta_index
        self._delta_synced_rows = 0
        # Generation stamps: the partition objects this index was built
        # against. Identity comparison — partitions are replaced, never
        # mutated in place, by a merge cutover.
        self.main_part = main_part
        self.delta_part = delta_part

    @classmethod
    def build(
        cls,
        backend: Backend,
        table: Table,
        column: str,
        persistent_delta: bool = False,
    ) -> "TableIndex":
        """Create and populate an index for an existing table."""
        main, delta = table.content
        return cls.from_parts(
            backend, table.schema, column, main, delta, persistent_delta
        )

    @classmethod
    def from_parts(
        cls,
        backend: Backend,
        schema,
        column: str,
        main: MainPartition,
        delta: DeltaPartition,
        persistent_delta: bool = False,
        group_key: GroupKeyIndex | None = None,
    ) -> "TableIndex":
        """Build for an explicit ``(main, delta)`` pair.

        The online merge uses this at cutover: the group-key half over
        the new main was already built during the lock-free fold phase
        and is passed in; only the (small) tail delta is indexed here.
        """
        col = schema.column_index(column)
        if group_key is None:
            group_key = GroupKeyIndex.build(backend, main.columns[col])
        delta_index = _make_delta_index(backend, persistent_delta)
        out = cls(
            column, group_key, delta_index, main_part=main, delta_part=delta
        )
        out.delta_index.rebuild(delta, col)
        out._delta_synced_rows = delta.row_count
        if isinstance(delta_index, PersistentDeltaIndex):
            # rebuild() is a no-op for the persistent variant; populate
            # explicitly when indexing a table that already has delta rows.
            for position, code in enumerate(delta.column_codes(col)):
                delta_index.add(int(code), position)
        return out

    def covers(self, main: MainPartition, delta: DeltaPartition) -> bool:
        """True when this index was built for exactly this pair."""
        return self.main_part is main and self.delta_part is delta

    def on_insert(self, code: int, position: int) -> None:
        """Maintain the delta half after a row publishes."""
        self.delta_index.add(code, position)
        self._delta_synced_rows = max(self._delta_synced_rows, position + 1)

    def on_insert_many(self, codes: np.ndarray, first: int) -> None:
        """Maintain the delta half for a contiguous published batch.

        One vectorized registration instead of a per-row python loop —
        ``codes[i]`` is the indexed column's code of delta row
        ``first + i``.
        """
        n = len(codes)
        if n == 0:
            return
        self.delta_index.add_many(np.asarray(codes), first)
        self._delta_synced_rows = max(self._delta_synced_rows, first + n)

    def ensure_delta_current(self, schema, delta: DeltaPartition) -> None:
        """Rebuild the delta half if a restart left it stale."""
        col = schema.column_index(self.column)
        if (
            self.delta_index.needs_rebuild_after_restart
            and self._delta_synced_rows < delta.row_count
        ):
            self.delta_index.rebuild(delta, col)
            self._delta_synced_rows = delta.row_count

    # ------------------------------------------------------------------
    # Lookups (positions only; visibility filtering happens in the scan)
    # ------------------------------------------------------------------

    def probe_equal(self, table: Table, value, content=None) -> list[int]:
        """Packed rowrefs of candidate rows with ``column == value``."""
        main, delta = content if content is not None else table.content
        col = table.schema.column_index(self.column)
        self.ensure_delta_current(table.schema, delta)
        refs: list[int] = []
        if value is not None:
            main_code = main.columns[col].dictionary.code_of(value)
            if main_code is not None:
                refs.extend(
                    pack_rowref(False, int(p))
                    for p in self.group_key.lookup(main_code)
                )
            delta_code = delta.dictionaries[col].code_of(value)
            if delta_code is not None:
                positions = self.delta_index.lookup(delta_code)
                limit = delta.row_count
                refs.extend(
                    pack_rowref(True, int(p)) for p in positions if p < limit
                )
        return refs

    def probe_range(
        self,
        table: Table,
        low=None,
        high=None,
        include_low: bool = True,
        include_high: bool = True,
        content=None,
    ) -> list[int]:
        """Packed rowrefs of candidates with ``column`` in the range.

        ``None`` bounds are open. On main this is one contiguous
        positions slice (codes are dictionary-ordered). On the delta the
        dictionary is unsorted: one numpy compare over its cached values
        array (:func:`values_in_range`) picks the matching codes, and
        only their positions are collected. NULLs never match a range.
        """
        main, delta = content if content is not None else table.content
        col = table.schema.column_index(self.column)
        self.ensure_delta_current(table.schema, delta)

        code_lo, code_hi = main.columns[col].dictionary.code_range(
            low, high, include_low, include_high
        )
        # A main rowref is its position (the delta bit is clear).
        refs = self.group_key.lookup_range(code_lo, code_hi).tolist()

        values = delta.dictionaries[col].values_array()
        matching = np.flatnonzero(
            values_in_range(values, low, high, include_low, include_high)
        )
        if matching.size:
            positions = np.concatenate(
                [self.delta_index.lookup(code) for code in matching.tolist()]
            )
            positions = positions[positions < delta.row_count]
            refs.extend((positions | np.uint64(_DELTA_BIT)).tolist())
        return refs

    def probe_null(self, table: Table, content=None) -> list[int]:
        """Packed rowrefs of candidate rows with ``column IS NULL``."""
        main, delta = content if content is not None else table.content
        col = table.schema.column_index(self.column)
        self.ensure_delta_current(table.schema, delta)
        main_col = main.columns[col]
        refs = [
            pack_rowref(False, int(p))
            for p in self.group_key.lookup(main_col.null_code)
        ]
        limit = delta.row_count
        refs.extend(
            pack_rowref(True, int(p))
            for p in self.delta_index.lookup(NULL_CODE)
            if p < limit
        )
        return refs

    def memory_bytes(self) -> int:
        return self.group_key.memory_bytes()
