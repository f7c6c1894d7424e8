"""Predicates evaluated in dictionary-code space.

Evaluation is two-phase, exploiting dictionary compression:

* **main** — the dictionary is sorted, so comparisons become code-range
  tests computed with two binary searches, independent of row count.
* **delta** — the dictionary is unsorted. Equality-style predicates
  (``Eq``/``Ne``/``In``) probe the dictionary's hash lookup for their
  literal codes and compare the code array against them. Range
  predicates compute a per-code truth table with one numpy compare over
  the dictionary's values array (:func:`values_in_range`), cached and
  extended as the dictionary grows, and gather it over the code array.

NULL semantics are SQL-like: comparisons never match NULL; use
:class:`IsNull` / :class:`NotNull` explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import values_in_range
from repro.storage.main import MainPartition
from repro.storage.schema import Schema
from repro.storage.types import NULL_CODE


class Predicate(ABC):
    """Boolean condition over one row."""

    @abstractmethod
    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        """Row mask over the main partition."""

    @abstractmethod
    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        """Row mask over the delta partition."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class _ColumnPredicate(Predicate):
    """Base for single-column predicates."""

    def __init__(self, column: str):
        self.column = column

    def _main_codes(self, main: MainPartition, schema: Schema):
        col = schema.column_index(self.column)
        return main.columns[col], main.column_codes(col)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        return self._delta_mask(delta.column_codes(col), delta.dictionaries[col])

    def _delta_mask(self, codes: np.ndarray, dictionary) -> np.ndarray:
        """Row mask over delta ``codes`` encoded by ``dictionary``."""
        raise NotImplementedError


class _RangePredicate(_ColumnPredicate):
    """Base for range predicates: one shared code-space evaluation.

    ``low``/``high`` (``None`` = open) and their inclusivity are set by
    the subclass; :meth:`bounds` hands them to index range probes.
    """

    #: Distinct dictionaries whose truth tables one predicate caches
    #: (a predicate is usually scanned against one or two tables).
    _TRUTH_CACHE_LIMIT = 8

    def __init__(self, column: str, low, high, include_low, include_high):
        super().__init__(column)
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        # dictionary uid -> (dictionary length, per-code truth table).
        # Predicates are treated as immutable after construction.
        self._truth_cache: dict = {}

    def bounds(self) -> tuple:
        """``(low, high, include_low, include_high)``."""
        return self.low, self.high, self.include_low, self.include_high

    def _truth_table(self, dictionary) -> np.ndarray:
        """Per-code truth table, cached per dictionary state.

        Delta dictionaries are append-only, so their length is their
        generation: a table cached at the same length is reused as-is,
        and a grown dictionary only evaluates the new values (the old
        prefix is unchanged). A fresh delta (after merge) has a fresh
        uid, so stale tables can never be consulted.
        """
        values = dictionary.values_array()
        size = values.size
        cached = self._truth_cache.get(dictionary.uid)
        if cached is not None and cached[0] == size:
            return cached[1]
        start = cached[0] if cached is not None and cached[0] < size else 0
        truth = values_in_range(values[start:], *self.bounds())
        if start:
            truth = np.concatenate([cached[1], truth])
        if (
            dictionary.uid not in self._truth_cache
            and len(self._truth_cache) >= self._TRUTH_CACHE_LIMIT
        ):
            self._truth_cache.pop(next(iter(self._truth_cache)))
        self._truth_cache[dictionary.uid] = (size, truth)
        return truth

    def _delta_mask(self, codes: np.ndarray, dictionary) -> np.ndarray:
        truth = self._truth_table(dictionary)
        mask = np.zeros(codes.size, dtype=bool)
        non_null = codes != NULL_CODE
        if non_null.any():
            mask[non_null] = truth[codes[non_null]]
        return mask

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        return _range_mask(codes, *column.dictionary.code_range(*self.bounds()))


def _range_mask(codes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mask of codes in [lo, hi) — NULL codes sit above every range."""
    if hi <= lo:
        return np.zeros(codes.size, dtype=bool)
    return (codes >= np.uint32(lo)) & (codes < np.uint32(hi))


def _delta_codes(dictionary, values) -> list[int]:
    """Delta-dictionary codes of ``values``: one hash probe each.

    A value that is not equal to itself (NaN) matches nothing, as under
    python ``==``; the hash probe alone could find it by identity.
    """
    codes = (dictionary.code_of(value) for value in values if value == value)
    return [code for code in codes if code is not None]


def _codes_in(codes: np.ndarray, matching: list[int]) -> np.ndarray:
    """Mask of codes in ``matching``: a single membership test over the
    code array (instead of OR-ing one full-length mask per literal)."""
    if not matching:
        return np.zeros(codes.size, dtype=bool)
    if len(matching) == 1:
        return codes == np.uint32(matching[0])
    return np.isin(codes, np.asarray(matching, dtype=np.uint32))


class Eq(_ColumnPredicate):
    """``column == value``."""

    def __init__(self, column: str, value):
        super().__init__(column)
        self.value = value

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        code = column.dictionary.code_of(self.value)
        if code is None:
            return np.zeros(codes.size, dtype=bool)
        return codes == np.uint32(code)

    def _delta_mask(self, codes: np.ndarray, dictionary) -> np.ndarray:
        return _codes_in(codes, _delta_codes(dictionary, (self.value,)))


class Ne(_ColumnPredicate):
    """``column != value`` (NULLs excluded, per SQL)."""

    def __init__(self, column: str, value):
        super().__init__(column)
        self.value = value

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        mask = codes != np.uint32(column.null_code)
        code = column.dictionary.code_of(self.value)
        if code is not None:
            mask &= codes != np.uint32(code)
        return mask

    def _delta_mask(self, codes: np.ndarray, dictionary) -> np.ndarray:
        mask = codes != np.uint32(NULL_CODE)
        for code in _delta_codes(dictionary, (self.value,)):
            mask &= codes != np.uint32(code)
        return mask


class Lt(_RangePredicate):
    """``column < value``."""

    def __init__(self, column: str, value):
        super().__init__(column, None, value, True, False)
        self.value = value


class Le(_RangePredicate):
    """``column <= value``."""

    def __init__(self, column: str, value):
        super().__init__(column, None, value, True, True)
        self.value = value


class Gt(_RangePredicate):
    """``column > value``."""

    def __init__(self, column: str, value):
        super().__init__(column, value, None, False, True)
        self.value = value


class Ge(_RangePredicate):
    """``column >= value``."""

    def __init__(self, column: str, value):
        super().__init__(column, value, None, True, True)
        self.value = value


class Between(_RangePredicate):
    """``low <= column <= high``."""

    def __init__(self, column: str, low, high):
        super().__init__(column, low, high, True, True)


class In(_ColumnPredicate):
    """``column IN (values)``."""

    def __init__(self, column: str, values):
        super().__init__(column)
        self.values = set(values)

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        matching = [
            code
            for code in (
                column.dictionary.code_of(value) for value in self.values
            )
            if code is not None
        ]
        return _codes_in(codes, matching)

    def _delta_mask(self, codes: np.ndarray, dictionary) -> np.ndarray:
        return _codes_in(codes, _delta_codes(dictionary, self.values))


class IsNull(_ColumnPredicate):
    """``column IS NULL``."""

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        return codes == np.uint32(column.null_code)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        return delta.column_codes(col) == np.uint32(NULL_CODE)


class NotNull(_ColumnPredicate):
    """``column IS NOT NULL``."""

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        column, codes = self._main_codes(main, schema)
        return codes != np.uint32(column.null_code)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        return delta.column_codes(col) != np.uint32(NULL_CODE)


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise ValueError("And needs at least one predicate")
        self.parts = parts

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_main(main, schema)
        for part in self.parts[1:]:
            mask &= part.eval_main(main, schema)
        return mask

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_delta(delta, schema)
        for part in self.parts[1:]:
            mask &= part.eval_delta(delta, schema)
        return mask


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise ValueError("Or needs at least one predicate")
        self.parts = parts

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_main(main, schema)
        for part in self.parts[1:]:
            mask |= part.eval_main(main, schema)
        return mask

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_delta(delta, schema)
        for part in self.parts[1:]:
            mask |= part.eval_delta(delta, schema)
        return mask


class Not(Predicate):
    """Negation. NULL rows never match (matching SQL three-valued logic
    for the operators provided here would require tracking unknowns; we
    take the simpler closed-world reading and document it)."""

    def __init__(self, part: Predicate):
        self.part = part

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        return ~self.part.eval_main(main, schema)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        return ~self.part.eval_delta(delta, schema)
