"""Dictionary compression for column values.

Two dictionary kinds, as in Hyrise:

* :class:`UnsortedDictionary` — the delta partition's dictionary. Values
  are appended in first-seen order; lookup runs through a volatile hash
  map (rebuilt by scanning the value vector after a restart) or, in the
  persistent-index ablation, through an NVM-resident
  :class:`~repro.nvm.phash.PHashMap` that needs no rebuild.
* :class:`SortedDictionary` — the main partition's dictionary, built at
  merge time. Values are sorted, so codes preserve value order and range
  predicates translate to code ranges.

Value storage is dtype-specific: INT64/FLOAT64 values live directly in a
vector; STRING values live in the blob heap with a vector of handles.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

import numpy as np

from repro.nvm.phash import PHashMap
from repro.storage.backend import Backend, NvmBackend
from repro.storage.types import DataType
from repro.storage.vector import VectorLike

_U64_MASK = (1 << 64) - 1

_STORAGE_DTYPE = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.STRING: np.dtype(np.uint64),  # blob handles
}


#: Process-wide dictionary identity counter. Caches keyed on a
#: dictionary (predicate truth tables, join key maps) use
#: ``(uid, len)`` as the key: dictionaries are append-only, so their
#: length is their generation, and a replacement dictionary (fresh
#: delta after merge) gets a fresh uid.
_uid_counter = itertools.count(1)


def hash_key(dtype: DataType, value) -> int:
    """Stable u64 hash key for a non-null value (persistent lookups)."""
    if dtype is DataType.INT64:
        return value & _U64_MASK
    if dtype is DataType.FLOAT64:
        return int(np.float64(value).view(np.uint64))
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Bound rewrites that admit every value / no value at all.
_ALL = object()
_NONE = object()


def _exact_bound(dtype: np.dtype, bound, inclusive: bool, lower: bool):
    """Rewrite a range bound so a numpy compare at ``dtype`` is exact.

    numpy compares an int64 array with a float bound (and a float64
    array with an int bound) in float64, which rounds above 2**53;
    python compares ints and floats exactly. Returns ``(bound,
    inclusive)``, where the bound may come back as :data:`_ALL` or
    :data:`_NONE`.
    """
    if (
        dtype != object
        and isinstance(bound, (float, np.floating))
        and math.isnan(bound)
    ):
        # Nothing compares true against NaN (numpy's binary search
        # would place it past the end instead).
        return _NONE, inclusive
    if dtype == np.int64:
        if isinstance(bound, (float, np.floating)):
            f = float(bound)
            if math.isinf(f):
                return (_ALL if (f < 0) == lower else _NONE), inclusive
            # For an integer v: v >= f <=> v >= ceil(f), v > f <=>
            # v >= floor(f) + 1, v <= f <=> v <= floor(f), v < f <=>
            # v <= ceil(f) - 1.
            if lower:
                bound = math.ceil(f) if inclusive else math.floor(f) + 1
            else:
                bound = math.floor(f) if inclusive else math.ceil(f) - 1
            inclusive = True
        if isinstance(bound, (int, np.integer)):
            b = int(bound)
            if b > _INT64_MAX:
                return (_NONE if lower else _ALL), inclusive
            if b < _INT64_MIN:
                return (_ALL if lower else _NONE), inclusive
            return np.int64(b), inclusive
    elif dtype == np.float64 and isinstance(bound, (int, np.integer)):
        b = int(bound)
        try:
            f = float(b)
        except OverflowError:
            f = math.inf if b > 0 else -math.inf
        if f != b:
            # No float equals ``b``, and none lies strictly between
            # ``b`` and its nearest float ``f``: which side ``f`` rounded
            # to decides whether the rewritten bound includes ``f``.
            inclusive = f > b if lower else f < b
        return np.float64(f), inclusive
    return bound, inclusive


def values_in_range(
    values: np.ndarray,
    low=None,
    high=None,
    include_low: bool = True,
    include_high: bool = True,
) -> np.ndarray:
    """Mask of ``values`` inside ``[low, high]`` (``None`` bounds open).

    ``values`` is a dictionary's :meth:`values_array` (int64, float64
    or object). One numpy compare per bound replaces a per-value python
    loop, with python's comparison semantics kept exact (see
    :func:`_exact_bound`). The one implementation of range-over-
    dictionary: index range probes and range predicates both use it.
    """
    mask = np.ones(values.size, dtype=bool)
    for bound, inclusive, lower in (
        (low, include_low, True),
        (high, include_high, False),
    ):
        if bound is None:
            continue
        bound, inclusive = _exact_bound(values.dtype, bound, inclusive, lower)
        if bound is _NONE:
            return np.zeros(values.size, dtype=bool)
        if bound is _ALL:
            continue
        if lower:
            mask &= values >= bound if inclusive else values > bound
        else:
            mask &= values <= bound if inclusive else values < bound
    return mask


def _lookup_literal(dtype: DataType, value):
    """``value`` as :func:`hash_key` takes it for a column of ``dtype``.

    Returns None when no stored value can equal it (python ``==``): a
    non-integral float on an INT64 column, or a literal of another
    kind, or NaN. The volatile hash map gets this from python's
    cross-type hashing; the persistent lookup hashes raw bits.
    """
    if dtype is DataType.STRING:
        return value if isinstance(value, str) else None
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        cast = int(value) if dtype is DataType.INT64 else float(value)
    except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
        return None
    return cast if cast == value else None


class UnsortedDictionary:
    """Append-only dictionary for the delta partition.

    The *value vector* is the durable authority; lookup structures are
    accelerators. ``code_for_insert`` publishes the value durably before
    touching any persistent lookup, so a crash can only leave the lookup
    *behind* the values, which :meth:`attach` repairs.
    """

    def __init__(
        self,
        dtype: DataType,
        backend: Backend,
        values: VectorLike,
        persistent_lookup: Optional[PHashMap] = None,
    ):
        self.dtype = dtype
        self._backend = backend
        self.values = values
        self.persistent_lookup = persistent_lookup
        self.uid = next(_uid_counter)
        # Serialises code assignment: two writers probing-then-appending
        # concurrently could hand out duplicate codes for one value.
        self._insert_lock = threading.Lock()
        self._lookup: Optional[dict] = None
        # Decode accelerators for the vectorized read path: python
        # values in code order, grown incrementally, plus a numpy
        # mirror (int64/float64/object) rebuilt only after growth.
        self._decode_values: list = []
        self._decode_arr: Optional[np.ndarray] = None

    @classmethod
    def create(
        cls,
        dtype: DataType,
        backend: Backend,
        persistent_lookup: bool = False,
        chunk_capacity: int = 1024,
    ) -> "UnsortedDictionary":
        """New empty dictionary; ``persistent_lookup`` needs an NVM backend."""
        values = backend.make_vector(_STORAGE_DTYPE[dtype], chunk_capacity)
        phash = None
        if persistent_lookup:
            if not isinstance(backend, NvmBackend):
                raise ValueError("persistent lookup requires an NVM backend")
            phash = PHashMap.create(backend.pool)
        out = cls(dtype, backend, values, phash)
        out._lookup = {}
        return out

    @classmethod
    def from_values(
        cls, dtype: DataType, backend: Backend, values: Sequence
    ) -> "UnsortedDictionary":
        """Bulk-load a dictionary from values in code order (restore path)."""
        out = cls.create(dtype, backend)
        if values:
            if dtype is DataType.STRING:
                raw = np.fromiter(
                    (backend.put_str(v) for v in values),
                    dtype=np.uint64,
                    count=len(values),
                )
            else:
                raw = np.asarray(list(values), dtype=_STORAGE_DTYPE[dtype])
            out.values.extend(raw)
        out._lookup = None  # rebuilt lazily from the loaded values
        return out

    @classmethod
    def attach(
        cls,
        dtype: DataType,
        backend: NvmBackend,
        values_offset: int,
        lookup_offset: int = 0,
    ) -> "UnsortedDictionary":
        """Re-open after restart.

        With a persistent lookup the dictionary is ready immediately
        unless a crash left the lookup short, in which case the missing
        tail entries are re-inserted (work bounded by the in-flight
        transactions at crash time). Without one, the volatile lookup is
        rebuilt lazily on first insert — an O(delta) cost the instant-
        restart experiments account for.
        """
        values = backend.attach_vector(values_offset)
        phash = None
        if lookup_offset:
            phash = PHashMap.attach(backend.pool, lookup_offset)
        out = cls(dtype, backend, values, phash)
        if phash is not None and len(phash) != len(values):
            out._repair_persistent_lookup()
        return out

    def _repair_persistent_lookup(self) -> None:
        self._ensure_lookup()
        assert self.persistent_lookup is not None
        present = set()
        for _, code in self.persistent_lookup.items():
            present.add(code)
        for code in range(len(self.values)):
            if code not in present:
                value = self.value_of(code)
                self.persistent_lookup.insert(hash_key(self.dtype, value), code)

    def __len__(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def value_of(self, code: int):
        """Decode one dictionary code back to its value."""
        raw = self.values.get(code)
        if self.dtype is DataType.STRING:
            return self._backend.get_str(int(raw))
        if self.dtype is DataType.INT64:
            return int(raw)
        return float(raw)

    def values_list(self) -> list:
        """All values in code order (used by merge and checkpoints)."""
        raw = self.values.to_numpy()
        if self.dtype is DataType.STRING:
            return [self._backend.get_str(int(h)) for h in raw]
        if self.dtype is DataType.INT64:
            return [int(v) for v in raw]
        return [float(v) for v in raw]

    def _decode_table(self) -> list:
        """Values in code order, cached and grown incrementally.

        The tail is stored with one slice assignment, so two readers
        growing the table at once write the same values to the same
        slots instead of appending them twice.
        """
        total = len(self.values)
        cached = len(self._decode_values)
        if cached < total:
            self._decode_values[cached:total] = [
                self.value_of(code) for code in range(cached, total)
            ]
        return self._decode_values

    def values_array(self) -> np.ndarray:
        """Values in code order as a numpy array (int64/float64/object).

        Cached alongside :meth:`_decode_table`; rebuilt only after the
        dictionary has grown. Callers must not mutate the result.
        """
        table = self._decode_table()
        arr = self._decode_arr
        if arr is None or arr.size < len(table):
            if self.dtype is DataType.STRING:
                arr = np.asarray(table, dtype=object)
            else:
                arr = np.asarray(
                    table,
                    dtype=(
                        np.int64
                        if self.dtype is DataType.INT64
                        else np.float64
                    ),
                )
            self._decode_arr = arr
        return arr

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Decode an array of valid (non-NULL) codes to a values array.

        Returns a fresh, writable array; NULL handling is the caller's
        job (pre-substitute code 0 and patch afterwards).
        """
        arr = self.values_array()
        if arr.size == 0:
            # Only reachable when every incoming code was NULL.
            if self.dtype is DataType.STRING:
                return np.full(len(codes), None, dtype=object)
            return np.zeros(len(codes), dtype=arr.dtype)
        return np.take(arr, np.asarray(codes, dtype=np.int64))

    def decode_batch(self, codes: np.ndarray, null_mask: np.ndarray) -> list:
        """Vectorized decode: code array + NULL mask -> python values.

        One ``np.take`` over a materialized values array replaces the
        per-code loop; NULL positions are patched afterwards.
        """
        if not self._decode_table():
            # Only possible when every code is NULL.
            return [None] * len(codes)
        safe = np.where(null_mask, 0, codes).astype(np.int64, copy=False)
        out = np.take(self.values_array(), safe).tolist()
        if null_mask.any():
            for i in np.nonzero(null_mask)[0].tolist():
                out[i] = None
        return out

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def _ensure_lookup(self) -> None:
        if self._lookup is not None:
            return
        self._lookup = {
            value: code for code, value in enumerate(self.values_list())
        }

    def code_of(self, value) -> Optional[int]:
        """Code of ``value`` if present, else None."""
        if self.persistent_lookup is not None and self._lookup is None:
            # Restart path: answer from NVM without a rebuild.
            value = _lookup_literal(self.dtype, value)
            if value is None:
                return None
            for code in self.persistent_lookup.iter_values(
                hash_key(self.dtype, value)
            ):
                if code < len(self.values) and self.value_of(code) == value:
                    return code
            return None
        self._ensure_lookup()
        return self._lookup.get(value)

    def code_for_insert(self, value) -> int:
        """Code of ``value``, appending it to the dictionary if new."""
        with self._insert_lock:
            existing = self.code_of(value)
            if existing is not None:
                return existing
            if self.dtype is DataType.STRING:
                raw = self._backend.put_str(value)
            else:
                raw = value
            code = self.values.append(raw)
            if self._lookup is not None:
                self._lookup[value] = code
            if self.persistent_lookup is not None:
                self.persistent_lookup.insert(hash_key(self.dtype, value), code)
            return code

    def codes_for_insert(self, values: Sequence) -> np.ndarray:
        """Codes for a batch of non-null values, appending new ones.

        A single ``np.unique`` pass replaces per-value probes: each
        distinct value is looked up once, and all missing values are
        appended with one vector ``extend`` — in first-occurrence order,
        so the resulting dictionary is identical to what a loop of
        :meth:`code_for_insert` would have produced.
        """
        n = len(values)
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        with self._insert_lock:
            return self._codes_for_insert_locked(values)

    def _codes_for_insert_locked(self, values: Sequence) -> np.ndarray:
        if self.dtype is DataType.STRING:
            arr = np.asarray(values, dtype=object)
        else:
            arr = np.asarray(
                values,
                dtype=np.int64 if self.dtype is DataType.INT64 else np.float64,
            )
        uniques, first_pos, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        if self.persistent_lookup is not None and self._lookup is None:
            # Restart path: probe NVM per distinct value rather than
            # forcing the O(delta-dict) volatile rebuild.
            lookup = self.code_of
        else:
            self._ensure_lookup()
            lookup = self._lookup.get
        codes = np.empty(len(uniques), dtype=np.uint64)
        missing: list[tuple[int, int, object]] = []
        for i, value in enumerate(uniques.tolist()):
            code = lookup(value)
            if code is None:
                missing.append((int(first_pos[i]), i, value))
            else:
                codes[i] = code
        if missing:
            missing.sort()  # np.unique sorts by value; restore insert order
            base = len(self.values)
            if self.dtype is DataType.STRING:
                raws = np.fromiter(
                    (self._backend.put_str(v) for _, _, v in missing),
                    dtype=np.uint64,
                    count=len(missing),
                )
            else:
                raws = np.asarray(
                    [v for _, _, v in missing], dtype=_STORAGE_DTYPE[self.dtype]
                )
            self.values.extend(raws)
            for code, (_, i, value) in enumerate(missing, start=base):
                codes[i] = code
                if self._lookup is not None:
                    self._lookup[value] = code
                if self.persistent_lookup is not None:
                    self.persistent_lookup.insert(
                        hash_key(self.dtype, value), code
                    )
        return codes[inverse.reshape(-1)]


class SortedDictionary:
    """Order-preserving dictionary for the (immutable) main partition."""

    def __init__(self, dtype: DataType, backend: Backend, values: VectorLike):
        self.dtype = dtype
        self._backend = backend
        self.values = values
        self.uid = next(_uid_counter)
        self._cache = None  # np.ndarray for numerics, list[str] for strings
        self._values_arr: Optional[np.ndarray] = None

    @classmethod
    def build(
        cls, dtype: DataType, backend: Backend, sorted_values: Sequence
    ) -> "SortedDictionary":
        """Persist a dictionary from already-sorted, distinct values."""
        storage = backend.make_vector(_STORAGE_DTYPE[dtype], chunk_capacity=4096)
        if dtype is DataType.STRING:
            handles = np.fromiter(
                (backend.put_str(v) for v in sorted_values),
                dtype=np.uint64,
                count=len(sorted_values),
            )
            if len(sorted_values):
                storage.extend(handles)
        elif len(sorted_values):
            storage.extend(
                np.asarray(list(sorted_values), dtype=_STORAGE_DTYPE[dtype])
            )
        out = cls(dtype, backend, storage)
        return out

    @classmethod
    def attach(
        cls, dtype: DataType, backend: NvmBackend, values_offset: int
    ) -> "SortedDictionary":
        """Re-open after restart; decode caches fill lazily on first use."""
        return cls(dtype, backend, backend.attach_vector(values_offset))

    def __len__(self) -> int:
        return len(self.values)

    def _materialise(self):
        if self._cache is None:
            raw = self.values.to_numpy()
            if self.dtype is DataType.STRING:
                self._cache = [self._backend.get_str(int(h)) for h in raw]
            else:
                self._cache = raw
        return self._cache

    def value_of(self, code: int):
        """Decode one code (codes are positions in sorted order)."""
        cache = self._materialise()
        value = cache[code]
        if self.dtype is DataType.INT64:
            return int(value)
        if self.dtype is DataType.FLOAT64:
            return float(value)
        return value

    def values_list(self) -> list:
        cache = self._materialise()
        if self.dtype is DataType.STRING:
            return list(cache)
        if self.dtype is DataType.INT64:
            return [int(v) for v in cache]
        return [float(v) for v in cache]

    def values_array(self) -> np.ndarray:
        """Values in code (= sorted) order as a numpy array.

        int64/float64 for numerics, object for strings. The main
        dictionary is immutable, so the array is cached for the
        partition's lifetime. Callers must not mutate the result.
        """
        if self._values_arr is None:
            cache = self._materialise()
            if self.dtype is DataType.STRING:
                self._values_arr = np.asarray(cache, dtype=object)
            else:
                self._values_arr = np.asarray(
                    cache,
                    dtype=(
                        np.int64
                        if self.dtype is DataType.INT64
                        else np.float64
                    ),
                )
        return self._values_arr

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Decode an array of valid (non-NULL) codes to a values array.

        Returns a fresh, writable array; NULL handling is the caller's
        job (pre-substitute code 0 and patch afterwards).
        """
        arr = self.values_array()
        if arr.size == 0:
            if self.dtype is DataType.STRING:
                return np.full(len(codes), None, dtype=object)
            return np.zeros(len(codes), dtype=arr.dtype)
        return np.take(arr, np.asarray(codes, dtype=np.int64))

    def decode(self, codes: np.ndarray) -> list:
        """Decode an array of codes to values (projection materialise)."""
        if self.dtype is DataType.STRING:
            return np.take(self.values_array(), codes).tolist()
        # ``tolist`` yields python ints/floats, matching the scalar path.
        return np.take(self._materialise(), codes).tolist()

    # ------------------------------------------------------------------
    # Order-aware lookups (power the code-space predicates)
    # ------------------------------------------------------------------

    def code_of(self, value) -> Optional[int]:
        """Exact code of ``value``, or None if absent."""
        pos = self.lower_bound(value)
        if pos < len(self) and self.value_of(pos) == value:
            return pos
        return None

    def code_range(
        self, low=None, high=None, include_low=True, include_high=True
    ) -> tuple[int, int]:
        """``[lo, hi)`` codes of the values in a range (``None`` = open).

        The sorted counterpart of :func:`values_in_range`: codes
        preserve value order, so a range is two binary searches.
        """
        lo, hi = 0, len(self)
        if low is not None:
            lo = self._bound_code(low, include_low, lower=True)
            if self.dtype is DataType.FLOAT64:
                # NaN sorts last and compares false against the bound.
                hi = int(np.searchsorted(self._materialise(), np.nan))
        if high is not None:
            hi = min(hi, self._bound_code(high, include_high, lower=False))
        return lo, hi

    def _bound_code(self, value, inclusive: bool, lower: bool) -> int:
        """A lower bound's first matching code, or an upper bound's
        first code past the matches."""
        cache = self._materialise()
        if self.dtype is DataType.STRING:
            search = bisect_left if inclusive == lower else bisect_right
            return search(cache, value)
        bound, inclusive = _exact_bound(cache.dtype, value, inclusive, lower)
        if bound is _ALL:
            return 0 if lower else len(cache)
        if bound is _NONE:
            return len(cache) if lower else 0
        side = "left" if inclusive == lower else "right"
        return int(np.searchsorted(cache, bound, side=side))

    def lower_bound(self, value) -> int:
        """First code whose value is >= ``value`` (== len when none)."""
        return self._bound_code(value, inclusive=True, lower=True)

    def upper_bound(self, value) -> int:
        """First code whose value is > ``value`` (== len when none)."""
        return self._bound_code(value, inclusive=False, lower=True)
