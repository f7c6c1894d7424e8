"""The traced run: timers around calls into each layer's functions.

:class:`Tracer` wraps the public entry points of each package under
``src/repro`` (plus a few internal ones the layer metrics need, such as
the merge steps and the WAL sync) and keeps one span per call in
memory: name, start, end, parent, thread and benchmark phase. Wrappers
are installed wherever a caller binds the name — a module that did
``from repro.query.scan import scan`` gets the wrapped ``scan`` too —
so no call slips past because of how it was imported. Nothing in the
engine is edited; :meth:`Tracer.uninstall` puts every original back.

Spans are written out as gzipped CSV when the run ends, and
:func:`layer_totals` folds them into each layer's call count, busy time
(outermost spans of the layer), self time (span time not covered by
child spans) and wait time (time in spans marked as waits).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import threading
import time

# (target, span name, is_wait). A target is "module:function" or
# "module:Class.method". A wait is a call that blocks until something
# else is done: the persist barrier, the durable-commit barrier and its
# fsync, the join of the log-replay workers.
TARGETS = [
    # nvm: the persistence primitives
    ("repro.nvm.pool:PMemPool.flush", "nvm.flush", False),
    ("repro.nvm.pool:PMemPool.drain", "nvm.drain", True),
    # wal: appends, the commit barrier, the fsync leader, checkpoints
    ("repro.wal.writer:LogWriter.log_insert", "wal.append", False),
    ("repro.wal.writer:LogWriter.log_insert_many", "wal.append", False),
    ("repro.wal.writer:LogWriter.log_invalidate", "wal.append", False),
    ("repro.wal.writer:LogWriter.log_abort", "wal.append", False),
    ("repro.wal.writer:LogWriter.log_merge", "wal.append", False),
    ("repro.wal.writer:LogWriter.append_commit", "wal.append", False),
    ("repro.wal.writer:LogWriter.commit_barrier", "wal.commit_wait", True),
    ("repro.wal.writer:LogWriter._sync_to", "wal.fsync", True),
    ("repro.core.durability:LogDriver.checkpoint", "wal.checkpoint", False),
    ("repro.wal.checkpoint:snapshot_table", "wal.checkpoint_snapshot", False),
    ("repro.wal.checkpoint:write_checkpoint", "wal.checkpoint_write", False),
    ("repro.wal.checkpoint:CheckpointChain.publish", "wal.checkpoint_publish", False),
    # txn: the MVCC transaction manager
    ("repro.txn.manager:TransactionManager.begin", "txn.begin", False),
    ("repro.txn.manager:TransactionManager.insert_row", "txn.insert", False),
    ("repro.txn.manager:TransactionManager.insert_many", "txn.insert_many", False),
    ("repro.txn.manager:TransactionManager.update", "txn.update", False),
    ("repro.txn.manager:TransactionManager.invalidate", "txn.invalidate", False),
    ("repro.txn.manager:TransactionManager.commit", "txn.commit", False),
    ("repro.txn.manager:TransactionManager.abort", "txn.abort", False),
    # storage: dictionary encode, delta append, the merge steps
    ("repro.storage.delta:DeltaPartition.encode_row", "storage.encode", False),
    ("repro.storage.delta:DeltaPartition.encode_columns", "storage.encode", False),
    ("repro.storage.delta:DeltaPartition.insert_encoded", "storage.append", False),
    ("repro.storage.delta:DeltaPartition.insert_rows_encoded", "storage.append", False),
    ("repro.storage.delta:DeltaPartition.bulk_load", "storage.append", False),
    ("repro.storage.merge:freeze_plan", "storage.merge_freeze", False),
    ("repro.storage.merge:fold_generation", "storage.merge_fold", False),
    ("repro.storage.merge:fixup_mvcc", "storage.merge_fixup", False),
    ("repro.storage.merge:rebuild_tail_delta", "storage.merge_tail", False),
    # index: probes, maintenance, lazy delta rebuild
    ("repro.index.table_index:TableIndex.probe_equal", "index.probe", False),
    ("repro.index.table_index:TableIndex.probe_range", "index.probe", False),
    ("repro.index.table_index:TableIndex.probe_null", "index.probe", False),
    ("repro.index.table_index:TableIndex.on_insert", "index.maintain", False),
    ("repro.index.table_index:TableIndex.on_insert_many", "index.maintain", False),
    ("repro.index.table_index:TableIndex.build", "index.build", False),
    ("repro.index.delta_index:VolatileDeltaIndex.rebuild", "index.delta_rebuild", False),
    ("repro.index.delta_index:PersistentDeltaIndex.rebuild", "index.delta_rebuild", False),
    # query: scans, predicates on the delta, aggregates, joins
    ("repro.query.scan:scan", "query.scan", False),
    ("repro.query.predicate:_ColumnPredicate.eval_delta", "query.delta_predicate", False),
    ("repro.query.predicate:IsNull.eval_delta", "query.delta_predicate", False),
    ("repro.query.predicate:NotNull.eval_delta", "query.delta_predicate", False),
    ("repro.query.aggregate:aggregate", "query.aggregate", False),
    ("repro.query.join:hash_join", "query.join", False),
    # recovery; the recovering thread only hands the per-table queues to
    # the replay workers and then blocks until they are done
    ("repro.recovery.nvm_recovery:recover_nvm", "recovery.nvm", False),
    ("repro.recovery.log_recovery:recover_log", "recovery.log", False),
    ("repro.recovery.parallel_replay:apply_partition", "recovery.replay_wait", True),
    # core: the engine facade
    ("repro.core.database:Database.__init__", "core.open", False),
    ("repro.core.database:Database.insert", "core.insert", False),
    ("repro.core.database:Database.insert_many", "core.insert_many", False),
    ("repro.core.database:Database.bulk_insert", "core.bulk_insert", False),
    ("repro.core.database:Database.query", "core.query", False),
    ("repro.core.database:Database.merge", "core.merge", False),
    ("repro.core.database:Database.checkpoint", "core.checkpoint", False),
    ("repro.core.database:Database.begin", "core.begin", False),
    ("repro.core.database:Transaction.insert", "core.txn_insert", False),
    ("repro.core.database:Transaction.update", "core.txn_update", False),
    ("repro.core.database:Transaction.query", "core.txn_query", False),
    ("repro.core.database:Transaction.commit", "core.txn_commit", False),
    ("repro.core.database:Transaction.abort", "core.txn_abort", False),
    # server: the client's view of one request
    ("repro.server.client:ReproClient.call", "server.rtt", False),
]

LAYERS = ("nvm", "storage", "index", "txn", "wal", "recovery", "query", "core", "server")


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: One list per span: [name, start, end, parent, thread, phase, wait].
        self.spans: list[list] = []
        #: Benchmark phase new spans are tagged with; None records nothing.
        self.phase: str | None = None
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        """Counters measured at a span boundary, per benchmark phase."""
        key = f"{self.phase}:{key}"
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, wait: bool, on_result=None):
        tracer = self
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), tracer.phase, wait]
            spans.append(span)
            stack.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target where it is defined and wherever it is bound."""
        for target, name, wait in targets:
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            hook = _RESULT_HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, wait, hook))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, name, wait, hook))
                else:
                    new = self.wrap(raw, name, wait, hook)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
            else:
                original = getattr(module, attr)
                new = self.wrap(original, name, wait, hook)
                for mod in list(sys.modules.values()):
                    namespace = getattr(mod, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(mod, key, new)
                            self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write every span as a gzipped CSV line.

        Columns: id, name, start, end, parent id (empty for a root),
        thread, phase. Times are ``time.perf_counter`` seconds.
        """
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start,end,parent,thread,phase\n")
            for i, (name, start, end, parent, thread, phase, _wait) in enumerate(self.spans):
                parent_id = "" if parent is None else ids[id(parent)]
                f.write(f"{i},{name},{start:.9f},{end:.9f},{parent_id},{thread},{phase}\n")


def _scan_result(tracer: Tracer, args, kwargs, result) -> None:
    table = args[0]
    index = kwargs.get("index", args[4] if len(args) > 4 else None)
    tracer.count("rows_returned", len(result))
    if index is None:
        tracer.count("rows_examined", table.row_count)


def _probe_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("rows_examined", len(result))


def _fold_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("merge_rows_rewritten", result.row_count)


def _checkpoint_result(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("checkpoint_bytes", result)


_RESULT_HOOKS = {
    "query.scan": _scan_result,
    "index.probe": _probe_result,
    "storage.merge_fold": _fold_result,
    "wal.checkpoint": _checkpoint_result,
}


def _inside_wait(span) -> bool:
    parent = span[3]
    while parent is not None:
        if parent[6]:
            return True
        parent = parent[3]
    return False


def layer_totals(spans, phase: str) -> dict:
    """Per-layer count, busy, self and wait seconds over one phase.

    ``count`` is the number of outermost calls into the layer, ``busy``
    their summed duration, ``self`` the summed span time not covered by
    direct child spans, ``wait`` the time in spans marked as waits
    (outermost ones only, so the fsync inside the commit barrier is not
    counted twice).
    Also returns per-span-name call counts and summed durations.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span[3]
        if parent is not None and span[5] == phase:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[2] - span[1]
    out = {layer: {"count": 0, "busy": 0.0, "self": 0.0, "wait": 0.0} for layer in LAYERS}
    by_name: dict[str, list] = {}
    for span in spans:
        if span[5] != phase:
            continue
        name = span[0]
        layer = name.split(".", 1)[0]
        duration = span[2] - span[1]
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += duration
        totals = out[layer]
        totals["self"] += duration - child_time.get(id(span), 0.0)
        if span[6] and not _inside_wait(span):
            totals["wait"] += duration
        parent = span[3]
        while parent is not None and parent[0].split(".", 1)[0] != layer:
            parent = parent[3]
        if parent is None:
            totals["count"] += 1
            totals["busy"] += duration
    return {"layers": out, "names": by_name}
