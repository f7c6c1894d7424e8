"""Per-layer metrics of the traced run, and where each should be seen.

``PER_LAYER`` is the single list of per-layer metrics: ``BENCHMARK.json``
is checked against it, the traced run prints exactly these names, and
``nonzero``/``zero`` name the workloads on which the traced run asserts
that a metric is non-zero (it exercises the layer) or exactly zero (it
bypasses the layer). Time and count metrics of the timed phase are
divided by the operations completed in it (unit ``s/op`` or ``1/op``);
restart metrics are medians over the crash/restart cycles.
"""

from __future__ import annotations

from common import median
from tracing import LAYERS, layer_totals

O, A, S = "oltp", "analytics", "served"


def _m(name, unit, better="lower", nonzero=(), zero=()):
    return {"name": name, "unit": unit, "better": better,
            "nonzero": tuple(nonzero), "zero": tuple(zero)}


PER_LAYER = [
    _m("nvm.flush_calls", "1/op", nonzero=[O], zero=[A]),
    _m("nvm.drain_calls", "1/op", nonzero=[O], zero=[A]),
    _m("nvm.flush_s", "s/op", nonzero=[O], zero=[A]),
    _m("nvm.lines_flushed_per_commit", "lines", nonzero=[O], zero=[A]),
    _m("nvm.read_bytes", "B/op", nonzero=[O], zero=[A]),
    _m("wal.append_s", "s/op", nonzero=[A], zero=[O]),
    _m("wal.fsyncs", "1/op", nonzero=[A], zero=[O]),
    _m("wal.fsync_s", "s/op", nonzero=[A], zero=[O]),
    _m("wal.commit_wait_s", "s/op", nonzero=[A], zero=[O]),
    _m("wal.commits_per_fsync", "ratio", "higher", nonzero=[A], zero=[O]),
    _m("wal.bytes_per_user_byte", "ratio", nonzero=[A], zero=[O]),
    _m("wal.checkpoint_s", "s/op", nonzero=[A], zero=[O]),
    _m("wal.checkpoint_bytes", "B/op", nonzero=[A], zero=[O]),
    _m("wal.checkpoint_tables", "1/op", nonzero=[A], zero=[O]),
    _m("txn.commit_s", "s/op", nonzero=[O, A]),
    _m("txn.commits", "1/op", nonzero=[O, A]),
    _m("txn.aborts", "1/op", nonzero=[O], zero=[A]),
    _m("txn.conflicts", "1/op", zero=[O, A]),
    _m("storage.encode_s", "s/op", nonzero=[O, A]),
    _m("storage.append_s", "s/op", nonzero=[O, A]),
    _m("storage.merge_s", "s/op", nonzero=[O, A]),
    _m("storage.merges", "1/op", nonzero=[O, A]),
    _m("storage.merge_rows_rewritten", "rows/op", nonzero=[O, A]),
    _m("storage.delta_rows_at_crash", "rows", nonzero=[O, A]),
    _m("index.probe_s", "s/op", nonzero=[O]),
    _m("index.probes", "1/op", nonzero=[O]),
    _m("index.maintain_s", "s/op", nonzero=[O]),
    _m("index.delta_rebuild_s", "s", nonzero=[O]),
    _m("query.scan_s", "s/op", nonzero=[O, A]),
    _m("query.rows_examined_per_row_returned", "ratio", nonzero=[O, A]),
    _m("query.aggregate_s", "s/op", nonzero=[O, A]),
    _m("query.mvcc_cache_hit_ratio", "ratio", "higher", nonzero=[A]),
    _m("query.join_s", "s/op", nonzero=[A], zero=[O]),
    _m("query.delta_predicate_s", "s/op", nonzero=[A]),
    _m("core.open_s", "s", nonzero=[O, A]),
    _m("recovery.total_s", "s", nonzero=[O, A, S]),
    _m("recovery.first_read_s", "s", nonzero=[O, A, S]),
    _m("recovery.pool_open_s", "s", nonzero=[O, S], zero=[A]),
    _m("recovery.catalog_attach_s", "s", nonzero=[O, S], zero=[A]),
    _m("recovery.txn_fixup_s", "s", nonzero=[O, S], zero=[A]),
    _m("recovery.finalize_s", "s", nonzero=[O, S], zero=[A]),
    _m("recovery.checkpoint_load_s", "s", nonzero=[A], zero=[O, S]),
    _m("recovery.log_partition_s", "s", nonzero=[A], zero=[O, S]),
    _m("recovery.parallel_apply_s", "s", nonzero=[A], zero=[O, S]),
    _m("recovery.index_rebuild_s", "s", nonzero=[A], zero=[O, S]),
    _m("recovery.log_reopen_s", "s", nonzero=[A], zero=[O, S]),
    _m("recovery.records_replayed", "count", nonzero=[A], zero=[O, S]),
    _m("server.rtt_s", "s/op", nonzero=[S], zero=[O, A]),
    _m("server.exec_s", "s/op", nonzero=[S], zero=[O, A]),
    _m("server.queue_s", "s/op", nonzero=[S], zero=[O, A]),
    _m("server.wire_s", "s/op", nonzero=[S], zero=[O, A]),
    _m("server.tenant_attaches", "1/op", nonzero=[S], zero=[O, A]),
    _m("server.tenant_evictions", "1/op", nonzero=[S], zero=[O, A]),
    _m("server.rejected", "1/op", zero=[O, A, S]),
    _m("server.kill_to_listen_s", "s", nonzero=[S], zero=[O, A]),
    _m("server.listen_to_first_read_s", "s", nonzero=[S], zero=[O, A]),
    _m("server.startup_recovery_s", "s", nonzero=[S], zero=[O, A]),
]
# Where each layer's generic count/busy/self figures must be non-zero
# and where zero. The server process is not traced in-process, so the
# engine layers read zero on ``served``.
_GENERIC = {
    "nvm": ([O], [A, S]),
    "wal": ([A], [O, S]),
    "index": ([O], [S]),
    "server": ([S], [O, A]),
    "recovery": ([O, A], [S]),
}
# The layers that wait on something (see tracing.TARGETS; the server's
# wait is its executor queue), and where: the others have no wait_s.
_WAITS = {
    "nvm": ([O], [A, S]),
    "wal": ([A], [O, S]),
    "recovery": ([A], [O, S]),
    "server": ([S], [O, A]),
}
for _layer in LAYERS:
    _unit = "s" if _layer == "recovery" else "s/op"
    _count_unit = "1/restart" if _layer == "recovery" else "1/op"
    _nz, _z = _GENERIC.get(_layer, ([O, A], [S]))
    PER_LAYER += [
        _m(f"{_layer}.count", _count_unit, nonzero=_nz, zero=_z),
        _m(f"{_layer}.busy_s", _unit, nonzero=_nz, zero=_z),
        _m(f"{_layer}.self_s", _unit, nonzero=_nz, zero=_z),
    ]
    if _layer in _WAITS:
        _nz, _z = _WAITS[_layer]
        PER_LAYER.append(_m(f"{_layer}.wait_s", _unit, nonzero=_nz, zero=_z))

NVM_PHASES = ("pool_open", "catalog_attach", "txn_fixup", "finalize")
LOG_PHASES = ("checkpoint_load", "log_partition", "parallel_apply", "index_rebuild", "log_reopen")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def compute(tracer, samples, before: dict, after: dict, cycles: list) -> dict:
    """Every per-layer metric from the spans, engine counters and cycles.

    ``before``/``after`` are the workload's engine counters at the start
    and end of the timed phase; ``cycles`` the restart-cycle records.
    """
    ops = samples.ops
    c = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    timed = layer_totals(tracer.spans, "timed")
    restart = layer_totals(tracer.spans, "restart")
    names = timed["names"]

    def secs(*span_names):
        return sum(names.get(n, (0, 0.0))[1] for n in span_names) / ops

    def calls(name):
        return names.get(name, (0, 0.0))[0] / ops

    def counted(key):
        return tracer.counters.get("timed:" + key, 0)

    def per_cycle(key):
        return median([cycle.get(key, 0.0) for cycle in cycles])

    out = {
        "nvm.flush_calls": c.get("nvm_flush_calls", 0) / ops,
        "nvm.drain_calls": c.get("nvm_drain_calls", 0) / ops,
        "nvm.flush_s": secs("nvm.flush"),
        "nvm.lines_flushed_per_commit": _ratio(c.get("nvm_lines_flushed", 0), c.get("txn_commits", 0)),
        "nvm.read_bytes": c.get("nvm_bytes_read", 0) / ops,
        "wal.append_s": secs("wal.append"),
        "wal.fsyncs": c.get("wal_syncs", 0) / ops,
        "wal.fsync_s": secs("wal.fsync"),
        "wal.commit_wait_s": secs("wal.commit_wait"),
        "wal.commits_per_fsync": _ratio(c.get("wal_commits_durable", 0), c.get("wal_syncs", 0)),
        "wal.bytes_per_user_byte": _ratio(c.get("wal_bytes", 0), c.get("user_bytes", 0)),
        "wal.checkpoint_s": secs("wal.checkpoint"),
        "wal.checkpoint_bytes": counted("checkpoint_bytes") / ops,
        "wal.checkpoint_tables": c.get("checkpoint_tables", 0) / ops,
        "txn.commit_s": secs("txn.commit"),
        "txn.commits": c.get("txn_commits", 0) / ops,
        "txn.aborts": c.get("txn_aborts", 0) / ops,
        "txn.conflicts": c.get("txn_conflicts", 0) / ops,
        "storage.encode_s": secs("storage.encode"),
        "storage.append_s": secs("storage.append"),
        "storage.merge_s": secs("storage.merge_freeze", "storage.merge_fold",
                                "storage.merge_fixup", "storage.merge_tail"),
        "storage.merges": calls("storage.merge_fold"),
        "storage.merge_rows_rewritten": counted("merge_rows_rewritten") / ops,
        "storage.delta_rows_at_crash": per_cycle("delta_rows_at_crash"),
        "index.probe_s": secs("index.probe"),
        "index.probes": calls("index.probe"),
        "index.maintain_s": secs("index.maintain"),
        "index.delta_rebuild_s": restart["names"].get("index.delta_rebuild", (0, 0.0))[1] / len(cycles),
        "query.scan_s": secs("query.scan"),
        "query.rows_examined_per_row_returned": _ratio(counted("rows_examined"), counted("rows_returned")),
        "query.aggregate_s": secs("query.aggregate"),
        "query.mvcc_cache_hit_ratio": _ratio(
            c.get("mvcc_hits", 0), c.get("mvcc_hits", 0) + c.get("mvcc_misses", 0)),
        "query.join_s": secs("query.join"),
        "query.delta_predicate_s": secs("query.delta_predicate"),
        "core.open_s": per_cycle("open_s"),
        "recovery.total_s": per_cycle("recovery_total_s"),
        "recovery.first_read_s": per_cycle("first_read_s"),
        "recovery.records_replayed": per_cycle("records_replayed"),
        "server.rtt_s": secs("server.rtt"),
        "server.exec_s": c.get("server_exec_s", 0) / ops,
        "server.queue_s": c.get("server_queue_s", 0) / ops,
        "server.tenant_attaches": c.get("server_attaches", 0) / ops,
        "server.tenant_evictions": c.get("server_evictions", 0) / ops,
        "server.rejected": c.get("server_rejected", 0) / ops,
        "server.kill_to_listen_s": per_cycle("kill_to_listen_s"),
        "server.listen_to_first_read_s": per_cycle("listen_to_first_read_s"),
        "server.startup_recovery_s": per_cycle("startup_recovery_s"),
    }
    out["server.wire_s"] = (
        max(out["server.rtt_s"] - out["server.exec_s"] - out["server.queue_s"], 0.0)
        if out["server.rtt_s"] else 0.0
    )
    for phase in NVM_PHASES + LOG_PHASES:
        out[f"recovery.{phase}_s"] = per_cycle("phase:" + phase)
    for layer in LAYERS:
        if layer == "recovery":
            totals, per = restart["layers"][layer], len(cycles)
        else:
            totals, per = timed["layers"][layer], ops
        out[f"{layer}.count"] = totals["count"] / per
        out[f"{layer}.busy_s"] = totals["busy"] / per
        out[f"{layer}.self_s"] = totals["self"] / per
        if layer in _WAITS:
            out[f"{layer}.wait_s"] = totals["wait"] / per
    # The server process is not traced: its busy time is the client's
    # round trip, its own share the wire and protocol time around the
    # engine call, and its wait the executor queue.
    out["server.self_s"] = out["server.wire_s"]
    out["server.wait_s"] = out["server.queue_s"]
    return out


def check_expectations(workload: str, values: dict) -> list[str]:
    """Metrics that break the non-zero/zero pattern for ``workload``."""
    problems = []
    for metric in PER_LAYER:
        value = values[metric["name"]]
        if workload in metric["nonzero"] and not value > 0:
            problems.append(f"{metric['name']} is {value}, expected > 0 on {workload}")
        if workload in metric["zero"] and value != 0:
            problems.append(f"{metric['name']} is {value}, expected 0 on {workload}")
    return problems
