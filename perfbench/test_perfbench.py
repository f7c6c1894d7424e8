"""The benchmark's own tests: smoke runs, the oracle, the metric lists.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs end to end at the ``smoke`` size, untraced and
traced, oracle included (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
from common import REFERENCE_PROBE_S, OracleError, Samples  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    bench = _bench()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_printed_metrics():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def _plant(workload: str, w) -> None:
    """Make one expected value wrong."""
    if workload == "oltp":
        w.balance[3] += 1
    elif workload == "analytics":
        w.cols["qty"][3] += 1
    else:
        grp, qty = w.events["hot-0"][3]
        w.events["hot-0"][3] = (grp, qty + 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_catches_a_planted_wrong_value(workload):
    module = __import__(workload)
    path = os.path.join(ROOT, ".bench_work", f"selftest-{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    w = module.Workload(module.SIZES["smoke"], 5, path, lambda phase: None)
    try:
        w.setup()
        w.final_check()  # the untouched model agrees with the engine
        _plant(workload, w)
        with pytest.raises(OracleError):
            w.final_check()
    finally:
        w.close()
        shutil.rmtree(path, ignore_errors=True)


def test_layer_check_flags_a_zero_that_should_not_be():
    values = {m["name"]: 1.0 for m in layers.PER_LAYER}
    problems = layers.check_expectations("oltp", values)
    assert any(p.startswith("wal.fsyncs ") for p in problems)  # oltp bypasses the WAL
    values.update({m["name"]: 0.0 for m in layers.PER_LAYER if "oltp" in m["zero"]})
    assert layers.check_expectations("oltp", values) == []
    values["nvm.flush_calls"] = 0.0
    assert layers.check_expectations("oltp", values) == [
        "nvm.flush_calls is 0.0, expected > 0 on oltp"
    ]


def test_fails_without_the_engine_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("--workload", "oltp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _run_in_process(capsys, *args):
    code = run.main(["--workload", "oltp", "--seed", "2", "--seconds", "1",
                     "--trace", "0", "--size", "smoke", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_wrong_answer_is_counted_as_failed(monkeypatch, capsys):
    import oltp

    def wrong(self):
        raise OracleError("planted")

    monkeypatch.setattr(oltp.Workload, "restart_cycle", wrong)
    code, result = _run_in_process(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] > 100  # the timed phase's operations


def test_an_engine_error_is_counted_as_failed(monkeypatch, capsys):
    import oltp

    calls = []
    read = oltp.Workload._op_read

    def failing_read(self, s):
        calls.append(1)
        if len(calls) == 200:
            raise RuntimeError("planted")
        read(self, s)

    monkeypatch.setattr(oltp.Workload, "_op_read", failing_read)
    code, result = _run_in_process(capsys)
    assert code == 1
    assert result["correct"] is True and result["failed"] == 1
    assert result["attempted"] > 1


def test_a_planted_engine_slowdown_shows_in_full_after_scaling(monkeypatch):
    """The host probe must not move with the engine.

    Windows of ``oltp`` rounds alternate between the engine as it is and
    one whose every query does extra work and keeps garbage alive (a
    slower engine with a growing heap). Adjacent windows see the same
    host, so the probe reads the same in both, and the scaled point-read
    median rises by as much as the one timed.
    """
    import oltp
    from repro.core.database import Database

    query = Database.query
    planted = {"on": False}
    kept = []

    def slow_query(self, *args, **kwargs):
        if planted["on"]:
            kept.append([(i, str(i)) for i in range(100)])
            t_end = time.perf_counter() + 300e-6
            while time.perf_counter() < t_end:
                pass
        return query(self, *args, **kwargs)

    monkeypatch.setattr(Database, "query", slow_query)
    path = os.path.join(ROOT, ".bench_work", f"slowdown-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    w = oltp.Workload(oltp.SIZES["smoke"], 4, path, lambda phase: None)
    windows = {False: [], True: []}
    try:
        w.setup()
        for i in range(16):
            planted["on"] = bool(i % 2)
            window = Samples()
            for _ in range(4):
                t0 = time.perf_counter()
                w.round(window)
                window.end_round(time.perf_counter() - t0)
            windows[planted["on"]].append(window)
    finally:
        w.close()
        shutil.rmtree(path, ignore_errors=True)

    def read_ms(part, scaled):
        merged = Samples.merged(p.at_reference_speed() if scaled else p for p in part)
        return merged.percentile_ms(oltp.READ_KINDS, 50)

    probe = {on: statistics.median(p.probe_s / p.rounds for p in part) for on, part in windows.items()}
    assert 0.85 < probe[True] / probe[False] < 1.15, probe
    timed = read_ms(windows[True], False) - read_ms(windows[False], False)
    scaled = read_ms(windows[True], True) - read_ms(windows[False], True)
    assert timed > 0.25  # the planted 0.3 ms per query
    factor = REFERENCE_PROBE_S / probe[False]
    assert 0.8 < scaled / (timed * factor) < 1.25, (scaled, timed, factor)


@pytest.mark.xfail(strict=True, reason="TableIndex.on_insert marks the volatile delta index "
                   "current, so rows written before a restart vanish from indexed reads")
def test_indexed_reads_after_restart_whose_first_operation_is_an_insert():
    """A fault of the engine the workloads do not reach, pinned here.

    After an NVM restart (or a tenant re-attach) whose first operation
    on an indexed table is an insert, ``TableIndex.on_insert`` raises the
    index's synced-row mark past the pre-restart delta rows, the lazy
    rebuild never runs, and indexed ``Eq`` reads miss every one of them.
    No workload writes an indexed table before reading it after a
    restart; this test flips to passing when the engine is fixed.
    """
    from repro import Database, DataType, DurabilityMode, EngineConfig, Eq

    path = os.path.join(ROOT, ".bench_work", f"index-restart-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    try:
        config = EngineConfig(mode=DurabilityMode.NVM)
        db = Database(path, config)
        db.create_table("items", {"id": DataType.INT64, "qty": DataType.INT64})
        db.create_index("items", "id")
        for i in range(300):
            db.insert("items", {"id": i, "qty": i})
        db.close()
        db = Database(path, config)
        db.insert("items", {"id": 300, "qty": 300})
        missing = [i for i in range(301)
                   if db.query("items", Eq("id", i)).rows() != [{"id": i, "qty": i}]]
        db.close()
        assert missing == []
    finally:
        shutil.rmtree(path, ignore_errors=True)
