"""Tests of the benchmark itself (not of repro).

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeConnection:
    """Answers after ``service`` seconds; the ``stall_at``-th request
    sent (over all connections) takes ``stall`` seconds instead."""

    sent = 0

    def __init__(self, service: float, stall_at: int, stall: float,
                 block: bool = False) -> None:
        self.service, self.stall_at, self.stall, self.block = service, stall_at, stall, block

    async def get(self, path: str):
        FakeConnection.sent += 1
        if FakeConnection.sent == self.stall_at:
            if self.block:
                time.sleep(self.stall)  # the whole client stalls
            else:
                await asyncio.sleep(self.stall)  # only the server does
        else:
            await asyncio.sleep(self.service)
        return 200, b"{}"

    def close(self) -> None:
        pass


def _open_loop(stall_at: int, stall: float, block: bool = False) -> loadgen.LoopResult:
    FakeConnection.sent = 0

    async def connect():
        return FakeConnection(0.001, stall_at, stall, block)

    paths = [f"/q{i}" for i in range(400)]
    return asyncio.run(loadgen.open_loop(connect, paths, rate=200.0, connections=1))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.50) == 50
    assert loadgen.percentile(values, 0.99) == 99
    assert loadgen.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 0.5)


def test_due_time_latency_charges_a_server_stall_to_queued_requests():
    result = _open_loop(stall_at=100, stall=0.25)
    # 0.25 s at 200/s: ~50 requests fall due during the stall and queue
    # behind it, so more than 1% of 400 see a long wait from due time ...
    due_p99 = loadgen.percentile(result.latency, 0.99)
    assert due_p99 > 0.1
    assert loadgen.percentile(result.latency, 0.50) < 0.05
    # ... while timing from the send would show one slow request only
    assert loadgen.percentile(result.service, 0.99) < due_p99 / 2
    # the generator kept its schedule: the stall is the server's
    assert loadgen.percentile(result.late, 0.99) < 0.05
    assert None not in result.status


def test_a_client_stall_shows_as_generator_lateness():
    result = _open_loop(stall_at=100, stall=0.25, block=True)
    assert loadgen.percentile(result.late, 0.99) * 1e3 > workloads.LATE_P99_LIMIT_MS


def test_comparator_catches_one_ulp():
    value = 0.1 + 0.2
    payload = {"origin": 1, "target": 2, "reliance": value}
    assert checks.same(payload, dict(payload))
    assert not checks.same(payload, {**payload, "reliance": math.nextafter(value, 1.0)})
    assert checks.same({"h": math.nan}, {"h": math.nan})
    assert not checks.same({"h": 0.0}, {"h": -0.0})
    assert not checks.same({"n": 0}, {"n": 0.0})
    assert not checks.same({"p": [1, 2]}, {"p": [1, 2, 3]})
    assert checks.body_matches(json.dumps(payload).encode(), payload)
    assert not checks.body_matches(b"not json", payload)


def test_report_digests_must_repeat(tmp_path):
    report = "===== fig2 =====\nA\n\n===== fig3 =====\nB\n\nC"
    digests = checks.section_digests(report)
    assert list(digests) == ["fig2", "fig3"]
    registry = checks.DigestRegistry(tmp_path / "digests.json", tmp_path / "none.json")
    assert registry.check(5, digests) == (2, [])  # first run records
    assert registry.check(5, digests) == (2, [])
    changed = checks.section_digests(report.replace("C", "D"))
    assert registry.check(5, changed) == (2, ["fig3"])
    assert checks.seeds_for(checks.DEFAULT_SEED) == (20200901, 20150901)


def test_pinned_digests_are_not_taken_from_the_first_run(tmp_path):
    report = "===== fig2 =====\nA\n\n===== fig3 =====\nB\n"
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"5": checks.section_digests(report)}))
    registry = checks.DigestRegistry(tmp_path / "digests.json", pinned)
    wrong = checks.section_digests(report.replace("B", "X") + "===== fig4 =====\n")
    assert registry.check(5, wrong) == (3, ["fig3", "fig4"])
    assert not (tmp_path / "digests.json").exists()
    assert registry.check(5, checks.section_digests(report)) == (2, [])


def test_committed_digests_cover_the_default_seed():
    pinned = json.loads(checks.PINNED_DIGESTS.read_text())
    assert str(checks.DEFAULT_SEED) in pinned
    assert all(len(sections) == 17 for sections in pinned.values())


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    stats = tracer.snapshot()
    assert stats["inner"]["calls"] == 2
    assert stats["outer"]["wall_s"] >= stats["inner"]["wall_s"] + 0.01
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["wall_s"] - stats["inner"]["wall_s"]
    )


def _flip_one_queried_reliance(corpus: Path) -> None:
    """Flip the lowest bit of the stored reliance float of the most
    requested ``/reliance`` query (a one-ULP change inside a sealed
    metric-shard record) and remember which query it was."""
    stream = json.loads((corpus.parent / "requests.json").read_text())
    (shard,) = corpus.rglob("metrics-*.mshard")
    data = bytearray(shard.read_bytes())
    for path, _ in Counter(p for p in stream["paths"] if p.startswith("/reliance")).most_common():
        packed = struct.pack("<d", stream["expected"][path]["reliance"])
        if data.count(packed) == 1:
            data[data.index(packed)] ^= 1
            shard.write_bytes(bytes(data))
            FLIPPED["path"] = path
            FLIPPED["count"] = stream["paths"].count(path)
            FLIPPED["warmup"] = stream["warmup"]
            return
    raise AssertionError("no uniquely stored reliance value to flip")


FLIPPED: dict = {}


def test_flipped_shard_byte_fails_answers_and_the_gate(capsys):
    plan = workloads.ServePlan(rate=400.0, closed=1500, setups=1, profile="tiny")
    code = run.main(
        ["--workload", "serve-precomputed-small", "--seed", "3", "--seconds", "2",
         "--trace", "0"],
        plan=plan, corrupt=_flip_one_queried_reliance,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == FLIPPED["warmup"] + 1500 + 800
    # exactly the requests for the flipped value fail, and nothing crashed
    assert result["failed"] == FLIPPED["count"] > 0
    assert set(result["metrics"]) == set(workloads.E2E_UNITS)


def test_a_dead_server_gives_failed_operations_not_a_crash(monkeypatch, capsys):
    servers = []
    original_init = workloads.Server.__init__

    def keep(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    original_open_loop = loadgen.open_loop

    async def kill_then_open_loop(*args, **kwargs):
        servers[-1].proc.kill()
        servers[-1].proc.wait()
        return await original_open_loop(*args, **kwargs)

    monkeypatch.setattr(workloads.Server, "__init__", keep)
    monkeypatch.setattr(loadgen, "open_loop", kill_then_open_loop)
    plan = workloads.ServePlan(rate=400.0, closed=500, setups=1, profile="tiny")
    code = run.main(
        ["--workload", "serve-precomputed-small", "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        plan=plan,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # the 400 open-loop requests and the /stats read fail
    assert result["failed"] == 400 + 1
    assert set(result["metrics"]) == set(workloads.LAYER_UNITS)


def test_intact_corpus_passes_the_gate(capsys):
    plan = workloads.ServePlan(rate=400.0, closed=500, setups=1, profile="tiny")
    code = run.main(
        ["--workload", "serve-precomputed-small", "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        plan=plan,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(workloads.LAYER_UNITS)
    assert result["metrics"]["serve.tier_metric"]["value"] > 0
