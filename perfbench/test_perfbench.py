"""Tests of the benchmark's own code: span arithmetic, tail pick, output checks."""

from __future__ import annotations

import sys
import threading

import pytest

from perfbench.checks import summary_digest
from perfbench.layers import Instrumentation
from perfbench.spans import SpanStore, self_times, tail_percentile
from perfbench.workloads import EngineN64, ServiceMixed

SUMMARY = {
    "label": "run", "rounds": 1000, "injected": 40, "delivered": 39, "max_queue": 3,
    "max_delay": 12, "observed_latency": 12, "mean_delay": 4.25, "delivery_ratio": 0.975,
    "throughput": 0.039, "energy_per_round": 2.0, "max_energy": 2,
    "energy_per_delivery": 51.282051282051285, "queue_growth_rate": 0.0, "stable": True,
}


def test_self_time_of_nested_spans():
    # parent [0, 10] > child [2, 5] > grandchild [3, 4]
    assert self_times([0, 2, 3], [10, 5, 4], [-1, 0, 1]) == [7, 2, 1]


def test_self_time_of_overlapping_children_counts_shared_time_once():
    # Children [2, 5] and [4, 8] overlap; [9, 12] runs past its parent's end.
    own = self_times([0, 2, 4, 9], [10, 5, 8, 12], [-1, 0, 0, 0])
    assert own[0] == pytest.approx(10 - (8 - 2) - (10 - 9))
    assert own[1:] == [3, 4, 3]


def test_span_store_nests_per_thread():
    ticks = iter(range(100))
    store = SpanStore(clock=lambda: next(ticks))
    a = store.name_id("layer:a")
    b = store.name_id("other:b")
    outer = store.open(a)            # t=0
    inner = store.open(b)            # t=1
    store.close(inner)               # t=2
    seen = {}

    def on_thread():
        seen["idx"] = store.open(b)  # t=3, its own root on this thread
        store.close(seen["idx"])     # t=4

    thread = threading.Thread(target=on_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    store.close(outer)               # t=5
    assert list(store.parent) == [-1, outer, -1]
    assert store.self_times() == [4, 1, 1]
    assert store.thread[seen["idx"]] != store.thread[outer]


def test_span_store_keeps_threads_apart_under_contention():
    store = SpanStore()
    outer, inner = store.name_id("a:outer"), store.name_id("b:inner")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work():
        for _ in range(500):
            top = store.open(outer)
            store.close(store.open(inner))
            store.close(top)

    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(store) == 6 * 500 * 2
    assert len({len(store.name), len(store.end), len(store.parent), len(store.thread)}) == 1
    for i, parent in enumerate(store.parent):
        if store.name[i] == inner:
            assert store.name[parent] == outer
            assert store.thread[parent] == store.thread[i]
            assert store.start[parent] <= store.start[i] <= store.end[i] <= store.end[parent]
        else:
            assert parent == -1


@pytest.mark.parametrize("n, percentile, rank", [
    (20, 50.0, 10), (39, 50.0, 20), (40, 75.0, 30), (49, 75.0, 37), (50, 80.0, 40),
    (99, 80.0, 80), (100, 90.0, 90), (199, 90.0, 180), (200, 95.0, 190), (1000, 99.0, 990),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    values = [float(v) for v in range(n, 0, -1)]  # any order
    p, value = tail_percentile(values)
    assert (p, value) == (percentile, float(rank))
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_stays_at_its_ceiling_when_samples_grow():
    values = [float(v) for v in range(1, 1001)]
    assert tail_percentile(values, ceiling=80.0) == (80.0, 800.0)
    assert tail_percentile(values[:45], ceiling=80.0) == (75.0, 34.0)


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 19)


def test_digest_sees_the_last_bit_and_ignores_the_label():
    base = summary_digest(SUMMARY)
    assert summary_digest({**SUMMARY, "label": "renamed"}) == base
    assert summary_digest({**SUMMARY, "mean_delay": 4.25 + 2**-50}) != base


def test_perturbed_engine_summary_counts_as_failed():
    workload = EngineN64(0, {"engine-n64": {"k-cycle-spray": summary_digest(SUMMARY)}})
    good, bad = workload.ledger.new_op(), workload.ledger.new_op()
    workload._check(good, "k-cycle-spray", summary_digest(SUMMARY))
    workload._check(bad, "k-cycle-spray", summary_digest({**SUMMARY, "delivered": 38}))
    assert workload.ledger.failed == {bad}
    assert workload.ledger.error_rate == 0.5


def test_perturbed_service_result_counts_as_failed():
    from perfbench.checks import spec_key
    from perfbench.workloads import service_job

    specs = service_job(0, 0, 0)
    expected = {"service-mixed": {spec_key(s): summary_digest(SUMMARY) for s in specs}}
    workload = ServiceMixed(0, expected)
    records = [
        {"status": "done", "spec_hash": s.spec_hash(), "summary": dict(SUMMARY)} for s in specs
    ]
    ok = workload.ledger.new_op()
    workload._check(ok, specs, records)
    records[2]["summary"]["max_queue"] = 4
    bad = workload.ledger.new_op()
    workload._check(bad, specs, records)
    assert workload.ledger.failed == {bad}
    assert workload.ledger.error_rate == 0.5


def test_instrumentation_attributes_a_run_and_restores_the_program():
    from repro.core.queues import PacketQueue
    from repro.sim import RunSpec, specs

    original = PacketQueue.push
    store = SpanStore()
    instrumentation = Instrumentation(store)
    instrumentation.install()
    try:
        root = store.open(store.name_id("workload:test.pass"))
        specs.execute_spec(RunSpec(
            algorithm="count-hop", algorithm_params={"n": 4}, adversary="spray",
            adversary_params={"rho": 0.5, "beta": 2.0}, rounds=400,
        ))
        store.close(root)
    finally:
        instrumentation.uninstall()
    assert PacketQueue.push is original
    metrics = instrumentation.metrics(threading.get_ident())
    assert metrics["runner.specs"] == 1
    assert metrics["channel.rounds"] == 400
    for name in ("queues.ops", "algorithms.calls", "adversary.packets", "metrics.calls"):
        assert metrics[name] > 0, name
    busy = sum(v for k, v in metrics.items() if k.endswith(("busy_s", "wiring_s", "dispatch_s")))
    wall = store.end[root] - store.start[root]
    assert busy + metrics["trace.unattributed_s"] == pytest.approx(wall)
