"""Unit tests for the lease-based work queue (claim/steal/complete races)."""

import json
import os
import time

import pytest

from repro.sim import (
    FailedResult,
    LeaseLostError,
    ResultCache,
    RunSpec,
    WorkQueue,
    collect_results,
    execute_spec,
    shard_index,
    spec_fragment,
    status_record,
)


def _specs(count=4, rounds=200):
    return [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=4, k=2),
            spec_fragment("spray", rho=0.1 + 0.05 * i, beta=1.5),
            rounds,
            label=f"q{i}",
        )
        for i in range(count)
    ]


class TestShardIndex:
    def test_deterministic_partition(self):
        hashes = [s.spec_hash() for s in _specs(8)]
        for k in (1, 2, 3, 5):
            first = [shard_index(h, k) for h in hashes]
            assert [shard_index(h, k) for h in hashes] == first
            assert all(0 <= i < k for i in first)
        assert pytest.raises(ValueError, shard_index, hashes[0], 0)


class TestEnqueueClaim:
    def test_enqueue_shards_preserve_order(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        specs = _specs(5)
        ids = queue.enqueue(specs, shard_size=2)
        assert ids == ["shard-0000", "shard-0001", "shard-0002"]
        assert queue.counts() == {"pending": 3, "leased": 0, "done": 0}
        claimed: list[str] = []
        while (lease := queue.claim("w")) is not None:
            claimed.extend(s.spec_hash() for s in lease.specs)
            lease.complete([])
        assert claimed == [s.spec_hash() for s in specs]

    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(_specs(2), shard_size=2)
        first = queue.claim("alice")
        assert first is not None
        assert queue.claim("bob") is None  # the only shard is leased
        assert queue.counts()["leased"] == 1

    def test_owner_names_are_sanitised(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("host.example.com/worker 1")
        assert lease is not None
        assert "." not in lease.owner and "/" not in lease.owner
        lease.heartbeat()  # the lease filename still parses

    def test_unreadable_payload_is_retired(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        (queue.pending_dir / "bad-0000.t0.json").write_text("not json {")
        assert queue.claim("w") is None
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 0}


class TestLeaseLifecycle:
    def test_heartbeat_extends_expiry(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("w")
        before = lease.expires_ms
        time.sleep(0.01)
        lease.heartbeat()
        assert lease.expires_ms > before
        assert lease.path.exists()

    def test_heartbeat_after_steal_raises_lease_lost(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("slow")
        time.sleep(0.05)
        assert queue.reclaim_expired() == 1
        with pytest.raises(LeaseLostError):
            lease.heartbeat()
        assert lease.lost

    def test_reclaim_bumps_takeovers(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        assert queue.claim("victim").takeovers == 0
        time.sleep(0.05)
        queue.reclaim_expired()
        thief = queue.claim("thief")
        assert thief.takeovers == 1
        assert thief.shard_id == "shard-0000"

    def test_abandon_requeues_with_bumped_takeover(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("w")
        assert lease.abandon()
        again = queue.claim("w")
        assert again is not None and again.takeovers == 1

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=30.0)
        queue.enqueue(_specs(1), shard_size=1)
        queue.claim("w")
        assert queue.reclaim_expired() == 0


class TestCompletion:
    def test_complete_publishes_statuses_and_drains(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        specs = _specs(2)
        ids = queue.enqueue(specs, shard_size=2)
        lease = queue.claim("w")
        records = [status_record(s, execute_spec(s)) for s in lease.specs]
        assert lease.complete(records)
        assert queue.drained()
        statuses = queue.done_statuses(ids)
        assert set(statuses) == {s.spec_hash() for s in specs}
        assert all(r["status"] == "done" for r in statuses.values())

    def test_stolen_shard_completed_by_original_owner(self, tmp_path):
        # Slow-but-alive owner completes after the steal: its statuses
        # publish, complete() reports the loss, and the thief's pending
        # copy is retired on the next claim instead of re-executed.
        queue = WorkQueue(tmp_path / "q", lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        slow = queue.claim("slow")
        time.sleep(0.05)
        queue.reclaim_expired()  # shard back in pending for a thief
        assert not slow.complete([status_record(s, execute_spec(s)) for s in slow.specs])
        assert queue.claim("thief") is None  # done record retires the copy
        assert queue.drained()

    def test_failed_status_records_survive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        specs = _specs(1)
        ids = queue.enqueue(specs, shard_size=1)
        lease = queue.claim("w")
        failure = FailedResult(
            spec=specs[0], error="boom", error_type="ValueError", attempts=3
        )
        lease.complete([status_record(specs[0], failure)])
        record = queue.done_statuses(ids)[specs[0].spec_hash()]
        assert record["status"] == "failed"
        assert record["error_type"] == "ValueError"
        assert record["attempts"] == 3

    def test_done_records_are_read_per_shard(self, tmp_path):
        # A job reads only its own shards' done records, so jobs sharing
        # one queue keep their statuses and RPC totals apart, and shards
        # still running are simply absent.
        queue = WorkQueue(tmp_path / "q")
        specs = _specs(3)
        mine = queue.enqueue(specs[:2], shard_size=1, prefix="job-1")
        theirs = queue.enqueue(specs[2:], shard_size=1, prefix="job-2")
        for _ in range(2):
            lease = queue.claim("w")
            records = [status_record(s, execute_spec(s)) for s in lease.specs]
            lease.complete(records, extra={"requests": 2, "spilled": 1})
        assert [s.spec_hash() for s in lease.specs] == [specs[1].spec_hash()]
        lease = queue.claim("w")
        lease.complete(
            [status_record(s, execute_spec(s)) for s in lease.specs],
            extra={"requests": 5},
        )
        assert set(queue.done_statuses(mine)) == {s.spec_hash() for s in specs[:2]}
        assert set(queue.done_statuses(theirs)) == {specs[2].spec_hash()}
        assert queue.rpc_totals(mine) == {"requests": 4, "spilled": 2}
        assert queue.rpc_totals(theirs) == {"requests": 5}
        assert queue.done_statuses(["job-3-0000"]) == {}
        assert queue.rpc_totals(["job-3-0000"]) == {}


class TestCollectResults:
    def test_done_failed_and_missing(self, tmp_path):
        specs = _specs(3)
        cache = ResultCache(tmp_path / "cache")
        queue = WorkQueue(tmp_path / "q")
        done = execute_spec(specs[0])
        cache.put(specs[0], done)
        queue._write_done(
            "s-0000",
            [
                status_record(
                    specs[1],
                    FailedResult(
                        spec=specs[1], error="bad", error_type="E", attempts=2
                    ),
                )
            ],
        )
        results = collect_results(specs, cache, queue.done_statuses(["s-0000"]))
        assert results[0].summary == done.summary
        assert isinstance(results[1], FailedResult) and results[1].error == "bad"
        assert results[2] is None


class TestCrossProcessCacheRace:
    def test_racing_puts_leave_one_valid_entry(self, tmp_path):
        # Two *processes* completing the same spec concurrently must
        # converge on exactly one valid checksummed payload and an
        # untorn sidecar — the idempotence that makes at-least-once
        # shard delivery safe.
        import multiprocessing

        spec = _specs(1)[0]
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_put_repeatedly, args=(str(tmp_path / "cache"), spec.to_dict())
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 1
        hit = cache.get(spec)
        assert hit is not None  # passes checksum verification
        assert hit.summary == execute_spec(spec).summary
        assert cache.quarantined == 0
        sidecar = json.loads(
            (tmp_path / "cache" / f"{spec.spec_hash()}.json").read_text()
        )
        assert sidecar["spec"]["label"] == spec.label
        assert not list((tmp_path / "cache").glob("*.tmp"))


def _put_repeatedly(cache_dir: str, spec_dict: dict) -> None:
    """Child-process body: hammer the same cache entry with puts."""
    spec = RunSpec.from_dict(spec_dict)
    cache = ResultCache(cache_dir)
    result = execute_spec(spec)
    for _ in range(25):
        cache.put(spec, result)
    loaded = cache.get(spec)
    assert loaded is not None and loaded.summary == result.summary
    os._exit(0)
