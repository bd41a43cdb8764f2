"""Stateful model test of PacketQueue against a plain-list reference.

The reference keeps the old and the new packets as two Python lists and
answers every query by a linear scan, comparing packets by identity.
Packets are drawn from a tiny field space, so distinct queued packets
often compare equal: every answer is checked with ``is``, which pins the
queue's remove-by-identity contract.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.channel.packet import Packet
from repro.core.queues import PacketQueue

DESTINATIONS = range(4)
dest = st.sampled_from(DESTINATIONS)
dest_sets = st.frozensets(dest, max_size=4)


def _packet(destination: int, tag: int) -> Packet:
    return Packet(destination=destination, injected_at=0, origin=0, packet_id=tag)


def _first(packets, accept=lambda p: True):
    return next((p for p in packets if accept(p)), None)


def _drop(packets: list, packet) -> None:
    del packets[next(i for i, p in enumerate(packets) if p is packet)]


class QueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = PacketQueue()
        self.old: list[Packet] = []
        self.new: list[Packet] = []
        #: Removed packet objects, which may be queued again.
        self.removed: list[Packet] = []

    def _take(self, packet) -> None:
        """Drop ``packet`` (found by identity) from the reference."""
        if packet is not None:
            _drop(self.old if any(p is packet for p in self.old) else self.new, packet)
            self.removed.append(packet)

    # -- mutation -------------------------------------------------------------
    @rule(d=dest, tag=st.integers(0, 1))
    def push(self, d, tag):
        packet = _packet(d, tag)
        self.queue.push(packet)
        self.new.append(packet)

    @rule(d=dest, tag=st.integers(0, 1))
    def push_old(self, d, tag):
        packet = _packet(d, tag)
        self.queue.push_old(packet)
        self.old.append(packet)

    @precondition(lambda self: self.removed)
    @rule(data=st.data(), as_old=st.booleans())
    def push_removed_again(self, data, as_old):
        # The object may still sit in the queue's deques as a tombstone.
        packet = data.draw(st.sampled_from(self.removed))
        _drop(self.removed, packet)
        if as_old:
            self.queue.push_old(packet)
            self.old.append(packet)
        else:
            self.queue.push(packet)
            self.new.append(packet)

    @rule()
    def age_all(self):
        self.queue.age_all()
        self.old.extend(self.new)
        self.new.clear()

    @rule()
    def pop_old(self):
        if not self.old:
            with pytest.raises(IndexError):
                self.queue.pop_old()
            return
        assert self.queue.pop_old() is self.old[0]
        self._take(self.old[0])

    @rule()
    def pop_any(self):
        model = self.old or self.new
        if not model:
            with pytest.raises(IndexError):
                self.queue.pop_any()
            return
        assert self.queue.pop_any() is model[0]
        self._take(model[0])

    @rule(d=dest)
    def pop_old_for(self, d):
        expected = _first(self.old, lambda p: p.destination == d)
        assert self.queue.pop_old_for(d) is expected
        self._take(expected)

    @rule(d=dest)
    def pop_any_for(self, d):
        expected = _first(self.old + self.new, lambda p: p.destination == d)
        assert self.queue.pop_any_for(d) is expected
        self._take(expected)

    @precondition(lambda self: self.old or self.new)
    @rule(data=st.data())
    def remove_queued(self, data):
        packet = data.draw(st.sampled_from(self.old + self.new))
        assert self.queue.remove(packet) is True
        self._take(packet)
        assert self.queue.remove(packet) is False

    @rule(d=dest, tag=st.integers(0, 1))
    def remove_equal_stranger(self, d, tag):
        # Equal in every field to queued packets, but never queued itself.
        assert self.queue.remove(_packet(d, tag)) is False

    @rule(data=st.data(), fresh=st.lists(dest, max_size=3))
    def replace(self, data, fresh):
        packets = data.draw(st.permutations(self.old + self.new + [_packet(d, 0) for d in fresh]))
        split = data.draw(st.integers(0, len(packets)))
        self.old, self.new = list(packets[:split]), list(packets[split:])
        self.removed = [p for p in self.removed if all(p is not q for q in packets)]
        self.queue.replace(list(self.old), list(self.new))

    # -- peeks ------------------------------------------------------------------
    @rule()
    def peeks(self):
        assert self.queue.peek_old() is _first(self.old)
        assert self.queue.peek_any() is _first(self.old + self.new)

    @rule(d=dest)
    def peeks_for(self, d):
        assert self.queue.peek_old_for(d) is _first(self.old, lambda p: p.destination == d)
        assert self.queue.peek_any_for(d) is _first(
            self.old + self.new, lambda p: p.destination == d
        )

    @rule(d=dest, limit=st.integers(0, 6))
    def first_for(self, d, limit):
        want = [p for p in self.old + self.new if p.destination == d][:limit]
        assert [id(p) for p in self.queue.first_for(d, limit)] == [id(p) for p in want]

    @rule(ds=dest_sets)
    def peeks_in(self, ds):
        assert self.queue.peek_old_in(ds) is _first(self.old, lambda p: p.destination in ds)
        assert self.queue.peek_any_in(ds) is _first(
            self.old + self.new, lambda p: p.destination in ds
        )

    # -- inspection -------------------------------------------------------------
    @invariant()
    def contents_match(self):
        queue, old, new = self.queue, self.old, self.new
        assert [id(p) for p in queue] == [id(p) for p in old + new]
        assert [id(p) for p in queue.old_packets()] == [id(p) for p in old]
        assert [id(p) for p in queue.new_packets()] == [id(p) for p in new]
        assert len(queue) == queue.size() == len(old) + len(new)
        assert bool(queue) == bool(old or new)
        assert (queue.old_count, queue.new_count) == (len(old), len(new))

    @invariant()
    def counts_match(self):
        queue = self.queue
        for d in DESTINATIONS:
            assert queue.count_old_for(d) == sum(p.destination == d for p in self.old)
            assert queue.count_for(d) == sum(p.destination == d for p in self.old + self.new)
            assert queue.has_old_for([d]) == any(p.destination == d for p in self.old)
        assert queue.destinations() == {p.destination for p in self.old + self.new}


QueueModel.TestCase.settings = settings(max_examples=200, stateful_step_count=60, deadline=None)
test_queue_matches_model = QueueModel.TestCase


def test_push_old_mid_phase_keeps_order_across_aging():
    """A packet adopted as old mid-phase precedes the phase's new packets after aging."""
    q = PacketQueue()
    a, b, c, x = (_packet(d, 0) for d in (1, 2, 1, 2))
    q.push(a)
    q.age_all()
    q.push(b)
    q.push(c)
    q.push_old(x)
    assert q.old_packets() == [a, x] and q.peek_old_in({2}) is x
    q.age_all()
    assert [id(p) for p in q] == [id(p) for p in (a, x, b, c)]
    assert q.peek_old_in({1, 2}) is a
    assert q.pop_old_for(2) is x
    assert q.peek_old_in({2}) is b


def test_remove_is_by_identity_not_equality():
    q = PacketQueue()
    a, b = _packet(1, 7), _packet(1, 7)
    assert a == b and a is not b
    q.push(a)
    q.push(b)
    assert q.remove(b) is True
    assert q.peek_any() is a and len(q) == 1
    assert q.remove(b) is False
    assert q.pop_any() is a


def test_pushing_a_queued_packet_twice_is_rejected():
    q = PacketQueue()
    a = _packet(1, 0)
    q.push(a)
    with pytest.raises(ValueError):
        q.push_old(a)
    assert q.remove(a) is True
    q.push_old(a)  # once removed it may be queued again
    assert q.pop_old() is a


def test_packet_pushed_again_over_its_tombstone():
    """A removed packet still lying in the deques as a tombstone can be queued again."""
    q = PacketQueue()
    a, b, c = (_packet(1, 0) for _ in range(3))
    for p in (a, b, c):
        q.push(p)
    assert q.remove(b)  # not a head: b stays behind a as a tombstone
    q.push(b)
    assert [id(p) for p in q] == [id(p) for p in (a, c, b)]
    assert q.pop_any_for(1) is a
    assert q.pop_any_for(1) is c
    assert q.count_for(1) == 1 and q.peek_any() is b


def test_tombstones_are_compacted_and_order_survives():
    """Removing most packets from the middle keeps FIFO order and bounded storage."""
    q = PacketQueue()
    packets = [_packet(i % 3, 0) for i in range(600)]
    for p in packets:
        q.push(p)
    q.age_all()
    keep = packets[::10]
    for i, p in enumerate(packets):
        if i % 10:
            assert q.remove(p)
    assert [id(p) for p in q] == [id(p) for p in keep]
    assert len(q._old.order) <= 2 * len(keep) + 64
    assert [q.pop_old_for(d) for d in (1, 2, 0)] == [keep[1], keep[2], keep[0]]
