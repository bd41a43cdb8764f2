"""Unit tests for PacketQueue and oblivious schedules."""

import pytest

from repro.core.queues import PacketQueue
from repro.core.schedule import AlwaysOnSchedule, PeriodicSchedule


class TestPacketQueue:
    def test_push_and_aging(self, make_packet):
        q = PacketQueue()
        a, b = make_packet(1), make_packet(2)
        q.push(a)
        q.push(b)
        assert q.new_count == 2 and q.old_count == 0
        q.age_all()
        assert q.old_count == 2 and q.new_count == 0

    def test_push_old_is_immediately_old(self, make_packet):
        q = PacketQueue()
        q.push_old(make_packet(1))
        assert q.old_count == 1

    def test_fifo_order_preserved(self, make_packet):
        q = PacketQueue()
        packets = [make_packet(1) for _ in range(5)]
        for p in packets:
            q.push(p)
        q.age_all()
        assert [q.pop_old() for _ in range(5)] == packets

    def test_pop_any_prefers_old(self, make_packet):
        q = PacketQueue()
        old, new = make_packet(1), make_packet(1)
        q.push(old)
        q.age_all()
        q.push(new)
        assert q.pop_any() is old
        assert q.pop_any() is new

    def test_pop_old_for_destination(self, make_packet):
        q = PacketQueue()
        a, b, c = make_packet(1), make_packet(2), make_packet(1)
        for p in (a, b, c):
            q.push(p)
        q.age_all()
        assert q.pop_old_for(2) is b
        assert q.pop_old_for(2) is None
        assert q.pop_old_for(1) is a

    def test_pop_any_for_falls_back_to_new(self, make_packet):
        q = PacketQueue()
        new = make_packet(3)
        q.push(new)
        assert q.pop_any_for(3) is new

    def test_peeks_do_not_remove(self, make_packet):
        q = PacketQueue()
        p = make_packet(2)
        q.push(p)
        q.age_all()
        assert q.peek_old() is p
        assert q.peek_old_for(2) is p
        assert q.peek_any_for(2) is p
        assert len(q) == 1

    def test_peek_destination_sets(self, make_packet):
        q = PacketQueue()
        a, b = make_packet(1), make_packet(4)
        q.push(a)
        q.age_all()
        q.push(b)
        assert q.peek_old_in({3, 4}) is None
        assert q.peek_any_in({3, 4}) is b
        assert q.peek_old_in({1, 4}) is a
        assert q.peek_any_in({4, 1}) is a
        assert q.peek_any_in(set()) is None

    def test_remove_specific_packet(self, make_packet):
        q = PacketQueue()
        a, b = make_packet(1), make_packet(2)
        q.push(a)
        q.push(b)
        assert q.remove(a) is True
        assert q.remove(a) is False
        assert list(q) == [b]

    def test_counts_and_destinations(self, make_packet):
        q = PacketQueue()
        for dest in (1, 1, 2, 3):
            q.push(make_packet(dest))
        q.age_all()
        q.push(make_packet(1))
        assert q.count_old_for(1) == 2
        assert q.count_for(1) == 3
        assert q.count_old_for(2) + q.count_old_for(3) == 2
        assert q.count_for(4) == 0
        assert q.destinations() == {1, 2, 3}
        assert q.has_old_for([3, 9])
        assert not q.has_old_for([9])

    def test_len_and_bool(self, make_packet):
        q = PacketQueue()
        assert not q and len(q) == 0
        q.push(make_packet(1))
        assert q and len(q) == 1


class TestPeriodicSchedule:
    def test_awake_sets_repeat_with_period(self):
        s = PeriodicSchedule(4, [[0, 1], [2, 3]])
        assert s.period_length == 2
        assert s.awake_set(0) == frozenset({0, 1})
        assert s.awake_set(5) == frozenset({2, 3})
        assert s.is_awake(0, 0) and not s.is_awake(0, 1)

    def test_rejects_unknown_stations(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(3, [[0, 7]])

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(3, [])

    def test_max_awake(self):
        s = PeriodicSchedule(5, [[0], [1, 2, 3], [4]])
        assert s.max_awake() == 3
        assert s.max_awake(horizon=1) == 1

    def test_on_fraction(self):
        s = PeriodicSchedule(3, [[0], [0, 1]])
        assert s.on_fraction(0, 10) == pytest.approx(1.0)
        assert s.on_fraction(1, 10) == pytest.approx(0.5)
        assert s.on_fraction(2, 10) == pytest.approx(0.0)

    def test_pair_on_fraction_and_minima(self):
        s = PeriodicSchedule(3, [[0, 1], [0, 2]])
        assert s.pair_on_fraction(0, 1, 10) == pytest.approx(0.5)
        assert s.pair_on_fraction(1, 2, 10) == pytest.approx(0.0)
        station, fraction = s.min_on_fraction(10)
        assert fraction == pytest.approx(0.5)
        pair, pair_fraction = s.min_pair_on_fraction(10)
        assert set(pair) == {1, 2}
        assert pair_fraction == pytest.approx(0.0)

    def test_fraction_of_empty_horizon(self):
        s = PeriodicSchedule(3, [[0]])
        assert s.on_fraction(0, 0) == 0.0
        assert s.pair_on_fraction(0, 1, 0) == 0.0


class TestAlwaysOnSchedule:
    def test_everyone_always_on(self):
        s = AlwaysOnSchedule(4)
        assert s.awake_set(123) == frozenset(range(4))
        assert s.max_awake(10) == 4
        assert s.on_fraction(2, 7) == 1.0
