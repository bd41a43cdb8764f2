"""Station-local packet queues with old/new aging.

Several algorithms in the paper distinguish *old* packets (present before
the current phase / season / window began) from *new* ones (injected
during it) and only route old packets.  :class:`PacketQueue` implements a
FIFO queue with an aging epoch: packets are enqueued as new, and
:meth:`age_all` promotes everything currently queued to old (typically
called at a phase boundary).  The queue also answers the per-destination
questions that Count-Hop, Adjust-Window, Orchestra and the oblivious
algorithms ask every round: the oldest packet for a destination (or for
any of a set of destinations) and how many packets each destination has.

Representation.  The queue is two stores, *old* then *new*.  A store
keeps its packets in one FIFO deque (store order) and, per destination,
a deque of the same packets.  Each queued packet has a key, held in an
index from ``id(packet)``: keys ascend along store order and every old
key is below every new key, so the oldest of several per-destination
heads is the one with the least key.  Removing a packet that heads its
deques pops it; removing one from the middle leaves it there as a
tombstone, counted per object so that reads can tell it is dead.  Every
removal drops the tombstones it uncovers, so each deque's head is always
live and reads never skip anything; a store whose order holds more
tombstones than live packets is compacted, so memory stays proportional
to the backlog, and so is one that still holds a tombstone of a packet
being pushed again.

Complexity, for a backlog of ``b`` packets and ``k`` destinations
(removal amortised over tombstone drops and compactions):

* O(1): ``push``, ``push_old``, ``remove``, ``pop_old``, ``pop_any``,
  ``pop_old_for``, ``pop_any_for``, ``peek_old``, ``peek_any``,
  ``peek_old_for``, ``peek_any_for``, ``count_old_for``, ``count_for``,
  ``size``, ``old_count``, ``new_count``;
* O(len(ds)): ``peek_old_in(ds)``, ``peek_any_in(ds)``, ``has_old_for(ds)``;
* O(limit) plus the tombstones passed: ``first_for(d, limit)``;
* O(b), once: pushing again a removed packet whose tombstone is still
  in the deques;
* O(k) plus a C-level deque extend of the promoted packets: ``age_all``;
* O(k): ``destinations``;
* O(b): ``replace``, ``old_packets``, ``new_packets`` and iteration.

Identity contract.  A queue holds packet *objects*: :meth:`remove`
removes the very object it is given and never a distinct packet that
merely compares equal to it (``Packet`` is a value-equal dataclass), and
pushing an object that is already queued raises :class:`ValueError`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from ..channel.packet import Packet

__all__ = ["PacketQueue"]

#: Key room between the old and the new store.  Old keys are handed out
#: from below the split and new keys from above it, so a packet adopted
#: as old mid-phase (:meth:`PacketQueue.push_old`) still sorts before
#: every packet that was new when it arrived.  A phase would need more
#: than 2**40 such adoptions to run out.
_GAP = 1 << 40

#: Tombstones a store's order may hold beyond its live packets before a
#: removal compacts it.
_SLACK = 32


class _Store:
    """One FIFO store (old or new) with per-destination views.

    Invariant: the head of ``order`` and of every per-destination deque
    is a live packet.
    """

    __slots__ = ("order", "by_dest", "dead", "dead_for")

    def __init__(self) -> None:
        #: Packets in store order, tombstones included.
        self.order: deque[Packet] = deque()
        #: destination -> its packets in store order, tombstones included.
        #: A destination's deque is kept (empty) once its last packet
        #: leaves, so steady traffic does not reallocate it.
        self.by_dest: dict[int, deque[Packet]] = {}
        #: Tombstones in ``order``.
        self.dead = 0
        #: destination -> tombstones in its deque (only destinations with some).
        self.dead_for: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.order) - self.dead

    def count(self, destination: int) -> int:
        slots = self.by_dest.get(destination)
        if not slots:
            return 0
        return len(slots) - self.dead_for.get(destination, 0)

    def first_in(self, destinations: Iterable[int], keys: dict[int, int]) -> Packet | None:
        """The first packet addressed to any of ``destinations``."""
        best = best_key = None
        by_dest = self.by_dest
        for destination in destinations:
            slots = by_dest.get(destination)
            if slots:
                key = keys[id(slots[0])]
                if best is None or key < best_key:
                    best, best_key = slots[0], key
        return best

    def clear(self) -> None:
        self.order.clear()
        for slots in self.by_dest.values():
            slots.clear()
        self.dead = 0
        self.dead_for.clear()

    def absorb(self, other: _Store) -> None:
        """Append every packet of ``other``, whose keys are all larger, and
        leave ``other`` empty."""
        self.order.extend(other.order)
        other.order.clear()
        self.dead += other.dead
        other.dead = 0
        by_dest = self.by_dest
        for destination, slots in other.by_dest.items():
            if slots:
                mine = by_dest.get(destination)
                if mine:
                    mine.extend(slots)
                    slots.clear()
                else:
                    # Hand the whole deque over and keep ours (empty) in
                    # its place.
                    by_dest[destination] = slots
                    other.by_dest[destination] = deque() if mine is None else mine
        dead_for = self.dead_for
        for destination, dead in other.dead_for.items():
            dead_for[destination] = dead_for.get(destination, 0) + dead
        other.dead_for.clear()

    def packets(self, buried: dict[int, int]) -> list[Packet]:
        if self.dead:
            return [packet for packet in self.order if id(packet) not in buried]
        return list(self.order)


class PacketQueue:
    """FIFO packet queue with an old/new distinction.

    Packets are kept in injection/adoption order.  ``old`` packets are the
    ones enqueued before the most recent call to :meth:`age_all` (or by
    :meth:`push_old`); ``new`` packets are everything enqueued since.
    """

    def __init__(self) -> None:
        self._old = _Store()
        self._new = _Store()
        #: id(packet) -> key, for every queued packet.
        self._keys: dict[int, int] = {}
        #: id(packet) -> its tombstones, for removed packets that have some.
        self._buried: dict[int, int] = {}
        #: Next old key, the old/new split and the next new key:
        #: old keys < ``_split`` <= new keys.
        self._old_key = 0
        self._split = self._new_key = _GAP

    # -- mutation ------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Enqueue a packet as *new*."""
        # push_old repeats these lines on the old store: both run once per
        # packet, and a shared helper would add a call to each.
        pid = id(packet)
        if pid in self._keys or pid in self._buried:
            self._readmit(packet)
        key = self._new_key
        self._new_key = key + 1
        self._keys[pid] = key
        store = self._new
        store.order.append(packet)
        slots = store.by_dest.get(packet.destination)
        if slots is None:
            store.by_dest[packet.destination] = deque((packet,))
        else:
            slots.append(packet)

    def push_old(self, packet: Packet) -> None:
        """Enqueue a packet directly as *old* (used by relays mid-phase).

        It goes after every old packet and, once :meth:`age_all` runs,
        before every packet that is new now.
        """
        pid = id(packet)
        if pid in self._keys or pid in self._buried:
            self._readmit(packet)
        key = self._old_key
        self._old_key = key + 1
        self._keys[pid] = key
        store = self._old
        store.order.append(packet)
        slots = store.by_dest.get(packet.destination)
        if slots is None:
            store.by_dest[packet.destination] = deque((packet,))
        else:
            slots.append(packet)

    def _readmit(self, packet: Packet) -> None:
        """Reject a queued packet; purge the tombstones of a removed one.

        A tombstone is recognised by its object, so none may remain for
        a packet that is live again.
        """
        if id(packet) in self._keys:
            raise ValueError(f"{packet!r} is already queued")
        self._compact(self._old)
        self._compact(self._new)

    def age_all(self) -> None:
        """Promote every queued packet to *old* (phase boundary)."""
        new = self._new
        if not new.order:
            return
        old = self._old
        if old.order:
            old.absorb(new)
        else:
            # No old packets, so (heads being live) no old slots at all: swap.
            self._old, self._new = new, old
        # The promoted keys now end the old store; later adoptions and
        # injections sort after them.
        self._old_key = self._new_key
        self._split = self._new_key = self._new_key + _GAP

    def pop_old(self) -> Packet:
        """Dequeue the oldest *old* packet (IndexError when there is none)."""
        return self._pop(self._old.order[0])

    def pop_any(self) -> Packet:
        """Dequeue the overall oldest packet (old first, then new)."""
        return self._pop((self._old.order or self._new.order)[0])

    def pop_old_for(self, destination: int) -> Packet | None:
        """Dequeue the oldest *old* packet addressed to ``destination``."""
        slots = self._old.by_dest.get(destination)
        return self._pop(slots[0]) if slots else None

    def pop_any_for(self, destination: int) -> Packet | None:
        """Dequeue the oldest packet (old or new) addressed to ``destination``."""
        slots = self._old.by_dest.get(destination) or self._new.by_dest.get(destination)
        return self._pop(slots[0]) if slots else None

    def replace(self, old_packets: list[Packet], new_packets: list[Packet]) -> None:
        """Wholesale queue replacement (lowered-segment commits).

        A lowered segment knows the queue's exact post-span contents, so
        its commit swaps them in directly instead of replaying the span's
        pushes, promotions and removals one call at a time — O(backlog)
        rather than O(span traffic).
        """
        self._old.clear()
        self._new.clear()
        self._keys.clear()
        self._buried.clear()
        self._old_key = 0
        for packet in old_packets:
            self._push_old(packet)
        self._split = self._new_key = self._old_key + _GAP
        for packet in new_packets:
            self._push(packet)

    def remove(self, packet: Packet) -> bool:
        """Remove this very packet object; returns True if it was queued."""
        pid = id(packet)
        key = self._keys.pop(pid, None)
        if key is None:
            return False
        store = self._old if key < self._split else self._new
        buried = self._buried
        destination = packet.destination
        slots = store.by_dest[destination]
        dead_for = store.dead_for
        if slots[0] is packet:
            slots.popleft()
            if destination in dead_for:
                left = dead_for[destination] - self._drop_dead(slots)
                if left:
                    dead_for[destination] = left
                else:
                    del dead_for[destination]
        else:
            dead_for[destination] = dead_for.get(destination, 0) + 1
            buried[pid] = buried.get(pid, 0) + 1
        order = store.order
        if order[0] is packet:
            order.popleft()
            if store.dead:
                store.dead -= self._drop_dead(order)
        else:
            store.dead += 1
            buried[pid] = buried.get(pid, 0) + 1
            if 2 * store.dead > len(order) + _SLACK:
                self._compact(store)
        return True

    #: Unwrapped aliases: tracers that wrap the public methods then count
    #: a pop or a replace as one queue operation.
    _push, _push_old, _remove = push, push_old, remove

    def _pop(self, packet: Packet) -> Packet:
        self._remove(packet)
        return packet

    def _unbury(self, packet: Packet) -> bool:
        """Account for one dropped slot of ``packet``; False if it was live."""
        pid = id(packet)
        left = self._buried.get(pid)
        if left is None:
            return False
        if left > 1:
            self._buried[pid] = left - 1
        else:
            del self._buried[pid]
        return True

    def _drop_dead(self, slots: deque) -> int:
        """Pop the tombstones heading ``slots``; return how many."""
        dropped = 0
        while slots and self._unbury(slots[0]):
            slots.popleft()
            dropped += 1
        return dropped

    def _compact(self, store: _Store) -> None:
        """Drop every tombstone of ``store``."""
        if store.dead:
            store.order = deque([p for p in store.order if not self._unbury(p)])
            store.dead = 0
        for destination in store.dead_for:
            slots = store.by_dest[destination]
            live = [p for p in slots if not self._unbury(p)]
            slots.clear()
            slots.extend(live)
        store.dead_for.clear()

    # -- non-destructive peeks (used with deferred removal on confirmation) ----
    def peek_old(self) -> Packet | None:
        """The oldest *old* packet, without removing it."""
        order = self._old.order
        return order[0] if order else None

    def peek_any(self) -> Packet | None:
        """The overall oldest packet, without removing it."""
        order = self._old.order or self._new.order
        return order[0] if order else None

    def peek_old_for(self, destination: int) -> Packet | None:
        """The oldest *old* packet addressed to ``destination``, without removal."""
        slots = self._old.by_dest.get(destination)
        return slots[0] if slots else None

    def peek_any_for(self, destination: int) -> Packet | None:
        """The oldest packet addressed to ``destination``, without removal."""
        slots = self._old.by_dest.get(destination) or self._new.by_dest.get(destination)
        return slots[0] if slots else None

    def first_for(self, destination: int, limit: int) -> list[Packet]:
        """The ``limit`` oldest packets addressed to ``destination`` (old
        before new), without removal — the order in which repeated
        ``pop_any_for(destination)`` calls would return them."""
        found: list[Packet] = []
        if limit <= 0:
            return found
        buried = self._buried
        for store in (self._old, self._new):
            for packet in store.by_dest.get(destination, ()):
                if id(packet) not in buried:
                    found.append(packet)
                    if len(found) == limit:
                        return found
        return found

    def peek_old_in(self, destinations: Iterable[int]) -> Packet | None:
        """The oldest *old* packet addressed to any of ``destinations``."""
        return self._old.first_in(destinations, self._keys)

    def peek_any_in(self, destinations: Iterable[int]) -> Packet | None:
        """The oldest packet (old or new) addressed to any of ``destinations``."""
        return self._old.first_in(destinations, self._keys) or self._new.first_in(
            destinations, self._keys
        )

    # -- inspection ------------------------------------------------------------
    def size(self) -> int:
        """Total queued packets — one call cheaper than ``len(queue)``.

        The engines poll queue sizes once per awake station per round;
        this direct accessor skips the ``len()``/``__len__`` indirection
        on that hot path while keeping the representation private.
        """
        return len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __iter__(self) -> Iterator[Packet]:
        yield from self._old.packets(self._buried)
        yield from self._new.packets(self._buried)

    @property
    def old_count(self) -> int:
        """Number of *old* packets."""
        return len(self._old)

    @property
    def new_count(self) -> int:
        """Number of *new* packets."""
        return len(self._new)

    def old_packets(self) -> list[Packet]:
        """Snapshot of the old packets in order."""
        return self._old.packets(self._buried)

    def new_packets(self) -> list[Packet]:
        """Snapshot of the new packets in order."""
        return self._new.packets(self._buried)

    def count_old_for(self, destination: int) -> int:
        """Number of old packets addressed to ``destination``."""
        return self._old.count(destination)

    def count_for(self, destination: int) -> int:
        """Number of packets (old or new) addressed to ``destination``."""
        return self._old.count(destination) + self._new.count(destination)

    def destinations(self) -> set[int]:
        """Set of destinations with at least one queued packet."""
        return {
            destination
            for store in (self._old, self._new)
            for destination, slots in store.by_dest.items()
            if slots
        }

    def has_old_for(self, destinations: Iterable[int]) -> bool:
        """True when an old packet exists for any of ``destinations``."""
        by_dest = self._old.by_dest
        return any(by_dest.get(d) for d in destinations)
