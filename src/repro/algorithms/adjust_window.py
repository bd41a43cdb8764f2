"""Adjust-Window: universal plain-packet routing with energy cap 2 (Section 4.2).

The execution is organised into *time windows* whose size ``L`` doubles
whenever a window fails to deliver all packets that were pending at its
start.  Every window is split into three stages:

* **Gossip** (``n^2`` phases of ``2 + 3*lg L`` rounds): for every ordered
  pair ``(i, j)`` station ``j`` listens for one phase while station ``i``
  — if it is *large*, i.e. holds at least ``4 n lg L`` packets — conveys,
  by *coded transfer* (a packet transmission encodes a 1-bit, a silent
  round a 0-bit), whether its queue exceeds ``L`` plus three numbers: its
  queue size, the number of its packets destined to ``j`` and the number
  destined to stations smaller than ``j``.  Packets transmitted this way
  that are not addressed to ``j`` are adopted by ``j`` (relaying).
* **Main** (the remaining rounds): from the gossiped numbers every
  station locally computes the same global transmission schedule — large
  senders in name order, each sender's packets ordered by destination —
  and wakes exactly in the rounds in which it transmits or receives.  If
  some station reported a queue larger than ``L`` the whole stage is
  dedicated to the smallest-named such station.
* **Auxiliary** (``8 n^3 lg L`` rounds): a round-robin sweep over ordered
  pairs ``(i, j)`` in which ``i`` sends ``j`` one of the packets it holds
  for ``j``; this delivers the packets of *small* stations and the
  packets relayed during Gossip.

Messages never carry control bits (plain-packet discipline); at most one
transmitter and one listener are awake per round, so the energy cap is 2.

The window state machine (start round, current ``L``, derived
:class:`WindowLayout`) is identical at every station — the doubling
decision is computed from gossiped numbers every station learns
identically — so it lives in one shared :class:`_AdjustWindowClock` (a
:class:`~repro.core.schedule.WakeOracle`): ``tick(t)`` advances windows,
``wakes(t)`` is a pure query afterwards, and the clock answers whole
awake sets batch-wise from the stations' Gossip flags, Main-stage slot
plans and Auxiliary pair sweep.

Paper bound (Theorem 4): universal — for every injection rate ``rho < 1``
the latency is O((n^3 log^2 n + beta) / (1 - rho)) for sufficiently large
``n``.  At small ``n`` the additive ``n^3 log L`` stage lengths dominate
the constant in front of the bound;
:func:`repro.sim.experiments.experiment_adjust_window_latency` computes
the structural bound its Table 1 check compares against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..channel.feedback import Feedback
from ..channel.message import Message
from ..channel.packet import Packet
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import LoweredSegment, RoundBlockDriver
from ..core.controller import TickedQueueingController
from ..core.registry import register_algorithm
from ..core.schedule import WakeOracle

__all__ = ["AdjustWindow", "WindowLayout", "initial_window_size", "lg"]


def lg(x: int) -> int:
    """The paper's ``lg x = ceil(log2(x + 1))``."""
    if x < 0:
        raise ValueError("lg is defined for non-negative integers")
    return math.ceil(math.log2(x + 1)) if x > 0 else 1


@dataclass(frozen=True, slots=True)
class WindowLayout:
    """Derived stage boundaries of a window of size ``L`` for ``n`` stations."""

    n: int
    L: int
    lgL: int
    phase_len: int
    gossip_len: int
    aux_len: int
    main_len: int
    small_threshold: int

    @classmethod
    def for_window(cls, n: int, L: int) -> "WindowLayout":
        lgL = lg(L)
        phase_len = 2 + 3 * lgL
        gossip_len = n * n * phase_len
        aux_len = 8 * n**3 * lgL
        main_len = max(0, L - gossip_len - aux_len)
        return cls(
            n=n,
            L=L,
            lgL=lgL,
            phase_len=phase_len,
            gossip_len=gossip_len,
            aux_len=aux_len,
            main_len=main_len,
            small_threshold=4 * n * lgL,
        )

    # Stage boundaries relative to the window start.
    @property
    def main_start(self) -> int:
        return self.gossip_len

    @property
    def aux_start(self) -> int:
        return self.gossip_len + self.main_len

    def stage_of(self, rel: int) -> str:
        """Which stage the window-relative round ``rel`` belongs to."""
        if rel < self.gossip_len:
            return "gossip"
        if rel < self.aux_start:
            return "main"
        return "aux"


def initial_window_size(n: int) -> int:
    """Smallest power of two ``L`` whose Main stage covers at least half the window."""
    L = 2
    while True:
        layout = WindowLayout.for_window(n, L)
        if layout.main_len >= L // 2:
            return L
        L *= 2


@dataclass(slots=True)
class _GossipRecord:
    """What station ``j`` learned about station ``i`` in the (i, j) gossip phase."""

    large: bool = False
    over_l: bool = False
    bits: list[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bits is None:
            self.bits = []

    def numbers(self, lgL: int) -> tuple[int, int, int]:
        """Decode the three coded-transfer numbers (size, to-me, below-me)."""
        padded = list(self.bits) + [0] * (3 * lgL - len(self.bits))
        values = []
        for block in range(3):
            value = 0
            for bit in padded[block * lgL : (block + 1) * lgL]:
                value = (value << 1) | bit
            values.append(value)
        return values[0], values[1], values[2]


class _MainTable:
    """Main-stage wake table of one window, built once from the stations' plans.

    ``edges`` holds every send and receive interval boundary plus ``0``
    and the stage length, ascending; the slots ``[edges[k], edges[k+1])``
    share the awake tuple ``awake[k]`` and the sole sender
    ``senders[k]`` (-1 when no send interval covers them).
    ``consistent`` is False when two send intervals share a slot or a
    planned receiver sleeps through a send slot — possible only when the
    stations' gossip records disagree.
    """

    __slots__ = ("edges", "awake", "senders", "counts", "consistent")

    def __init__(self, controllers: "list[_AdjustWindowController]", main_len: int) -> None:
        # slot -> (station, is send interval, +1 opening / -1 closing)
        changes: dict[int, list[tuple[int, bool, int]]] = {0: [], main_len: []}
        for station, ctrl in enumerate(controllers):
            ctrl._build_main_plan()
            intervals = [(*ctrl._my_send_slots, True)]
            intervals += [(start, end, False) for start, end in ctrl._my_recv_slots]
            for start, end, send in intervals:
                if end > start:
                    changes.setdefault(start, []).append((station, send, 1))
                    changes.setdefault(end, []).append((station, send, -1))
        self.edges = sorted(changes)
        self.awake: list[tuple[int, ...]] = []
        self.senders: list[int] = []
        overlap = False
        active: dict[int, int] = {}
        sending: dict[int, int] = {}
        for edge in self.edges[:-1]:
            for station, send, step in changes[edge]:
                active[station] = active.get(station, 0) + step
                if send:
                    sending[station] = sending.get(station, 0) + step
            self.awake.append(tuple(sorted(s for s, c in active.items() if c)))
            current = [s for s, c in sending.items() if c]
            if len(current) > 1:
                overlap = True
            self.senders.append(current[0] if len(current) == 1 else -1)
        self.counts = np.array([len(a) for a in self.awake], dtype=np.int64)
        self.consistent = not overlap and all(
            self._receivers_awake(ctrl) for ctrl in controllers
        )

    def _receivers_awake(self, ctrl: "_AdjustWindowController") -> bool:
        """True when each planned receiver of ``ctrl``'s sends is awake."""
        edges, awake = self.edges, self.awake
        base = ctrl._my_send_slots[0]
        for dest, first, end in ctrl._send_runs():
            k = self.segment(base + first)
            while edges[k] < base + end:
                if dest not in awake[k]:
                    return False
                k += 1
        return True

    def segment(self, slot: int) -> int:
        """Index ``k`` of the table segment holding Main-stage ``slot``."""
        return bisect_right(self.edges, slot) - 1

    def awake_counts(self, lo: int, hi: int) -> np.ndarray:
        """Per-slot awake counts over the Main-stage slots ``[lo, hi)``."""
        edges = self.edges
        k0 = self.segment(lo)
        k1 = self.segment(hi - 1)
        lengths = [
            min(edges[k + 1], hi) - max(edges[k], lo) for k in range(k0, k1 + 1)
        ]
        return np.repeat(self.counts[k0 : k1 + 1], lengths)


class _AdjustWindowClock(WakeOracle):
    """Shared window state machine of one Adjust-Window execution."""

    def __init__(self, n: int, initial_l: int) -> None:
        super().__init__(n)
        self.window_start = 0
        self.L = initial_l
        self.layout = WindowLayout.for_window(n, initial_l)
        self._last_ticked = -1
        # Main-stage wake table, built from the controllers' locally
        # computed (identical) global schedule on the first Main query.
        self._main_table: _MainTable | None = None

    def tick(self, round_no: int) -> None:
        if round_no <= self._last_ticked:
            return
        self._last_ticked = round_no
        while round_no - self.window_start >= self.L:
            # Every station derived the same doubling decision from the
            # gossiped numbers; force the (idempotent) plan computation in
            # case this run never queried a Main-stage round.
            for ctrl in self.controllers:
                ctrl._build_main_plan()
            double = self.controllers[0]._double_next
            self.window_start += self.L
            if double:
                self.L *= 2
            self.layout = WindowLayout.for_window(self.n, self.L)
            self._main_table = None
            for ctrl in self.controllers:
                ctrl._begin_window_local()

    def main_table(self) -> _MainTable:
        """The current window's Main-stage wake table (built once per window)."""
        table = self._main_table
        if table is None:
            table = self._main_table = _MainTable(
                self.controllers, self.layout.main_len
            )
        return table

    # -- batch awake-set query -------------------------------------------------
    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        layout = self.layout
        rel = round_no - self.window_start
        stage = layout.stage_of(rel)
        controllers = self.controllers
        if stage == "gossip":
            phase = rel // layout.phase_len
            i, j = phase // self.n, phase % self.n
            if i == j:
                return ()
            if controllers[i]._i_am_large:
                return (i, j) if i < j else (j, i)
            return (j,)
        if stage == "main":
            table = self.main_table()
            return table.awake[table.segment(rel - layout.main_start)]
        # aux
        offset = rel - layout.aux_start
        q = offset % (self.n * self.n)
        i, j = q // self.n, q % self.n
        if i == j:
            return ()
        if controllers[i].queue.peek_any_for(j) is not None:
            return (i, j) if i < j else (j, i)
        return (j,)


class _AdjustWindowController(TickedQueueingController):
    """Per-station controller of Adjust-Window.

    Quiescence holdout: ``silence_invariant`` stays False because silent
    rounds carry information here — a Gossip listener notes a 0-bit into
    the :class:`_GossipRecord` of any station that announced itself large
    earlier in the window, and the Main-stage wake pattern follows from
    window-start queue snapshots.  A span whose queues drained to zero
    mid-window therefore still mutates history-dependent state on
    silence, which no round-window arithmetic can reproduce.

    Silence is a holdout for quiescence skipping only, not for compiled
    blocks: the :class:`_AdjustWindowBlockDriver` names at most one
    sender per round and writes the Gossip listener's 0-bit itself on
    every silent round (it waives the silence invariant instead of
    relying on it), so blocks compile while quiescent spans do not.
    """

    def __init__(self, station_id: int, n: int, clock: _AdjustWindowClock) -> None:
        super().__init__(station_id, n, clock)
        # Snapshot of this station's own queue at the window start.
        self._snapshot_size = 0
        self._snapshot_for: list[int] = [0] * n
        self._i_am_large = False
        # (size, to-listener, below-listener) per listener, when large.
        self._gossip_numbers: list[tuple[int, int, int]] = []
        # Gossip knowledge about the other stations.
        self._records: dict[int, _GossipRecord] = {}
        # Derived Main-stage plan (filled lazily right after Gossip ends).
        self._main_plan_ready = False
        self._double_next = False
        self._my_send_slots: tuple[int, int] = (0, 0)  # [start, end) relative to main
        self._my_send_sequence: list[int] = []  # destination per send slot
        self._my_recv_slots: list[tuple[int, int]] = []  # [(start, end)) relative to main
        self._begin_window_local()

    @property
    def clock(self) -> _AdjustWindowClock:
        """The shared window clock (one source of truth: ``wake_oracle``)."""
        return self.wake_oracle

    # -- window bookkeeping --------------------------------------------------------
    def _begin_window_local(self) -> None:
        """Clock callback at a window boundary (runs for every station)."""
        self.queue.age_all()
        self._snapshot_size = self.queue.old_count
        self._snapshot_for = [self.queue.count_old_for(d) for d in range(self.n)]
        self._i_am_large = self._snapshot_size >= self.clock.layout.small_threshold
        # The three coded-transfer numbers per listener, fixed by the
        # window-start snapshot: (size, to-listener, below-listener).
        self._gossip_numbers = []
        if self._i_am_large:
            L = self.clock.L
            size = self._capped_size()
            below = 0
            for count in self._snapshot_for:
                self._gossip_numbers.append((size, min(count, L), min(below, L)))
                below += count
        self._records = {}
        self._main_plan_ready = False
        self._double_next = False
        self._my_send_slots = (0, 0)
        self._my_send_sequence = []
        self._my_recv_slots = []

    def _rel(self, round_no: int) -> int:
        return round_no - self.clock.window_start

    # -- snapshot helpers -----------------------------------------------------------
    def _capped_size(self) -> int:
        return min(self._snapshot_size, self.clock.L)

    # -- gossip ------------------------------------------------------------------------
    def _gossip_phase(self, rel: int) -> tuple[int, int, int]:
        """(i, j, slot) of the gossip phase containing window-relative round ``rel``."""
        phase = rel // self.clock.layout.phase_len
        slot = rel % self.clock.layout.phase_len
        return phase // self.n, phase % self.n, slot

    def _gossip_bit(self, j: int, slot: int) -> int:
        """The coded-transfer bit this (large) station sends in ``slot`` of phase (me, j)."""
        lgL = self.clock.layout.lgL
        block, offset = divmod(slot - 2, lgL)
        value = self._gossip_numbers[j][block]
        return (value >> (lgL - 1 - offset)) & 1

    def _coded_transfer_packet(self, j: int) -> Packet | None:
        """The packet used to signal a 1-bit to ``j`` (prefer packets for ``j``)."""
        packet = self.queue.peek_old_for(j)
        if packet is not None:
            return packet
        packet = self.queue.peek_old()
        if packet is not None:
            return packet
        return self.queue.peek_any()

    # -- main-stage plan ------------------------------------------------------------------
    def _record_for(self, station: int) -> tuple[bool, bool, int, int, int]:
        """(large, over_l, size, to_me, below_me) as learned about ``station``."""
        if station == self.station_id:
            return (
                self._i_am_large,
                self._snapshot_size > self.clock.L,
                self._capped_size(),
                0,
                0,
            )
        record = self._records.get(station)
        if record is None or not record.large:
            return (False, False, 0, 0, 0)
        size, to_me, below_me = record.numbers(self.clock.layout.lgL)
        return (True, record.over_l, size, to_me, below_me)

    def _build_main_plan(self) -> None:
        if self._main_plan_ready:
            return
        self._main_plan_ready = True
        info = {s: self._record_for(s) for s in range(self.n)}
        large = [s for s in range(self.n) if info[s][0]]
        over_l = [s for s in range(self.n) if info[s][0] and info[s][1]]
        reported_total = sum(info[s][2] for s in large)
        layout = self.clock.layout
        self._double_next = bool(over_l) or reported_total > layout.main_len

        lm = layout.main_len
        if over_l:
            dedicated = min(over_l)
            if dedicated == self.station_id:
                self._my_send_slots = (0, lm)
                self._my_send_sequence = self._destination_sequence(limit=lm)
            else:
                _, _, _, to_me, below_me = info[dedicated]
                start = min(below_me, lm)
                end = min(below_me + to_me, lm)
                if to_me >= self.clock.L:
                    end = lm
                if end > start:
                    self._my_recv_slots = [(start, end)]
            return

        # Regular schedule: large senders in name order, contiguous blocks.
        block_start: dict[int, int] = {}
        cursor = 0
        for s in large:
            block_start[s] = cursor
            cursor += info[s][2]
        if self.station_id in block_start and self._i_am_large:
            start = min(block_start[self.station_id], lm)
            end = min(block_start[self.station_id] + info[self.station_id][2], lm)
            self._my_send_slots = (start, end)
            self._my_send_sequence = self._destination_sequence(limit=end - start)
        recv: list[tuple[int, int]] = []
        for s in large:
            if s == self.station_id:
                continue
            _, _, _, to_me, below_me = info[s]
            if to_me <= 0:
                continue
            start = min(block_start[s] + below_me, lm)
            end = min(block_start[s] + below_me + to_me, lm)
            if end > start:
                recv.append((start, end))
        self._my_recv_slots = recv

    def _destination_sequence(self, limit: int) -> list[int]:
        """Per-slot destination plan: snapshot packets ordered by destination."""
        sequence: list[int] = []
        for dest in range(self.n):
            sequence.extend([dest] * self._snapshot_for[dest])
            if len(sequence) >= limit:
                break
        return sequence[:limit]

    def _send_runs(self) -> list[tuple[int, int, int]]:
        """``_my_send_sequence`` as ``(destination, first, end)`` index runs."""
        runs: list[tuple[int, int, int]] = []
        pos, limit = 0, len(self._my_send_sequence)
        for dest, count in enumerate(self._snapshot_for):
            if pos >= limit:
                break
            if count:
                runs.append((dest, pos, min(pos + count, limit)))
                pos += count
        return runs

    # -- auxiliary stage -------------------------------------------------------------------
    def _aux_pair(self, rel: int) -> tuple[int, int]:
        offset = rel - self.clock.layout.aux_start
        q = offset % (self.n * self.n)
        return q // self.n, q % self.n

    # -- StationController interface ----------------------------------------------------------
    def wakes(self, round_no: int) -> bool:
        clock = self.clock
        clock.tick(round_no)
        rel = self._rel(round_no)
        stage = clock.layout.stage_of(rel)
        if stage == "gossip":
            i, j, _ = self._gossip_phase(rel)
            if i == j:
                return False
            if self.station_id == j:
                return True
            return self.station_id == i and self._i_am_large
        if stage == "main":
            self._build_main_plan()
            slot = rel - clock.layout.main_start
            send_start, send_end = self._my_send_slots
            if send_start <= slot < send_end:
                return True
            return any(start <= slot < end for start, end in self._my_recv_slots)
        # aux
        i, j = self._aux_pair(rel)
        if i == j:
            return False
        if self.station_id == j:
            return True
        return self.station_id == i and self.queue.peek_any_for(j) is not None

    def act(self, round_no: int) -> Message | None:
        rel = self._rel(round_no)
        stage = self.clock.layout.stage_of(rel)
        if stage == "gossip":
            return self._act_gossip(rel)
        if stage == "main":
            return self._act_main(rel)
        return self._act_aux(rel)

    def _act_gossip(self, rel: int) -> Message | None:
        i, j, slot = self._gossip_phase(rel)
        if self.station_id != i or i == j or not self._i_am_large:
            return None
        send = False
        if slot == 0:
            send = True  # 'I am large'
        elif slot == 1:
            send = self._snapshot_size > self.clock.L
        else:
            send = self._gossip_bit(j, slot) == 1
        if not send:
            return None
        packet = self._coded_transfer_packet(j)
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=j)

    def _act_main(self, rel: int) -> Message | None:
        self._build_main_plan()
        slot = rel - self.clock.layout.main_start
        send_start, send_end = self._my_send_slots
        if not send_start <= slot < send_end:
            return None
        index = slot - send_start
        if index >= len(self._my_send_sequence):
            # No planned receiver is listening in this slot; transmitting
            # would risk losing the packet, so stay silent.
            return None
        planned_dest = self._my_send_sequence[index]
        packet = self.queue.peek_old_for(planned_dest)
        if packet is None:
            # The planned packet was already consumed during Gossip; send
            # any old packet instead — the listening station adopts it.
            packet = self.queue.peek_old()
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=planned_dest)

    def _act_aux(self, rel: int) -> Message | None:
        i, j = self._aux_pair(rel)
        if self.station_id != i or i == j:
            return None
        packet = self.queue.peek_any_for(j)
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=j)

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        rel = self._rel(round_no)
        stage = self.clock.layout.stage_of(rel)
        packet = message.packet
        if stage == "gossip":
            i, j, slot = self._gossip_phase(rel)
            if self.station_id == j and message.sender == i:
                record = self._records.setdefault(i, _GossipRecord())
                if slot == 0:
                    record.large = True
                elif slot == 1:
                    record.over_l = True
                else:
                    self._note_bit(record, slot, 1)
                if packet is not None and packet.destination != self.station_id:
                    self.adopt(packet)
            return
        # Main or Auxiliary: a listening station adopts packets not meant for it.
        if (
            packet is not None
            and message.sender != self.station_id
            and packet.destination != self.station_id
            and message.intended_receiver == self.station_id
        ):
            self.adopt(packet)

    def on_silence(self, round_no: int) -> None:
        rel = self._rel(round_no)
        if self.clock.layout.stage_of(rel) != "gossip":
            return
        i, j, slot = self._gossip_phase(rel)
        if self.station_id == j and i != j and slot >= 2:
            record = self._records.get(i)
            if record is not None and record.large:
                self._note_bit(record, slot, 0)

    def _note_bit(self, record: _GossipRecord, slot: int, bit: int) -> None:
        bit_index = slot - 2
        while len(record.bits) < bit_index:
            record.bits.append(0)
        if len(record.bits) == bit_index:
            record.bits.append(bit)
        else:
            record.bits[bit_index] = bit


class _AdjustWindowBlockDriver(RoundBlockDriver):
    """Restricted compiled-round driver for Adjust-Window.

    Every round has at most one possible sender: station ``i`` of Gossip
    phase ``(i, j)`` when it is large, the station whose Main-stage send
    interval covers the slot, and station ``i`` of Auxiliary pair
    ``(i, j)``.  Silent Gossip rounds carry 0-bits, so the driver waives
    the silence invariant (``relies_on_silence_invariant = False``) and
    ``propose_stop`` ends every block at a stage boundary, so a block
    lies inside one stage of one window.  Per stage:

    * **Gossip** runs through the per-round protocol: ``silent_round``
      writes the listener's 0-bit, ``heard_round`` removes the sender's
      packet and updates (or adopts into) the listener's record.
    * **Main** is lowered whole.  Senders transmit only *old* packets,
      in the order fixed by the window-start snapshot, and injections
      and adoptions only ever add *new* packets, so the outcome of every
      remaining slot follows from the send and receive intervals.
    * **Auxiliary** is lowered whole.  Pair ``(i, j)`` sends the head of
      ``peek_any_for(j)`` to the always-awake ``j``, so per-pair packet
      counts over the plan's arrivals decide every round and nothing is
      adopted.

    Guard: a Main stage whose send intervals overlap, or whose planned
    receiver would sleep through a send slot, can only come from
    inconsistent gossip records; its blocks are declined (with a reason
    string) and run through the kernel loop, so results stay
    bit-identical in every case.
    """

    relies_on_silence_invariant = False

    def __init__(self, controllers: "list[_AdjustWindowController]") -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        self._clock = controllers[0].clock
        self._pairs = [divmod(q, self.n) for q in range(self.n * self.n)]
        #: Stage of the current block (blocks never straddle a stage).
        self._stage = "gossip"

    # -- stage geometry --------------------------------------------------------
    def _stage_at(self, t: int) -> tuple[str, int]:
        """Stage containing round ``t`` and the first round past its end.

        Pure projection: lowered segments skip the clock's ticks, so a
        block may open the next window before the clock has turned it —
        the doubling decision is then read off the (idempotent) plan.
        """
        clock = self._clock
        start, L, layout = clock.window_start, clock.L, clock.layout
        if t - start >= L:
            lead = self._controllers[0]
            lead._build_main_plan()
            start += L
            if lead._double_next:
                L *= 2
            layout = WindowLayout.for_window(self.n, L)
        rel = t - start
        if rel < layout.gossip_len:
            return "gossip", start + layout.gossip_len
        if rel < layout.aux_start:
            return "main", start + layout.aux_start
        return "aux", start + L

    def propose_stop(self, start: int, stop: int) -> int:
        _, end = self._stage_at(start)
        return end if end < stop else stop

    def begin_block(self, start: int, stop: int) -> bool:
        stage, _ = self._stage_at(start)
        if stage == "main" and not self._clock.main_table().consistent:
            self.decline_reason = (
                "adjust-window: Main send intervals overlap or a planned "
                "receiver sleeps (inconsistent gossip records)"
            )
            return False
        self._stage = stage
        return True

    # -- per-round protocol ----------------------------------------------------
    def transmitter(self, t: int) -> int:
        clock = self._clock
        layout = clock.layout
        rel = t - clock.window_start
        stage = self._stage
        if stage == "gossip":
            i, j = self._pairs[rel // layout.phase_len]
            return i if i != j and self._controllers[i]._i_am_large else -1
        if stage == "main":
            table = clock.main_table()
            return table.senders[table.segment(rel - layout.main_start)]
        i, j = self._pairs[(rel - layout.aux_start) % (self.n * self.n)]
        return i if i != j else -1

    def silent_round(self, t: int) -> None:
        if self._stage != "gossip":
            return
        clock = self._clock
        phase, slot = divmod(t - clock.window_start, clock.layout.phase_len)
        i, j = self._pairs[phase]
        if i != j and slot >= 2:
            listener = self._controllers[j]
            record = listener._records.get(i)
            if record is not None and record.large:
                listener._note_bit(record, slot, 0)

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        controllers = self._controllers
        sender_ctrl = controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        packet = message.packet
        stage = self._stage
        if stage == "gossip":
            clock = self._clock
            phase, slot = divmod(t - clock.window_start, clock.layout.phase_len)
            j = self._pairs[phase][1]
            listener = controllers[j]
            record = listener._records.setdefault(sender, _GossipRecord())
            if slot == 0:
                record.large = True
            elif slot == 1:
                record.over_l = True
            else:
                listener._note_bit(record, slot, 1)
            if packet is not None and packet.destination != j:
                listener.adopt(packet)
                return (sender, j)
        elif stage == "main":
            # The guard keeps the planned receiver awake in every send slot.
            receiver = message.intended_receiver
            if (
                packet is not None
                and receiver is not None
                and receiver != sender
                and packet.destination != receiver
            ):
                controllers[receiver].adopt(packet)
                return (sender, receiver)
        return (sender,)

    # -- segment lowering ------------------------------------------------------
    def lower_segment(self, start: int, stop: int, plan) -> LoweredSegment | None:
        if self._stage == "main":
            return self._lower_main(start, stop, plan)
        if self._stage == "aux":
            return self._lower_aux(start, stop, plan)
        return None

    def _lower_main(self, start: int, stop: int, plan) -> LoweredSegment:
        """Main-stage slots ``[start, stop)`` in closed form.

        Each sender's transmissions are fixed by its old packets at
        ``start``: slot ``index`` of its interval sends the oldest old
        packet for ``seq[index]``, else the oldest old packet at all,
        else nothing (``_act_main``).  Both choices take the oldest
        remaining packet of some destination, so the packets that have
        left are a prefix of each destination's old packets, and a run
        of slots for one destination sends the next packets of that
        prefix.  A heard packet addressed elsewhere than the planned
        receiver is adopted by it, as new, after the round's arrivals.
        """
        clock = self._clock
        controllers = self._controllers
        table = clock.main_table()
        base = clock.window_start + clock.layout.main_start
        lo, hi = start - base, stop - base

        heard_rounds: list[int] = []
        heard_senders: list[int] = []
        deliveries: list[tuple[int, Packet]] = []
        sent: dict[int, list[Packet]] = {}  # sender -> its transmitted packets
        adopted: dict[int, list[tuple[int, Packet]]] = {}  # receiver -> (round, packet)
        # Senders in slot order, so every list above stays in round order.
        for sender in sorted(range(self.n), key=lambda s: controllers[s]._my_send_slots):
            ctrl = controllers[sender]
            send_start = ctrl._my_send_slots[0]
            a = max(send_start, lo) - send_start
            b = min(send_start + len(ctrl._my_send_sequence), hi) - send_start
            if a >= b:
                continue
            old = ctrl.queue.old_packets()
            positions: dict[int, list[int]] = {}
            for pos, p in enumerate(old):
                positions.setdefault(p.destination, []).append(pos)
            taken = dict.fromkeys(positions, 0)  # leading packets gone, per destination
            gone = sent[sender] = []
            for dest, first, end in ctrl._send_runs():
                first, end = max(first, a), min(end, b)
                if first >= end:
                    continue
                mine = positions.get(dest, ())
                c = taken.get(dest, 0)
                direct = min(end - first, len(mine) - c)
                if direct > 0:
                    packets = [old[p] for p in mine[c : c + direct]]
                    taken[dest] = c + direct
                    rounds = range(base + send_start + first, base + send_start + first + direct)
                    gone.extend(packets)
                    heard_rounds.extend(rounds)
                    heard_senders.extend([sender] * direct)
                    deliveries.extend(zip(rounds, packets))
                    first += direct
                for index in range(first, end):
                    # No old packet for ``dest`` is left: the oldest old
                    # packet overall goes, and ``dest`` adopts it.
                    head = None
                    for d, ps in positions.items():
                        k = taken[d]
                        if k < len(ps) and (head is None or ps[k] < head):
                            head, head_dest = ps[k], d
                    if head is None:
                        break  # nothing old is left to send
                    taken[head_dest] += 1
                    packet = old[head]
                    slot = send_start + index
                    t = base + slot
                    gone.append(packet)
                    heard_rounds.append(t)
                    heard_senders.append(sender)
                    if packet.destination in table.awake[table.segment(slot)]:
                        deliveries.append((t, packet))
                    adopted.setdefault(dest, []).append((t, packet))

        span = stop - start
        transmitters = np.full(span, -1, dtype=np.int64)
        transmitters[np.asarray(heard_rounds, dtype=np.int64) - start] = heard_senders
        j0, j1, arrival_rounds = _span_arrivals(plan, start, stop)
        sources = plan.sources
        adopt_rounds = [t for items in adopted.values() for t, _ in items]
        adopt_stations = [d for d, items in adopted.items() for _ in items]
        delta_stations, delta_values, delta_offsets = _delta_csr(
            self.n,
            span,
            np.concatenate((arrival_rounds, heard_rounds, adopt_rounds)).astype(np.int64)
            - start,
            np.concatenate((sources[j0:j1], heard_senders, adopt_stations)).astype(np.int64),
            np.concatenate(
                (
                    np.ones(j1 - j0, dtype=np.int64),
                    np.full(len(heard_rounds), -1, dtype=np.int64),
                    np.ones(len(adopt_rounds), dtype=np.int64),
                )
            ),
        )

        def commit(packets: list) -> None:
            for s, gone_packets in sent.items():
                remove = controllers[s].queue.remove
                for p in gone_packets:
                    remove(p)
            # New packets join each station's queue in round order, a
            # round's arrivals before its adoption.
            pending = {s: iter(items) for s, items in adopted.items()}
            due = {s: next(it) for s, it in pending.items()}
            rounds = arrival_rounds.tolist()
            for e in range(j0, j1):
                s = sources[e]
                head_item = due.get(s)
                while head_item is not None and head_item[0] < rounds[e - j0]:
                    controllers[s].queue.push(head_item[1])
                    head_item = due[s] = next(pending[s], None)
                controllers[s].queue.push(packets[e - j0])
            for s, head_item in due.items():
                while head_item is not None:
                    controllers[s].queue.push(head_item[1])
                    head_item = next(pending[s], None)

        return LoweredSegment(
            start=start,
            stop=stop,
            transmitters=transmitters,
            delta_stations=delta_stations,
            delta_values=delta_values,
            delta_offsets=delta_offsets,
            deliveries=deliveries,
            commit=commit,
            awake_counts=table.awake_counts(lo, hi),
        )

    def _lower_aux(self, start: int, stop: int, plan) -> LoweredSegment:
        """Auxiliary-stage rounds ``[start, stop)`` in closed form.

        Pair ``(i, j)`` is heard exactly when ``i`` holds a packet for
        ``j`` after the round's arrivals, and it sends them oldest first
        (old before new, then the span's arrivals by plan index); ``j``
        is their destination, so every heard packet is delivered.  Each
        pair is a unit-rate queue over its active rounds, so its departures
        have the closed form ``D[m] = min(m + 1, min_{l <= m} (A[l] + m - l))``
        with ``A[l]`` the packets available by its ``l``-th active round.
        """
        clock = self._clock
        controllers = self._controllers
        n = self.n
        nn = n * n
        base = clock.window_start + clock.layout.aux_start
        span = stop - start
        first_pair = (start - base) % nn

        j0, j1, arrival_rounds = _span_arrivals(plan, start, stop)
        sources = plan.sources
        arrival_keys = (
            np.asarray(sources[j0:j1], dtype=np.int64) * n
            + np.asarray(plan.destinations[j0:j1], dtype=np.int64)
        )
        by_key = np.argsort(arrival_keys, kind="stable")
        sorted_keys = arrival_keys[by_key]

        transmitters = np.full(span, -1, dtype=np.int64)
        pattern = np.ones(nn, dtype=np.int64)
        pattern[:: n + 1] = 0  # pairs (i, i) keep everyone asleep
        awake_counts = pattern[(first_pair + np.arange(span)) % nn]
        leaving: dict[int, list[Packet]] = {}  # queued packets that leave, per pair
        gone_arrivals: list[np.ndarray] = []  # plan indices that leave in-span
        heard_rounds: list[np.ndarray] = []
        heard_items: list = []
        for key in range(nn):
            i, j = divmod(key, n)
            if i == j:
                continue
            first = (key - first_pair) % nn
            if first >= span:
                continue
            lo_a, hi_a = np.searchsorted(sorted_keys, (key, key + 1))
            queued = controllers[i].queue.count_for(j)
            if not queued and lo_a == hi_a:
                continue
            active = np.arange(first, span, nn)
            mine = by_key[lo_a:hi_a]  # positions among the span's arrivals
            available = queued + np.searchsorted(
                arrival_rounds[mine] - start, active, side="right"
            )
            served = np.arange(1, len(active) + 1)
            departures = served + np.minimum(
                0, np.minimum.accumulate(available - served)
            )
            sends = active[np.diff(departures, prepend=0) > 0]
            if not len(sends):
                continue
            transmitters[sends] = i
            awake_counts[sends] = 2
            first_queued = controllers[i].queue.first_for(j, min(len(sends), queued))
            leaving[key] = first_queued
            taken = mine[: len(sends) - len(first_queued)] + j0
            gone_arrivals.append(taken)
            heard_rounds.append(sends)
            heard_items.extend(first_queued)
            heard_items.extend(taken.tolist())

        deliveries: list[tuple[int, Packet | int]] = []
        if heard_rounds:
            rounds = np.concatenate(heard_rounds)
            order = np.argsort(rounds, kind="stable")
            deliveries = [
                (start + r, heard_items[x])
                for r, x in zip(rounds[order].tolist(), order.tolist())
            ]
        heard_t = np.flatnonzero(transmitters >= 0)
        delta_stations, delta_values, delta_offsets = _delta_csr(
            n,
            span,
            np.concatenate((arrival_rounds - start, heard_t)),
            np.concatenate((arrival_keys // n, transmitters[heard_t])),
            np.concatenate(
                (
                    np.ones(j1 - j0, dtype=np.int64),
                    np.full(len(heard_t), -1, dtype=np.int64),
                )
            ),
        )
        gone = set(np.concatenate(gone_arrivals).tolist()) if gone_arrivals else set()

        def commit(packets: list) -> None:
            for key, first_queued in leaving.items():
                remove = controllers[key // n].queue.remove
                for p in first_queued:
                    remove(p)
            # Survivors join their station's new store in plan order.
            for e in range(j0, j1):
                if e not in gone:
                    controllers[sources[e]].queue.push(packets[e - j0])

        return LoweredSegment(
            start=start,
            stop=stop,
            transmitters=transmitters,
            delta_stations=delta_stations,
            delta_values=delta_values,
            delta_offsets=delta_offsets,
            deliveries=deliveries,
            commit=commit,
            awake_counts=awake_counts,
        )


def _span_arrivals(plan, start: int, stop: int) -> tuple[int, int, np.ndarray]:
    """Plan indices ``[j0, j1)`` of the span's arrivals and their rounds."""
    base = plan.start
    offsets = np.asarray(plan.offsets[start - base : stop - base + 1], dtype=np.int64)
    rounds = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(offsets))
    return int(offsets[0]), int(offsets[-1]), rounds


def _delta_csr(
    n: int, span: int, rows: np.ndarray, stations: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Queue-delta CSR of a lowered segment, netted per (round, station).

    ``rows`` are span-relative rounds; entries of one round and station
    sum into one (the engine folds the CSR into end-of-round sizes).
    """
    keys, inverse = np.unique(rows * n + stations, return_inverse=True)
    net = np.bincount(inverse, weights=values, minlength=len(keys)).astype(np.int64)
    offsets = np.zeros(span + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=span), out=offsets[1:])
    return keys % n, net, offsets


@register_algorithm("adjust-window")
class AdjustWindow(RoutingAlgorithm):
    """The Adjust-Window algorithm of Section 4.2 (plain-packet, cap 2, universal).

    Parameters
    ----------
    n:
        Number of stations.
    initial_window:
        Optional override of the initial window size (must be large enough
        for the Gossip and Auxiliary stages to fit); defaults to the
        paper's choice — the smallest window whose Main stage covers at
        least half of it.
    """

    name = "Adjust-Window"

    def __init__(self, n: int, initial_window: int | None = None) -> None:
        super().__init__(n)
        default = initial_window_size(n)
        if initial_window is None:
            self.initial_window = default
        else:
            layout = WindowLayout.for_window(n, initial_window)
            if layout.main_len <= 0:
                raise ValueError(
                    f"initial_window={initial_window} leaves no room for a Main stage "
                    f"(needs at least {default})"
                )
            self.initial_window = initial_window

    def build_controllers(self) -> list[_AdjustWindowController]:
        clock = _AdjustWindowClock(self.n, self.initial_window)
        controllers = [
            _AdjustWindowController(i, self.n, clock) for i in range(self.n)
        ]
        clock.attach(controllers)
        driver = _AdjustWindowBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=2,
            oblivious=False,
            direct=False,
            plain_packet=True,
        )

    # -- analytical quantities used by tests and the analysis module -----------------
    def latency_bound(self, rho: float, beta: float) -> float:
        """The asymptotic latency bound ``(18 n^3 log^2 n + 2 beta)/(1 - rho)``."""
        if rho >= 1:
            return float("inf")
        log_n = math.log2(self.n) if self.n > 1 else 1.0
        return (18 * self.n**3 * log_n**2 + 2 * beta) / (1 - rho)
