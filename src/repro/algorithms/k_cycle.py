"""k-Cycle: energy-oblivious indirect plain-packet routing (Section 5).

The stations are partitioned into overlapping *groups* of ``k`` consecutive
stations; two consecutive groups share exactly one station, their
*connector*, and the last group wraps around to share station 0 with the
first, so the groups form a cycle.  The groups take turns being *active*:
group ``g`` is switched on (all ``k`` of its members) for a contiguous
segment of

    delta = ceil(4 (n-1) k / (n - k))

rounds, then the next group takes over, round-robin forever.  This on/off
pattern depends only on ``(n, k, t)``, so the algorithm is k-energy-
oblivious and publishes it as a :class:`PeriodicSchedule`.

While a group is active its members run the OF-RRW sub-protocol: a
conceptual token circulates among them; the holder transmits its *old*
packets one per round, and a silent round advances the token.  A heard
packet whose destination belongs to the active group is thereby delivered;
otherwise the group's forward connector adopts it, so packets hop from
group to group around the cycle until they reach the group containing
their destination — routing is indirect.

Paper bounds (Table 1): latency at most ``(32 + beta) * n`` for injection
rates ``rho < (k-1)/(n-1)``; by Theorem 6 no k-energy-oblivious algorithm
is stable for ``rho > k/n``.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import LoweredSegment, RoundBlockDriver
from ..core.controller import QueueingController
from ..core.registry import register_algorithm
from ..core.schedule import PeriodicSchedule
from ..protocols.token_ring import TokenRingReplica

__all__ = ["KCycle", "cycle_groups", "activity_segment_length"]


def effective_group_size(n: int, k: int) -> int:
    """The group size actually used: the paper decreases ``k`` until ``2k <= n + 1``."""
    k_eff = min(k, (n + 1) // 2)
    return max(2, k_eff)


def cycle_groups(n: int, k: int) -> list[list[int]]:
    """The cyclic cover of ``[0, n)`` by groups of ``k`` consecutive stations.

    Group ``g`` starts at station ``g * (k - 1) (mod n)`` and contains ``k``
    consecutive stations (mod ``n``), so consecutive groups share exactly
    one station and the last group shares station 0 (or an early station)
    with the first, closing the cycle.
    """
    k = effective_group_size(n, k)
    stride = k - 1
    num_groups = math.ceil(n / stride)
    groups: list[list[int]] = []
    for g in range(num_groups):
        start = (g * stride) % n
        groups.append([(start + offset) % n for offset in range(k)])
    return groups


def activity_segment_length(n: int, k: int) -> int:
    """Length ``delta`` of one group's activity segment (equation (2))."""
    k = effective_group_size(n, k)
    return max(1, math.ceil(4 * (n - 1) * k / (n - k)))


class _KCycleController(QueueingController):
    """Per-station controller of k-Cycle."""

    # wakes() is a pure lookup of the group rotation (published as the
    # algorithm's PeriodicSchedule), so the kernel may batch awake sets.
    static_wake_schedule = True

    # Holding no packets the token holder withholds, and a silent round
    # only advances the active group's token (phase-end aging is a no-op
    # on an empty queue): quiescent spans fast-forward with one modular
    # count per group membership.
    silence_invariant = True

    def __init__(
        self,
        station_id: int,
        n: int,
        groups: list[list[int]],
        delta: int,
    ) -> None:
        super().__init__(station_id, n)
        self.groups = groups
        self.delta = delta
        self.num_groups = len(groups)
        # Group membership and one token replica per group we belong to.
        self.my_groups = [g for g, members in enumerate(groups) if station_id in members]
        self.replicas = {g: TokenRingReplica(groups[g]) for g in self.my_groups}
        # The forward connector of group g is the station shared with group g+1.
        self.forward_connector = {
            g: self._shared_station(groups[g], groups[(g + 1) % self.num_groups])
            for g in range(self.num_groups)
        }
        # Injected packets are immediately old for the next phase they meet;
        # OF-RRW ages them at phase boundaries of the groups we belong to.
        self._member_sets = [set(members) for members in groups]
        # Activity-segment cache: the active group only changes every
        # ``delta`` rounds, so the hot hooks (act / on_heard /
        # after_feedback, all called once per awake round) resolve it with
        # one comparison instead of div/mod plus dict lookups.
        self._seg_start = 0
        self._seg_end = 0  # empty: the first hook call refreshes
        self._seg_group = -1
        self._seg_replica: TokenRingReplica | None = None

    def _refresh_segment(self, round_no: int) -> None:
        block = round_no // self.delta
        self._seg_group = block % self.num_groups
        self._seg_replica = self.replicas.get(self._seg_group)
        self._seg_start = block * self.delta
        self._seg_end = self._seg_start + self.delta

    def _shared_station(self, group_a: list[int], group_b: list[int]) -> int:
        shared = [s for s in group_a if s in set(group_b)]
        # With the cyclic construction consecutive groups always overlap;
        # prefer the first station of the next group (the paper's connector).
        for station in group_b:
            if station in set(group_a):
                return station
        return shared[0]

    # -- schedule ----------------------------------------------------------
    def active_group(self, round_no: int) -> int:
        """The group that is switched on in ``round_no``."""
        return (round_no // self.delta) % self.num_groups

    def wakes(self, round_no: int) -> bool:
        return self.active_group(round_no) in self.my_groups

    # -- protocol -----------------------------------------------------------
    def _eligible_packet(self, group: int):
        # A packet leaving the group is adopted by the forward connector;
        # if we *are* that connector, transmitting it now makes no
        # progress, so withhold it until our other group is active.
        if self.station_id != self.forward_connector[group]:
            return self.queue.peek_old()
        return self.queue.peek_old_in(self._member_sets[group])

    def act(self, round_no: int) -> Message | None:
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        replica = self._seg_replica
        if replica is None or replica.holder != self.station_id:
            return None
        packet = self._eligible_packet(self._seg_group)
        if packet is None:
            return None
        return self.transmit(packet)

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        if self._seg_replica is None:
            return  # not a member of the active group
        packet = message.packet
        if packet is None or message.sender == self.station_id:
            return
        if packet.destination == self.station_id:
            return  # consumed; the engine records the delivery
        group = self._seg_group
        if packet.destination in self._member_sets[group]:
            return  # delivered to another member of the active group
        if self.station_id == self.forward_connector[group]:
            # The packet leaves the group: we are its relay.
            self.adopt(packet)

    def advance_silent_span(self, start: int, stop: int) -> None:
        # This station observes exactly the silent rounds in which one of
        # its groups is active; each such round advances that group's
        # token.  Rounds are grouped into blocks of ``delta`` and block
        # ``b`` activates group ``b % num_groups``, so the number of
        # active rounds per group over [start, stop) is closed-form.
        delta = self.delta
        super_period = delta * self.num_groups
        for g in self.my_groups:
            offset = g * delta

            def active_upto(limit: int) -> int:
                full, rest = divmod(limit, super_period)
                partial = rest - offset
                if partial < 0:
                    partial = 0
                elif partial > delta:
                    partial = delta
                return full * delta + partial

            rounds = active_upto(stop) - active_upto(start)
            if rounds:
                self.replicas[g].advance_silence(rounds)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        if feedback.outcome is not ChannelOutcome.SILENCE:
            return  # the token only moves on silent rounds
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        replica = self._seg_replica
        if replica is None:
            return
        phase_done = replica.observe(feedback.outcome)
        if phase_done:
            # Packets injected or adopted during the finished phase become old.
            self.queue.age_all()


class _KCycleBlockDriver(RoundBlockDriver):
    """Compiled-round driver for k-Cycle (one shared instance per run).

    Per round only the active group's token holder may transmit.  The
    driver mirrors what the reference loop's feedback fan-out does to the
    k awake members: on silence every member's replica advances (queues
    age at phase end), on heard the sender drops its in-flight packet and
    the group's forward connector adopts a packet leaving the group.

    All member replicas of a group agree by construction, so inside a
    compiled block the driver advances one *canonical* replica per silent
    round instead of k — loaded from the members when an activity segment
    begins and written back to all of them when the segment (or the
    block) ends.  Quiescent-span elision advances the (stale-in-block)
    per-station replicas through ``advance_silent_span`` as usual; the
    :meth:`advance_span` hook applies the active-round count of the same
    jump to the canonical copy so the end-of-segment write-back stays
    consistent.
    """

    def __init__(self, controllers: list[_KCycleController]) -> None:
        super().__init__(len(controllers))
        first = controllers[0]
        self._controllers = controllers
        self._delta = first.delta
        self._num_groups = first.num_groups
        self._groups = first.groups
        self._forward_connector = first.forward_connector
        self._member_sets = first._member_sets
        # Activity-segment cache, same shape as the controllers' own.
        self._seg_start = 0
        self._seg_end = 0  # empty: the first transmitter() call refreshes
        self._member_ctrls: list[_KCycleController] = []
        self._replicas: list[TokenRingReplica] = []
        self._member_set: set[int] = set()
        self._connector = -1
        self._group = -1
        self._canonical: TokenRingReplica | None = None

    def _write_back(self) -> None:
        canonical = self._canonical
        if canonical is None:
            return
        for replica in self._replicas:
            replica.token_pos = canonical.token_pos
            replica.advancements = canonical.advancements
            replica.phase_no = canonical.phase_no
            replica.holder = canonical.holder

    def _refresh_segment(self, round_no: int) -> None:
        self._write_back()
        block = round_no // self._delta
        group = block % self._num_groups
        ctrls = [self._controllers[i] for i in self._groups[group]]
        self._member_ctrls = ctrls
        self._replicas = [ctrl.replicas[group] for ctrl in ctrls]
        self._member_set = self._member_sets[group]
        self._connector = self._forward_connector[group]
        self._group = group
        source = self._replicas[0]
        canonical = TokenRingReplica(list(self._groups[group]))
        canonical.token_pos = source.token_pos
        canonical.advancements = source.advancements
        canonical.phase_no = source.phase_no
        canonical.holder = source.holder
        self._canonical = canonical
        self._seg_start = block * self._delta
        self._seg_end = self._seg_start + self._delta

    def begin_block(self, start: int, stop: int) -> bool:
        # The members are authoritative between blocks (the fallback path
        # mutates them directly): force the first round to reload.
        self._seg_start = self._seg_end = 0
        self._canonical = None
        return True

    def end_block(self, stop: int) -> None:
        self._write_back()
        self._canonical = None
        self._seg_start = self._seg_end = 0

    def advance_span(self, start: int, stop: int) -> None:
        canonical = self._canonical
        if canonical is None:
            return  # elision before the first round of the block
        # Same closed-form as the controllers' advance_silent_span, for
        # the one group the canonical copy currently mirrors.
        delta = self._delta
        super_period = delta * self._num_groups
        offset = self._group * delta

        def active_upto(limit: int) -> int:
            full, rest = divmod(limit, super_period)
            partial = rest - offset
            if partial < 0:
                partial = 0
            elif partial > delta:
                partial = delta
            return full * delta + partial

        rounds = active_upto(stop) - active_upto(start)
        if rounds:
            canonical.advance_silence(rounds)

    def transmitter(self, t: int) -> int:
        if not self._seg_start <= t < self._seg_end:
            self._refresh_segment(t)
        holder = self._canonical.holder
        # The holder's own (stale inside the segment) replica must agree
        # before act() runs its holder check.
        self._controllers[holder].replicas[self._group].holder = holder
        return holder

    def silent_round(self, t: int) -> None:
        if self._canonical.observe(ChannelOutcome.SILENCE):
            # Packets injected or adopted during the finished phase
            # become old for every member of the active group.
            for ctrl in self._member_ctrls:
                ctrl.queue.age_all()

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        # Sender's confirmed transmission leaves its queue; replicas do
        # not move on heard rounds (the token stays with its holder).
        sender_ctrl = self._controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        packet = message.packet
        if (
            packet is not None
            and packet.destination not in self._member_set
            and self._connector != sender
        ):
            # The packet leaves the group: the forward connector relays.
            self._controllers[self._connector].adopt(packet)
            return (sender, self._connector)
        return (sender,)

    def lower_segment(self, start: int, stop: int, plan) -> LoweredSegment | None:
        """Silent-span lowering: absorb arrivals while no holder may act.

        k-Cycle transmits *old* packets only, so a planned arrival never
        makes its own round heard — eligibility changes only at group
        switches and phase-end promotions, both deterministic.  The
        driver walks the group rotation and each active group's token,
        absorbing arrivals as ``+1`` queue deltas and replaying phase-end
        aging, and cuts immediately before the first round whose holder
        holds an eligible old packet (an in-group destination, or any old
        packet when the holder is not the forward connector); the
        per-round path takes over there.  Between activity bursts most
        rounds are exactly such silent rounds — packets parked at
        inactive stations keep the total queue positive, so the engine's
        quiescent-span elision cannot take them.
        """
        controllers = self._controllers
        groups = self._groups
        delta = self._delta
        num_groups = self._num_groups
        member_sets = self._member_sets
        forward_connector = self._forward_connector

        offsets = plan.offsets
        plan_base = plan.start
        sources = plan.sources
        plan_dests = plan.destinations
        ai = offsets[start - plan_base]
        inj_rounds = plan.injection_rounds()
        ip = bisect_left(inj_rounds, start)
        n_inj = len(inj_rounds)
        next_arrival = inj_rounds[ip] if ip < n_inj and inj_rounds[ip] < stop else stop

        # Lazily snapshotted per-station queue views: old packets, the
        # combined new tail (Packet | plan index) with its destinations,
        # and how much of that tail phase ends have promoted so far.
        st_old: dict[int, list] = {}
        st_new: dict[int, list] = {}
        st_new_dests: dict[int, list[int]] = {}
        promoted: dict[int, int] = {}
        dirty: set[int] = set()

        def snapshot(s: int) -> None:
            if s not in st_old:
                queue = controllers[s].queue
                new = queue.new_packets()
                st_old[s] = queue.old_packets()
                st_new[s] = new
                st_new_dests[s] = [p.destination for p in new]
                promoted[s] = 0

        # Absolute token state per touched group: [pos, advancements,
        # phase_no].  The driver's canonical copy is authoritative for
        # the group it currently mirrors; member replicas for the rest.
        gstate: dict[int, list[int]] = {}

        def group_state(g: int) -> list[int]:
            state = gstate.get(g)
            if state is None:
                canonical = self._canonical
                if canonical is not None and g == self._group:
                    state = [
                        canonical.token_pos,
                        canonical.advancements,
                        canonical.phase_no,
                    ]
                else:
                    source = controllers[groups[g][0]].replicas[g]
                    state = [source.token_pos, source.advancements, source.phase_no]
                gstate[g] = state
            return state

        delta_stations: list[int] = []
        delta_values: list[int] = []
        delta_offsets: list[int] = [0]
        t = start
        cut = stop
        while t < stop:
            g = (t // delta) % num_groups
            members = groups[g]
            state = group_state(g)
            holder = members[state[0]]
            snapshot(holder)
            if len(st_old[holder]) + promoted[holder] > 0:
                if holder != forward_connector[g]:
                    cut = t
                    break
                member_set = member_sets[g]
                eligible = False
                for packet in st_old[holder]:
                    if packet.destination in member_set:
                        eligible = True
                        break
                if not eligible:
                    dests = st_new_dests[holder]
                    for i in range(promoted[holder]):
                        if dests[i] in member_set:
                            eligible = True
                            break
                if eligible:
                    cut = t
                    break
            if t == next_arrival:
                row_start = len(delta_stations)
                hi = offsets[t - plan_base + 1]
                while ai < hi:
                    s = sources[ai]
                    snapshot(s)
                    st_new[s].append(ai)
                    st_new_dests[s].append(plan_dests[ai])
                    dirty.add(s)
                    for k in range(row_start, len(delta_stations)):
                        if delta_stations[k] == s:
                            delta_values[k] += 1
                            break
                    else:
                        delta_stations.append(s)
                        delta_values.append(1)
                    ai += 1
                ip += 1
                next_arrival = (
                    inj_rounds[ip] if ip < n_inj and inj_rounds[ip] < stop else stop
                )
            # Silent round: the active group's token advances; a phase
            # end promotes every member's new packets to old.
            pos = state[0] + 1
            if pos == len(members):
                pos = 0
            state[0] = pos
            adv = state[1] + 1
            if adv >= len(members):
                state[1] = 0
                state[2] += 1
                for s in members:
                    snapshot(s)
                    if len(st_new[s]) > promoted[s]:
                        promoted[s] = len(st_new[s])
                        dirty.add(s)
            else:
                state[1] = adv
            delta_offsets.append(len(delta_stations))
            t += 1
        if cut == start:
            return None
        span = cut - start
        j0 = offsets[start - plan_base]

        def commit(packets: list) -> None:
            # The per-round path may hold unsynced token advances in the
            # driver's canonical replica (for whatever group it last
            # mirrored): flush them to the member replicas *before*
            # overwriting with the segment's final states — gstate read
            # the canonical as its base, so same-group writes below stay
            # authoritative, and other groups keep their advances.
            self._write_back()
            for s in dirty:
                tail = st_new[s]
                pn = promoted[s]
                final_old = st_old[s] + [
                    packets[e - j0] if type(e) is int else e for e in tail[:pn]
                ]
                final_new = [
                    packets[e - j0] if type(e) is int else e for e in tail[pn:]
                ]
                controllers[s].queue.replace(final_old, final_new)
            for g, state in gstate.items():
                members = groups[g]
                pos = state[0]
                holder = members[pos]
                for s in members:
                    replica = controllers[s].replicas[g]
                    replica.token_pos = pos
                    replica.advancements = state[1]
                    replica.phase_no = state[2]
                    replica.holder = holder
            # Force the per-round path to reload from the (now
            # authoritative) member replicas instead of writing back a
            # stale canonical copy.
            self._canonical = None
            self._seg_start = self._seg_end = 0

        return LoweredSegment(
            start=start,
            stop=cut,
            transmitters=np.full(span, -1, dtype=np.int64),
            delta_stations=np.asarray(delta_stations, dtype=np.int64),
            delta_values=np.asarray(delta_values, dtype=np.int64),
            delta_offsets=np.asarray(delta_offsets, dtype=np.int64),
            deliveries=[],
            commit=commit,
        )


@register_algorithm("k-cycle")
class KCycle(RoutingAlgorithm):
    """The k-Cycle algorithm of Section 5.

    Parameters
    ----------
    n:
        Number of stations.
    k:
        Energy cap.  When ``2k > n + 1`` the effective group size is
        reduced to ``(n + 1) // 2`` as in the paper.
    """

    name = "k-Cycle"

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if not 2 <= k < n:
            raise ValueError(f"energy cap k must satisfy 2 <= k < n, got k={k}, n={n}")
        self.k = k
        self.k_eff = effective_group_size(n, k)
        self.groups = cycle_groups(n, k)
        self.delta = activity_segment_length(n, k)

    def build_controllers(self) -> list[_KCycleController]:
        controllers = [
            _KCycleController(i, self.n, self.groups, self.delta)
            for i in range(self.n)
        ]
        driver = _KCycleBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=self.k_eff,
            oblivious=True,
            direct=False,
            plain_packet=True,
        )

    def oblivious_schedule(self) -> PeriodicSchedule:
        period: list[list[int]] = []
        for g, members in enumerate(self.groups):
            period.extend([list(members)] * self.delta)
        return PeriodicSchedule(self.n, period)

    # -- analytical quantities used by tests and the analysis module --------
    def stability_threshold(self) -> float:
        """The injection-rate threshold ``(k-1)/(n-1)`` of Theorem 5."""
        return (self.k_eff - 1) / (self.n - 1)

    def latency_bound(self, beta: float) -> float:
        """The latency bound ``(32 + beta) * n`` of Theorem 5."""
        return (32 + beta) * self.n
