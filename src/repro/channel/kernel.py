"""Capability-negotiated fast simulation loop.

:class:`KernelEngine` runs the exact channel semantics of
:class:`~repro.channel.engine.RoundEngine` — same arbitration, delivery
bookkeeping, energy enforcement and message discipline checks — but builds
the cheapest correct loop from what the run's components declare they
actually need:

* **Adversary observation** — the adversary's
  :class:`~repro.adversary.base.ObservationProfile` decides whether the
  :class:`~repro.channel.engine.AdversaryView` is maintained at all
  (oblivious adversaries skip it entirely), kept as a bounded window, or
  kept unbounded.  Windowed adversaries on the static-schedule fast path
  get a :class:`~repro.channel.engine.ScheduleBackedView`: per-round
  maintenance drops to O(1), on-counts advance once per period from the
  schedule's precomputed prefix series, and the history ring is refreshed
  once per chunk.
* **Batched injection** — adversaries declaring ``plans_injections``
  (every oblivious family) have whole chunks of injections materialised
  by one :meth:`~repro.adversary.base.Adversary.plan_injections` call;
  the loop then consumes them as array slices (a round without
  injections costs two list lookups) instead of calling
  ``inject(round_no, view)`` every round.  The per-round ``inject`` stays
  the universal fallback and the reference-loop path.
* **Wake schedules** — three tiers.  When every controller declares
  ``static_wake_schedule`` and the algorithm's published
  :class:`~repro.core.schedule.ObliviousSchedule` has a finite period, the
  per-round awake set is a precomputed tuple lookup and the per-round
  awake *counts* become a precomputed numpy series flushed to the energy
  monitor and collector in one batch.  Otherwise, when every controller
  declares ``ticked_wakes`` and shares a
  :class:`~repro.core.schedule.WakeOracle`, the kernel issues one
  ``tick(t)`` plus one batch ``awake_stations(t)`` per round.  Only runs
  declaring neither fall back to ``n`` stateful ``wakes(t)`` calls.
* **Incremental metrics** — when every controller declares
  ``queue_metrics_incremental``, only stations that were awake or received
  an injection are re-polled for their queue size; everyone else is known
  unchanged.
* **Quiescence skipping** — when every controller declares
  ``silence_invariant`` (holding no packets, an awake station never
  transmits, and silent rounds only advance clock-like state) and the
  adversary plans its injections, a run whose total queue hits zero
  consults the current :class:`~repro.adversary.base.InjectionPlan` chunk
  for the next injection round and elides the whole silent span in one
  step: controllers fast-forward via ``advance_silent_span``, a shared
  :class:`~repro.core.schedule.WakeOracle` via ``advance_span``, and the
  span's SILENCE outcomes, energy counts and flat queue series are
  flushed as batch appends.  In the paper's regime of interest (injection
  rate ρ < 1) most rounds of a stable execution are quiescent, so this is
  what moves low-rate runs from O(rounds) toward O(busy rounds).

Per-round :class:`~repro.channel.feedback.Feedback` allocation is
eliminated through a :class:`~repro.channel.feedback.FeedbackPool`:
SILENCE and COLLISION rounds reuse interned singletons, HEARD rounds
recycle one instance in-place (guarded by a refcount check, so a
controller that retains feedback is never surprised).

The block engine (:class:`~repro.channel.block.BlockEngine`) subclasses
the kernel, and the bookkeeping both loops need exists once, here, as
methods both call: injection-plan fetch and replay (``_next_plan``), the
static tier's per-call awake-count series (``_static_counts``),
quiescent-span elision (``_elide_span``) and the end-of-call
reconciliation of energy, collector and outcome counters
(``_reconcile``).  Per-round steps stay inline in each loop: one
energy-accounting branch once the awake set is known, and one re-poll
loop over the stations whose queues can have changed.

The kernel allocates no per-round event objects and therefore cannot
record traces — tracing (and any need for the fully observable, checked
loop) is what :class:`RoundEngine` remains for.  A property test asserts
that both loops produce identical summaries on random run specs; the
reference loop is the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .energy import EnergyCapViolation, EnergyMonitor
from .engine import (
    AdversaryView,
    EngineConfig,
    ScheduleBackedView,
    check_message,
    negotiated_view_window,
    validate_controllers,
)
from .feedback import ChannelOutcome, FeedbackPool
from .message import Message
from .station import StationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..adversary.base import Adversary, InjectionPlan
    from ..core.schedule import ObliviousSchedule, WakeOracle
    from ..metrics.collector import MetricsCollector

__all__ = ["KernelEngine"]


class KernelEngine:
    """Drop-in fast counterpart of :class:`RoundEngine`.

    Parameters
    ----------
    controllers, adversary, collector, config:
        As for :class:`RoundEngine`.  ``config.record_trace`` is rejected:
        the kernel's whole point is not to materialise per-round events.
    schedule:
        The algorithm's published oblivious schedule, if any.  Only used
        when every controller also declares ``static_wake_schedule``; the
        schedule must agree with the controllers' ``wakes`` (the published
        schedule *is* that declaration, and the kernel-vs-reference
        property test cross-checks it).
    """

    def __init__(
        self,
        controllers: Sequence[StationController],
        adversary: "Adversary",
        collector: "MetricsCollector | None" = None,
        config: EngineConfig | None = None,
        schedule: "ObliviousSchedule | None" = None,
    ) -> None:
        self.controllers = validate_controllers(controllers)
        self.n = len(self.controllers)
        self.adversary = adversary
        self.config = config or EngineConfig()
        if self.config.record_trace:
            raise ValueError(
                "the kernel engine does not record traces; "
                "use the reference RoundEngine (engine='reference') for traced runs"
            )
        if collector is None:
            from ..metrics.collector import MetricsCollector

            collector = MetricsCollector()
        self.collector = collector
        self.energy = EnergyMonitor(
            cap=self.config.energy_cap, enforce=self.config.enforce_energy_cap
        )
        self.trace = None  # API parity with RoundEngine
        self.round_no = 0
        self._feedback_pool = FeedbackPool()
        # Unconsumed remainder of a fetched injection plan, carried across
        # run() calls.  A plan consumes the adversary's leaky-bucket
        # budget for its whole window up front, so when an exception
        # aborts a run mid-chunk the already-materialised rounds must be
        # replayed from this cache on resume — re-planning would start
        # from the post-chunk budget state and inject the wrong packets.
        self._plan_state: "InjectionPlan | None" = None
        # The algorithm's published schedule (may be None); kept for
        # subclasses that negotiate further batch exports from it (the
        # block engine's awake-membership matrix).
        self._schedule = schedule

        # -- negotiation: adversary observation --------------------------------
        self._window = negotiated_view_window(adversary, self.config.full_history)
        self.view = AdversaryView(n=self.n, window=self._window)
        self._observe_view = self._window != 0

        # -- negotiation: batched injection planning ---------------------------
        # Planning adversaries are oblivious by contract; requiring the
        # negotiated window to be 0 keeps a full_history override (or a
        # mis-declared adversary) on the checked per-round path.
        self._planned_injections = self._window == 0 and bool(
            getattr(adversary, "plans_injections", False)
        )

        # -- negotiation: wake schedule ----------------------------------------
        self._period_awake: tuple[tuple[int, ...], ...] | None = None
        self._period_counts: np.ndarray | None = None
        if schedule is not None and all(
            getattr(ctrl, "static_wake_schedule", False) for ctrl in self.controllers
        ):
            self._period_awake = schedule.periodic_awake_sets()
        # -- negotiation: schedule-backed windowed view ------------------------
        self._scheduled_view = False
        if (
            self._period_awake is not None
            and self._observe_view
            and self._window is not None
        ):
            prefix = schedule.period_on_count_prefix()
            if prefix is not None:
                self.view = ScheduleBackedView(
                    self.n, self._window, self._period_awake, prefix
                )
                self._scheduled_view = True
        if self._period_awake is not None:
            # The per-period awake-count series (cached on the schedule).
            # When the cap can never be exceeded (or there is none) the
            # per-round energy bookkeeping is fully vectorised: no count,
            # no check, no append in the loop — the series is flushed in
            # one batch.
            counts = schedule.periodic_awake_counts()
            cap = self.energy.cap
            if counts is not None and (cap is None or int(counts.max()) <= cap):
                self._period_counts = counts

        # -- negotiation: ticked wake protocol ---------------------------------
        self._wake_oracle: "WakeOracle | None" = None
        if self._period_awake is None and all(
            getattr(ctrl, "ticked_wakes", False) for ctrl in self.controllers
        ):
            oracle = getattr(self.controllers[0], "wake_oracle", None)
            if oracle is not None and all(
                getattr(ctrl, "wake_oracle", None) is oracle
                for ctrl in self.controllers
            ):
                self._wake_oracle = oracle

        # -- negotiation: incremental queue metrics ----------------------------
        self._incremental_metrics = all(
            getattr(ctrl, "queue_metrics_incremental", False)
            for ctrl in self.controllers
        )
        self._heard_only_polls = self._incremental_metrics and all(
            getattr(ctrl, "queue_changes_on_heard_only", False)
            for ctrl in self.controllers
        )
        self._queue_sizes = [ctrl.queued_packets() for ctrl in self.controllers]
        self._total_queue = sum(self._queue_sizes)
        self.collector.begin_stations(self.n)

        # -- negotiation: quiescence skipping ----------------------------------
        # Eliding a span requires knowing, without running the adversary,
        # that no injection falls inside it (planned injections), that no
        # controller state beyond what advance_silent_span reproduces can
        # change (silence_invariant everywhere), that queue metrics stay
        # flat without polling (incremental), and a tier that can supply
        # the span's awake counts in batch (cap-safe static schedule or a
        # wake oracle answering quiescent_awake_counts).
        self._silence_capable = (
            self.config.quiescence_skip
            and self._planned_injections
            and self._incremental_metrics
            and (self._period_counts is not None or self._wake_oracle is not None)
            and all(
                getattr(ctrl, "silence_invariant", False)
                for ctrl in self.controllers
            )
        )
        #: Quiescent rounds elided by the span fast path (introspection).
        self.quiescent_rounds_elided = 0

        # Pre-bound per-station methods: the hot loop touches only awake
        # stations, and a plain list indexing beats repeated attribute
        # lookups on the controller objects.
        self._act = [ctrl.act for ctrl in self.controllers]
        self._feedback = [ctrl.on_feedback for ctrl in self.controllers]
        self._poll = [ctrl.queued_packets for ctrl in self.controllers]
        self._inject_into = [ctrl.on_inject for ctrl in self.controllers]

    # -- negotiated capabilities (introspection for tests/reports) -----------
    @property
    def uses_schedule_fast_path(self) -> bool:
        """True when awake sets come from the precomputed schedule period."""
        return self._period_awake is not None

    @property
    def uses_ticked_wakes(self) -> bool:
        """True when awake sets come from one shared tick + batch query."""
        return self._wake_oracle is not None

    @property
    def uses_vectorised_energy(self) -> bool:
        """True when per-round awake counts come from the precomputed series."""
        return self._period_counts is not None

    @property
    def uses_incremental_metrics(self) -> bool:
        """True when only awake/injected stations are re-polled per round."""
        return self._incremental_metrics

    @property
    def maintains_view(self) -> bool:
        """True unless the adversary declared itself oblivious."""
        return self._observe_view

    @property
    def uses_planned_injections(self) -> bool:
        """True when injections are consumed from chunked plans."""
        return self._planned_injections

    @property
    def uses_batched_view(self) -> bool:
        """True when the adversary view is schedule-backed (batched)."""
        return self._scheduled_view

    @property
    def uses_quiescence_skipping(self) -> bool:
        """True when injection-free all-queues-empty spans are elided."""
        return self._silence_capable

    def negotiation(self) -> dict:
        """The negotiated capabilities as a plain dict (reports/CLI)."""
        return {
            "engine": type(self).__name__,
            "schedule_fast_path": self.uses_schedule_fast_path,
            "ticked_wakes": self.uses_ticked_wakes,
            "vectorised_energy": self.uses_vectorised_energy,
            "incremental_metrics": self.uses_incremental_metrics,
            "maintains_view": self.maintains_view,
            "planned_injections": self.uses_planned_injections,
            "batched_view": self.uses_batched_view,
            "quiescence_skipping": self.uses_quiescence_skipping,
            "quiescent_rounds_elided": self.quiescent_rounds_elided,
        }

    # -- bookkeeping shared with the block engine -----------------------------
    def _next_plan(self, t: int, stop: int) -> "InjectionPlan":
        """The injection plan covering round ``t``, fetching if necessary.

        Replays the cached remainder of an aborted chunk when one covers
        ``t`` — the adversary's leaky-bucket budget for those rounds is
        already consumed, so re-planning would inject the wrong packets.
        Otherwise fetches and validates a fresh plan for ``[t, stop)``
        and caches it for exactly that replay contingency.
        """
        plan = self._plan_state
        if plan is not None and plan.start <= t < plan.stop:
            return plan
        plan = self.adversary.plan_injections(t, stop)
        plan.validate(self.n)
        self._plan_state = plan
        return plan

    def _static_counts(self, start: int, stop: int) -> list[int] | None:
        """Awake counts of rounds ``[start, stop)`` on the cap-safe static tier.

        When the schedule's per-period counts can never exceed the cap
        (or there is none), no loop counts, checks or appends energy per
        round: this series is flushed once by :meth:`_reconcile`.
        Returns None on every other tier.
        """
        if self._period_counts is None or stop <= start:
            return None
        period_len = len(self._period_awake)
        return self._period_counts[
            np.arange(start, stop, dtype=np.int64) % period_len
        ].tolist()

    def _elide_span(
        self,
        t: int,
        stop: int,
        plan: "InjectionPlan",
        static_counts: list[int] | None,
        advance_driver: Callable[[int, int], None] | None = None,
    ) -> int:
        """Elide the quiescent span from ``t`` to the next planned injection.

        Requires every queue to be empty and the silence invariant: the
        rounds up to the plan's next injection round (capped at ``stop``)
        are then silent and state-predictable.  Controllers fast-forward
        via ``advance_silent_span``, then ``advance_driver`` (the block
        engine's driver hook) and the wake oracle via ``advance_span``;
        the span's flat queue series and (ticked tier) awake counts are
        flushed as batch appends.  Returns the first round not elided —
        ``t`` when nothing was.  An oracle that cannot give cap-safe
        counts disables elision for good: the counts are a pure function
        of the round window, so re-probing would never succeed.
        """
        nonzero = plan.injection_rounds()
        pos = bisect_left(nonzero, t)
        span_end = min(nonzero[pos] if pos < len(nonzero) else plan.stop, stop)
        if span_end <= t:
            return t
        span_counts = None
        if static_counts is None:
            span_counts = self._wake_oracle.quiescent_awake_counts(t, span_end)
            cap = self.energy.cap
            if span_counts is None or (cap is not None and int(span_counts.max()) > cap):
                self._silence_capable = False
                return t
        for ctrl in self.controllers:
            ctrl.advance_silent_span(t, span_end)
        if advance_driver is not None:
            advance_driver(t, span_end)
        if span_counts is not None:
            self._wake_oracle.advance_span(t, span_end)
            self.energy.per_round.extend(span_counts.tolist())
        self.collector.record_queue_span(0, span_end - t)
        self.quiescent_rounds_elided += span_end - t
        return span_end

    def _reconcile(
        self,
        start: int,
        t: int,
        mark: int,
        static_counts: list[int] | None,
        energized: int,
        total_queue: int,
        outcomes: tuple[int, int, int],
    ) -> None:
        """Fold one loop call's local state back in (exceptions included).

        Rounds ``[start, t)`` completed; ``mark`` is the energy monitor's
        series length at ``start``.  The monitor keeps every round that
        reached step 2 (energy accounting), the round an exception
        aborted included; the collector keeps completed rounds only —
        exactly what the reference loop's per-round calls would have
        recorded.  On the static tier the loop appended nothing, so
        ``static_counts`` is flushed up to ``max(energized, t)``, where
        ``energized`` is one past the last round that reached step 2.
        ``outcomes`` are the call's (silence, heard, collision) counts,
        in :class:`ChannelOutcome` order.
        """
        done = t - start
        self.round_no = t
        self._total_queue = total_queue
        plan = self._plan_state
        if plan is not None and t >= plan.stop:
            # Fully consumed; only aborted runs leave a remainder for the
            # next call to replay.
            self._plan_state = None
        if self._scheduled_view:
            # Bring the lazily maintained history ring current so
            # post-run inspection sees the window the incremental path
            # would have left behind.
            self.view.flush_window()
        energy = self.energy
        if static_counts is not None:
            energy.per_round.extend(static_counts[: max(energized, t) - start])
        # Per-call folding: summing the monitor's whole history per call
        # would be quadratic across many short calls (block fallbacks).
        added = energy.per_round[mark:]
        if added:
            energy.total_station_rounds += sum(added)
            peak = max(added)
            if peak > energy.max_awake:
                energy.max_awake = peak
        collector = self.collector
        collector.energy_series.extend(added if len(added) == done else added[:done])
        collector.rounds_observed += done
        tally = collector.outcome_counts
        for outcome, count in zip(ChannelOutcome, outcomes):
            if count:
                tally[outcome] = tally.get(outcome, 0) + count

    # -- main loop ------------------------------------------------------------
    def run(self, rounds: int) -> None:
        """Simulate ``rounds`` further rounds.

        The loop body keeps every per-round quantity in locals;
        :meth:`_reconcile` flushes the aggregate counters (energy totals,
        outcome counts, rounds observed) once at the end — also on
        exceptions, so partial state stays consistent with what the
        reference loop would have recorded up to the failing round.
        """
        controllers = self.controllers
        adversary = self.adversary
        collector = self.collector
        config = self.config
        energy = self.energy
        view = self.view
        period = self._period_awake
        period_len = len(period) if period is not None else 0
        oracle = self._wake_oracle
        oracle_tick = oracle.tick if oracle is not None else None
        oracle_awake = oracle.awake_stations if oracle is not None else None
        incremental = self._incremental_metrics
        heard_only_polls = self._heard_only_polls
        all_stations = range(self.n)
        observe_view = self._observe_view
        scheduled_view = self._scheduled_view
        observe_scheduled = view.observe_scheduled if scheduled_view else None
        planned = self._planned_injections
        chunk = config.plan_chunk
        # An unbound adversary has no factory; the first plan_injections
        # call raises the same RuntimeError inject() would, before this
        # None could be used.
        factory_make = (
            adversary.factory.make
            if planned and adversary.factory is not None
            else None
        )
        checked_messages = (
            config.check_plain_packet or config.max_control_bits is not None
        )
        queue_sizes = self._queue_sizes
        total_queue = self._total_queue
        n = self.n
        act = self._act
        give_feedback = self._feedback
        poll = self._poll
        inject_into = self._inject_into
        record_injection = collector.record_injection
        inject = adversary.inject
        silence_capable = self._silence_capable
        pool = self._feedback_pool
        pool_heard = pool.heard
        silence_feedback = pool.silence()
        collision_feedback = pool.collision()
        # Collector/monitor internals, appended to directly in the loop;
        # _reconcile folds the aggregates in.
        energy_per_round = energy.per_round
        total_queue_series = collector.total_queue_series
        per_station_max = collector.per_station_max_queue
        cap = energy.cap
        # No round has more than n awake stations, so n stands in for "no cap".
        cap_limit = n if cap is None else cap
        enforce_cap = energy.enforce
        silence = ChannelOutcome.SILENCE
        heard_outcome = ChannelOutcome.HEARD
        collision = ChannelOutcome.COLLISION
        n_silence = n_heard = n_collision = 0
        start = t = energized = self.round_no
        end = start + rounds
        mark = len(energy_per_round)
        counts_list = self._static_counts(start, end)

        # Chunked machinery: injection plans are fetched (and the
        # schedule-backed view's history ring refreshed) every ``chunk``
        # rounds.  ``next_chunk`` is the first round of the next chunk;
        # it starts at the current round so the first loop iteration pulls
        # a plan through _next_plan — which transparently replays the
        # cached remainder of a chunk an earlier run() aborted inside.
        next_chunk = start
        plan: "InjectionPlan | None" = None
        plan_offsets: list[int] = []
        plan_sources: list[int] = []
        plan_destinations: list[int] = []
        plan_base = 0

        try:
            while t < end:
                # 1. Adversarial injections (stations receive packets even
                #    when off).  Planning adversaries are consumed as
                #    chunked array slices; everyone else through the
                #    per-round inject() fallback.
                if planned:
                    if t == next_chunk:
                        plan = self._next_plan(t, min(t + chunk, end))
                        plan_offsets = plan.offsets
                        plan_sources = plan.sources
                        plan_destinations = plan.destinations
                        plan_base = plan.start
                        next_chunk = plan.stop
                    if silence_capable and total_queue == 0:
                        span_end = self._elide_span(t, end, plan, counts_list)
                        if span_end > t:
                            n_silence += span_end - t
                            t = span_end
                            continue
                        silence_capable = self._silence_capable
                    rel = t - plan_base
                    lo = plan_offsets[rel]
                    hi = plan_offsets[rel + 1]
                    if lo == hi:
                        injected = ()
                    else:
                        injected = plan_sources[lo:hi]
                        for j in range(lo, hi):
                            station = plan_sources[j]
                            packet = factory_make(
                                destination=plan_destinations[j],
                                injected_at=t,
                                origin=station,
                            )
                            inject_into[station](t, packet)
                            record_injection(packet, t)
                else:
                    if observe_view:
                        view.round_no = t
                        if scheduled_view and t == next_chunk:
                            view.flush_window()
                            next_chunk = t + chunk
                    injections = inject(t, view)
                    for station, packet in injections:
                        if not 0 <= station < n:
                            raise ValueError(
                                f"adversary injected into unknown station {station}"
                            )
                        if not 0 <= packet.destination < n:
                            raise ValueError(
                                "adversary created packet with unknown destination "
                                f"{packet.destination}"
                            )
                        inject_into[station](t, packet)
                        record_injection(packet, t)
                    injected = [station for station, _ in injections]

                # 2. On/off decisions and energy accounting.
                if period is not None:
                    awake = period[t % period_len]
                elif oracle_tick is not None:
                    oracle_tick(t)
                    awake = oracle_awake(t)
                else:
                    awake = tuple(
                        i for i, ctrl in enumerate(controllers) if ctrl.wakes(t)
                    )
                if counts_list is None:
                    awake_count = len(awake)
                    energy_per_round.append(awake_count)
                    if awake_count > cap_limit:
                        energy.violations += 1
                        if enforce_cap:
                            raise EnergyCapViolation(t, awake_count, cap)
                else:
                    energized = t + 1

                # 3. Awake stations act, 4. channel arbitration (fused).
                transmissions = 0
                heard: Message | None = None
                for i in awake:
                    message = act[i](t)
                    if message is None:
                        continue
                    if message.sender != i:
                        raise ValueError(
                            f"station {i} transmitted a message claiming sender "
                            f"{message.sender}"
                        )
                    if checked_messages:
                        check_message(config, i, message)
                    transmissions += 1
                    heard = message if transmissions == 1 else None
                if transmissions == 0:
                    outcome = silence
                    n_silence += 1
                elif transmissions == 1:
                    outcome = heard_outcome
                    n_heard += 1
                else:
                    outcome = collision
                    n_collision += 1

                # 5. Delivery bookkeeping.
                delivered = False
                if (
                    heard is not None
                    and heard.packet is not None
                    and heard.packet.destination in awake
                ):
                    delivered = True
                    collector.record_delivery(
                        heard.packet, heard.packet.destination, t
                    )

                # 6. Feedback to awake stations (pooled: silence/collision
                #    rounds share interned singletons, heard rounds recycle
                #    one instance).
                if outcome is heard_outcome:
                    feedback = pool_heard(t, heard, delivered)
                elif outcome is silence:
                    feedback = silence_feedback
                else:
                    feedback = collision_feedback
                for i in awake:
                    give_feedback[i](t, feedback)
                # Drop the loop's reference so the pool sees itself as the
                # sole owner next round and can recycle the instance.
                feedback = None

                # 7. Metrics: re-poll the stations whose queue size can
                #    have changed — every station without incremental
                #    metrics; otherwise the awake set (heard rounds only
                #    under the heard-only capability) plus the injectees.
                if not incremental:
                    polled = all_stations
                else:
                    if outcome is heard_outcome or not heard_only_polls:
                        polled = awake
                    else:
                        polled = ()
                    if injected:
                        polled = (*polled, *injected)
                for i in polled:
                    size = poll[i]()
                    if size != queue_sizes[i]:
                        total_queue += size - queue_sizes[i]
                        queue_sizes[i] = size
                        if size > per_station_max[i]:
                            per_station_max[i] = size
                total_queue_series.append(total_queue)

                # 8. Adversary view update (skipped for oblivious
                #    adversaries; O(1) on the schedule-backed path, where
                #    awake-derived state comes from the period series and
                #    the live size list is aliased rather than copied).
                if observe_view:
                    if scheduled_view:
                        observe_scheduled(
                            outcome, queue_sizes, collector.delivered_count
                        )
                    else:
                        view.observe_round(
                            awake, outcome, list(queue_sizes), collector.delivered_count
                        )
                t += 1
        finally:
            self._reconcile(
                start, t, mark, counts_list, energized, total_queue,
                (n_silence, n_heard, n_collision),
            )
