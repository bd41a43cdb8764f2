"""Run-time metrics collection and correctness bookkeeping.

The collector is fed by the engine:

* every injection (packet + round),
* every delivery (packet + consuming station + round),
* once per round, the per-station queue sizes, the energy spent and the
  channel outcome.

It verifies the correctness conditions of Section 2 — every delivery goes
to the packet's destination, and no packet is delivered more than once —
and exposes the two performance measures the paper uses: the **queue
size** (total packets stored in a round) and **packet delay / latency**
(delivery round minus injection round), plus energy statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.feedback import ChannelOutcome
from ..channel.packet import Packet
from .summary import RunSummary

__all__ = ["DeliveryError", "MetricsCollector"]


class DeliveryError(RuntimeError):
    """A correctness violation: wrong destination or duplicate delivery."""


@dataclass(slots=True)
class _PacketRecord:
    packet: Packet
    injected_at: int
    delivered_at: int | None = None


@dataclass
class MetricsCollector:
    """Accumulates per-round and per-packet statistics of one execution."""

    records: dict[int, _PacketRecord] = field(default_factory=dict)
    total_queue_series: list[int] = field(default_factory=list)
    per_station_max_queue: list[int] = field(default_factory=list)
    energy_series: list[int] = field(default_factory=list)
    outcome_counts: dict[ChannelOutcome, int] = field(default_factory=dict)
    delays: list[int] = field(default_factory=list)
    rounds_observed: int = 0
    injected_count: int = 0
    delivered_count: int = 0

    # -- engine-facing API ---------------------------------------------------
    def record_injection(self, packet: Packet, round_no: int) -> None:
        """Register an adversarial injection."""
        if packet.packet_id in self.records:
            raise DeliveryError(f"packet {packet.packet_id} injected twice")
        self.records[packet.packet_id] = _PacketRecord(packet, round_no)
        self.injected_count += 1

    def record_delivery(self, packet: Packet, station: int, round_no: int) -> None:
        """Register a delivery, enforcing exactly-once and right-destination."""
        if station != packet.destination:
            raise DeliveryError(
                f"packet {packet.packet_id} consumed by station {station}, "
                f"but its destination is {packet.destination}"
            )
        record = self.records.get(packet.packet_id)
        if record is None:
            raise DeliveryError(
                f"packet {packet.packet_id} delivered but never injected"
            )
        if record.delivered_at is not None:
            raise DeliveryError(
                f"packet {packet.packet_id} delivered twice "
                f"(rounds {record.delivered_at} and {round_no})"
            )
        record.delivered_at = round_no
        self.delivered_count += 1
        self.delays.append(round_no - record.injected_at)

    def record_round(
        self,
        round_no: int,
        queue_sizes: list[int],
        awake_count: int,
        outcome: ChannelOutcome,
    ) -> None:
        """Register the end-of-round system state (polled path).

        The engine hands over every station's queue size each round.  The
        kernel's incremental path instead calls :meth:`begin_stations`
        once, :meth:`record_station_queue` only for stations whose queue
        changed, and :meth:`record_round_total` once per round; both paths
        accumulate identical statistics.
        """
        self.begin_stations(len(queue_sizes))
        for i, q in enumerate(queue_sizes):
            if q > self.per_station_max_queue[i]:
                self.per_station_max_queue[i] = q
        self.record_round_total(round_no, int(sum(queue_sizes)), awake_count, outcome)

    # -- incremental engine-facing API (kernel loop) -------------------------
    def begin_stations(self, n: int) -> None:
        """Size the per-station maxima before incremental updates start."""
        if not self.per_station_max_queue:
            self.per_station_max_queue = [0] * n

    def record_station_queue(self, station: int, size: int) -> None:
        """Update one station's queue-size maximum (changed stations only)."""
        if size > self.per_station_max_queue[station]:
            self.per_station_max_queue[station] = size

    def record_round_total(
        self,
        round_no: int,
        total_queue: int,
        awake_count: int,
        outcome: ChannelOutcome,
    ) -> None:
        """Register the end-of-round totals (incremental path)."""
        self.rounds_observed += 1
        self.total_queue_series.append(total_queue)
        self.energy_series.append(awake_count)
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1

    def record_queue_span(self, total_queue: int, rounds: int) -> None:
        """Batch-append a flat stretch of the total-queue series.

        The kernel engine's quiescent-span fast path records ``rounds``
        consecutive rounds whose total queue size is ``total_queue`` (0
        in practice) in one extend instead of one append per round; the
        per-station maxima are untouched because no queue changed.  This
        leaves ``rounds_observed`` to the caller's end-of-run
        reconciliation.
        """
        self.total_queue_series.extend([total_queue] * rounds)

    def record_round_totals(self, totals: "list[int]") -> None:
        """Batch-append end-of-round total queue sizes (lowered segments).

        The block engine's segment-lowering path computes a whole span's
        running totals with one vectorised kernel and flushes them here;
        like :meth:`record_queue_span` this leaves ``rounds_observed``
        and the per-station maxima (updated from the segment's own
        per-station flow kernel) to the caller.
        """
        self.total_queue_series.extend(totals)

    # -- derived statistics ----------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Packets injected but not yet delivered."""
        return self.injected_count - self.delivered_count

    def max_queue(self) -> int:
        """Maximum total number of queued packets observed in any round."""
        return max(self.total_queue_series, default=0)

    def max_delay(self) -> int:
        """Maximum delay among *delivered* packets (0 when none delivered)."""
        return max(self.delays, default=0)

    def max_pending_age(self) -> int:
        """Age (rounds since injection) of the oldest still-undelivered packet."""
        if self.rounds_observed == 0:
            return 0
        now = self.rounds_observed
        ages = [
            now - rec.injected_at
            for rec in self.records.values()
            if rec.delivered_at is None
        ]
        return max(ages, default=0)

    def observed_latency(self) -> int:
        """Latency measure of the execution.

        The latency of an execution is the maximum packet delay; packets
        still queued at the end contribute their current age, which lower
        bounds their eventual delay.
        """
        return max(self.max_delay(), self.max_pending_age())

    def mean_delay(self) -> float:
        """Average delay of delivered packets."""
        return float(np.mean(self.delays)) if self.delays else 0.0

    def delivery_ratio(self) -> float:
        """Fraction of injected packets delivered by the end of the run."""
        if self.injected_count == 0:
            return 1.0
        return self.delivered_count / self.injected_count

    def throughput(self) -> float:
        """Delivered packets per round."""
        if self.rounds_observed == 0:
            return 0.0
        return self.delivered_count / self.rounds_observed

    def total_energy(self) -> int:
        """Total station-rounds of energy spent."""
        return int(sum(self.energy_series))

    def energy_per_round(self) -> float:
        """Average number of awake stations per round."""
        if not self.energy_series:
            return 0.0
        return float(np.mean(self.energy_series))

    def energy_per_delivery(self) -> float:
        """Station-rounds spent per delivered packet (inf when none delivered)."""
        if self.delivered_count == 0:
            return float("inf")
        return self.total_energy() / self.delivered_count

    def queue_series_array(self) -> np.ndarray:
        """Total queue-size time series as a numpy array."""
        return np.asarray(self.total_queue_series, dtype=np.int64)

    def undelivered_packets(self) -> list[Packet]:
        """Packets injected but never delivered, in injection order."""
        pending = [
            rec for rec in self.records.values() if rec.delivered_at is None
        ]
        pending.sort(key=lambda rec: (rec.injected_at, rec.packet.packet_id))
        return [rec.packet for rec in pending]

    def summary(self, label: str = "") -> RunSummary:
        """Condense the collected statistics into a :class:`RunSummary`."""
        from .stability import assess_stability

        verdict = assess_stability(self.queue_series_array())
        return RunSummary(
            label=label,
            rounds=self.rounds_observed,
            injected=self.injected_count,
            delivered=self.delivered_count,
            max_queue=self.max_queue(),
            max_delay=self.max_delay(),
            observed_latency=self.observed_latency(),
            mean_delay=self.mean_delay(),
            delivery_ratio=self.delivery_ratio(),
            throughput=self.throughput(),
            energy_per_round=self.energy_per_round(),
            max_energy=max(self.energy_series, default=0),
            energy_per_delivery=self.energy_per_delivery(),
            queue_growth_rate=verdict.growth_rate,
            stable=verdict.stable,
        )
