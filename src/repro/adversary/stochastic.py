"""Seeded stochastic traffic generators clipped to the leaky bucket.

The paper's adversary is a worst-case abstraction; real evaluations also
exercise 'average' traffic.  These adversaries draw sources, destinations
and per-round demands from a seeded :class:`numpy.random.Generator` while
the base class guarantees the realised injection sequence never exceeds
the declared ``(rho, beta)`` envelope — so every stochastic run is also a
legal adversary of that type.

Being oblivious, these families also declare ``plans_injections`` and
are consumed by the kernel engine in batched chunks.  The generator
stream is part of a seeded run's identity (recorded runs, caches and
replays must keep reproducing bit-identical traffic), so its protocol is
named by an explicit, spec-recorded ``rng_version``.  The one protocol,
``rng_version=2``, is the *batched RNG protocol*: the stream is consumed
in fixed, absolute blocks of :data:`RNG_BLOCK` rounds, each materialised
by a handful of array draws (raw per-round demand counts first, then the
per-packet draws, in a fixed documented order) and clipped against the
leaky bucket in one
:meth:`~repro.adversary.leaky_bucket.LeakyBucketConstraint.consume_demands`
sweep.  Because block boundaries are fixed in absolute round numbers,
the stream is independent of the engine's ``plan_chunk`` and of whether
rounds are consumed through plans or per-round ``inject()`` (both
property-tested).  The per-round protocol 1 that preceded it is retired
and rejected: recordings made on it no longer replay.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..channel.engine import AdversaryView
from .base import InjectionDemand, ObliviousAdversary
from .leaky_bucket import LeakyBucketConstraint

__all__ = [
    "DEFAULT_RNG_VERSION",
    "RNG_BLOCK",
    "SeededAdversary",
    "UniformRandomAdversary",
    "HotspotAdversary",
    "RandomWalkAdversary",
]

#: Round-window granularity of the batched RNG protocol.  The
#: stream is drawn one absolute block ``[b * RNG_BLOCK, (b+1) * RNG_BLOCK)``
#: at a time, so the constant is part of the protocol: changing it would
#: change every stream.
RNG_BLOCK = 4096

#: The RNG protocol seeded adversaries speak (the only one accepted).
#: :class:`~repro.sim.specs.RunSpec` records it in every seeded spec.
DEFAULT_RNG_VERSION = 2


class SeededAdversary(ObliviousAdversary):
    """Base class of the stochastic adversaries: explicit, replayable seeding.

    Stochastic traffic is oblivious in the adversarial sense: demands are
    drawn from the seeded generator, never from the execution view, so the
    kernel engine skips view maintenance for these adversaries.

    The seed — and the RNG protocol version (see the module docstring) —
    are part of the adversary's identity: both appear in
    :meth:`describe`, so worst-case reports and deterministic tie-breaks
    distinguish them, and spec-based runs reconstruct the exact generator
    in any process (parallel workers build adversaries fresh from their
    specs; that construction-from-seed is what makes parallel runs
    bit-identical to serial ones).  :meth:`reset_rng` additionally lets a
    caller reuse one instance for several replays; subclasses with
    RNG-derived state must override it to reset that state too.
    """

    def __init__(
        self, rho: float, beta: float, seed: int = 0, rng_version: int = DEFAULT_RNG_VERSION
    ) -> None:
        super().__init__(rho, beta)
        if rng_version != DEFAULT_RNG_VERSION:
            raise ValueError(
                f"unknown rng_version {rng_version!r}; the only protocol is "
                f"{DEFAULT_RNG_VERSION} (batched block draws)"
            )
        self.seed = seed
        self.rng_version = rng_version
        self._rng = np.random.default_rng(seed)
        # Block cache: the current block's base round, per-round
        # pair offsets (length RNG_BLOCK + 1) and flat pair lists.
        self._block_start = -1
        self._block_offsets: list[int] = []
        self._block_sources: list[int] = []
        self._block_destinations: list[int] = []

    def reset_rng(self) -> None:
        """Restore the generator (and any derived state) to its seeded start.

        The leaky-bucket constraint tracker is reset too: a replayed run
        must see the same per-round budgets as the first, not the slack
        left over from a previous execution.
        """
        self._rng = np.random.default_rng(self.seed)
        self.constraint = LeakyBucketConstraint(self.adversary_type)
        self._block_start = -1

    def describe(self) -> str:
        return (
            f"{type(self).__name__}{self.adversary_type}"
            f"[seed={self.seed},rng=v{self.rng_version}]"
        )

    # -- batched RNG protocol ------------------------------------------------
    def _draw_block(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise one RNG block: raw counts plus per-packet pairs.

        Returns ``(counts, sources, destinations)`` where ``counts`` has
        :data:`RNG_BLOCK` entries (the *raw*, pre-clipping demand of each
        round) and the pair arrays hold ``counts.sum()`` packets in round
        order.  Families define their own fixed draw order; the block is
        drawn exactly once per run, so the stream depends only on
        ``(seed, start)`` and the family's parameters.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the batched RNG protocol"
        )

    def _ensure_block(self, round_no: int) -> None:
        base = round_no - (round_no % RNG_BLOCK)
        if base == self._block_start:
            return
        counts, sources, destinations = self._draw_block(base)
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._block_start = base
        self._block_offsets = offsets.tolist()
        self._block_sources = sources.tolist()
        self._block_destinations = destinations.tolist()

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        """Per-round demand: slice the cached block.

        No generator call happens here, so the stream cannot depend on
        the realised budget; clipping to the envelope is left to the
        caller (``inject`` truncates demands to the budget,
        ``_plan_chunk`` clips via ``consume_demands``).
        """
        self._ensure_block(round_no)
        rel = round_no - self._block_start
        lo = self._block_offsets[rel]
        hi = self._block_offsets[rel + 1]
        if lo == hi:
            return []
        return list(
            zip(self._block_sources[lo:hi], self._block_destinations[lo:hi])
        )

    def _plan_chunk(
        self, start: int, stop: int
    ) -> tuple[list[int], list[int], list[int]]:
        counts: list[int] = []
        sources: list[int] = []
        destinations: list[int] = []
        constraint = self.constraint
        t = start
        while t < stop:
            self._ensure_block(t)
            base = self._block_start
            block_stop = min(stop, base + RNG_BLOCK)
            offsets = self._block_offsets
            rel = t - base
            raw = [
                offsets[r + 1] - offsets[r]
                for r in range(rel, block_stop - base)
            ]
            clipped = constraint.consume_demands(raw)
            counts.extend(clipped)
            block_sources = self._block_sources
            block_destinations = self._block_destinations
            for i, take in enumerate(clipped):
                if take:
                    lo = offsets[rel + i]
                    sources.extend(block_sources[lo : lo + take])
                    destinations.extend(block_destinations[lo : lo + take])
            t = block_stop
        return counts, sources, destinations

    # -- shared draw helpers -------------------------------------------------
    def _raw_counts(self) -> np.ndarray:
        """Per-round raw demand counts of one block: Binomial(B, rho).

        ``B`` is the type's burstiness cap, so raw demand is at most a
        burst per round at rate rho on average;
        the leaky bucket still clips every realised count to the exact
        envelope.
        """
        cap = max(1, self.adversary_type.burstiness)
        return self._rng.binomial(cap, min(1.0, self.rho), size=RNG_BLOCK)


class UniformRandomAdversary(SeededAdversary):
    """Bernoulli(rho)-per-round arrivals with uniformly random endpoints."""

    def _draw_block(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Fixed draw order: counts, sources, destinations.
        rng = self._rng
        counts = self._raw_counts()
        total = int(counts.sum())
        sources = rng.integers(self.n, size=total)
        destinations = rng.integers(self.n - 1, size=total)
        destinations = destinations + (destinations >= sources)
        return counts, sources, destinations


class HotspotAdversary(SeededAdversary):
    """A fraction of the traffic targets one hot destination.

    ``hot_fraction`` of packets are addressed to ``hot_station``; the rest
    are uniform.  Sources are uniform over the remaining stations.
    """

    def __init__(
        self,
        rho: float,
        beta: float,
        hot_station: int = 0,
        hot_fraction: float = 0.75,
        seed: int = 0,
        rng_version: int = DEFAULT_RNG_VERSION,
    ) -> None:
        super().__init__(rho, beta, seed, rng_version)
        if not 0 <= hot_fraction <= 1:
            raise ValueError("hot_fraction must lie in [0, 1]")
        self.hot_station = hot_station
        self.hot_fraction = hot_fraction

    def _draw_block(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Fixed draw order: counts, hot flags, cold destinations, sources.
        # (The cold-destination array is drawn for every packet so the
        # stream does not depend on the hot/cold split.)
        rng = self._rng
        counts = self._raw_counts()
        total = int(counts.sum())
        hot = rng.random(total) < self.hot_fraction
        destinations = np.where(
            hot, self.hot_station, rng.integers(self.n, size=total)
        )
        sources = rng.integers(self.n - 1, size=total)
        sources = sources + (sources >= destinations)
        return counts, sources, destinations


class RandomWalkAdversary(SeededAdversary):
    """Traffic locality drifts over time.

    The 'focus' station performs a lazy random walk over station names;
    packets are injected into the focus station with destinations near it.
    Exercises algorithms whose performance depends on which stations are
    currently loaded (e.g. Orchestra's baton movement).
    """

    def __init__(
        self,
        rho: float,
        beta: float,
        drift_probability: float = 0.2,
        seed: int = 0,
        rng_version: int = DEFAULT_RNG_VERSION,
    ) -> None:
        super().__init__(rho, beta, seed, rng_version)
        if not 0 <= drift_probability <= 1:
            raise ValueError("drift_probability must lie in [0, 1]")
        self.drift_probability = drift_probability
        self._focus = 0

    def reset_rng(self) -> None:
        super().reset_rng()
        self._focus = 0

    def _draw_block(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Fixed draw order: drift flags, drift steps, counts, offsets.
        # Drift steps are drawn for every round (used only where the flag
        # is set) so the walk is one cumulative-sum, and the focus of each
        # packet is the post-drift focus of its round (drift before
        # demand).
        rng = self._rng
        n = self.n
        drift = rng.random(RNG_BLOCK) < self.drift_probability
        steps = rng.integers(1, n, size=RNG_BLOCK)
        focus = (self._focus + np.cumsum(np.where(drift, steps, 0))) % n
        self._focus = int(focus[-1])
        counts = self._raw_counts()
        total = int(counts.sum())
        offsets = rng.integers(1, max(2, n // 2 + 1), size=total)
        packet_focus = np.repeat(focus, counts)
        destinations = (packet_focus + offsets) % n
        destinations = np.where(
            destinations == packet_focus, (packet_focus + 1) % n, destinations
        )
        return counts, packet_focus, destinations
