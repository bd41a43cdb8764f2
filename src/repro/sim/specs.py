"""Declarative run specifications.

A :class:`RunSpec` describes one simulated execution — algorithm, adversary,
horizon and engine knobs — as plain data (registry keys + JSON-serialisable
parameter dicts).  Because a spec is pure data it can

* cross process boundaries (the parallel executor ships specs to worker
  processes, which reconstruct the objects locally),
* be hashed canonically (the on-disk result cache keys entries by
  :meth:`RunSpec.spec_hash`), and
* be written down in experiment manifests and replayed bit-identically.

Algorithms are resolved through :mod:`repro.core.registry`; adversaries
through the registry defined here.  Schedule-aware adversaries (the
Theorem 6/9 lower-bound constructions) are registered with
``needs_schedule=True``: at execution time they receive the spec'd
algorithm's published oblivious schedule, so even those constructions are
expressible as plain data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..adversary import (
    DEFAULT_RNG_VERSION,
    AdaptiveStarvationAdversary,
    Adversary,
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    HotspotAdversary,
    LeastOnPairAdversary,
    LeastOnStationAdversary,
    NoInjectionAdversary,
    RandomWalkAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SeededAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from ..core import available_algorithms, make_algorithm
from ..core.algorithm import RoutingAlgorithm
from .runner import ENGINE_KINDS, RunResult, run_simulation

__all__ = [
    "AdversaryEntry",
    "EXECUTION_FIELDS",
    "RunSpec",
    "available_adversaries",
    "execute_spec",
    "execute_spec_batch",
    "make_adversary",
    "materialize_adversary",
    "materialize_algorithm",
    "rate_adversaries",
    "register_adversary",
    "spec_fragment",
]


# ---------------------------------------------------------------------------
# Adversary registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryEntry:
    """One registered adversary constructor.

    ``needs_schedule`` marks the schedule-aware lower-bound adversaries:
    their ``schedule`` argument cannot be spec'd as data and is instead
    derived from the algorithm under test at execution time.
    ``takes_rate`` marks constructors with the standard ``(rho, beta)``
    leading parameters (everything except :class:`NoInjectionAdversary`);
    the CLI only exposes those.
    """

    cls: type
    needs_schedule: bool = False
    takes_rate: bool = True


_ADVERSARIES: dict[str, AdversaryEntry] = {}


def register_adversary(
    name: str,
    cls: type | None = None,
    *,
    needs_schedule: bool = False,
    takes_rate: bool = True,
) -> Callable[[type], type] | type:
    """Register an :class:`Adversary` subclass under a canonical key.

    Usable directly (``register_adversary("spray", SprayAdversary)``) or as
    a class decorator (``@register_adversary("spray")``).
    """

    def _register(klass: type) -> type:
        key = name.lower()
        if key in _ADVERSARIES:
            raise ValueError(f"adversary name {name!r} already registered")
        _ADVERSARIES[key] = AdversaryEntry(
            cls=klass, needs_schedule=needs_schedule, takes_rate=takes_rate
        )
        return klass

    if cls is not None:
        return _register(cls)
    return _register


register_adversary("single-target", SingleTargetAdversary)
register_adversary("spray", SingleSourceSprayAdversary)
register_adversary("round-robin", RoundRobinAdversary)
register_adversary("alternating-pair", AlternatingPairAdversary)
register_adversary("saturating", SaturatingAdversary)
register_adversary("bursty", BurstThenIdleAdversary)
register_adversary("group-local", GroupLocalAdversary)
register_adversary("no-injection", NoInjectionAdversary, takes_rate=False)
register_adversary("random", UniformRandomAdversary)
register_adversary("hotspot", HotspotAdversary)
register_adversary("random-walk", RandomWalkAdversary)
register_adversary("adaptive-starvation", AdaptiveStarvationAdversary)
register_adversary("least-on-station", LeastOnStationAdversary, needs_schedule=True)
register_adversary("least-on-pair", LeastOnPairAdversary, needs_schedule=True)


def available_adversaries(*, include_schedule_aware: bool = True) -> list[str]:
    """Names of all registered adversaries, sorted."""
    return sorted(
        key
        for key, entry in _ADVERSARIES.items()
        if include_schedule_aware or not entry.needs_schedule
    )


def rate_adversaries() -> list[str]:
    """Registered adversaries with the standard ``(rho, beta)`` constructor."""
    return sorted(
        key
        for key, entry in _ADVERSARIES.items()
        if entry.takes_rate and not entry.needs_schedule
    )


def adversary_entry(name: str) -> AdversaryEntry:
    """Look up a registered adversary, with a helpful error."""
    key = name.lower()
    if key not in _ADVERSARIES:
        raise KeyError(
            f"unknown adversary {name!r}; available: {sorted(_ADVERSARIES)}"
        )
    return _ADVERSARIES[key]


def make_adversary(name: str, *, schedule=None, **params) -> Adversary:
    """Instantiate a registered adversary by name.

    ``schedule`` must be provided (and is only accepted) for adversaries
    registered with ``needs_schedule=True``.
    """
    entry = adversary_entry(name)
    if entry.needs_schedule:
        if schedule is None:
            raise ValueError(
                f"adversary {name!r} is schedule-aware and needs a schedule"
            )
        return entry.cls(schedule=schedule, **params)
    if schedule is not None:
        raise ValueError(f"adversary {name!r} does not take a schedule")
    return entry.cls(**params)


# ---------------------------------------------------------------------------
# Spec fragments
# ---------------------------------------------------------------------------

def spec_fragment(key: str, **params) -> dict:
    """A declarative piece of a :class:`RunSpec`: a registry key plus kwargs.

    Sweep and worst-case factories may return fragments instead of live
    objects; the harness then assembles full :class:`RunSpec` objects and can
    execute them in parallel worker processes.
    """
    return {"key": key, "params": dict(params)}


def _as_fragment(obj: Any) -> tuple[str, dict] | None:
    """Interpret ``obj`` as a (key, params) fragment, else return None."""
    if isinstance(obj, Mapping) and set(obj) <= {"key", "params"} and "key" in obj:
        return str(obj["key"]), dict(obj.get("params") or {})
    return None


def _json_ready(params: Mapping[str, Any], what: str) -> dict:
    """Validate that ``params`` round-trips through JSON; return a plain dict."""
    plain = dict(params)
    try:
        encoded = json.dumps(plain, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{what} parameters must be JSON-serialisable scalars; got {plain!r}"
        ) from exc
    return json.loads(encoded)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

#: Execution-strategy fields of a :class:`RunSpec`: they choose *how* a run
#: executes (which engine, what batching granularity, whether quiescent
#: spans are elided), not *what* it computes — results are bit-identical
#: for every combination (property-tested).  They round-trip through
#: :meth:`RunSpec.to_dict`/:meth:`RunSpec.from_dict` like every other
#: field but are excluded from :meth:`RunSpec.identity_dict` and with it
#: from :meth:`RunSpec.canonical_json`/:meth:`RunSpec.spec_hash`, so a
#: cached result is valid whichever strategy computed it.
EXECUTION_FIELDS = ("engine", "plan_chunk", "quiescence_skip", "lowering", "fault_plan")


@dataclass(frozen=True, eq=False)
class RunSpec:
    """A declarative, hashable description of one simulation run."""

    algorithm: str
    adversary: str
    rounds: int
    algorithm_params: dict = field(default_factory=dict)
    adversary_params: dict = field(default_factory=dict)
    enforce_energy_cap: bool = True
    energy_cap: int | None = None
    record_trace: bool = False
    label: str | None = None
    #: Engine selector ("auto" / "block" / "kernel" / "reference").  An
    #: execution strategy (see :data:`EXECUTION_FIELDS`), not part of the
    #: run's identity: all engines produce bit-identical results
    #: (property-tested), so ``engine`` round-trips through
    #: :meth:`to_dict` but is excluded from :meth:`identity_dict` and
    #: :meth:`spec_hash` — a cached result is valid whichever engine
    #: computed it.
    engine: str = "auto"
    #: Kernel batching granularity in rounds (``None`` = engine default):
    #: how many rounds one ``plan_injections`` call materialises and how
    #: often the schedule-backed view's history ring is refreshed.  Like
    #: ``engine`` this is an execution strategy — results are
    #: bit-identical for every value (property-tested) — so it
    #: round-trips through :meth:`to_dict` but stays outside the spec's
    #: identity and hash.
    plan_chunk: int | None = None
    #: Kernel quiescent-span fast path (silence-invariant runs elide
    #: injection-free all-queues-empty spans in one step).  Execution
    #: strategy like ``engine``/``plan_chunk`` — results are bit-identical
    #: either way (property-tested) — so it too round-trips through
    #: :meth:`to_dict` while staying outside the spec's identity and
    #: hash; ``False`` recovers the strictly per-round kernel for
    #: comparison benchmarks.
    quiescence_skip: bool = True
    #: Block engine segment-lowering tier (drivers prove closed-form
    #: spans that execute as array kernels).  Execution strategy like the
    #: knobs above — results are bit-identical either way
    #: (property-tested) — so it round-trips through :meth:`to_dict`
    #: while staying outside the spec's identity and hash; ``False``
    #: recovers the strictly per-round block loop for comparison
    #: benchmarks.  Ignored by the kernel and reference engines.
    lowering: bool = True
    #: Deterministic fault-injection stamp (a
    #: :meth:`repro.sim.faults.FaultPlan.stamp` dict, or None): replayed
    #: at the top of :func:`execute_spec` wherever the spec executes.
    #: Execution strategy like the knobs above — injected faults change
    #: how many *attempts* a run takes, never what it computes
    #: (property-tested) — so it round-trips through :meth:`to_dict`
    #: while staying outside the spec's identity and hash.
    fault_plan: dict | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        if self.plan_chunk is not None and self.plan_chunk < 1:
            raise ValueError("plan_chunk must be at least 1 round")
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, Mapping):
                raise TypeError("fault_plan must be a FaultPlan.stamp() dict or None")
            object.__setattr__(self, "fault_plan", dict(self.fault_plan))
        # Fail fast on unknown keys, at the construction site rather than
        # later inside a worker process.
        adversary_entry(self.adversary)
        if self.algorithm.lower() not in available_algorithms():
            raise KeyError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {available_algorithms()}"
            )
        object.__setattr__(
            self, "algorithm_params", _json_ready(self.algorithm_params, "algorithm")
        )
        object.__setattr__(
            self, "adversary_params", _json_ready(self.adversary_params, "adversary")
        )
        # Seeded stochastic adversaries: pin the RNG protocol explicitly,
        # so the version is part of every seeded spec's hash and dict.
        if (
            issubclass(adversary_entry(self.adversary).cls, SeededAdversary)
            and "rng_version" not in self.adversary_params
        ):
            params = dict(self.adversary_params)
            params["rng_version"] = DEFAULT_RNG_VERSION
            object.__setattr__(self, "adversary_params", params)

    # -- serialisation -------------------------------------------------------
    def identity_dict(self) -> dict:
        """The fields that define *what* this run computes.

        This is the dict behind :meth:`canonical_json` and
        :meth:`spec_hash`; the :data:`EXECUTION_FIELDS` are deliberately
        absent, so specs differing only in execution strategy share one
        hash (and one cache entry).
        """
        return {
            "algorithm": self.algorithm,
            "algorithm_params": self.algorithm_params,
            "adversary": self.adversary,
            "adversary_params": self.adversary_params,
            "rounds": self.rounds,
            "enforce_energy_cap": self.enforce_energy_cap,
            "energy_cap": self.energy_cap,
            "record_trace": self.record_trace,
            "label": self.label,
        }

    def to_dict(self) -> dict:
        """Lossless serialisation: identity fields plus execution knobs.

        ``RunSpec.from_dict(spec.to_dict())`` reconstructs every field —
        including the :data:`EXECUTION_FIELDS`, so a spec shipped across a
        process boundary keeps its requested engine, plan chunking and
        quiescence-skip setting.  Identity (hashing, caching, equality)
        comes from :meth:`identity_dict` instead.
        """
        data = self.identity_dict()
        data["engine"] = self.engine
        data["plan_chunk"] = self.plan_chunk
        data["quiescence_skip"] = self.quiescence_skip
        data["lowering"] = self.lowering
        data["fault_plan"] = dict(self.fault_plan) if self.fault_plan else None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls(
            algorithm=data["algorithm"],
            adversary=data["adversary"],
            rounds=int(data["rounds"]),
            algorithm_params=dict(data.get("algorithm_params") or {}),
            adversary_params=dict(data.get("adversary_params") or {}),
            enforce_energy_cap=bool(data.get("enforce_energy_cap", True)),
            energy_cap=data.get("energy_cap"),
            record_trace=bool(data.get("record_trace", False)),
            label=data.get("label"),
            engine=str(data.get("engine", "auto")),
            plan_chunk=data.get("plan_chunk"),
            quiescence_skip=bool(data.get("quiescence_skip", True)),
            lowering=bool(data.get("lowering", True)),
            fault_plan=data.get("fault_plan"),
        )

    @classmethod
    def from_fragments(
        cls,
        algorithm: Mapping[str, Any],
        adversary: Mapping[str, Any],
        rounds: int,
        **kwargs,
    ) -> "RunSpec":
        """Assemble a spec from two :func:`spec_fragment` dicts."""
        algo = _as_fragment(algorithm)
        adv = _as_fragment(adversary)
        if algo is None or adv is None:
            raise TypeError(
                "expected {'key': ..., 'params': {...}} fragments, got "
                f"{algorithm!r} and {adversary!r}"
            )
        return cls(
            algorithm=algo[0],
            algorithm_params=algo[1],
            adversary=adv[0],
            adversary_params=adv[1],
            rounds=rounds,
            **kwargs,
        )

    def canonical_json(self) -> str:
        """Canonical JSON encoding: the identity of the run."""
        return json.dumps(self.identity_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 of the canonical encoding — the cache key of the run."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.canonical_json() == other.canonical_json()

    def __hash__(self) -> int:
        return hash(self.canonical_json())

    # -- construction of live objects ---------------------------------------
    def build_algorithm(self) -> RoutingAlgorithm:
        return make_algorithm(self.algorithm, **self.algorithm_params)

    def build_adversary(self, algorithm: RoutingAlgorithm) -> Adversary:
        entry = adversary_entry(self.adversary)
        if entry.needs_schedule:
            schedule = algorithm.oblivious_schedule()
            if schedule is None:
                raise ValueError(
                    f"adversary {self.adversary!r} needs an oblivious schedule, "
                    f"but algorithm {self.algorithm!r} does not publish one"
                )
            return make_adversary(
                self.adversary, schedule=schedule, **self.adversary_params
            )
        return make_adversary(self.adversary, **self.adversary_params)


def materialize_algorithm(obj: RoutingAlgorithm | Mapping[str, Any]) -> RoutingAlgorithm:
    """Turn a live algorithm or a :func:`spec_fragment` into a live algorithm."""
    fragment = _as_fragment(obj)
    if fragment is not None:
        return make_algorithm(fragment[0], **fragment[1])
    if isinstance(obj, RoutingAlgorithm):
        return obj
    raise TypeError(f"expected RoutingAlgorithm or fragment, got {type(obj).__name__}")


def materialize_adversary(
    obj: Adversary | Mapping[str, Any],
    algorithm: RoutingAlgorithm | None = None,
) -> Adversary:
    """Turn a live adversary or a :func:`spec_fragment` into a live adversary.

    Schedule-aware fragments read ``algorithm``'s published oblivious
    schedule, mirroring :meth:`RunSpec.build_adversary`.
    """
    fragment = _as_fragment(obj)
    if fragment is not None:
        key, params = fragment
        entry = adversary_entry(key)
        if entry.needs_schedule:
            schedule = algorithm.oblivious_schedule() if algorithm is not None else None
            if schedule is None:
                raise ValueError(
                    f"adversary {key!r} needs an algorithm with an oblivious schedule"
                )
            return make_adversary(key, schedule=schedule, **params)
        return make_adversary(key, **params)
    if isinstance(obj, Adversary):
        return obj
    raise TypeError(f"expected Adversary or fragment, got {type(obj).__name__}")


def execute_spec(spec: RunSpec | Mapping[str, Any]) -> RunResult:
    """Execute one :class:`RunSpec` and return its :class:`RunResult`.

    This is the (picklable, module-level) unit of work shipped to parallel
    worker processes; executing a spec twice — in any process — yields
    bit-identical summaries because every piece of state is constructed
    fresh from the spec.
    """
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_dict(spec)
    if spec.fault_plan:
        # Replay the supervisor's fault stamp before any work happens:
        # the decision is a pure function of (seed, kind, hash, attempt),
        # so the executing process — worker or in-process — injects
        # exactly the fault the supervisor predicted.
        from .faults import FaultPlan

        FaultPlan.apply_stamp(spec.fault_plan, spec.spec_hash())
    algorithm = spec.build_algorithm()
    adversary = spec.build_adversary(algorithm)
    return run_simulation(
        algorithm,
        adversary,
        spec.rounds,
        enforce_energy_cap=spec.enforce_energy_cap,
        energy_cap=spec.energy_cap,
        record_trace=spec.record_trace,
        label=spec.label,
        engine=spec.engine,
        plan_chunk=spec.plan_chunk,
        quiescence_skip=spec.quiescence_skip,
        lowering=spec.lowering,
    )


def execute_spec_batch(
    specs: "list[RunSpec | Mapping[str, Any]]",
) -> list[RunResult]:
    """Execute a chunk of specs in order (the per-dispatch worker unit).

    Shipping several small specs per process dispatch amortises the
    pickling/IPC overhead that dominates when individual runs are short;
    results come back in input order.
    """
    return [execute_spec(spec) for spec in specs]
