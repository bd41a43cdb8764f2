"""Property tests for the compiled round-block backend.

:class:`~repro.channel.block.BlockEngine` lowers fully negotiated round
blocks — static-schedule or ticked tier, silence-invariant controllers,
planned injections, heard-only polling — to a single-transmitter compiled
loop driven by the run's shared :class:`RoundBlockDriver`.  The contract
pinned here:

* every block-capable algorithm produces bit-identical collector and
  energy state to both the kernel and the checked reference loop;
* anything short of full capability degrades gracefully — whole-run
  fallback for ineligible components, per-block fallback when the driver
  declines a block — and still matches the reference bit for bit;
* Adjust-Window's restricted driver runs Gossip per-round and lowers its
  Main and Auxiliary stages to arrays, across window doublings, over-L
  dedicated windows, chunkings and split runs, and declines the Main
  stage of a window whose gossip records disagree;
* resolution (``auto`` → block) and the negotiation report are stable
  introspection surfaces.
"""

import pytest

from repro.channel.block import BlockEngine
from repro.channel.engine import EngineConfig, RoundEngine
from repro.channel.kernel import KernelEngine
from repro.channel.packet import PacketFactory
from repro.core.registry import make_algorithm
from repro.metrics.collector import MetricsCollector
from repro.sim import RunSpec, execute_spec
from repro.sim.runner import resolve_engine
from repro.sim.specs import make_adversary

#: Algorithms whose build_controllers attaches a shared block driver.
BLOCK_CAPABLE = ["k-cycle", "k-clique", "k-subsets", "rrw", "of-rrw", "mbtf"]

#: Algorithms with *restricted* drivers: they waive the silence
#: invariant, compile their deterministic phases and decline the adaptive
#: ones per block (Count-Hop's Report substage; Adjust-Window's Main
#: stage only when gossip records disagree).
BLOCK_RESTRICTED = [
    ("count-hop", {"n": 6}),
    ("orchestra", {"n": 6}),
    ("adjust-window", {"n": 4}),
]


def _collector_state(collector: MetricsCollector) -> tuple:
    return (
        collector.total_queue_series,
        collector.per_station_max_queue,
        collector.energy_series,
        collector.outcome_counts,
        collector.delays,
        collector.rounds_observed,
        collector.injected_count,
        collector.delivered_count,
        sorted(collector.records),
    )


def _params_for(algorithm: str, n: int = 8) -> dict:
    params = {"n": n}
    if algorithm in ("k-cycle", "k-clique", "k-subsets"):
        params["k"] = 3
    return params


def _build_engine(common, engine_cls, plan_chunk=64):
    algorithm = make_algorithm(common["algorithm"], **common["algorithm_params"])
    adversary = make_adversary(common["adversary"], **common["adversary_params"])
    adversary.bind(algorithm.n, PacketFactory())
    return engine_cls(
        algorithm.build_controllers(),
        adversary,
        config=EngineConfig(enforce_energy_cap=False, plan_chunk=plan_chunk),
        schedule=algorithm.oblivious_schedule(),
    )


@pytest.mark.parametrize("algorithm", BLOCK_CAPABLE)
@pytest.mark.parametrize(
    "adversary, adversary_params",
    [
        ("random", {"rho": 0.35, "beta": 2.0, "seed": 17}),
        ("bursty", {"rho": 0.2, "beta": 4.0, "idle_rounds": 19}),
        ("saturating", {"rho": 1.0, "beta": 2.0}),
    ],
)
def test_block_capable_algorithms_match_kernel_and_reference(
    algorithm, adversary, adversary_params
):
    common = dict(
        algorithm=algorithm,
        algorithm_params=_params_for(algorithm),
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=400,
        enforce_energy_cap=False,
        plan_chunk=97,
    )
    block = execute_spec(RunSpec(engine="block", **common))
    kernel = execute_spec(RunSpec(engine="kernel", **common))
    common.pop("plan_chunk")
    reference = execute_spec(RunSpec(engine="reference", **common))

    assert block.negotiation["block_compilation"], algorithm
    assert block.negotiation["blocks_compiled"] > 0
    assert block.negotiation["blocks_fallback"] == 0
    for fast in (block, kernel):
        assert fast.summary.as_dict() == reference.summary.as_dict()
        assert _collector_state(fast.collector) == _collector_state(
            reference.collector
        )
        assert fast.energy.total_station_rounds == reference.energy.total_station_rounds
        assert fast.energy.max_awake == reference.energy.max_awake


@pytest.mark.parametrize("algorithm, params", BLOCK_RESTRICTED)
@pytest.mark.parametrize(
    "adversary, adversary_params",
    [
        ("round-robin", {"rho": 0.4, "beta": 2.0}),
        ("random", {"rho": 0.35, "beta": 2.0, "seed": 23}),
        ("bursty", {"rho": 0.3, "beta": 6.0, "idle_rounds": 37}),
    ],
)
def test_restricted_drivers_match_kernel_and_reference(
    algorithm, params, adversary, adversary_params
):
    """Count-Hop, Orchestra and Adjust-Window compile their deterministic
    phases via restricted drivers (silence invariant waived, acts
    unconditional); the mix of compiled and declined blocks crosses their
    stage/season boundaries and must stay bit-identical to the other
    engines."""
    common = dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
        rounds=600,
        enforce_energy_cap=False,
        plan_chunk=97,
    )
    block = execute_spec(RunSpec(engine="block", **common))
    kernel = execute_spec(RunSpec(engine="kernel", **common))
    common.pop("plan_chunk")
    reference = execute_spec(RunSpec(engine="reference", **common))

    neg = block.negotiation
    assert neg["block_compilation"], algorithm
    assert neg["blocks_compiled"] > 0
    if algorithm == "count-hop":
        # The adaptive Report substage is declined per block, with the
        # reason string surfaced through the negotiation report.
        assert neg["blocks_fallback"] > 0
        assert any(
            "Report substage" in reason for reason in neg["block_decline_reasons"]
        )
    else:
        # Orchestra has no adaptive phase and Adjust-Window's consistent
        # gossip never trips its guard: every block compiles.
        assert neg["blocks_fallback"] == 0
        assert neg["block_decline_reasons"] == {}
    for fast in (block, kernel):
        assert fast.summary.as_dict() == reference.summary.as_dict()
        assert _collector_state(fast.collector) == _collector_state(
            reference.collector
        )
        assert fast.energy.total_station_rounds == reference.energy.total_station_rounds
        assert fast.energy.max_awake == reference.energy.max_awake


def test_driverless_controllers_fall_back_whole_run():
    """Controllers without a block driver never negotiate compilation:
    the whole run degrades to the kernel loop."""
    algorithm = make_algorithm("adjust-window", n=4)
    adversary = make_adversary("round-robin", rho=0.4, beta=2.0)
    adversary.bind(algorithm.n, PacketFactory())
    controllers = algorithm.build_controllers()
    for ctrl in controllers:
        del ctrl.block_driver
    engine = BlockEngine(
        controllers, adversary, config=EngineConfig(enforce_energy_cap=False)
    )
    engine.run(300)
    reference = execute_spec(
        RunSpec(
            algorithm="adjust-window",
            algorithm_params={"n": 4},
            adversary="round-robin",
            adversary_params={"rho": 0.4, "beta": 2.0},
            rounds=300,
            engine="reference",
            enforce_energy_cap=False,
        )
    )
    neg = engine.negotiation()
    assert not neg["block_compilation"]
    assert neg["blocks_compiled"] == 0
    assert neg["blocks_fallback"] > 0
    assert _collector_state(engine.collector) == _collector_state(reference.collector)


def test_unplanned_adversary_falls_back_whole_run():
    """adaptive-starvation reads the channel, so no injection plan — the
    block engine must degrade to the kernel loop without compiling."""
    common = dict(
        algorithm="k-cycle",
        algorithm_params={"n": 8, "k": 3},
        adversary="adaptive-starvation",
        adversary_params={"rho": 0.3, "beta": 2.0},
        rounds=300,
        enforce_energy_cap=False,
    )
    block = execute_spec(RunSpec(engine="block", **common))
    reference = execute_spec(RunSpec(engine="reference", **common))
    assert not block.negotiation["block_compilation"]
    assert block.negotiation["blocks_compiled"] == 0
    assert block.summary.as_dict() == reference.summary.as_dict()
    assert _collector_state(block.collector) == _collector_state(reference.collector)


COMMON = dict(
    algorithm="k-cycle",
    algorithm_params={"n": 8, "k": 3},
    adversary="random",
    adversary_params={"rho": 0.3, "beta": 2.0, "seed": 29},
)


def test_mixed_eligible_and_declined_blocks_match_reference():
    """A driver may decline any individual block (begin_block → False);
    declined blocks run through the kernel loop and the mix must still be
    bit-identical.  Decline every other block to interleave the paths."""
    engine = _build_engine(COMMON, BlockEngine, plan_chunk=50)
    assert engine.uses_block_compilation

    driver = engine.controllers[0].block_driver
    original = driver.begin_block
    calls = {"count": 0}

    def alternating(start, stop):
        calls["count"] += 1
        if calls["count"] % 2 == 0:
            return False
        return original(start, stop)

    driver.begin_block = alternating
    engine.run(500)
    assert engine.blocks_compiled > 0
    assert engine.blocks_fallback > 0

    reference = execute_spec(
        RunSpec(engine="reference", rounds=500, enforce_energy_cap=False, **COMMON)
    )
    assert _collector_state(engine.collector) == _collector_state(
        reference.collector
    )
    report = engine.energy.report()
    assert report.total_station_rounds == reference.energy.total_station_rounds
    assert report.max_awake == reference.energy.max_awake
    assert report.rounds == reference.energy.rounds


def test_mid_run_decline_switchover_matches_reference():
    """Compile for a while, then the driver starts declining: the mid-run
    switchover (canonical state written back, kernel loop resumes from
    member state) must leave no seam."""
    engine = _build_engine(COMMON, BlockEngine, plan_chunk=25)
    driver = engine.controllers[0].block_driver
    original = driver.begin_block

    def decline_after_round_200(start, stop):
        if start >= 200:
            return False
        return original(start, stop)

    driver.begin_block = decline_after_round_200
    engine.run(450)
    assert engine.blocks_compiled > 0
    assert engine.blocks_fallback > 0

    reference = execute_spec(
        RunSpec(engine="reference", rounds=450, enforce_energy_cap=False, **COMMON)
    )
    assert _collector_state(engine.collector) == _collector_state(
        reference.collector
    )


@pytest.mark.parametrize("splits", [(123, 377), (1, 499), (250, 249, 1)])
def test_segmented_block_runs_match_single_run(splits):
    """run() may be called repeatedly; segment boundaries land mid-chunk
    and mid-activity-segment and must not disturb the compiled state."""
    segmented = _build_engine(COMMON, BlockEngine, plan_chunk=64)
    for piece in splits:
        segmented.run(piece)
    single = _build_engine(COMMON, BlockEngine, plan_chunk=64)
    single.run(sum(splits))
    assert _collector_state(segmented.collector) == _collector_state(
        single.collector
    )
    assert segmented.energy.report() == single.energy.report()


def test_auto_prefers_block_and_trace_forces_reference():
    assert resolve_engine("auto", record_trace=False) == "block"
    assert resolve_engine("auto", record_trace=True) == "reference"
    assert resolve_engine("kernel", record_trace=False) == "kernel"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("compiled", record_trace=False)


def test_run_result_reports_engine_and_negotiation():
    result = execute_spec(
        RunSpec(rounds=60, enforce_energy_cap=False, **COMMON)
    )
    assert result.engine_used == "block"
    neg = result.negotiation
    assert neg["engine"] == "BlockEngine"
    for key in (
        "schedule_fast_path",
        "planned_injections",
        "quiescence_skipping",
        "block_compilation",
        "blocks_compiled",
        "blocks_fallback",
    ):
        assert key in neg
    reference = execute_spec(
        RunSpec(engine="reference", rounds=60, enforce_energy_cap=False, **COMMON)
    )
    assert reference.engine_used == "reference"
    assert reference.negotiation is None


def test_block_engine_requires_shared_driver():
    """Controllers with per-station (non-shared) drivers must not
    negotiate block compilation — the driver is one object for the run."""
    engine = _build_engine(COMMON, BlockEngine)
    assert engine.uses_block_compilation
    # Simulate a buggy algorithm attaching distinct drivers.
    algorithm = make_algorithm("k-cycle", n=8, k=3)
    adversary = make_adversary("random", rho=0.3, beta=2.0, seed=29)
    adversary.bind(algorithm.n, PacketFactory())
    controllers = algorithm.build_controllers()
    import copy

    controllers[1].block_driver = copy.copy(controllers[1].block_driver)
    engine = BlockEngine(
        controllers,
        adversary,
        config=EngineConfig(enforce_energy_cap=False),
        schedule=algorithm.oblivious_schedule(),
    )
    assert not engine.uses_block_compilation
    engine.run(50)  # still runs, via the kernel loop
    assert engine.blocks_compiled == 0


# ---------------------------------------------------------------------------
# Segment lowering: array-lowered spans inside compiled blocks
# ---------------------------------------------------------------------------

#: (algorithm, params, adversary, adversary_params) grids on which the
#: drivers provably lower spans (dense arrival absorption for the
#: token-ring family, silent-span lowering for the schedule-driven
#: family) — each case must produce lowered_rounds > 0, so a regression
#: that silently stops lowering fails loudly here.
LOWERING_CASES = [
    ("rrw", {"n": 16}, "bursty", {"rho": 0.5, "beta": 8.0, "idle_rounds": 200}),
    ("rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}),
    ("of-rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}),
    ("of-rrw", {"n": 8}, "spray", {"rho": 0.25, "beta": 4.0}),
    ("mbtf", {"n": 32}, "random", {"rho": 0.95, "beta": 2.0, "seed": 9}),
    ("mbtf", {"n": 16}, "bursty", {"rho": 0.6, "beta": 8.0, "idle_rounds": 200}),
    (
        "k-cycle",
        {"n": 16, "k": 4},
        "bursty",
        {"rho": 0.05, "beta": 4.0, "idle_rounds": 150},
    ),
    (
        "k-clique",
        {"n": 16, "k": 6},
        "bursty",
        {"rho": 0.03, "beta": 4.0, "idle_rounds": 150},
    ),
    ("k-subsets", {"n": 8, "k": 3}, "random", {"rho": 0.05, "beta": 2.0, "seed": 9}),
]


def _lowering_common(algorithm, params, adversary, adversary_params):
    return dict(
        algorithm=algorithm,
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
    )


def _build_lowered(common):
    """A block engine accepting every proved segment, however short.

    The correctness tests deliberately exercise the segment-cut edges
    (single-round proofs, cuts right before activity) that the
    perf-oriented default :attr:`~BlockEngine.lower_min_span` would
    discard; pinning the knob to 1 keeps them on the lowered path."""
    engine = _build_engine(common, BlockEngine)
    engine.lower_min_span = 1
    return engine


@pytest.mark.parametrize(
    "algorithm, params, adversary, adversary_params", LOWERING_CASES
)
def test_lowered_segments_match_per_round_blocks_and_reference(
    algorithm, params, adversary, adversary_params
):
    """lowered ≡ block ≡ reference: the array-lowered path must be an
    execution detail, invisible in every collected statistic.  The dense
    cases put injections mid-segment (the lowering absorbs them from the
    plan); the bursty cases interleave quiescent-span elision with
    lowered segments inside the same blocks."""
    common = _lowering_common(algorithm, params, adversary, adversary_params)
    lowered = _build_lowered(common)
    per_round = _build_engine(common, BlockEngine)
    per_round.lowering_enabled = False
    lowered.run(1500)
    per_round.run(1500)
    assert lowered.lowered_segments > 0, (algorithm, adversary)
    assert lowered.lowered_rounds > 0
    assert per_round.lowered_segments == 0
    assert _collector_state(lowered.collector) == _collector_state(
        per_round.collector
    )
    assert lowered.energy.report() == per_round.energy.report()

    reference = execute_spec(
        RunSpec(
            engine="reference", rounds=1500, enforce_energy_cap=False, **common
        )
    )
    assert _collector_state(lowered.collector) == _collector_state(
        reference.collector
    )


def test_lowering_interleaves_with_span_elision():
    """A bursty run alternates quiescent spans (elided) with busy drain
    spans (lowered); both fast paths must engage in the same run."""
    common = _lowering_common(
        "rrw", {"n": 16}, "bursty", {"rho": 0.5, "beta": 8.0, "idle_rounds": 200}
    )
    engine = _build_lowered(common)
    engine.run(2000)
    assert engine.quiescent_rounds_elided > 0
    assert engine.lowered_rounds > 0


def test_dense_lowering_absorbs_mid_segment_injections():
    """At rho ~0.9 nearly every round injects: segments can only exist
    because the driver absorbs planned arrivals, so high coverage here
    proves the mid-segment injection path, not just drain spans."""
    common = _lowering_common(
        "rrw", {"n": 32}, "random", {"rho": 0.9, "beta": 2.0, "seed": 9}
    )
    engine = _build_lowered(common)
    engine.run(1500)
    assert engine.collector.injected_count > 500
    assert engine.lowered_rounds > 1000


@pytest.mark.parametrize("rng_version", [2])
def test_lowered_equivalence_on_both_rng_versions(rng_version):
    """The seeded adversaries' batched RNG protocol (plan-time block
    draws) must not affect lowered-vs-reference equivalence."""
    for algorithm, params in [("rrw", {"n": 16}), ("k-subsets", {"n": 6, "k": 2})]:
        common = _lowering_common(
            algorithm,
            params,
            "random",
            {"rho": 0.4, "beta": 2.0, "seed": 31, "rng_version": rng_version},
        )
        engine = _build_lowered(common)
        engine.run(800)
        reference = execute_spec(
            RunSpec(
                engine="reference", rounds=800, enforce_energy_cap=False, **common
            )
        )
        assert _collector_state(engine.collector) == _collector_state(
            reference.collector
        ), (algorithm, rng_version)


def test_lowering_toggle_is_reported_in_negotiation():
    common = _lowering_common(
        "rrw", {"n": 16}, "random", {"rho": 0.5, "beta": 2.0, "seed": 3}
    )
    engine = _build_engine(common, BlockEngine)
    engine.run(300)
    neg = engine.negotiation()
    assert neg["segment_lowering"] is True
    assert neg["lowered_segments"] == engine.lowered_segments
    assert neg["lowered_rounds"] == engine.lowered_rounds
    off = _build_engine(common, BlockEngine)
    off.lowering_enabled = False
    off.run(300)
    assert off.negotiation()["segment_lowering"] is False
    assert off.negotiation()["lowered_rounds"] == 0


def test_lower_min_span_discards_short_proofs_without_changing_results():
    """The minimum-span knob is a pure execution strategy: a prohibitive
    span discards every proof (segments never engage) and the default
    discards only short ones (mid-block re-probes), yet all three
    settings must collect identical statistics."""
    common = _lowering_common(
        "rrw", {"n": 16}, "bursty", {"rho": 0.5, "beta": 8.0, "idle_rounds": 200}
    )
    eager = _build_lowered(common)
    default = _build_engine(common, BlockEngine)
    picky = _build_engine(common, BlockEngine)
    picky.lower_min_span = 10_000
    for engine in (eager, default, picky):
        engine.run(1500)
    assert eager.lowered_segments > 0
    assert picky.lowered_segments == 0
    state = _collector_state(eager.collector)
    assert _collector_state(default.collector) == state
    assert _collector_state(picky.collector) == state
    assert eager.energy.report() == picky.energy.report()


# ---------------------------------------------------------------------------
# Adjust-Window: Gossip per-round, Main and Auxiliary stages lowered
# ---------------------------------------------------------------------------

#: With n=3 and initial_window=4096 every window opens with 369 Gossip
#: rounds while L stays 4096; the first window's Main stage is
#: [369, 1288) and its Auxiliary stage [1288, 4096), the second window's
#: Main stage starts at 4465.
AW_PARAMS = {"n": 3, "initial_window": 4096}

#: (case, algorithm params, adversary, adversary params, rounds).
AW_CASES = [
    # Station 0's spray load exceeds the second window's Main stage, so
    # the window doubles at 8192; in that window's Main stage the packets
    # Gossip consumed leave runs short, and senders fall back to the
    # oldest old packet of another destination, which the receiver adopts.
    ("doubling", AW_PARAMS, "spray", {"rho": 0.9, "beta": 2.0}, 14000),
    # A 600-packet burst at rate 1 leaves station 0 more than L old
    # packets: the second window's Main stage is dedicated to it.
    ("over-L", AW_PARAMS, "single-target", {"rho": 1.0, "beta": 600.0}, 9000),
    # Four stations with random sources: a fallback chooses between the
    # old packets of two other destinations, and a Main-stage receiver
    # gets an arrival in the very round it adopts, which must queue ahead
    # of the adopted packet.
    (
        "random-n4",
        {"n": 4, "initial_window": 8192},
        "random",
        {"rho": 0.9, "beta": 2.0, "seed": 1},
        10000,
    ),
]


def _aw_common(adversary, adversary_params, params=AW_PARAMS):
    return dict(
        algorithm="adjust-window",
        algorithm_params=params,
        adversary=adversary,
        adversary_params=adversary_params,
    )


def _aw_reference(common):
    """A reference-loop engine on the same controllers and traffic."""
    algorithm = make_algorithm(common["algorithm"], **common["algorithm_params"])
    adversary = make_adversary(common["adversary"], **common["adversary_params"])
    adversary.bind(algorithm.n, PacketFactory())
    return RoundEngine(
        algorithm.build_controllers(),
        adversary,
        config=EngineConfig(enforce_energy_cap=False),
    )


def _queues(engine):
    """Every station's old and new packets, in queue order."""
    return [
        (
            [p.packet_id for p in ctrl.queue.old_packets()],
            [p.packet_id for p in ctrl.queue.new_packets()],
        )
        for ctrl in engine.controllers
    ]


@pytest.mark.parametrize("plan_chunk", [97, 4096])
@pytest.mark.parametrize(
    "params, adversary, adversary_params, rounds",
    [case[1:] for case in AW_CASES],
    ids=[case[0] for case in AW_CASES],
)
def test_adjust_window_lowered_matches_per_round_kernel_and_reference(
    params, adversary, adversary_params, rounds, plan_chunk
):
    """lowered ≡ per-round blocks ≡ kernel ≡ reference, bit for bit, over
    a window doubling, an over-L dedicated window and four-station random
    traffic, for two chunkings."""
    common = _aw_common(adversary, adversary_params, params)
    lowered = _build_engine(common, BlockEngine, plan_chunk=plan_chunk)
    per_round = _build_engine(common, BlockEngine, plan_chunk=plan_chunk)
    per_round.lowering_enabled = False
    kernel = _build_engine(common, KernelEngine, plan_chunk=plan_chunk)
    reference = _aw_reference(common)
    for engine in (lowered, per_round, kernel, reference):
        engine.run(rounds)

    neg = lowered.negotiation()
    assert neg["block_compilation"]
    assert neg["blocks_fallback"] == 0
    assert lowered.lowered_rounds > rounds * 0.8
    assert per_round.lowered_rounds == 0
    # Every lowered segment passed the cap pre-check; none overran it.
    assert lowered.energy.violations == 0
    assert lowered.energy.max_awake <= 2
    state = _collector_state(reference.collector)
    queues = _queues(reference)
    for engine in (lowered, per_round, kernel):
        assert _collector_state(engine.collector) == state
        assert engine.energy.report() == reference.energy.report()
        assert _queues(engine) == queues


@pytest.mark.parametrize(
    "splits",
    [
        # Stops inside the first Main stage, the second (dedicated)
        # Main stage, the second Auxiliary stage and the third (dedicated)
        # Main stage.
        (1000, 3600, 1000, 3400),
        # Stops inside the first and the second Auxiliary stage and the
        # third Main stage.
        (2000, 4500, 2500),
    ],
)
def test_adjust_window_split_runs_match_single_run(splits):
    """run(a) then run(b) ≡ run(a + b), with stops inside lowered stages;
    the queues match the reference loop's at every stop."""
    common = _aw_common("single-target", {"rho": 1.0, "beta": 600.0})
    segmented = _build_engine(common, BlockEngine)
    reference = _aw_reference(common)
    clock = segmented.controllers[0].clock
    dedicated = False
    for piece in splits:
        segmented.run(piece)
        reference.run(piece)
        assert _queues(segmented) == _queues(reference)
        layout = clock.layout
        rel = segmented.round_no - clock.window_start
        if layout.main_start <= rel < layout.aux_start:
            # The over-L station owns the whole Main stage.
            dedicated |= segmented.controllers[0]._my_send_slots == (0, layout.main_len)
    single = _build_engine(common, BlockEngine)
    single.run(sum(splits))
    assert segmented.lowered_rounds > 0
    assert _collector_state(segmented.collector) == _collector_state(single.collector)
    assert segmented.energy.report() == single.energy.report()
    assert _collector_state(segmented.collector) == _collector_state(
        reference.collector
    )
    assert dedicated


def _misread_below_me(ctrl, sender):
    """Make ``ctrl`` decode ``sender``'s below-me number one too high, so
    its receive interval starts a slot after the sender's run to it."""
    read = ctrl._record_for

    def misread(station):
        large, over_l, size, to_me, below_me = read(station)
        if station == sender and large:
            below_me += 1
        return large, over_l, size, to_me, below_me

    ctrl._record_for = misread


def test_adjust_window_guard_declines_inconsistent_main_stage():
    """Disagreeing gossip records leave a planned receiver asleep: the
    driver declines that Main stage (the kernel loop runs it, losing the
    packet exactly as the reference does) and still lowers the rest."""
    common = _aw_common("round-robin", {"rho": 0.4, "beta": 2.0})
    block = _build_engine(common, BlockEngine)
    reference = _aw_reference(common)
    for engine in (block, reference):
        _misread_below_me(engine.controllers[1], sender=0)
        engine.run(9000)
    reasons = block.negotiation()["block_decline_reasons"]
    assert any("inconsistent gossip records" in reason for reason in reasons)
    assert block.blocks_fallback > 0
    assert block.lowered_rounds > 0
    assert _collector_state(block.collector) == _collector_state(reference.collector)
    assert block.energy.report() == reference.energy.report()
    assert block.energy.violations == reference.energy.violations
    assert _queues(block) == _queues(reference)


# ---------------------------------------------------------------------------
# Batch awake-matrix export and the optional numba probe
# ---------------------------------------------------------------------------


def test_schedule_awake_matrix_tiles_the_period():
    import numpy as np

    schedule = make_algorithm("k-clique", n=8, k=4).oblivious_schedule()
    period = schedule.periodic_awake_sets()
    matrix = schedule.awake_matrix(0, len(period))
    assert matrix.shape == (len(period), 8)
    assert matrix.dtype == np.bool_
    for t, awake in enumerate(period):
        assert set(np.flatnonzero(matrix[t]).tolist()) == set(awake)
    # Arbitrary windows tile modulo the period.
    window = schedule.awake_matrix(5, 5 + 3 * len(period))
    for row in range(window.shape[0]):
        assert (window[row] == matrix[(5 + row) % len(period)]).all()
    with pytest.raises(ValueError):
        schedule.awake_matrix(10, 5)


def test_accel_probe_degrades_cleanly_without_numba():
    """With numba absent the probe must be a silent no-op: the decorator
    returns the function unchanged and the offsets scan falls back to
    numpy.  (A numba-installed CI leg exercises the jitted branch.)"""
    import numpy as np

    from repro import _accel

    @_accel.maybe_jit
    def plain(x):
        return x + 1

    @_accel.maybe_jit(cache=True)
    def with_kwargs(x):
        return x * 2

    assert plain(1) == 2
    assert with_kwargs(3) == 6
    if not _accel.HAVE_NUMBA:
        assert plain.__name__ == "plain"

    offsets = np.array([0, 0, 2, 2, 3, 3], dtype=np.int64)
    assert _accel.injection_round_indices(offsets).tolist() == [1, 3]
    empty = np.array([0], dtype=np.int64)
    assert _accel.injection_round_indices(empty).tolist() == []
