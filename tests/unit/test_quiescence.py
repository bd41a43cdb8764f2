"""Unit tests for the quiescent-span building blocks.

The span fast path composes three O(1) fast-forwards — token-replica
silence advancement, congruence-class round counting, and the wake
oracles' ``advance_span`` — plus the spec/runner plumbing of the
``quiescence_skip`` execution knob.  Each piece is pinned here against
its per-round oracle; end-to-end equivalence lives in
``tests/property/test_quiescence_skip.py``.
"""

import json

import pytest

from repro.channel.feedback import ChannelOutcome
from repro.core.schedule import rounds_in_congruence_class
from repro.protocols.token_ring import MoveBigToFrontReplica, TokenRingReplica
from repro.sim import RunSpec


def _token_state(replica: TokenRingReplica) -> tuple:
    return (
        replica.token_pos,
        replica.holder,
        replica.advancements,
        replica.phase_no,
    )


@pytest.mark.parametrize("members", [[0], [3, 1, 4], list(range(7))])
@pytest.mark.parametrize("prefix", [0, 1, 5])
@pytest.mark.parametrize("rounds", [0, 1, 2, 6, 7, 29, 1000])
def test_token_ring_advance_silence_matches_per_round_observe(
    members, prefix, rounds
):
    stepped = TokenRingReplica(list(members))
    jumped = TokenRingReplica(list(members))
    for _ in range(prefix):
        stepped.observe(ChannelOutcome.SILENCE)
        jumped.observe(ChannelOutcome.SILENCE)
    phases = 0
    for _ in range(rounds):
        phases += int(stepped.observe(ChannelOutcome.SILENCE))
    assert jumped.advance_silence(rounds) == phases
    assert _token_state(jumped) == _token_state(stepped)


@pytest.mark.parametrize("rounds", [0, 1, 4, 5, 17, 360])
def test_mbtf_advance_silence_matches_per_round_observe(rounds):
    stepped = MoveBigToFrontReplica([2, 0, 3, 1])
    jumped = MoveBigToFrontReplica([2, 0, 3, 1])
    for _ in range(rounds):
        stepped.observe(ChannelOutcome.SILENCE, None)
    jumped.advance_silence(rounds)
    assert (stepped.token_pos, stepped.holder, stepped.order) == (
        jumped.token_pos,
        jumped.holder,
        jumped.order,
    )


def test_rounds_in_congruence_class_matches_brute_force():
    for modulus in (1, 2, 3, 7):
        for residue in range(modulus):
            for start in range(0, 25, 3):
                for stop in range(start, start + 40, 5):
                    expected = sum(
                        1 for t in range(start, stop) if t % modulus == residue
                    )
                    assert (
                        rounds_in_congruence_class(start, stop, modulus, residue)
                        == expected
                    ), (start, stop, modulus, residue)


def test_k_cycle_span_fast_forward_matches_driven_silence():
    """Driving a k-Cycle controller through empty silent rounds must land
    in the same replica state as one advance_silent_span call."""
    from repro.core.registry import make_algorithm
    from repro.channel.feedback import Feedback

    algorithm = make_algorithm("k-cycle", n=9, k=3)
    driven = algorithm.build_controllers()
    jumped = make_algorithm("k-cycle", n=9, k=3).build_controllers()
    silence = Feedback(round_no=-1, outcome=ChannelOutcome.SILENCE, message=None)
    start, stop = 13, 412
    for t in range(start, stop):
        for ctrl in driven:
            if ctrl.wakes(t):
                assert ctrl.act(t) is None
                ctrl.on_feedback(t, silence)
    for ctrl in jumped:
        ctrl.advance_silent_span(start, stop)
    for a, b in zip(driven, jumped):
        for g in a.my_groups:
            assert _token_state(a.replicas[g]) == _token_state(b.replicas[g])


def test_queue_per_destination_counters_stay_exact_through_all_mutations():
    from repro.channel.packet import Packet
    from repro.core.queues import PacketQueue

    queue = PacketQueue()
    packets = [
        Packet(destination=d, injected_at=0, origin=0, packet_id=i)
        for i, d in enumerate([1, 2, 1, 3, 2, 1, 4])
    ]
    for p in packets[:4]:
        queue.push(p)
    queue.age_all()
    for p in packets[4:]:
        queue.push(p)
    assert queue.count_for(1) == 3
    assert queue.count_old_for(1) == 2
    assert queue.destinations() == {1, 2, 3, 4}
    assert queue.has_old_for([3, 9])
    assert not queue.has_old_for([4])
    queue.remove(packets[0])  # old packet for 1
    assert queue.count_old_for(1) == 1
    popped = queue.pop_any_for(2)
    assert popped is packets[1]
    assert queue.count_for(2) == 1
    queue.pop_old()  # packets[2], destination 1
    assert queue.count_old_for(1) == 0
    assert queue.count_for(1) == 1  # packets[5] is still new
    queue.age_all()
    assert queue.count_old_for(1) == 1
    while queue:
        queue.pop_any()
    assert queue.destinations() == set()
    assert queue.count_for(1) == 0


def test_run_spec_quiescence_knob_is_execution_strategy_not_identity():
    common = dict(
        algorithm="k-cycle",
        algorithm_params={"n": 8, "k": 3},
        adversary="bursty",
        adversary_params={"rho": 0.1, "beta": 4.0, "idle_rounds": 20},
        rounds=100,
    )
    default = RunSpec(**common)
    disabled = RunSpec(quiescence_skip=False, **common)
    assert default.spec_hash() == disabled.spec_hash()
    assert default == disabled
    assert RunSpec.from_dict(default.to_dict()).quiescence_skip is True


def test_seeded_adversary_rejects_unknown_rng_version():
    """Protocol 2 is the only one: the retired per-round protocol 1 is
    rejected like any unknown version."""
    from repro.adversary import UniformRandomAdversary

    for version in (1, 3):
        with pytest.raises(ValueError, match="rng_version"):
            UniformRandomAdversary(0.5, 1.0, seed=1, rng_version=version)


def test_rng_version_is_part_of_identity():
    from repro.adversary import DEFAULT_RNG_VERSION, UniformRandomAdversary

    assert DEFAULT_RNG_VERSION == 2
    default = UniformRandomAdversary(0.5, 1.0, seed=1)
    assert default.rng_version == 2
    assert "rng=v2" in default.describe()
    spec_default = RunSpec(
        algorithm="rrw",
        algorithm_params={"n": 5},
        adversary="random",
        adversary_params={"rho": 0.5, "beta": 1.0, "seed": 1},
        rounds=10,
    )
    spec_explicit = RunSpec(
        algorithm="rrw",
        algorithm_params={"n": 5},
        adversary="random",
        adversary_params={"rho": 0.5, "beta": 1.0, "seed": 1, "rng_version": 2},
        rounds=10,
    )
    assert spec_explicit.spec_hash() == spec_default.spec_hash()


def test_seeded_specs_pin_the_rng_protocol_explicitly():
    """New specs record the seeded RNG protocol; a serialised dict
    *without* the key reads as v2, like the constructor."""
    spec = RunSpec(
        algorithm="rrw",
        algorithm_params={"n": 5},
        adversary="random",
        adversary_params={"rho": 0.5, "beta": 1.0, "seed": 1},
        rounds=10,
    )
    assert spec.adversary_params["rng_version"] == 2
    assert spec.to_dict()["adversary_params"]["rng_version"] == 2
    assert RunSpec.from_dict(spec.to_dict()) == spec

    legacy = json.loads(json.dumps(spec.to_dict()))
    del legacy["adversary_params"]["rng_version"]
    replayed = RunSpec.from_dict(legacy)
    assert replayed.adversary_params["rng_version"] == 2
    assert replayed.spec_hash() == spec.spec_hash()

    # Non-seeded adversaries are untouched by the normalisation.
    plain = RunSpec(
        algorithm="rrw",
        algorithm_params={"n": 5},
        adversary="round-robin",
        adversary_params={"rho": 0.5, "beta": 1.0},
        rounds=10,
    )
    assert "rng_version" not in plain.adversary_params
    assert "rng_version" not in RunSpec.from_dict(plain.to_dict()).adversary_params
