"""Benchmarks F1–F5: the figure-style simulation sweeps (``figure_*`` in
:mod:`repro.sim.experiments`).

Each benchmark regenerates one figure's data series, writes it to a CSV
file under ``benchmarks/results/`` and asserts the qualitative shape the
paper's analysis predicts (who wins, where latency diverges, how energy
trades off against latency).
"""

from pathlib import Path

import pytest

from repro.analysis import bounds
from repro.sim import experiments as exp
from repro.sim.reporting import series_to_csv, sweep_table

RESULTS_DIR = Path(__file__).parent / "results"


def _save(name: str, series_map) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.csv").write_text(series_to_csv(series_map))


def test_f1_latency_vs_injection_rate(run_once, benchmark):
    """F1: latency as a function of rho; universal algorithms survive high rho."""
    series = run_once(
        exp.figure_latency_vs_rate,
        n=8,
        k=4,
        rates=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
        rounds=6000,
    )
    _save("f1_latency_vs_rate", series)
    for name, s in series.items():
        print("\n" + sweep_table(s))
    # Orchestra (throughput 1) is stable across the whole sweep, including 0.9.
    assert all(series["Orchestra"].stabilities())
    # Count-Hop is stable well past the oblivious thresholds (up to 0.7 within
    # this run length; at 0.9 its phases are still converging, so the last
    # rate is not asserted).
    assert all(series["Count-Hop"].stabilities()[:-1])
    # The oblivious algorithms have long since diverged: 0.9 is far above both
    # k/n and k(k-1)/(n(n-1)) for n=8, k=4.
    assert not series["k-Clique"].stabilities()[-1]
    assert not series["k-Cycle"].stabilities()[-1]
    # Latency of Count-Hop grows with the injection rate.
    count_hop = series["Count-Hop"].latencies()
    assert count_hop[-2] >= count_hop[0]


def test_f2_scaling_with_system_size(run_once, benchmark):
    """F2: latency growth with n at a fixed moderate rate."""
    series = run_once(exp.figure_scaling_n, sizes=(4, 6, 8, 10), rho=0.25)
    _save("f2_scaling_n", series)
    for s in series.values():
        print("\n" + sweep_table(s))
        assert all(s.stabilities()), f"{s.name} should be stable at rho=0.25"
    # Count-Hop latency grows roughly like n^2: the largest system is clearly
    # slower than the smallest.
    latencies = series["Count-Hop"].latencies()
    assert latencies[-1] > latencies[0]


def test_f3_energy_latency_tradeoff(run_once, benchmark):
    """F3: a larger energy cap k widens the admissible injection-rate range.

    Each point runs the oblivious algorithms at half of their k-dependent
    stability threshold; that threshold — and hence the sustained rate —
    grows with k, which is the energy/throughput trade-off of Section 5/6.
    Latencies are recorded for the figure but are not monotone in k (larger
    groups are active for longer segments), exactly as the paper's bounds
    suggest.
    """
    series = run_once(exp.figure_energy_tradeoff, n=12, caps=(2, 3, 4, 6), rounds=15000)
    _save("f3_energy_tradeoff", series)
    for s in series.values():
        print("\n" + sweep_table(s))
    cycle = series["k-Cycle"]
    # Stable at every cap even though the injected rate grows with k.
    assert all(cycle.stabilities())
    assert all(series["k-Clique"].stabilities())
    # The admissible-rate thresholds themselves grow with k.
    thresholds = [bounds.k_cycle_rate_threshold(12, int(k)) for k in cycle.values()]
    assert thresholds == sorted(thresholds)


def test_f4_energy_usage_per_algorithm(run_once, benchmark):
    """F4: energy per round / per delivered packet across all algorithms."""
    results = run_once(exp.figure_energy_usage, n=8, k=4, rho=0.3, rounds=6000)
    rows = []
    for name, result in results.items():
        rows.append(
            f"{name:<18s} E/round={result.summary.energy_per_round:6.2f}  "
            f"E/delivery={result.summary.energy_per_delivery:8.2f}  "
            f"latency={result.latency:6d}"
        )
    report = "\n".join(rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "f4_energy_usage.txt").write_text(report + "\n")
    print("\n" + report)
    benchmark.extra_info["energy_table"] = report
    # The capped algorithms use at most their cap; the uncapped baselines use n.
    assert results["Count-Hop"].summary.energy_per_round <= 2.01
    assert results["Orchestra"].summary.energy_per_round <= 3.01
    assert results["RRW (uncapped)"].summary.energy_per_round == pytest.approx(8.0)
    # Energy efficiency: capped algorithms spend fewer station-rounds per packet.
    assert (
        results["Count-Hop"].summary.energy_per_delivery
        < results["RRW (uncapped)"].summary.energy_per_delivery
    )


def test_f5_queue_trajectories_across_thresholds(run_once, benchmark):
    """F5: queue trajectories below / at / above the stability thresholds."""
    from repro.sim.reporting import queue_trajectory_sparkline

    results = run_once(exp.figure_queue_trajectories, n=9, k=3, rounds=12000)
    lines = []
    for label, result in results.items():
        lines.append(f"{label:<22s} {queue_trajectory_sparkline(result)}")
    report = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "f5_queue_trajectories.txt").write_text(report + "\n")
    print("\n" + report)
    assert results["below threshold"].stable
    assert not results["above impossibility"].stable
    assert (
        results["above impossibility"].max_queue
        > 5 * results["below threshold"].max_queue
    )
