#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-quick --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload's passes run untraced for ``--seconds``
and the end-to-end metrics are printed; with ``--trace 1`` one untraced
and one traced pass run and the per-layer metrics are printed.  Each
metric is printed on its own line as ``name = value unit``, followed by
the run record (environment, topology, tail percentile and sample count)
and, as the last line, one JSON object::

    {"correct": true, "attempted": 64, "failed": 0, "metrics": {...}}

The record is also written to ``.perfbench/<workload>-trace<0|1>.json``.
``--record-expected`` regenerates ``perfbench/expected.json`` (outputs at
the default seed, each cross-checked against the reference engine).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
for _path in (SRC, ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.checks import (  # noqa: E402
    DEFAULT_SEED, EXPECTED_PATH, load_expected, run_digest, spec_key,
)
from perfbench.layers import Instrumentation  # noqa: E402
from perfbench.spans import SpanStore, median, tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SCRATCH, SERVICE_JOBS, WORKLOADS, EngineN64, ServiceMixed, Table1Quick, service_job,
)

#: Set-ups per timed run (this process plus fresh probe processes); the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Fewest timed operations a run makes: the tail needs ten beyond the median.
MIN_OPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "rounds/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "adversary.calls": "count", "adversary.busy_s": "s", "adversary.packets": "count",
    "algorithms.calls": "count", "algorithms.busy_s": "s",
    "queues.ops": "count", "queues.busy_s": "s", "queues.scan_ops": "count",
    "queues.peak_backlog": "packets",
    "channel.busy_s": "s", "channel.rounds": "rounds", "channel.rounds_elided": "rounds",
    "channel.rounds_lowered": "rounds", "channel.blocks_compiled": "count",
    "channel.blocks_fallback": "count", "channel.block_accept_ratio": "ratio",
    "accel.calls": "count", "accel.busy_s": "s",
    "metrics.calls": "count", "metrics.busy_s": "s", "metrics.summary_s": "s",
    "runner.specs": "count", "runner.wiring_s": "s", "parallel.dispatch_s": "s",
    "analysis.busy_s": "s",
    "cache.gets": "count", "cache.hits": "count", "cache.hit_ratio": "ratio",
    "cache.puts": "count", "cache.get_s": "s", "cache.put_s": "s",
    "cache.bytes_per_result": "B",
    "rpc.requests": "count", "rpc.busy_s": "s", "rpc.retries": "count", "rpc.bytes": "B",
    "lease.claims": "count", "lease.wait_s": "s", "lease.hold_s": "s",
    "service.submit_s": "s", "service.wait_s": "s", "service.fetch_s": "s",
    "service.served_locally": "count",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float) -> list:
    """Run passes until the next one would end after ``seconds`` and the
    tail latency has the samples it needs."""
    passes = []
    start = time.perf_counter()
    while True:
        # Each pass starts from a collected heap, as a fresh process would.
        gc.collect()
        result = workload.run_pass(len(passes))
        passes.append(result)
        enough = sum(len(p.op_s) for p in passes) >= MIN_OPS
        if enough and time.perf_counter() - start + result.wall_s > seconds:
            return passes


def timed_run(args, expected: dict) -> tuple[dict, dict, object]:
    setup_samples = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, expected)
    try:
        workload.setup()
        setup_samples.append(time.perf_counter() - t0)
        passes = measure(workload, args.seconds)
        peak_rss = workload.peak_rss_mb()
        workload.finish_checks()
    finally:
        workload.close()
    ops = [op for p in passes for op in p.op_s]
    percentile, tail = tail_percentile(ops, workload.tail_ceiling)
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": median(p.wall_s for p in passes),
        "rounds_per_s": median(p.rounds / p.wall_s for p in passes),
        "op_ms_p50": median(ops) * 1e3,
        "op_ms_tail": tail * 1e3,
        "peak_rss_mb": peak_rss,
    }
    record = {
        "op_ms_tail_percentile": percentile,
        "op_samples": len(ops),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples": setup_samples,
        "error_rate": workload.ledger.error_rate,
    }
    return metrics, record, workload


def traced_run(args, expected: dict) -> tuple[dict, dict, object]:
    service = args.workload == ServiceMixed.name
    if service:
        # The warm-up job plus the untraced and the traced pass.
        workload = ServiceMixed(args.seed, expected, in_process_shards=1 + 2 * SERVICE_JOBS)
    else:
        workload = WORKLOADS[args.workload](args.seed, expected)
    store = SpanStore()
    instrumentation = Instrumentation(store)
    try:
        workload.setup()
        untraced = workload.run_pass(0)
        instrumentation.install()
        workload.store = store
        try:
            root = store.open(store.name_id(f"workload:{workload.name}.pass"))
            traced = workload.run_pass(1)
            store.close(root)
            if service:
                workload.worker_thread.join(timeout=30)
        finally:
            instrumentation.uninstall()
            workload.store = None
        metrics = instrumentation.metrics(threading.get_ident())
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics["service.served_locally"] = workload.served_locally() if service else 0
        workload.finish_checks()
    finally:
        workload.close()
    record = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "unattributed_share": metrics["trace.unattributed_s"] / traced.wall_s,
        "spans": len(store),
        "error_rate": workload.ledger.error_rate,
        "layer_time": "busy_s is self time summed over all threads; "
                      "trace.unattributed_s is self time of the workload's own "
                      "spans on the thread that runs the operations",
    }
    if service:
        record["trace_topology_note"] = (
            "the worker runs in this process so the wrappers see its calls; the "
            "untraced end-to-end run uses a separate worker process"
        )
    return metrics, record, workload


def _same_on_reference(spec, digest: str) -> str:
    if run_digest(spec, engine="reference") != digest:
        raise RuntimeError(f"the reference engine disagrees on {spec.label or spec_key(spec)}")
    return digest


def record_expected() -> int:
    """Write expected.json: default-seed outputs, each equal on the reference engine."""
    out: dict = {"seed": DEFAULT_SEED}
    table = Table1Quick(DEFAULT_SEED, None)
    table.setup()
    try:
        table.run_pass(0)
    finally:
        table.close()
    out["table1-quick"] = {
        "specs": [
            _same_on_reference(spec, digest)
            for (_, _, spec, _), digest in zip(table._pass_ops, table.pass_digests())
        ],
        "measured": table.last_measured,
    }
    engine = EngineN64(DEFAULT_SEED, None)
    out["engine-n64"] = {}
    for name, spec in engine.build_specs():
        out["engine-n64"][name] = _same_on_reference(spec, run_digest(spec))
    out["service-mixed"] = {}
    for j in range(SERVICE_JOBS):
        for spec in service_job(DEFAULT_SEED, j, 0):
            out["service-mixed"][spec_key(spec)] = _same_on_reference(spec, run_digest(spec))
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops the worker process and server it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Everything the benchmark writes stays inside the checkout.
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(SCRATCH / "tmp")
    if args.record_expected:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")
    expected = load_expected()

    if args.setup_probe:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, expected)
        try:
            workload.setup()
            elapsed = time.perf_counter() - t0
        finally:
            workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    run = traced_run if args.trace else timed_run
    metrics, record, workload = run(args, expected)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "topology": workload.topology,
        "environment": environment(),
        "failures": workload.ledger.notes,
    })
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"error_rate = {workload.ledger.error_rate:.6g} "
          f"({len(workload.ledger.failed)} of {workload.ledger.attempted} operations)")
    print("record: " + json.dumps(record, sort_keys=True))
    (SCRATCH / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "record": record}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    failed = len(workload.ledger.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": workload.ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
