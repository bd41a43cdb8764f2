"""The benchmark's workloads: set-up, one timed pass, and output checks.

Nothing here imports ``repro`` at module level: importing the program is
part of each workload's measured set-up.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from .checks import DEFAULT_SEED, OpLedger, normalise, run_digest, spec_key, summary_digest

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench"

#: Horizon of the reference-engine replays made at seeds without
#: recorded outputs.
REPLAY_ROUNDS = 3000


@dataclasses.dataclass
class PassResult:
    wall_s: float
    rounds: int
    op_s: list[float]


class Workload:
    """One workload: ``setup`` once, then any number of ``run_pass``."""

    name = ""
    topology = ""
    #: Highest tail percentile reported.  A run of the default length
    #: has ten samples beyond it, so a faster program, which completes
    #: more operations, still reports the same percentile.
    tail_ceiling = 100.0

    def __init__(self, seed: int, expected: dict | None) -> None:
        self.seed = seed
        #: Outputs recorded at the default seed, and the part of them that
        #: applies to this run (None at any other seed).
        self.recorded = expected
        self.expected = expected if seed == DEFAULT_SEED else None
        self.ledger = OpLedger()
        #: Span store of the traced pass, or None while untraced.
        self.store = None
        self.clock = time.perf_counter

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish_checks(self) -> None:
        """Checks made once, after the timed passes."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Stop everything ``setup`` started."""

    def _open_op(self, op: int):
        store = self.store
        if store is None:
            return None
        store.current_op = op
        return store.open(store.name_id(f"workload:{self.name}.op"))

    def _close_op(self, idx) -> None:
        if idx is not None:
            self.store.close(idx)


def _spec(algorithm, algorithm_params, adversary, adversary_params, rounds, **kw):
    from repro.sim import RunSpec

    return RunSpec(
        algorithm=algorithm, algorithm_params=algorithm_params, adversary=adversary,
        adversary_params=adversary_params, rounds=rounds, **kw,
    )


class Table1Quick(Workload):
    """``regenerate_table1(quick=True)``, serial and uncached, as ``repro table1`` runs it."""

    name = "table1-quick"
    topology = "one process, serial ParallelExecutor (workers=1), no cache"
    # Above the 75th percentile a pass has only nine specs, spread from
    # 0.1 to 1.5 s; a rank there jumps between them from run to run.
    tail_ceiling = 75.0

    def __init__(self, seed: int, expected: dict | None) -> None:
        super().__init__(seed, expected)
        self._original = None
        #: (op id, seconds, spec, summary digest) of the current pass.
        self._pass_ops: list[tuple[int, float, object, str]] = []

    def setup(self) -> None:
        from repro.sim import experiments, parallel, specs

        self.experiments, self.parallel, self.specs = experiments, parallel, specs
        specs.execute_spec(_spec("k-cycle", {"n": 5, "k": 2}, "spray",
                                 {"rho": 0.1, "beta": 2.0}, 1000))
        self._original = parallel.execute_spec
        parallel.execute_spec = self._timed_spec

    def _timed_spec(self, spec):
        op = self.ledger.new_op()
        idx = self._open_op(op)
        t0 = self.clock()
        try:
            # Looked up at call time so that a traced pass sees the
            # wrapped entry point.
            result = self.specs.execute_spec(spec)
        except Exception as exc:
            self.ledger.fail(op, f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._close_op(idx)
        elapsed = self.clock() - t0
        self._pass_ops.append((op, elapsed, spec, summary_digest(result.summary.as_dict())))
        return result

    def run_pass(self, index: int) -> PassResult:
        self._pass_ops = []
        t0 = self.clock()
        try:
            _, results = self.experiments.regenerate_table1(quick=True, workers=1, cache=None)
        except Exception as exc:  # the pass fails as a whole: count every op in it
            results = None
            for op, *_ in self._pass_ops:
                self.ledger.fail(op, f"pass {index}: {type(exc).__name__}: {exc}")
            if not self._pass_ops:
                self.ledger.fail(self.ledger.new_op(), f"pass {index}: {exc}")
        wall = self.clock() - t0
        self.last_measured = None if results is None else self.measured_rows(results)
        if results is not None and self.recorded is not None:
            self._check(index)
        return PassResult(
            wall, sum(spec.rounds for _, _, spec, _ in self._pass_ops),
            [dt for _, dt, _, _ in self._pass_ops],
        )

    @staticmethod
    def measured_rows(results) -> list:
        return normalise([
            {"id": r.experiment_id, "measured": r.measured, "shape_ok": r.shape_ok}
            for r in results
        ])

    def pass_digests(self) -> list[str]:
        return [digest for _, _, _, digest in self._pass_ops]

    def _check(self, index: int) -> None:
        digests = self.pass_digests()
        measured = self.last_measured
        # The inputs do not depend on the seed, so every seed is checked
        # against the recorded outputs.
        want = self.recorded["table1-quick"]
        ops = [op for op, *_ in self._pass_ops]
        if len(digests) != len(want["specs"]):
            for op in ops:
                self.ledger.fail(op, f"pass {index}: {len(digests)} specs, expected "
                                     f"{len(want['specs'])}")
            return
        for op, got, exp in zip(ops, digests, want["specs"]):
            if got != exp:
                self.ledger.fail(op, f"pass {index}: summary digest {got} != {exp}")
        for got, exp in zip(measured, want["measured"]):
            if got != exp:
                for op in ops:
                    self.ledger.fail(op, f"pass {index}: {got['id']} measured row differs")

    def close(self) -> None:
        if self._original is not None:
            self.parallel.execute_spec = self._original


#: engine-n64 specs, taken from benchmarks/bench_engine.py's CONFIGS:
#: (name, algorithm, params, adversary, params, rounds, enforce_energy_cap).
#: ``seed`` in the adversary params is replaced by the workload seed.
ENGINE_SPECS = [
    ("k-cycle-spray", "k-cycle", {"n": 64, "k": 4}, "spray",
     {"rho": 0.04, "beta": 2.0}, 40000, True),
    ("k-clique-round-robin", "k-clique", {"n": 32, "k": 8}, "round-robin",
     {"rho": 0.05, "beta": 2.0}, 40000, True),
    ("k-subsets-spray", "k-subsets", {"n": 8, "k": 3}, "spray",
     {"rho": 0.1, "beta": 2.0}, 40000, True),
    ("k-cycle-adaptive", "k-cycle", {"n": 64, "k": 4}, "adaptive-starvation",
     {"rho": 0.1, "beta": 2.0}, 20000, False),
    ("k-cycle-random", "k-cycle", {"n": 64, "k": 8}, "random",
     {"rho": 0.015, "beta": 2.0, "seed": None}, 45000, True),
    ("rrw-random", "rrw", {"n": 64}, "random",
     {"rho": 0.9, "beta": 2.0, "seed": None}, 35000, True),
    ("mbtf-random", "mbtf", {"n": 64}, "random",
     {"rho": 0.95, "beta": 2.0, "seed": None}, 35000, True),
    ("k-cycle-bursty", "k-cycle", {"n": 64, "k": 4}, "bursty",
     {"rho": 0.1, "beta": 8.0, "idle_rounds": 2400}, 180000, True),
]


class EngineN64(Workload):
    """Long low-backlog runs on the default ``auto`` engine."""

    name = "engine-n64"
    topology = "one process, execute_spec per spec, default auto engine"
    tail_ceiling = 80.0

    def __init__(self, seed: int, expected: dict | None) -> None:
        super().__init__(seed, expected)
        #: Per spec name: the digest of its first run and the ops that ran it.
        self.seen: dict[str, str] = {}
        self.ops_of: dict[str, list[int]] = {name: [] for name, *_ in ENGINE_SPECS}

    def build_specs(self) -> list[tuple[str, object]]:
        out = []
        for name, algo, aparams, adv, dparams, rounds, cap in ENGINE_SPECS:
            dparams = dict(dparams)
            if "seed" in dparams:
                dparams["seed"] = self.seed
            out.append((name, _spec(algo, aparams, adv, dparams, rounds,
                                    enforce_energy_cap=cap, label=name)))
        return out

    def setup(self) -> None:
        from repro.sim import specs

        self.specs_mod = specs
        self.specs = self.build_specs()
        name, first = self.specs[0]
        specs.execute_spec(dataclasses.replace(first, rounds=2000))

    def run_pass(self, index: int) -> PassResult:
        op_s, rounds = [], 0
        t0 = self.clock()
        for name, spec in self.specs:
            op = self.ledger.new_op()
            self.ops_of[name].append(op)
            idx = self._open_op(op)
            t = self.clock()
            try:
                result = self.specs_mod.execute_spec(spec)
            except Exception as exc:
                self.ledger.fail(op, f"{name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                op_s.append(self.clock() - t)
                self._close_op(idx)
            rounds += spec.rounds
            self._check(op, name, summary_digest(result.summary.as_dict()))
        return PassResult(self.clock() - t0, rounds, op_s)

    def _check(self, op: int, name: str, digest: str) -> None:
        if self.expected is not None:
            want = self.expected["engine-n64"][name]
        else:
            want = self.seen.setdefault(name, digest)
        if digest != want:
            self.ledger.fail(op, f"{name}: summary digest {digest} != {want}")

    def finish_checks(self) -> None:
        if self.expected is not None:
            return
        for name, spec in self.specs:
            if run_digest(spec, REPLAY_ROUNDS) != run_digest(spec, REPLAY_ROUNDS, "reference"):
                for op in self.ops_of[name]:
                    self.ledger.fail(op, f"{name}: reference replay differs")


#: service-mixed job stream: jobs per pass, specs per job, rounds per spec.
SERVICE_JOBS = 8
SERVICE_JOB_SPECS = 4
SERVICE_ROUNDS = 3000


def service_spec(seed: int, index: int, pass_index: int):
    """The ``index``-th distinct spec of a pass.

    The label names the pass, so each pass computes fresh results while
    a job's repeat of the previous job's specs hits the cache.
    """
    rho = round(0.02 + 0.005 * ((index + seed) % 40), 4)
    return _spec("k-cycle", {"n": 8, "k": 3}, "spray", {"rho": rho, "beta": 2.0},
                 SERVICE_ROUNDS, label=f"p{pass_index}-s{index}")


def service_job(seed: int, job: int, pass_index: int) -> list:
    """Job ``job`` repeats the last half of job ``job - 1``'s specs."""
    half = SERVICE_JOB_SPECS // 2
    return [service_spec(seed, job * half + i, pass_index) for i in range(SERVICE_JOB_SPECS)]


class ServiceMixed(Workload):
    """A closed-loop client sending small k-Cycle jobs to ``repro serve``."""

    name = "service-mixed"
    # Job latency has modes a poll period apart (the worker polls every
    # 0.2 s, the monitor every 0.1 s); the upper one holds up to ~20% of
    # jobs, so the 80th percentile would jump between modes.
    tail_ceiling = 75.0

    def __init__(self, seed: int, expected: dict | None, *,
                 in_process_shards: int | None = None):
        """``in_process_shards``: host the worker on a thread of this
        process, which exits after claiming that many shards."""
        super().__init__(seed, expected)
        self.in_process_shards = in_process_shards
        #: Per spec key: the digest first fetched, the ops that fetched
        #: it, and the spec itself.
        self.seen: dict[str, str] = {}
        self.ops_of: dict[str, list[int]] = {}
        self.unique: dict[str, object] = {}
        self.dir = self.server = self.worker_proc = self.worker_thread = None
        worker = ("a run_worker(server_url=...) thread in this process"
                  if in_process_shards is not None else
                  "one `python -m repro worker --server` process at shipped defaults")
        self.topology = (
            "SweepService + make_server on a thread of this process; "
            f"worker: {worker}; one client, closed loop, {SERVICE_JOBS} jobs of "
            f"{SERVICE_JOB_SPECS} specs per pass"
        )

    def setup(self) -> None:
        from repro.sim import service

        self.service_mod = service
        self.dir = SCRATCH / f"service-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.service = service.SweepService(self.dir / "queue", self.dir / "cache")
        self.server = service.make_server(self.service, "127.0.0.1", 0)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-serve", daemon=True
        )
        self.server_thread.start()
        self._start_worker()
        # Warm-up: one untimed job that a worker, not the server's local
        # fallback, must have run.
        for attempt in range(5):
            spec = _spec("k-cycle", {"n": 5, "k": 2}, "spray", {"rho": 0.1, "beta": 2.0},
                         1000, label=f"warm-up-{attempt}")
            job = service.submit_batch(self.url, [spec.to_dict()])
            service.wait_for_job(self.url, job["job"], timeout=60)
            if self.service.jobs[job["job"]].served_locally == 0:
                return
        raise RuntimeError("no worker claimed the warm-up job")

    def _start_worker(self) -> None:
        if self.in_process_shards is not None:
            from repro.sim import run_worker

            self.worker_thread = threading.Thread(
                target=run_worker,
                kwargs={"server_url": self.url, "max_shards": self.in_process_shards,
                        "max_idle": 10.0},
                name="perfbench-worker", daemon=True,
            )
            self.worker_thread.start()
            return
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.dir)
        self.worker_log = (self.dir / "worker.log").open("wb")
        self.worker_proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--server", self.url],
            cwd=ROOT, env=env, stdout=self.worker_log, stderr=subprocess.STDOUT,
        )

    def run_pass(self, index: int) -> PassResult:
        service = self.service_mod
        op_s = []
        fresh: set[str] = set()
        t0 = self.clock()
        for j in range(SERVICE_JOBS):
            specs = service_job(self.seed, j, index)
            op = self.ledger.new_op()
            idx = self._open_op(op)
            t = self.clock()
            try:
                job = service.submit_batch(self.url, [s.to_dict() for s in specs])
                service.wait_for_job(self.url, job["job"], timeout=60)
                records = service.fetch_results(self.url, job["job"])
            except Exception as exc:
                self.ledger.fail(op, f"job {j}: {type(exc).__name__}: {exc}")
                continue
            finally:
                op_s.append(self.clock() - t)
                self._close_op(idx)
            fresh.update(s.spec_hash() for s in specs)
            self._check(op, specs, records)
        wall = self.clock() - t0
        return PassResult(wall, len(fresh) * SERVICE_ROUNDS, op_s)

    def _check(self, op: int, specs: list, records: list[dict]) -> None:
        if len(records) != len(specs):
            self.ledger.fail(op, f"{len(records)} results for {len(specs)} specs")
            return
        for spec, record in zip(specs, records):
            key = spec_key(spec)
            self.ops_of.setdefault(key, []).append(op)
            self.unique.setdefault(key, spec)
            if record.get("status") != "done" or record.get("spec_hash") != spec.spec_hash():
                self.ledger.fail(op, f"{spec.label}: status {record.get('status')}")
                continue
            digest = summary_digest(record["summary"])
            if self.expected is not None:
                want = self.expected["service-mixed"].get(key)
            else:
                want = self.seen.setdefault(key, digest)
            if digest != want:
                self.ledger.fail(op, f"{spec.label}: summary digest {digest} != {want}")

    def finish_checks(self) -> None:
        if self.expected is not None:
            return
        for key, spec in self.unique.items():
            if self.seen.get(key) != run_digest(spec, REPLAY_ROUNDS, "reference"):
                for op in self.ops_of[key]:
                    self.ledger.fail(op, f"{spec.label}: reference replay differs")

    def peak_rss_mb(self) -> float:
        if self.worker_proc is None:
            return super().peak_rss_mb()
        with open(f"/proc/{self.worker_proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("worker VmHWM not found")

    def served_locally(self) -> int:
        return sum(job.served_locally for job in self.service.jobs.values())

    def close(self) -> None:
        if self.worker_thread is not None:
            self.worker_thread.join(timeout=15)
        proc = self.worker_proc
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
            self.worker_log.close()
        if self.server is not None:
            self.service.close()
            self.server.shutdown()
            self.server.server_close()
            self.server_thread.join(timeout=15)
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Table1Quick, EngineN64, ServiceMixed)}
