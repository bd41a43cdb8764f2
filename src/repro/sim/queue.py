"""Filesystem work queue with lease-based claims and work stealing.

The distributed sweep layer needs a coordination substrate without a
broker, a database or any new dependency.  ``repro serve`` owns one
:class:`WorkQueue` on its local disk and exposes it to ``repro worker``
processes over HTTP (:class:`RemoteWorkQueue`, token-addressed leases);
the server's own local fallback claims from the same directory.  The
queue is built from nothing but directories and atomic renames:

* a sweep is **enqueued** as shards (a few :class:`~repro.sim.specs.RunSpec`
  dicts per JSON payload) dropped into ``pending/``;
* a worker **claims** a shard by renaming it into ``leased/`` — rename is
  atomic on POSIX, so of any number of racing claimants exactly one wins
  and the losers see :class:`FileNotFoundError` and move on;
* the lease carries a **TTL** encoded in its filename; the worker
  **heartbeats** by renaming the lease onto a fresh expiry while it
  executes;
* a lease whose TTL lapses (worker crashed, stalled, or was killed) is
  **reclaimed**: any process may rename it back into ``pending/`` with
  the shard's *takeover counter* bumped — this is work stealing, and the
  counter survives crashes because it lives in the filename, not in any
  process's memory;
* a finished shard publishes per-spec status records into ``done/`` and
  drops its lease.

Every transition is a single ``os.rename``/``os.replace``; there are no
lock files and no read-modify-write windows.  The payload *content* never
changes after enqueue — all mutable state (takeovers, owner, expiry) is
encoded in filenames:

.. code-block:: text

    pending/{shard}.t{takeovers}.json
    leased/{shard}.t{takeovers}.{owner}.{expires_ms}.json
    done/{shard}.json

Shard ids and owner names are sanitised to ``[A-Za-z0-9_-]`` so the
dot-separated grammar parses unambiguously.

Delivery is **at least once**: a stolen shard may still be finished by
its original (slow, not dead) owner, so two workers can execute the same
spec.  That is safe because results land in the content-addressed,
checksummed :class:`~repro.sim.cache.ResultCache` — both workers compute
the bit-identical payload and the last atomic rename wins — and because
``done/`` records are whole-file replacements.  The takeover counter
doubles as the shard's global attempt clock for deterministic fault
injection: :meth:`FaultPlan.with_offset(takeovers)
<repro.sim.faults.FaultPlan.with_offset>` lets a stolen shard resume the
fault-coin stream where its dead predecessor left it, so the fault
budget bounds faults per spec across the whole fleet, not per process.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .faults import FailedResult
from .netclient import ResilientClient, RpcError, RpcHttpError, RpcPolicy
from .runner import RunResult
from .specs import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ResultCache
    from .faults import FaultPlan

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LeaseLostError",
    "RemoteWorkLease",
    "RemoteWorkQueue",
    "WorkLease",
    "WorkQueue",
    "collect_results",
    "shard_index",
    "status_record",
]

#: Default lease TTL in seconds before a claimed shard may be stolen.
DEFAULT_LEASE_TTL = 15.0

_NAME_RE = re.compile(r"[^A-Za-z0-9_-]+")


def _sanitize(name: str, fallback: str) -> str:
    """Restrict ``name`` to the filename-grammar alphabet."""
    cleaned = _NAME_RE.sub("-", name).strip("-")
    return cleaned or fallback


def _now_ms() -> int:
    """Wall-clock milliseconds — lease expiries must compare across processes."""
    return int(time.time() * 1000)


def shard_index(spec_hash: str, shards: int) -> int:
    """Deterministic shard assignment for a canonical spec hash.

    Folds the first 64 bits of the hex hash modulo ``shards`` — stable
    across processes, machines and Python versions (no ``hash()``
    randomisation), so ``repro sweep --shard i/k`` partitions identically
    everywhere and the union of the *k* shards is exactly the full sweep.
    """
    if shards < 1:
        raise ValueError("shard count must be at least 1")
    return int(spec_hash[:16], 16) % shards


class LeaseLostError(RuntimeError):
    """The lease vanished mid-heartbeat: it expired and was stolen."""


@dataclass
class WorkLease:
    """One claimed shard: the specs to run plus the lease lifecycle.

    All mutating methods are filename renames.  Exactly one of
    :meth:`complete` / :meth:`abandon` / losing the lease ends the
    lifecycle; a lost lease (stolen after expiry) flips :attr:`lost` and
    all later operations become no-ops that report the loss.
    """

    queue: "WorkQueue"
    shard_id: str
    takeovers: int
    owner: str
    specs: list[RunSpec]
    path: Path
    expires_ms: int
    lost: bool = field(default=False)

    def _leased_name(self, expires_ms: int) -> str:
        return f"{self.shard_id}.t{self.takeovers}.{self.owner}.{expires_ms}.json"

    def heartbeat(self, ttl: float | None = None) -> None:
        """Push the lease expiry ``ttl`` seconds into the future.

        Raises :class:`LeaseLostError` if the lease file is gone — the
        TTL lapsed and another process reclaimed the shard.  The caller
        should stop working on it (any results already cached remain
        valid; the thief recomputes idempotently).
        """
        if self.lost:
            raise LeaseLostError(f"lease on {self.shard_id} already lost")
        ttl = self.queue.lease_ttl if ttl is None else ttl
        expires = _now_ms() + int(ttl * 1000)
        target = self.queue.leased_dir / self._leased_name(expires)
        try:
            os.rename(self.path, target)
        except FileNotFoundError:
            self.lost = True
            raise LeaseLostError(
                f"lease on {self.shard_id} expired and was stolen from {self.owner}"
            ) from None
        self.path = target
        self.expires_ms = expires

    def complete(self, statuses: Sequence[dict], extra: dict | None = None) -> bool:
        """Publish per-spec status records and release the lease.

        The ``done/`` record is written (atomically, last-writer-wins —
        racing completions of a stolen-and-finished-twice shard converge
        on one whole file) *before* the lease is dropped, so a crash in
        between leaves a completed shard with a stale lease that any
        claimant will recognise as done.  ``extra`` (e.g. the worker's
        RPC/spill counter deltas for this shard) rides along in the done
        record under ``"rpc"``.  Returns False when the lease had
        already been stolen; the statuses are published either way.
        """
        self.queue._write_done(self.shard_id, list(statuses), extra=extra)
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            self.lost = True
            return False
        return True

    def abandon(self) -> bool:
        """Hand the shard back to ``pending/`` with the takeover bumped.

        Used by a worker shutting down cleanly mid-shard; the bump keeps
        the fault-coin stream advancing exactly as a crash-and-steal
        would.  Returns False if the lease was already stolen.
        """
        target = self.queue.pending_dir / f"{self.shard_id}.t{self.takeovers + 1}.json"
        try:
            os.rename(self.path, target)
        except FileNotFoundError:
            self.lost = True
            return False
        return True


class WorkQueue:
    """A directory tree of shard files coordinating sweep workers.

    Parameters
    ----------
    root:
        Queue directory; created (with its ``queue.json`` config) if
        absent.  Reopening an existing root inherits its recorded
        ``lease_ttl`` unless overridden explicitly.
    lease_ttl:
        Seconds before an unrenewed lease may be stolen.
    """

    CONFIG_VERSION = 1

    def __init__(self, root: str | Path, *, lease_ttl: float | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        config = self._load_config()
        if lease_ttl is None:
            lease_ttl = config.get("lease_ttl", DEFAULT_LEASE_TTL)
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.lease_ttl = float(lease_ttl)
        for sub in (self.pending_dir, self.leased_dir, self.done_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self._save_config()

    # -- layout ---------------------------------------------------------------
    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def leased_dir(self) -> Path:
        return self.root / "leased"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    @property
    def config_path(self) -> Path:
        return self.root / "queue.json"

    def _load_config(self) -> dict:
        try:
            data = json.loads(self.config_path.read_text("utf-8"))
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def _save_config(self) -> None:
        self._atomic_json(
            self.config_path,
            {"version": self.CONFIG_VERSION, "lease_ttl": self.lease_ttl},
        )

    def _atomic_json(self, path: Path, payload: object) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- enqueue --------------------------------------------------------------
    def enqueue(
        self,
        specs: Iterable[RunSpec | dict],
        *,
        shard_size: int = 4,
        prefix: str = "shard",
    ) -> list[str]:
        """Shard ``specs`` into pending work items; return the shard ids.

        Order is preserved within and across shards, so shard contents
        are deterministic for a given spec sequence.  Payloads are
        written to a temp name and renamed in, so a claimant never sees
        a half-written shard.
        """
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        prefix = _sanitize(prefix, "shard")
        batch = [s if isinstance(s, RunSpec) else RunSpec.from_dict(s) for s in specs]
        shard_ids: list[str] = []
        for n, start in enumerate(range(0, len(batch), shard_size)):
            shard_id = f"{prefix}-{n:04d}"
            payload = {
                "shard": shard_id,
                "specs": [spec.to_dict() for spec in batch[start : start + shard_size]],
            }
            self._atomic_json(self.pending_dir / f"{shard_id}.t0.json", payload)
            shard_ids.append(shard_id)
        return shard_ids

    # -- claim / steal --------------------------------------------------------
    @staticmethod
    def _parse_pending(name: str) -> tuple[str, int] | None:
        parts = name.split(".")
        if len(parts) != 3 or parts[2] != "json" or not parts[1].startswith("t"):
            return None
        try:
            return parts[0], int(parts[1][1:])
        except ValueError:
            return None

    @staticmethod
    def _parse_leased(name: str) -> tuple[str, int, str, int] | None:
        parts = name.split(".")
        if len(parts) != 5 or parts[4] != "json" or not parts[1].startswith("t"):
            return None
        try:
            return parts[0], int(parts[1][1:]), parts[2], int(parts[3])
        except ValueError:
            return None

    def claim(self, owner: str) -> WorkLease | None:
        """Atomically claim one pending shard for ``owner``, or None.

        Expired leases are reclaimed first (so a lone worker can steal
        back its own abandoned shard), and pending shards that already
        have a ``done/`` record — a steal the original owner finished
        anyway — are retired instead of re-executed.
        """
        owner = _sanitize(owner, "worker")
        self.reclaim_expired()
        for entry in sorted(os.listdir(self.pending_dir)):
            parsed = self._parse_pending(entry)
            if parsed is None:
                continue
            shard_id, takeovers = parsed
            source = self.pending_dir / entry
            if (self.done_dir / f"{shard_id}.json").exists():
                try:
                    os.unlink(source)
                except FileNotFoundError:
                    pass
                continue
            expires = _now_ms() + int(self.lease_ttl * 1000)
            target = (
                self.leased_dir / f"{shard_id}.t{takeovers}.{owner}.{expires}.json"
            )
            try:
                os.rename(source, target)
            except FileNotFoundError:
                continue  # lost the race to another claimant
            try:
                payload = json.loads(target.read_text("utf-8"))
                specs = [RunSpec.from_dict(d) for d in payload["specs"]]
            except (OSError, ValueError, KeyError, TypeError):
                # Unreadable shard payload: retire it rather than letting
                # every claimant trip over it forever.
                target.unlink(missing_ok=True)
                continue
            return WorkLease(
                queue=self,
                shard_id=shard_id,
                takeovers=takeovers,
                owner=owner,
                specs=specs,
                path=target,
                expires_ms=expires,
            )
        return None

    def reclaim_expired(self) -> int:
        """Steal every lease whose TTL lapsed back into ``pending/``.

        Any process may call this; racing reclaims of the same lease are
        resolved by the rename (one winner).  Returns the number of
        shards reclaimed.  A lease whose shard is already done is
        retired instead of requeued.
        """
        now = _now_ms()
        reclaimed = 0
        for entry in os.listdir(self.leased_dir):
            parsed = self._parse_leased(entry)
            if parsed is None:
                continue
            shard_id, takeovers, _owner, expires = parsed
            if expires > now:
                continue
            source = self.leased_dir / entry
            if (self.done_dir / f"{shard_id}.json").exists():
                try:
                    os.unlink(source)
                except FileNotFoundError:
                    pass
                continue
            target = self.pending_dir / f"{shard_id}.t{takeovers + 1}.json"
            try:
                os.rename(source, target)
            except FileNotFoundError:
                continue
            reclaimed += 1
        return reclaimed

    # -- completion / inspection ----------------------------------------------
    def _write_done(
        self, shard_id: str, statuses: list[dict], *, extra: dict | None = None
    ) -> None:
        payload: dict = {"shard": shard_id, "statuses": statuses}
        if extra:
            payload["rpc"] = extra
        self._atomic_json(self.done_dir / f"{shard_id}.json", payload)

    def _done_records(self, shard_ids: Iterable[str]) -> Iterable[dict]:
        """The readable ``done/`` records of ``shard_ids`` (unfinished ones skip)."""
        for shard_id in shard_ids:
            try:
                payload = json.loads(
                    (self.done_dir / f"{shard_id}.json").read_text("utf-8")
                )
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                yield payload

    def done_statuses(self, shard_ids: Iterable[str]) -> dict[str, dict]:
        """Merge the ``done/`` records of ``shard_ids`` into one
        ``spec_hash → status`` map."""
        merged: dict[str, dict] = {}
        for payload in self._done_records(shard_ids):
            for record in payload.get("statuses", []):
                if isinstance(record, dict) and "spec_hash" in record:
                    merged[record["spec_hash"]] = record
        return merged

    def counts(self) -> dict[str, int]:
        """``{"pending": n, "leased": n, "done": n}`` shard counts."""
        return {
            "pending": sum(
                1 for e in os.listdir(self.pending_dir) if self._parse_pending(e)
            ),
            "leased": sum(
                1 for e in os.listdir(self.leased_dir) if self._parse_leased(e)
            ),
            "done": sum(1 for _ in self.done_dir.glob("*.json")),
        }

    def drained(self) -> bool:
        """True when no shard is pending or leased (not even an expired one)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def rpc_totals(self, shard_ids: Iterable[str]) -> dict[str, int]:
        """Sum the per-shard ``"rpc"`` extras across the done records of
        ``shard_ids`` — one job's shards, so concurrent jobs on one queue
        report their own worker RPC/spill totals."""
        totals: dict[str, int] = {}
        for payload in self._done_records(shard_ids):
            extra = payload.get("rpc")
            if not isinstance(extra, dict):
                continue
            for name, value in extra.items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + int(value)
        return totals


@dataclass
class RemoteWorkLease:
    """One shard claimed over HTTP from a ``repro serve`` queue.

    The lifecycle mirrors :class:`WorkLease` (``process_lease`` runs
    either: remote leases on workers, local ones in the server's
    fallback), but every transition is an RPC through the worker's
    :class:`~repro.sim.netclient.ResilientClient`: the lease is addressed
    by the opaque ``token`` the server minted at claim time.  A heartbeat
    that cannot reach the server — retries exhausted or circuit open — is
    reported as a *lost* lease: the server will reclaim the shard when
    the TTL lapses anyway, and at-least-once delivery plus cache
    idempotence make the duplicate execution safe.
    """

    queue: "RemoteWorkQueue"
    shard_id: str
    takeovers: int
    owner: str
    specs: list[RunSpec]
    token: str
    lost: bool = field(default=False)

    def heartbeat(self, ttl: float | None = None) -> None:
        if self.lost:
            raise LeaseLostError(f"lease on {self.shard_id} already lost")
        try:
            self.queue._post(
                "heartbeat", {"token": self.token, "ttl": ttl}, key=self.token
            )
        except RpcHttpError as exc:
            if exc.status in (404, 410):
                self.lost = True
                raise LeaseLostError(
                    f"lease on {self.shard_id} expired and was stolen "
                    f"from {self.owner}"
                ) from None
            raise LeaseLostError(
                f"heartbeat on {self.shard_id} rejected: {exc}"
            ) from exc
        except RpcError as exc:
            # Unreachable server: the lease will expire and be stolen, so
            # stop working the shard now rather than racing the thief.
            self.lost = True
            raise LeaseLostError(
                f"heartbeat on {self.shard_id} unreachable: {exc}"
            ) from exc

    def complete(self, statuses: Sequence[dict], extra: dict | None = None) -> bool:
        body = {"token": self.token, "statuses": list(statuses)}
        if extra:
            body["rpc"] = extra
        try:
            self.queue._post("complete", body, key=self.token)
        except RpcHttpError as exc:
            if exc.status in (404, 410):
                self.lost = True
                return False
            raise
        except RpcError:
            # Statuses never reached the server; the shard will be stolen
            # and re-completed (idempotently) by another claimant.
            self.lost = True
            return False
        return True

    def abandon(self) -> bool:
        try:
            self.queue._post("abandon", {"token": self.token}, key=self.token)
        except RpcError:
            self.lost = True
            return False
        return True


class RemoteWorkQueue:
    """HTTP client for the queue endpoints of a ``repro serve`` process.

    Speaks ``POST /api/queue/{claim,heartbeat,complete,abandon}`` and
    ``GET /api/queue`` through a :class:`ResilientClient` — the same
    instance the worker's :class:`~repro.sim.cache.RemoteCacheBackend`
    uses, so cache and queue RPCs share one circuit breaker per server.
    All operations degrade gracefully: an unreachable server makes
    :meth:`claim` return None (the worker idles and retries) and
    :meth:`drained` return False (never a false "all done").
    """

    def __init__(
        self,
        base_url: str,
        *,
        client: ResilientClient | None = None,
        policy: RpcPolicy | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        base = base_url.rstrip("/")
        if not base.endswith("/api/queue"):
            base = f"{base}/api/queue"
        self.base_url = base
        self.client = (
            client
            if client is not None
            else ResilientClient(policy, fault_plan=fault_plan)
        )
        self._lease_ttl: float | None = None

    def _post(self, action: str, body: dict, *, key: str) -> dict:
        return self.client.post_json(
            f"{self.base_url}/{action}", body, key=f"queue/{action}/{key}"
        )

    @property
    def lease_ttl(self) -> float:
        """The server queue's TTL (fetched lazily, cached; default on error)."""
        if self._lease_ttl is None:
            try:
                info = self.client.get_json(self.base_url, key="queue/info")
            except RpcError:
                return DEFAULT_LEASE_TTL
            self._lease_ttl = float(info.get("lease_ttl", DEFAULT_LEASE_TTL))
        return self._lease_ttl

    def claim(self, owner: str) -> RemoteWorkLease | None:
        owner = _sanitize(owner, "worker")
        try:
            payload = self._post("claim", {"owner": owner}, key=owner)
        except RpcError:
            return None
        lease = payload.get("lease") if isinstance(payload, dict) else None
        if not isinstance(lease, dict):
            return None
        try:
            specs = [RunSpec.from_dict(d) for d in lease["specs"]]
            return RemoteWorkLease(
                queue=self,
                shard_id=str(lease["shard"]),
                takeovers=int(lease["takeovers"]),
                owner=owner,
                specs=specs,
                token=str(lease["token"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def counts(self) -> dict[str, int]:
        info = self.client.get_json(self.base_url, key="queue/info")
        counts = info.get("counts", {}) if isinstance(info, dict) else {}
        return {
            "pending": int(counts.get("pending", 0)),
            "leased": int(counts.get("leased", 0)),
            "done": int(counts.get("done", 0)),
        }

    def drained(self) -> bool:
        """True only when the server *positively reports* a drained queue."""
        try:
            info = self.client.get_json(self.base_url, key="queue/info")
        except RpcError:
            return False
        return bool(info.get("drained")) if isinstance(info, dict) else False

    def ready(self) -> bool:
        """Whether the server is reachable and has ever held any shards."""
        try:
            info = self.client.get_json(self.base_url, key="queue/info")
        except RpcError:
            return False
        if not isinstance(info, dict):
            return False
        counts = info.get("counts", {})
        total = sum(int(counts.get(k, 0)) for k in ("pending", "leased", "done"))
        return total > 0


def status_record(
    spec: RunSpec, result: RunResult | FailedResult, *, attempts: int = 0
) -> dict:
    """The per-spec record a completed shard publishes into ``done/``."""
    if isinstance(result, FailedResult):
        return {
            "spec_hash": spec.spec_hash(),
            "status": "failed",
            "error": result.error,
            "error_type": result.error_type,
            "attempts": result.attempts,
            "fault_events": list(result.fault_events),
        }
    return {"spec_hash": spec.spec_hash(), "status": "done", "attempts": attempts}


def collect_results(
    specs: Sequence[RunSpec],
    cache: "ResultCache",
    statuses: Mapping[str, dict] | None = None,
) -> list[RunResult | FailedResult | None]:
    """Assemble final results for ``specs`` from the shared cache.

    ``done`` specs come back as cache hits; ``failed`` specs are
    reconstructed as :class:`FailedResult` from ``statuses`` (the
    :meth:`WorkQueue.done_statuses` of the specs' shards); anything else
    — still running, or a done record whose cache entry was corrupted
    away — is ``None`` and the caller decides whether to wait or
    recompute.
    """
    statuses = statuses or {}
    out: list[RunResult | FailedResult | None] = []
    for spec in specs:
        hit = cache.get(spec)
        if hit is not None:
            out.append(hit)
            continue
        record = statuses.get(spec.spec_hash())
        if record is not None and record.get("status") == "failed":
            out.append(
                FailedResult(
                    spec=spec,
                    error=str(record.get("error", "unknown failure")),
                    error_type=str(record.get("error_type", "Exception")),
                    attempts=int(record.get("attempts", 0)),
                    fault_events=list(record.get("fault_events") or []),
                )
            )
        else:
            out.append(None)
    return out
