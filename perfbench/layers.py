"""Per-layer tracing, installed from outside the program.

:class:`Instrumentation` replaces the public entry points of each layer
under ``src/repro`` with wrappers that open a span in a
:class:`~perfbench.spans.SpanStore` and record counts at the same
boundary; :meth:`Instrumentation.uninstall` puts the originals back.  The
program itself is not changed.  Span names are ``<layer>:<entry point>``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading

from .spans import SpanStore

#: ``PacketQueue`` methods that walk the backlog rather than its ends.
QUEUE_SCANS = frozenset({
    "remove", "replace",
    "pop_old_for", "pop_any_for", "peek_old_for", "peek_any_for",
    "pop_old_matching", "peek_old_matching", "peek_any_matching",
    "count_old_for", "count_for", "count_old_matching", "has_old_for",
})

#: Metrics whose span time is inclusive (the whole call), keyed by span name.
INCLUSIVE = {
    "metrics.summary_s": ["metrics:MetricsCollector.summary"],
    "cache.get_s": ["cache:ResultCache.get"],
    "cache.put_s": ["cache:ResultCache.put"],
    "lease.hold_s": ["lease:process_lease"],
    "service.submit_s": ["service:submit_batch"],
    "service.wait_s": ["service:wait_for_job"],
    "service.fetch_s": ["service:fetch_results"],
}

#: Layer whose self time is reported as ``<metric>``.
SELF_TIME = {
    "adversary.busy_s": "adversary",
    "algorithms.busy_s": "algorithms",
    "queues.busy_s": "queues",
    "channel.busy_s": "channel",
    "accel.busy_s": "accel",
    "metrics.busy_s": "metrics",
    "runner.wiring_s": "runner",
    "parallel.dispatch_s": "parallel",
    "analysis.busy_s": "analysis",
    "rpc.busy_s": "rpc",
}

#: Layer whose outermost entries are counted as ``<metric>``.
ENTRIES = {
    "adversary.calls": "adversary",
    "algorithms.calls": "algorithms",
    "queues.ops": "queues",
    "accel.calls": "accel",
    "metrics.calls": "metrics",
}


def _subclasses(root: type) -> list[type]:
    seen: list[type] = []
    stack = [root]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


class Instrumentation:
    """Wrap every layer's entry points while installed."""

    def __init__(self, store: SpanStore) -> None:
        self.store = store
        self._undo: list[tuple[object, str, object]] = []
        self._clients: dict[int, tuple[object, int]] = {}
        self._lock = threading.Lock()

    # -- wrapping --------------------------------------------------------------
    def _wrapper(self, name: str, original, after=None):
        """Wrap ``original`` in a span; ``after(idx, args, kwargs, result)``
        records counts, under a lock because several threads count."""
        store = self.store
        nid = store.name_id(name)
        open_span, close_span = store.open, store.close
        lock = self._lock
        if after is None:
            def wrapper(*args, **kwargs):
                idx = open_span(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    close_span(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_span(nid)
                try:
                    result = original(*args, **kwargs)
                    with lock:
                        after(idx, args, kwargs, result)
                    return result
                finally:
                    close_span(idx)
        return functools.update_wrapper(wrapper, original)

    def _methods(self, layer: str, root: type, names, after=None) -> None:
        for cls in _subclasses(root):
            for attr in names:
                original = cls.__dict__.get(attr)
                if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                    continue
                hook = after(attr) if after is not None else None
                wrapped = self._wrapper(f"{layer}:{cls.__name__}.{attr}", original, hook)
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, original))

    def _function(self, layer: str, fn, after=None) -> None:
        """Wrap ``fn`` in every ``repro`` module that holds a reference to it."""
        wrapped = self._wrapper(f"{layer}:{fn.__name__}", fn, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def _outermost(self, idx: int) -> bool:
        """True when span ``idx`` is not nested in a span of its own layer."""
        store = self.store
        parent = store.parent[idx]
        if parent < 0:
            return True
        layer = store.names[store.name[idx]].split(":", 1)[0]
        return store.names[store.name[parent]].split(":", 1)[0] != layer

    def _inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on the calling thread."""
        store = self.store
        nid = store.name_id(name)
        return any(store.name[i] == nid for i in store._stack())

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        for module in ("repro.sim", "repro.algorithms", "repro.adversary",
                       "repro.protocols", "repro.analysis.table1",
                       "repro.analysis.admissibility"):
            importlib.import_module(module)
        from repro import _accel
        from repro.adversary.base import Adversary
        from repro.analysis import admissibility, bounds, table1
        from repro.channel.engine import RoundEngine
        from repro.channel.kernel import KernelEngine
        from repro.channel.station import StationController
        from repro.core.queues import PacketQueue
        from repro.metrics.collector import MetricsCollector
        from repro.sim import cache, netclient, parallel, queue, runner, service, specs, worker

        counters = self.store.counters

        def count_packets(_attr):
            def after(idx, args, kwargs, result):
                if self._outermost(idx):
                    counters["adversary.packets"] += len(result)
            return after

        self._methods("adversary", Adversary, ("plan_injections", "inject"), count_packets)
        self._methods("algorithms", StationController,
                      ("transmit", "on_feedback", "on_inject", "tick"))

        def queue_hook(attr):
            if attr not in ("push", "push_old"):
                return None

            def after(idx, args, kwargs, result):
                size = len(args[0])
                if size > counters["queues.peak_backlog"]:
                    counters["queues.peak_backlog"] = size
            return after

        queue_methods = [
            attr for attr, value in vars(PacketQueue).items()
            if not attr.startswith("_") and callable(value)
        ]
        self._methods("queues", PacketQueue, queue_methods, queue_hook)
        self._methods("channel", RoundEngine, ("run",))
        self._methods("channel", KernelEngine, ("run",))
        for fn in (_accel.injection_round_indices, _accel.segment_round_totals,
                   _accel.per_station_flow, _accel.count_transmitting):
            self._function("accel", fn)
        collector_methods = [
            attr for attr, value in vars(MetricsCollector).items()
            if callable(value) and (attr.startswith("record_") or attr in ("begin_stations", "summary"))
        ]
        self._methods("metrics", MetricsCollector, collector_methods)

        def negotiation(idx, args, kwargs, result):
            counters["channel.rounds"] += result.rounds
            report = result.negotiation or {}
            counters["channel.rounds_elided"] += report.get("quiescent_rounds_elided", 0)
            counters["channel.rounds_lowered"] += report.get("lowered_rounds", 0)
            counters["channel.blocks_compiled"] += report.get("blocks_compiled", 0)
            counters["channel.blocks_fallback"] += report.get("blocks_fallback", 0)

        self._function("runner", runner.run_simulation, negotiation)
        self._function("runner", runner.worst_case_over)

        def count_spec(idx, args, kwargs, result):
            counters["runner.specs"] += 1

        self._function("runner", specs.execute_spec, count_spec)
        self._methods("parallel", parallel.ParallelExecutor, ("run",))
        for module in (bounds, table1, admissibility):
            for attr, value in list(vars(module).items()):
                if (callable(value) and getattr(value, "__module__", None) == module.__name__
                        and not attr.startswith("_") and not isinstance(value, type)):
                    self._function("analysis", value)

        def cache_get(_attr):
            def after(idx, args, kwargs, result):
                counters["cache.gets"] += 1
                counters["cache.hits"] += result is not None
            return after

        def cache_put(_attr):
            def after(idx, args, kwargs, result):
                counters["cache.puts"] += 1
            return after

        self._methods("cache", cache.ResultCache, ("get",), cache_get)
        self._methods("cache", cache.ResultCache, ("put",), cache_put)

        def stored_bytes(_attr):
            def after(idx, args, kwargs, result):
                # Count each result once, where ResultCache.put stores it
                # (the server's own store of the same bytes is not a result).
                if self._inside("cache:ResultCache.put"):
                    payload = args[2] if len(args) > 2 else kwargs["payload"]
                    counters["cache.bytes"] += len(payload)
            return after

        self._methods("cache", cache.CacheBackend, ("store",), stored_bytes)
        self._methods("cache", cache.CacheBackend, ("load", "contains"))
        self._rpc(netclient.ResilientClient)
        self._methods("lease", queue.WorkQueue, ("claim",))
        self._methods("lease", queue.RemoteWorkQueue, ("claim",))
        marks = self.store.marks
        clock = self.store.clock

        def held(idx, args, kwargs, result):
            lease = args[0]
            counters["lease.claims"] += 1
            submitted = marks.get(lease.shard_id.rsplit("-", 1)[0])
            if submitted is not None:
                counters["lease.wait_s"] += self.store.start[idx] - submitted

        self._function("lease", worker.process_lease, held)

        def submitted(idx, args, kwargs, result):
            marks[result["job"]] = clock()

        self._function("service", service.submit_batch, submitted)
        self._function("service", service.wait_for_job)
        self._function("service", service.fetch_results)

    def _rpc(self, client_cls) -> None:
        counters = self.store.counters
        clients = self._clients
        lock = self._lock

        def after(idx, args, kwargs, result):
            counters["rpc.bytes"] += len(kwargs.get("data") or b"") + len(result.body)

        wrapped = self._wrapper("rpc:ResilientClient.request", client_cls.request, after)

        @functools.wraps(wrapped)
        def request(client, *args, **kwargs):
            with lock:
                # Keep the client alive so its id is not reused, and note
                # its retry count before the first traced request.
                clients.setdefault(id(client), (client, client.stats.retries))
            return wrapped(client, *args, **kwargs)

        self._undo.append((client_cls, "request", client_cls.request))
        client_cls.request = request

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------
    def metrics(self, main_thread: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        store = self.store
        own = store.self_times()
        layer_of = [name.split(":", 1)[0] for name in store.names]
        self_by_layer: dict[str, float] = {}
        entries: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        scans = 0
        unattributed = 0.0
        for i, nid in enumerate(store.name):
            layer = layer_of[nid]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own[i]
            name = store.names[nid]
            inclusive[name] = inclusive.get(name, 0.0) + store.end[i] - store.start[i]
            parent = store.parent[i]
            if parent < 0 or layer_of[store.name[parent]] != layer:
                entries[layer] = entries.get(layer, 0) + 1
            if layer == "queues" and name.rsplit(".", 1)[1] in QUEUE_SCANS:
                scans += 1
            if layer == "workload" and store.thread[i] == main_thread:
                unattributed += own[i]
        counters = store.counters
        out: dict[str, float] = {}
        for metric, layer in ENTRIES.items():
            out[metric] = entries.get(layer, 0)
        for metric, layer in SELF_TIME.items():
            out[metric] = self_by_layer.get(layer, 0.0)
        for metric, names in INCLUSIVE.items():
            out[metric] = sum(inclusive.get(name, 0.0) for name in names)
        retries = sum(
            client.stats.retries - before for client, before in list(self._clients.values())
        )
        gets, puts = counters["cache.gets"], counters["cache.puts"]
        blocks = counters["channel.blocks_compiled"] + counters["channel.blocks_fallback"]
        out.update({
            "adversary.packets": counters["adversary.packets"],
            "queues.scan_ops": scans,
            "queues.peak_backlog": counters["queues.peak_backlog"],
            "channel.rounds": counters["channel.rounds"],
            "channel.rounds_elided": counters["channel.rounds_elided"],
            "channel.rounds_lowered": counters["channel.rounds_lowered"],
            "channel.blocks_compiled": counters["channel.blocks_compiled"],
            "channel.blocks_fallback": counters["channel.blocks_fallback"],
            "channel.block_accept_ratio": (
                counters["channel.blocks_compiled"] / blocks if blocks else 0.0
            ),
            "runner.specs": counters["runner.specs"],
            "cache.gets": gets,
            "cache.hits": counters["cache.hits"],
            "cache.hit_ratio": counters["cache.hits"] / gets if gets else 0.0,
            "cache.puts": puts,
            "cache.bytes_per_result": counters["cache.bytes"] / puts if puts else 0.0,
            "rpc.requests": entries.get("rpc", 0),
            "rpc.retries": retries,
            "rpc.bytes": counters["rpc.bytes"],
            "lease.claims": counters["lease.claims"],
            "lease.wait_s": counters["lease.wait_s"],
            "trace.unattributed_s": unattributed,
        })
        return out
