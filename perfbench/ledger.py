"""The per-layer ledger: ``--trace 1``.

Three passes over one workload's identical inputs:

1. the end-to-end run on real processes, for the figures that must be
   taken untraced (client CPU, RPC round trips, replica catch-up, and
   the server CPU the TCP residual is derived from);
2. an in-process replay through ``KvServer.feed_batch`` with a timer
   on ``KvServer.pump`` only — the untraced baseline;
3. the same replay with timers wrapped around each layer's public
   entry points, installed from this file onto the object graph that
   ``kv_server`` builds (no program file is changed).

A layer's self time is its span's time minus the time of the spans it
called. Self times of everything under ``KvServer.pump`` must add up
to the pump's own total within ``RECONCILE_TOLERANCE``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import model as m
import workloads as wl
from procs import Processes

#: largest |sum of self times under pump - pump time| / pump time
RECONCILE_TOLERANCE = 0.01


class Spans:
    """Aggregated spans: total, self time and calls per name, by root."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: self time summed per root span name (the reconciliation)
        self.root_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.on = True
        self._names: list[str] = []
        self._child: list[float] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result)`` may count."""
        names, child = self._names, self._child
        total, self_s, calls = self.total, self.self_s, self.calls
        root_self = self.root_self
        clock = self.clock

        def span(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                own = elapsed - child.pop()
                total[name] += elapsed
                self_s[name] += own
                calls[name] += 1
                root_self[names[0]] += own
                names.pop()
                if child:
                    child[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return span

    @contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def per_call(self, name: str, scale: float = 1e6) -> float:
        calls = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / calls * scale if calls else 0.0


class LocalRunner(wl.Runner):
    """The in-process object graph ``kv_server`` builds, fed directly."""

    def __init__(self, inputs: wl.Inputs, procs: Processes) -> None:
        super().__init__(inputs)
        self.procs = procs
        self.spans = Spans()
        self.daemon = None
        self.persistence = None
        self.stream_apply_s = 0.0
        self.stream_records = 0

    def setup(self) -> None:
        from repro.core.locking import LockedSoftMemoryAllocator
        from repro.daemon.smd import SoftMemoryDaemon
        from repro.kvstore.persist.engine import (
            Persistence,
            PersistenceConfig,
        )
        from repro.kvstore.repl.state import ReplicationState
        from repro.kvstore.server import KvServer
        from repro.kvstore.store import DataStore, StoreConfig
        from repro.kvstore.tier import TierConfig

        w = self.w
        sma = LockedSoftMemoryAllocator(name="kv-server")
        if w.waves:
            capacity = wl.capacity_pages(self.inputs)
            self.wave_pages = int(capacity * w.wave_frac)
            self.daemon = SoftMemoryDaemon(soft_capacity_pages=capacity)
            self.daemon.register(sma)
        self.sma = sma
        self.store = DataStore(sma, StoreConfig(tier=TierConfig(enabled=True)))
        repl = None
        if w.durable:
            self.persistence = Persistence(PersistenceConfig(
                dir=os.path.join(self.procs.scratch_dir(), "data"),
                appendfsync="everysec",
            ))
            self.store.attach_persistence(self.persistence)
            # what serving the first PSYNC does to a master
            repl = ReplicationState()
            repl.stream_started = True
            self.store.repl = repl
            self.replica_store = DataStore(
                LockedSoftMemoryAllocator(name="replica-model")
            )
        self.kv = KvServer(self.store)
        self.conn = wl.LocalConn(self.kv, self.persistence, repl)
        if repl is not None:
            self.replica = wl.LocalReplica(self.conn)
        self.prefill(self.prefill_batches())
        if self.replica is not None:
            self.apply_stream(self.replica.take())
        if w.waves:
            antagonist = LockedSoftMemoryAllocator(name="antagonist")
            self.daemon.register(antagonist)
            self.antagonist = (
                antagonist, antagonist.create_context("antagonist")
            )
        self.warm_up()

    def apply_stream(self, data: bytes) -> None:
        t0 = time.perf_counter()
        super().apply_stream(data)
        self.stream_apply_s += time.perf_counter() - t0
        self.stream_records += m.count_frames(data)[0]

    def sweep_presence(self) -> None:
        with self.spans.paused():
            super().sweep_presence()

    def time_pump_only(self) -> None:
        """CPU time of ``KvServer.pump`` alone, comparable with the
        server process's /proc CPU time."""
        self.spans = Spans(clock=time.thread_time)
        self.kv.pump = self.spans.wrap("server.pump", self.kv.pump)

    @contextmanager
    def traced(self):
        """Timers on every layer's entry points, removed afterwards."""
        import repro.kvstore.dict as dict_module
        import repro.kvstore.server as server_module

        spans = self.spans
        wrap = spans.wrap
        store, kv, sma = self.store, self.kv, self.sma
        keyspace = store.keyspace
        context = keyspace._context
        placer = context.heap._placer
        saved_modules = [
            (server_module, "dispatch"),
            (server_module, "encode_reply_into"),
            (dict_module, "deflate_value"),
            (dict_module, "inflate_value"),
        ]
        originals = [(mod, name, getattr(mod, name))
                     for mod, name in saved_modules]
        server_module.dispatch = wrap("commands.dispatch",
                                      server_module.dispatch)
        server_module.encode_reply_into = wrap(
            "resp.encode", server_module.encode_reply_into
        )
        dict_module.deflate_value = wrap("tier.deflate",
                                         dict_module.deflate_value)
        dict_module.inflate_value = wrap("tier.inflate",
                                         dict_module.inflate_value)
        kv.pump = wrap("server.pump", kv.pump)
        parser = kv.parser
        parser.parse_pipeline = wrap("resp.parse", parser.parse_pipeline)
        store.get = wrap("store.get", store.get)
        store.set = wrap("store.set", store.set)
        keyspace.get = wrap("dict.get", keyspace.get)

        upsert = keyspace.upsert
        stats = sma.stats

        def counted_upsert(*args, **kwargs):
            before = stats.allocations
            result = upsert(*args, **kwargs)
            if stats.allocations == before:
                spans.counts["dict.inplace_upserts"] += 1
            return result

        keyspace.upsert = wrap("dict.upsert", counted_upsert)
        sma.soft_malloc = wrap("sma.malloc", sma.soft_malloc)
        sma.soft_free = wrap("sma.free", sma.soft_free)

        def demote_result(ptr) -> None:
            if ptr is None:
                spans.counts["tier.demote_failures"] += 1

        sma.soft_demote = wrap("sma.demote", sma.soft_demote, demote_result)

        def reclaim_result(stats) -> None:
            spans.counts["sma.pages_surrendered"] += stats.pages_reclaimed

        sma.reclaim = wrap("sma.reclaim", sma.reclaim, reclaim_result)
        callback = context.callback
        context.callback = wrap("sma.callback", callback)
        placer.place = wrap("mem.place", placer.place)
        if self.daemon is not None:
            self.daemon.handle_request = wrap(
                "smd.request", self.daemon.handle_request
            )
        if self.persistence is not None:
            self.persistence.log_write = wrap(
                "persist.log_write", self.persistence.log_write
            )
            self.persistence.flush = wrap(
                "persist.flush", self.persistence.flush
            )
        if store.repl is not None:
            store.repl.log_write = wrap("repl.log_write",
                                        store.repl.log_write)
        try:
            yield spans
        finally:
            for mod, name, original in originals:
                setattr(mod, name, original)
            context.callback = callback


def untraced_replay(inputs: wl.Inputs, procs: Processes) -> LocalRunner:
    runner = LocalRunner(inputs, procs)
    runner.setup()
    runner.time_pump_only()
    runner.run_traffic()
    runner.final_checks(runner.info(), None)
    return runner


def traced_replay(inputs: wl.Inputs, procs: Processes):
    runner = LocalRunner(inputs, procs)
    runner.setup()
    store = runner.store
    tier = store.keyspace.tier_stats
    tier0 = (tier.demotions, tier.promotions, tier.second_chance_drops)
    persist = runner.persistence
    if persist is not None:
        aof0 = persist.aof_size + persist.aof_pending_bytes
        records0 = persist.stats.aof_records
        fsyncs0 = persist._writer.fsyncs
        offset0 = store.repl.master_repl_offset
    with runner.traced() as spans:
        runner.run_traffic()
    tier1 = (tier.demotions, tier.promotions, tier.second_chance_drops)
    found = {
        "tier": [b - a for a, b in zip(tier0, tier1)],
        "fragmentation": store.keyspace._context.heap._placer.fragmentation(),
        "pages_mapped": runner.sma.stats.pages_mapped,
    }
    if persist is not None:
        persist.flush()
        records = persist.stats.aof_records - records0
        found["aof_bytes_per_record"] = (
            persist.aof_size + persist.aof_pending_bytes - aof0
        ) / max(1, records)
        found["fsyncs"] = persist._writer.fsyncs - fsyncs0
        found["stream_bytes_per_record"] = (
            store.repl.master_repl_offset - offset0
        ) / max(1, spans.calls.get("repl.log_write", 0))
    if runner.daemon is not None:
        daemon = runner.daemon
        found["demands_per_episode"] = (
            daemon.demands_issued / daemon.reclamation_episodes
            if daemon.reclamation_episodes else 0.0
        )
        found["over_reclaimed_pages"] = daemon.over_reclaimed_pages
    runner.final_checks(runner.info(), None)
    return runner, found


def recover_us_per_record(data_dir: str, scratch: str) -> float:
    """``Persistence.attach`` on a copy of the killed master's dir."""
    from repro.core.locking import LockedSoftMemoryAllocator
    from repro.kvstore.persist.engine import Persistence, PersistenceConfig
    from repro.kvstore.store import DataStore

    copy = os.path.join(scratch, "recover")
    shutil.copytree(data_dir, copy)
    persistence = Persistence(PersistenceConfig(dir=copy))
    store = DataStore(LockedSoftMemoryAllocator(name="recover"))
    t0 = time.perf_counter()
    persistence.attach(store)
    elapsed = time.perf_counter() - t0
    persistence.close()
    return elapsed / max(1, persistence.stats.recovered_records) * 1e6


def per_layer(inputs: wl.Inputs, root: str) -> tuple[wl.Tally, dict]:
    """All three passes; the real run's tally and the ledger."""
    recovered: list[float] = []

    def inspect(runner: wl.ProcessRunner) -> None:
        if runner.data_dir is not None:
            recovered.append(recover_us_per_record(
                runner.data_dir, runner.procs.scratch_dir()
            ))

    tally, extra = wl.run_process(inputs, root, inspect)
    if not extra:
        return tally, {}
    with Processes(root) as procs:
        base = untraced_replay(inputs, procs)
    with Processes(root) as procs:
        traced, found = traced_replay(inputs, procs)
    for runner, label in ((base, "untraced replay"), (traced, "traced replay")):
        for problem in runner.tally.problems:
            tally.problem(f"{label}: {problem}")
        tally.attempted += runner.tally.attempted
        for kind, count in runner.tally.failures.items():
            tally.failures[kind] += count

    spans = traced.spans
    ops = traced.tally.ops
    sets = traced.tally.sets
    pump = spans.total["server.pump"]
    reconcile = abs(spans.root_self["server.pump"] - pump) / pump
    if reconcile > RECONCILE_TOLERANCE:
        tally.problem(f"layer self times miss pump time by {reconcile:.2%}")
    untraced_pump_us = base.spans.total["server.pump"] / base.tally.ops * 1e6
    server_cpu_us = tally.server_cpu_s / tally.ops * 1e6
    upserts = spans.calls.get("dict.upsert", 0)
    callbacks = spans.calls.get("sma.callback", 0)
    surrendered = spans.counts.get("sma.pages_surrendered", 0)
    catchup = tally.catchup_s
    rtts = tally.rpc_rtt_s
    t = found["tier"]

    def own(name: str) -> float:
        return spans.self_s.get(name, 0.0) / ops * 1e6

    def own_per_call(name: str) -> float:
        calls = spans.calls.get(name, 0)
        return spans.self_s.get(name, 0.0) / calls * 1e6 if calls else 0.0

    ledger = {
        "client.cpu_us_per_op": (tally.client_cpu_s / tally.ops * 1e6, "us"),
        "tcp.residual_us_per_op": (server_cpu_us - untraced_pump_us, "us"),
        "server.pump_us_per_op": (pump / ops * 1e6, "us"),
        "server.self_us_per_op": (own("server.pump"), "us"),
        "resp.parse_us_per_op": (spans.total["resp.parse"] / ops * 1e6, "us"),
        "resp.encode_us_per_op": (
            spans.total["resp.encode"] / ops * 1e6, "us"
        ),
        "commands.dispatch_self_us_per_op": (own("commands.dispatch"), "us"),
        "store.get_self_us_per_call": (own_per_call("store.get"), "us"),
        "store.set_self_us_per_call": (own_per_call("store.set"), "us"),
        "dict.get_us_per_call": (spans.per_call("dict.get"), "us"),
        "dict.upsert_us_per_call": (spans.per_call("dict.upsert"), "us"),
        "dict.inplace_upsert_ratio": (
            spans.counts.get("dict.inplace_upserts", 0) / upserts
            if upserts else 0.0, "ratio"
        ),
        "tier.deflate_us_per_call": (spans.per_call("tier.deflate"), "us"),
        "tier.inflate_us_per_call": (spans.per_call("tier.inflate"), "us"),
        "tier.demotions": (t[0], "count"),
        "tier.promotions": (t[1], "count"),
        "tier.second_chance_drops": (t[2], "count"),
        "tier.demote_failures": (
            spans.counts.get("tier.demote_failures", 0), "count"
        ),
        "sma.malloc_us_per_call": (spans.per_call("sma.malloc"), "us"),
        "sma.free_us_per_call": (spans.per_call("sma.free"), "us"),
        "sma.mallocs_per_write": (
            spans.calls.get("sma.malloc", 0) / sets if sets else 0.0, "ratio"
        ),
        "sma.reclaim_ms_per_demand": (
            spans.per_call("sma.reclaim", 1e3), "ms"
        ),
        "sma.callbacks_per_page": (
            callbacks / surrendered if surrendered else 0.0, "ratio"
        ),
        "sma.callback_us_per_key": (spans.per_call("sma.callback"), "us"),
        "mem.place_us_per_call": (spans.per_call("mem.place"), "us"),
        "mem.fragmentation": (found["fragmentation"], "ratio"),
        "mem.pages_mapped": (found["pages_mapped"], "count"),
        "smd.request_ms": (spans.per_call("smd.request", 1e3), "ms"),
        "smd.demands_per_episode": (
            found.get("demands_per_episode", 0.0), "ratio"
        ),
        "smd.over_reclaimed_pages": (
            found.get("over_reclaimed_pages", 0), "count"
        ),
        "rpc.request_rtt_ms": (
            statistics.mean(rtts) * 1e3 if rtts else 0.0, "ms"
        ),
        "rpc.round_trips": (extra.get("rpc.round_trips", 0), "count"),
        "persist.log_write_us_per_record": (
            spans.per_call("persist.log_write"), "us"
        ),
        "persist.flush_us_per_call": (spans.per_call("persist.flush"), "us"),
        "persist.aof_bytes_per_record": (
            found.get("aof_bytes_per_record", 0.0), "bytes"
        ),
        "persist.fsyncs": (found.get("fsyncs", 0), "count"),
        "persist.recover_us_per_record": (
            recovered[0] if recovered else 0.0, "us"
        ),
        "repl.log_write_us_per_record": (
            spans.per_call("repl.log_write"), "us"
        ),
        "repl.stream_bytes_per_record": (
            found.get("stream_bytes_per_record", 0.0), "bytes"
        ),
        "repl.apply_us_per_record": (
            traced.stream_apply_s / traced.stream_records * 1e6
            if traced.stream_records else 0.0, "us"
        ),
        "repl.catchup_ms": (
            statistics.median(catchup) * 1e3 if catchup else 0.0, "ms"
        ),
        "trace.overhead_ratio": (
            traced.tally.traffic_s / base.tally.traffic_s, "ratio"
        ),
        "trace.reconcile_error": (reconcile, "ratio"),
        **wl.plane_figures(tally, extra),
    }
    return tally, ledger
