"""Request latency and denial rates under injected RPC faults.

The hardened RPC plane claims a crashed or lossy daemon costs the
application *bounded latency and explicit best-effort denials* — never
an unhandled transport error or a 60-second hang. This bench measures
that claim: the same churn workload runs under several fault profiles
(frame drops + delays, duplicates, injected disconnects) and reports
per-allocation latency, denial rate, retries, reconnects, and time
spent in degraded mode.

Expected shape: the clean profile shows zero denials and no degraded
time; lossy profiles absorb their faults through retries/reconnects
(workload always completes, ledger resyncs) at a visible latency tail.

Run:  pytest benchmarks/bench_rpc_faults.py --benchmark-only -q -s
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core.errors import SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.rpc import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    RpcConfig,
    RpcDaemonServer,
    SmaAgent,
)
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.stats import nearest_percentile
from repro.util.units import PAGE_SIZE

ROUNDS = 300
CAPACITY = 600

CONFIG = RpcConfig(
    connect_timeout=2.0,
    request_timeout=0.25,
    request_retry=RetryPolicy(attempts=4, base_delay=0.02, max_delay=0.2),
    demand_timeout=0.5,
    demand_lock_timeout=0.5,
    heartbeat_interval=0.1,
    heartbeat_timeout=0.6,
    reconnect_backoff=RetryPolicy(attempts=0, base_delay=0.02, max_delay=0.2),
)

PROFILES: dict[str, FaultPlan | None] = {
    "clean": None,
    "lossy": FaultPlan(
        drop=0.04, delay=0.10, delay_s=0.002, after_frames=4, seed=3
    ),
    "duplicating": FaultPlan(
        duplicate=0.25, delay=0.05, delay_s=0.002, after_frames=4, seed=5
    ),
    "flaky-daemon": FaultPlan(disconnect=0.02, after_frames=6, seed=11),
}


def run_profile(name: str, plan: FaultPlan | None) -> dict:
    path = os.path.join(tempfile.mkdtemp(), "smd.sock")
    injector = FaultInjector(plan) if plan is not None else None
    wrapper = injector.wrap if injector is not None else None
    latencies: list[float] = []
    denied = 0
    with RpcDaemonServer(
        path, soft_capacity_pages=CAPACITY, rpc_config=CONFIG
    ) as srv:
        sma = LockedSoftMemoryAllocator(name=name, request_batch_pages=1)
        agent = SmaAgent.connect(
            path, sma, config=CONFIG, stream_wrapper=wrapper
        )
        lst = SoftLinkedList(sma, element_size=PAGE_SIZE)
        for i in range(ROUNDS):
            start = time.perf_counter()
            try:
                lst.append(i)
            except SoftMemoryDenied:
                denied += 1
                backoff = True
            else:
                backoff = False
            latencies.append(time.perf_counter() - start)
            if backoff:
                # a best-effort app backs off briefly on denial; this
                # also lets the run span an outage instead of burning
                # every round inside one degraded window
                time.sleep(0.002)
            if len(lst) > 40:
                lst.pop_front()
            if i % 13 == 12:
                sma.return_excess()
        # quiesce: a trailing fault window must heal on its own
        deadline = time.monotonic() + 10
        while agent.degraded and time.monotonic() < deadline:
            time.sleep(0.02)
        ledger_ok = False
        while time.monotonic() < deadline:
            record = srv.smd.registry.get(agent.pid)
            if record.granted_pages == sma.budget.granted:
                ledger_ok = True
                break
            time.sleep(0.02)
        stats = agent.stats
        row = {
            "profile": name,
            "denial_rate": denied / ROUNDS,
            "avg_ms": 1000 * sum(latencies) / len(latencies),
            "p95_ms": 1000 * nearest_percentile(latencies, 0.95),
            "max_ms": 1000 * max(latencies),
            "retries": stats.retries,
            "reconnects": stats.reconnects,
            "degraded_s": stats.degraded_seconds,
            "faults": (
                injector.stats.faults_injected if injector is not None else 0
            ),
            "ledger_ok": ledger_ok,
            "healed": not agent.degraded,
        }
        agent.close()
    return row


def test_latency_and_denials_under_faults(benchmark):
    def measure():
        return [run_profile(name, plan) for name, plan in PROFILES.items()]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\n")
    print("=" * 78)
    print(f"RPC plane under injected faults: {ROUNDS} x 1-page allocations")
    print("-" * 78)
    print(f"{'profile':>13} {'denial%':>8} {'avg ms':>8} {'p95 ms':>8} "
          f"{'max ms':>8} {'retry':>6} {'reconn':>6} {'degr s':>7} "
          f"{'faults':>6}")
    for row in rows:
        print(f"{row['profile']:>13} {100 * row['denial_rate']:>7.1f}% "
              f"{row['avg_ms']:>8.3f} {row['p95_ms']:>8.3f} "
              f"{row['max_ms']:>8.1f} {row['retries']:>6} "
              f"{row['reconnects']:>6} {row['degraded_s']:>7.2f} "
              f"{row['faults']:>6}")
    print("=" * 78)

    by_name = {row["profile"]: row for row in rows}
    # every profile finishes, heals, and resyncs the ledger
    for row in rows:
        assert row["healed"], f"{row['profile']} stuck degraded"
        assert row["ledger_ok"], f"{row['profile']} ledger desynced"
    # the clean run sees the protocol at its best: no denials, no
    # degraded time, no faults
    clean = by_name["clean"]
    assert clean["denial_rate"] == 0
    assert clean["degraded_s"] == 0
    # each chaos profile actually fired, and was absorbed
    for name in ("lossy", "duplicating", "flaky-daemon"):
        assert by_name[name]["faults"] > 0, f"{name} never injected"
    # lost frames surface as retried round-trips, not errors
    assert by_name["lossy"]["retries"] > 0
