"""The benchmark's SMD process: an ``RpcDaemonServer`` on a unix socket.

Usage: ``python smd_proc.py SOCKET_PATH CAPACITY_PAGES``

Prints ``READY`` once listening. Each ``ledger`` line on stdin is
answered with one JSON line of the daemon's counters. Exits on
SIGTERM or when stdin closes, removing its socket.
"""

from __future__ import annotations

import json
import signal
import sys

from repro.rpc import RpcDaemonServer


def ledger(server: RpcDaemonServer) -> dict:
    smd = server.smd
    return {
        "capacity": smd.capacity_pages,
        "assigned": smd.assigned_pages,
        "granted": smd.pages_granted,
        "released": smd.pages_released,
        "reclaimed": smd.pages_reclaimed,
        "forfeited": smd.pages_forfeited,
        "over_reclaimed": smd.over_reclaimed_pages,
        "requests": smd.requests,
        "denials": smd.denials,
        "episodes": smd.reclamation_episodes,
        "demands": smd.demands_issued,
    }


def main(argv: list[str]) -> int:
    socket_path, capacity = argv[0], int(argv[1])
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(0))
    server = RpcDaemonServer(socket_path, soft_capacity_pages=capacity)
    server.start()
    try:
        print("READY", flush=True)
        for line in sys.stdin:
            if line.strip() == "ledger":
                with server._lock:  # one consistent ledger snapshot
                    snapshot = ledger(server)
                print(json.dumps(snapshot), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
