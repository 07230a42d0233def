"""Process hygiene: spawned servers, the SMD process, scratch dirs.

Every process the benchmark starts, every scratch directory and every
unix socket is registered with one :class:`Processes` owner, and its
``close`` removes them all on every exit path (normal end, a failed
check, an exception, SIGTERM). Servers bind port 0 and are found
through the ``READY <host> <port>`` line they print once accepting.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

#: clock ticks per second for /proc/<pid>/stat CPU fields
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: a spawned process that prints no READY line within this long failed
READY_TIMEOUT_S = 60.0


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read()
    # the command name may hold spaces; fields resume after its ')'
    fields = raw[raw.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def self_cpu_s() -> float:
    """User plus system CPU of this process, all threads."""
    times = os.times()
    return times.user + times.system


class Spawned:
    """One child process with a line-oriented stdout."""

    def __init__(self, popen: subprocess.Popen, name: str) -> None:
        self.popen = popen
        self.name = name
        self._pending = b""

    @property
    def pid(self) -> int:
        return self.popen.pid

    def read_line(self, timeout: float = READY_TIMEOUT_S) -> str:
        """Next stdout line; raises if the child dies or stays silent."""
        deadline = time.monotonic() + timeout
        fd = self.popen.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{self.name} printed no line in {timeout}s"
                )
            readable, __, __ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                self.popen.wait(timeout=10)
                raise RuntimeError(
                    f"{self.name} exited with {self.popen.returncode} "
                    "before answering"
                )
            self._pending += chunk
        line, __, self._pending = self._pending.partition(b"\n")
        return line.decode().strip()

    def kill(self) -> None:
        """SIGKILL and reap (no graceful shutdown: a crash)."""
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait(timeout=30)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it lingers; always reaped."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.popen.kill()
        self.popen.wait(timeout=30)
        for stream in (self.popen.stdin, self.popen.stdout):
            if stream is not None:
                stream.close()


class Processes:
    """Owner of every child process and scratch path of one run."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.scratch_base = os.path.join(root, ".bench_tmp")
        self._children: list[Spawned] = []
        self._dirs: list[str] = []

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def scratch_dir(self) -> str:
        """A fresh directory inside the checkout, removed on close."""
        os.makedirs(self.scratch_base, exist_ok=True)
        path = tempfile.mkdtemp(dir=self.scratch_base)
        self._dirs.append(path)
        return path

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        # fixed string hashing: identical dict layouts run to run
        env["PYTHONHASHSEED"] = "0"
        return env

    def _spawn(self, argv: list[str], name: str, cwd: str) -> Spawned:
        popen = subprocess.Popen(
            argv,
            cwd=cwd,
            env=self._env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        child = Spawned(popen, name)
        self._children.append(child)
        return child

    def kv_server(self, *args: str, cwd: str | None = None):
        """Spawn ``kv_server --port 0 ...`` in ``cwd`` (default: the
        checkout); return (child, (host, port))."""
        child = self._spawn(
            [sys.executable, "-m", "repro.tools.kv_server",
             "--port", "0", *args],
            "kv_server",
            cwd or self.root,
        )
        line = child.read_line()
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            raise RuntimeError(f"kv_server answered {line!r}")
        return child, (parts[1], int(parts[2]))

    def smd(self, capacity_pages: int, cwd: str) -> "SmdProcess":
        """Spawn the SMD process; its socket lives in ``cwd``."""
        child = self._spawn(
            [sys.executable,
             os.path.join(os.path.dirname(__file__), "smd_proc.py"),
             "smd.sock", str(capacity_pages)],
            "smd",
            cwd,
        )
        line = child.read_line()
        if line != "READY":
            raise RuntimeError(f"smd answered {line!r}")
        # relative: a unix socket path may not exceed 107 bytes, and
        # the checkout may sit deep
        return SmdProcess(
            child, os.path.relpath(os.path.join(cwd, "smd.sock"))
        )

    def close(self) -> None:
        """Stop every child (servers before the SMD), remove dirs."""
        for child in reversed(self._children):
            try:
                child.stop()
            except (OSError, subprocess.SubprocessError):
                pass
        self._children.clear()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()
        try:
            os.rmdir(self.scratch_base)
        except OSError:
            pass  # another run's dirs are still there, or never made


class SmdProcess:
    """Handle on the SMD child: its socket and its ledger."""

    def __init__(self, child: Spawned, socket_path: str) -> None:
        self.child = child
        self.socket_path = socket_path

    def ledger(self) -> dict:
        """The daemon's counters, read over the child's stdin/stdout."""
        self.child.popen.stdin.write(b"ledger\n")
        self.child.popen.stdin.flush()
        return json.loads(self.child.read_line())


def wait_first_reply(address: tuple[str, int], timeout: float = 60.0) -> None:
    """Connect and PING until the server answers (restart timing)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection(address, timeout=timeout) as sock:
                sock.sendall(b"*1\r\n$4\r\nPING\r\n")
                if sock.recv(64).startswith(b"+PONG"):
                    return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)
