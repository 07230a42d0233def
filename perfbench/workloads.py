"""The three workloads: inputs, set-up, measured traffic, checks.

A run does a fixed amount of work, generated from ``(workload, seed,
seconds)`` before any timing starts: ``seconds`` only scales how many
rounds of identical shape are executed (see ``Workload.rate``), so two
runs with the same arguments send exactly the same commands. Load is a
closed loop from one thread at a fixed pipeline depth over at most two
connections.

The same driving code runs over two transports: real ``kv_server``
processes on loopback TCP (``run``, the end-to-end numbers), and the
in-process object graph ``kv_server`` builds, fed through
``KvServer.feed_batch`` (``ledger.py``'s per-layer replay).
"""

from __future__ import annotations

import gc
import os
import random
import socket
import statistics
import time
from array import array
from dataclasses import dataclass, field

import model as m
from model import Model, Values, key_name
from procs import Processes, proc_cpu_s, self_cpu_s, wait_first_reply
from resp import OK, ProtocolDesync, ReplyReader, bulk, command

PAGE_SIZE = 4096
#: commands per pipelined batch, every workload
DEPTH = 64
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: restarts timed per update-durable run; ``persist.restart_s`` is their median
RESTART_REPEATS = 3
#: warm-up GET batches at the end of each set-up
WARMUP_BATCHES = 20
#: a reply later than this is a timeout failure
REPLY_TIMEOUT_S = 20.0
#: ``Speedometer`` reading of the reference host: timings are reported
#: as they would read on a host running that loop at this speed
REFERENCE_NS = 55.0
#: batches between two speed samples inside a round
SAMPLE_EVERY = 8


class Speedometer:
    """Samples the host's speed all through a timed phase.

    On a shared virtual host the CPU speed can swing by a factor of two
    within a minute (on a 2-vCPU Xeon VM a fixed loop read 36-94 ns per
    iteration). Samples of a fixed loop
    taken every few batches, outside the timed batches, give the
    phase's mean slowness, and timings are scaled by it to the
    reference speed: a swing of the host then no longer passes for a
    change in the program. The loop uses nothing of the program, so
    a faster program never moves it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: wall seconds spent sampling, to leave out of the phase
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(2_000):
            total += i & 7
        t1 = time.perf_counter_ns()
        self.samples.append((t1 - t0) / 2_000)
        self.spent += (t1 - t0) / 1e9

    def slowness(self) -> float:
        """Mean speed over the phase relative to the reference
        (2.0: the host ran twice as slow)."""
        return statistics.mean(self.samples) / REFERENCE_NS


@dataclass(frozen=True)
class Workload:
    name: str
    n_keys: int
    size_lo: int
    size_hi: int
    #: share of GETs among generated operations (the rest are SETs)
    get_share: float
    #: nominal ops per second: ``--seconds`` times this, rounded to
    #: whole rounds, is the run's operation count
    rate: int
    #: batches per round; a round is the unit of timing and of medians
    round_batches: int
    durable: bool = False
    waves: bool = False
    #: pressure-waves: SMD capacity over the prefilled keyspace pages
    capacity_frac: float = 0.0
    #: pressure-waves: share of the SMD capacity the antagonist takes
    #: per wave, so every wave forces demands on the cache
    wave_frac: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read-mostly",
            n_keys=30_000, size_lo=100, size_hi=100, get_share=0.95,
            rate=60_000, round_batches=400,
        ),
        Workload(
            "update-durable",
            n_keys=8_000, size_lo=1024, size_hi=1024, get_share=0.5,
            rate=10_000, round_batches=100, durable=True,
        ),
        Workload(
            "pressure-waves",
            n_keys=16_000, size_lo=64, size_hi=1024, get_share=0.9,
            rate=20_000, round_batches=300, waves=True,
            capacity_frac=1.15, wave_frac=0.8,
        ),
    )
}


class Ops:
    """A pre-generated operation stream (parallel compact arrays)."""

    def __init__(self) -> None:
        self.kind = bytearray()  # 0 GET, 1 SET
        self.key = array("i")
        self.version = array("i")
        self.size = array("i")


@dataclass
class Inputs:
    """Everything a run sends, fixed before timing starts."""

    workload: Workload
    sizes: list[int]
    ops: Ops
    warmup: list[int]
    rounds: int
    values: Values


def generate(workload: Workload, seed: int, seconds: float) -> Inputs:
    from repro.loadgen.keys import ScrambledZipfianChooser

    rng = random.Random(f"{workload.name}:{seed}")
    n = workload.n_keys
    lo, hi = workload.size_lo, workload.size_hi
    # initial sizes spread evenly over [lo, hi] by key id, the same for
    # every seed: otherwise the few hottest keys' sizes, drawn anew per
    # seed, would set a seed's cost per operation
    sizes = [lo + int((k * 0.6180339887) % 1.0 * (hi - lo + 1))
             for k in range(n)]
    chooser = ScrambledZipfianChooser(n, theta=0.99)
    round_ops = workload.round_batches * DEPTH
    rounds = max(2, round(seconds * workload.rate / round_ops))
    ops = Ops()
    versions = [0] * n
    for __ in range(rounds * round_ops):
        key = chooser.choose(rng)
        if rng.random() < workload.get_share:
            ops.kind.append(0)
            ops.version.append(0)
            ops.size.append(0)
        else:
            versions[key] += 1
            ops.kind.append(1)
            ops.version.append(versions[key])
            # fixed-size workloads overwrite in place; the rest resize
            ops.size.append(rng.randint(lo, hi) if hi > lo else lo)
        ops.key.append(key)
    warmup = [chooser.choose(rng) for __ in range(WARMUP_BATCHES * DEPTH)]
    return Inputs(workload, sizes, ops, warmup, rounds, Values())


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """What a run measured, counted and found."""

    attempted: int = 0
    failures: dict = field(
        default_factory=lambda: dict.fromkeys(m.FAILURE_KINDS, 0)
    )
    problems: list = field(default_factory=list)
    round_ops_s: list = field(default_factory=list)
    #: each round's batch round trips, seconds
    round_batch_s: list = field(default_factory=list)
    server_cpu_scaled_s: float = 0.0
    #: host slowness per round (see ``Speedometer``)
    round_slow: list = field(default_factory=list)
    traffic_s: float = 0.0
    ops: int = 0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    gets: int = 0
    hits: int = 0
    sets: int = 0
    set_user_bytes: int = 0
    wave_mib_s: list = field(default_factory=list)
    wave_slow: list = field(default_factory=list)
    catchup_s: list = field(default_factory=list)
    rpc_rtt_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    restart_s: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def end_round(
        self, ops: int, elapsed: float, batch_s: list, server_cpu: float,
        slow: float,
    ) -> None:
        """Fold one round's traffic into the run's series."""
        self.traffic_s += elapsed
        self.ops += ops
        self.server_cpu_s += server_cpu
        self.server_cpu_scaled_s += server_cpu / slow
        self.round_ops_s.append(ops / elapsed)
        self.round_slow.append(slow)
        self.round_batch_s.append(sorted(batch_s))

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------


class TransportFault(Exception):
    """The connection timed out or broke: the batch's ops failed."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


class TcpConn:
    """One client connection to a ``kv_server`` on loopback TCP."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = ReplyReader()

    def close(self) -> None:
        self.sock.close()

    def _recv(self) -> bytes:
        try:
            chunk = self.sock.recv(1 << 18)
        except socket.timeout:
            raise TransportFault("timeout") from None
        except OSError:
            raise TransportFault("desync") from None
        if not chunk:
            raise TransportFault("desync")
        return chunk

    def exchange(self, payload: bytes, n: int, expected: bytes | None = None):
        """Send one batch; None if the replies equal ``expected``
        byte for byte, else the ``n`` parsed replies."""
        self.sock.sendall(payload)
        reader = self.reader
        if expected is not None:
            want = len(expected)
            buf = self._recv()
            while len(buf) < want and expected.startswith(buf):
                buf += self._recv()
            if buf == expected:
                return None
            reader.feed(buf)
        try:
            while not reader.parse(n):
                reader.feed(self._recv())
        except ProtocolDesync:
            raise TransportFault("desync") from None
        replies = reader.take()
        if reader.leftover:
            raise TransportFault("desync")
        return replies

    def call(self, *args: bytes):
        replies = self.exchange(command(*args), 1)
        return replies[0]


class LocalConn:
    """The in-process transport: ``KvServer.feed_batch`` plus the
    event loop's per-round group commit and replication drain."""

    def __init__(self, kv, persistence=None, repl=None) -> None:
        self.kv = kv
        self.persistence = persistence
        self.repl = repl
        self.stream = bytearray()
        self.reader = ReplyReader()

    def exchange(self, payload: bytes, n: int, expected: bytes | None = None):
        out = bytearray()
        self.kv.feed_batch(payload, out)
        if self.persistence is not None:
            self.persistence.flush()
        if self.repl is not None and self.repl.pending:
            self.stream += self.repl.drain()
        if expected is not None and out == expected:
            return None
        reader = self.reader
        reader.feed(bytes(out))
        if not reader.parse(n) or reader.leftover:
            raise TransportFault("desync")
        return reader.take()

    def call(self, *args: bytes):
        return self.exchange(command(*args), 1)[0]


class TcpReplica:
    """The benchmark's own replica connection (``PSYNC ? -1``)."""

    def __init__(self, address: tuple[str, int]) -> None:
        from repro.kvstore.repl.link import SyncHandshake

        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.sendall(command(b"PSYNC", b"?", b"-1"))
        handshake = SyncHandshake()
        result = None
        while result is None:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("master closed during full sync")
            result = handshake.feed(chunk)
        # PSYNC comes before the prefill: the snapshot is of an empty
        # keyspace, and every key arrives through the stream
        leftover = result[-1]
        self.buf = bytearray(leftover)
        self.scanned = 0
        self.frames = 0

    def close(self) -> None:
        self.sock.close()

    def drain(self, records: int) -> None:
        """Receive until ``records`` more whole frames have arrived."""
        target = self.frames + records
        while True:
            count, self.scanned = m.count_frames(self.buf, self.scanned)
            self.frames += count
            if self.frames >= target:
                return
            try:
                chunk = self.sock.recv(1 << 18)
            except socket.timeout:
                raise TransportFault("timeout") from None
            if not chunk:
                raise TransportFault("desync")
            self.buf += chunk

    def take(self) -> bytes:
        """Captured stream bytes so far (whole frames), then forget them."""
        data = bytes(self.buf[:self.scanned])
        del self.buf[:self.scanned]
        self.scanned = 0
        return data


class LocalReplica:
    """In-process stand-in: the drained stream is already captured."""

    def __init__(self, conn: LocalConn) -> None:
        self.conn = conn

    def drain(self, records: int) -> None:
        pass

    def take(self) -> bytes:
        data = bytes(self.conn.stream)
        self.conn.stream.clear()
        return data


# ----------------------------------------------------------------------
# one workload on one transport
# ----------------------------------------------------------------------


class Runner:
    """Drives one workload's inputs through one connection.

    Subclasses (real processes, in-process replay) supply set-up,
    CPU readings and the wave; the traffic, the model and the checks
    are shared, so both transports send identical commands.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.w = inputs.workload
        self.tally = Tally()
        self.model: Model | None = None
        self.conn = None
        self.replica = None
        self.replica_store = None

    # -- hooks -----------------------------------------------------------

    def server_cpu(self) -> float:
        return 0.0

    def info(self) -> dict[str, str]:
        return m.parse_info(self.conn.call(b"INFO"))

    # -- set-up ----------------------------------------------------------

    def prefill_batches(self) -> list[tuple[bytes, int]]:
        inputs = self.inputs
        batches = []
        for lo in range(0, len(inputs.sizes), 256):
            hi = min(lo + 256, len(inputs.sizes))
            payload = b"".join(
                command(b"SET", key_name(k),
                        inputs.values.value(k, 0, inputs.sizes[k]))
                for k in range(lo, hi)
            )
            batches.append((payload, hi - lo))
        return batches

    def prefill(self, batches: list[tuple[bytes, int]]) -> None:
        self.model = Model(self.inputs.values, self.inputs.sizes)
        for payload, n in batches:
            replies = self.conn.exchange(payload, n, OK * n)
            if replies is not None:
                raise RuntimeError(f"prefill refused: {replies[:3]!r}")
        for k in range(len(self.model)):
            self.model.write(k, 0, self.inputs.sizes[k])

    def warm_up(self) -> None:
        keys = self.inputs.warmup
        for lo in range(0, len(keys), DEPTH):
            chunk = keys[lo:lo + DEPTH]
            payload = b"".join(command(b"GET", key_name(k)) for k in chunk)
            expected = b"".join(bulk(self.model.expected(k)) for k in chunk)
            if self.conn.exchange(payload, len(chunk), expected) is not None:
                raise RuntimeError("warm-up GET returned a wrong value")

    # -- traffic -----------------------------------------------------------

    def run_traffic(self) -> None:
        w = self.w
        round_ops = w.round_batches * DEPTH
        # the client's own collector stays out of the timed rounds;
        # its garbage is reference-counted, cycles wait for the end
        gc.disable()
        try:
            for r in range(self.inputs.rounds):
                lo = r * round_ops
                if w.waves:
                    self.cache_aside_round(lo, lo + round_ops)
                    if r < self.inputs.rounds - 1:
                        self.wave()
                else:
                    self.exact_round(lo, lo + round_ops)
        finally:
            gc.enable()

    def exact_round(self, lo: int, hi: int) -> None:
        """A round whose every reply the model predicts byte for byte."""
        ops, model, tally = self.inputs.ops, self.model, self.tally
        batches = []
        for start in range(lo, hi, DEPTH):
            cmds, exp, sets = [], [], 0
            for i in range(start, start + DEPTH):
                k = ops.key[i]
                name = key_name(k)
                if ops.kind[i]:
                    value = model.write(k, ops.version[i], ops.size[i])
                    cmds.append(command(b"SET", name, value))
                    exp.append(OK)
                    sets += 1
                    tally.set_user_bytes += len(name) + len(value)
                else:
                    value = model.value(k)
                    cmds.append(command(b"GET", name))
                    exp.append(bulk(value))
                    tally.gets += 1
                    # every reply is checked against ``exp`` byte for
                    # byte, so the model's hit is the server's hit
                    tally.hits += value is not None
            tally.sets += sets
            batches.append((b"".join(cmds), b"".join(exp), exp, sets))
        replica = self.replica
        conn = self.conn
        batch_s: list[float] = []
        catchup = tally.catchup_s
        clock = time.perf_counter
        meter = Speedometer()
        meter.sample()
        cpu0, ccpu0 = self.server_cpu(), self_cpu_s()
        t_round = clock()
        for b, (payload, expected, exp, sets) in enumerate(batches):
            if b % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                meter.sample()
            tally.attempted += DEPTH
            t0 = clock()
            try:
                replies = conn.exchange(payload, DEPTH, expected)
            except TransportFault as fault:
                tally.failures[fault.kind] += DEPTH
                raise
            t1 = clock()
            batch_s.append(t1 - t0)
            if replica is not None and sets:
                replica.drain(sets)
                catchup.append(clock() - t1)
            if replies is not None:
                self._diagnose(replies, exp)
        elapsed = clock() - t_round - meter.spent
        tally.client_cpu_s += self_cpu_s() - ccpu0
        cpu = self.server_cpu() - cpu0
        meter.sample()
        tally.end_round(hi - lo, elapsed, batch_s, cpu, meter.slowness())
        if replica is not None:
            self.apply_stream(replica.take())

    def apply_stream(self, data: bytes) -> None:
        """Apply captured stream bytes to the replica-side store."""
        for problem in m.replay_stream(data, self.replica_store):
            self.tally.problem(f"replica stream: {problem}")

    def _diagnose(self, replies: list, exp: list) -> None:
        """A batch's replies differed from the prediction: say how."""
        for reply, expected in zip(replies, exp):
            kind = m.classify(reply)
            if kind is not None:
                self.tally.failures[kind] += 1
            elif expected == OK:
                if reply != "OK":
                    self.tally.problem(f"SET replied {reply!r}")
            elif bulk(reply) != expected:
                self.tally.problem("GET reply differs from the model")

    def cache_aside_round(self, lo: int, hi: int) -> None:
        """Zipfian GETs; a miss is followed by a SET of the key's value
        (the client re-fetches from its database) in the next batch."""
        ops, model, tally = self.inputs.ops, self.model, self.tally
        encoded = []
        for i in range(lo, hi):
            k = ops.key[i]
            if ops.kind[i]:
                value = model.values.value(k, ops.version[i], ops.size[i])
                encoded.append(command(b"SET", key_name(k), value))
            else:
                encoded.append(command(b"GET", key_name(k)))
        conn = self.conn
        clock = time.perf_counter
        refills: list[int] = []
        batch_s: list[float] = []
        meter = Speedometer()
        meter.sample()
        cpu0, ccpu0 = self.server_cpu(), self_cpu_s()
        t_round = clock()
        n_ops = 0
        for start in range(lo, hi, DEPTH):
            if len(batch_s) % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                meter.sample()
            refill = refills
            refills = []
            payload = b"".join(
                [command(b"SET", key_name(k), model.value(k)) for k in refill]
                + encoded[start - lo:start - lo + DEPTH]
            )
            n = len(refill) + DEPTH
            tally.attempted += n
            t0 = clock()
            try:
                replies = conn.exchange(payload, n)
            except TransportFault as fault:
                tally.failures[fault.kind] += n
                raise
            batch_s.append(clock() - t0)
            n_ops += n
            self._check_cache_aside(replies, refill, start, refills)
        elapsed = clock() - t_round - meter.spent
        tally.client_cpu_s += self_cpu_s() - ccpu0
        cpu = self.server_cpu() - cpu0
        meter.sample()
        tally.end_round(n_ops, elapsed, batch_s, cpu, meter.slowness())

    def _check_cache_aside(
        self, replies: list, refill: list[int], start: int, refills: list
    ) -> None:
        ops, model, tally = self.inputs.ops, self.model, self.tally
        for k, reply in zip(refill, replies):
            if reply == "OK":
                value = model.write(k, model.version[k], model.size[k])
                tally.sets += 1
                tally.set_user_bytes += len(key_name(k)) + len(value)
            else:
                self._failed_set(reply)
        for j, reply in enumerate(replies[len(refill):]):
            i = start + j
            k = ops.key[i]
            if ops.kind[i]:
                if reply == "OK":
                    value = model.write(k, ops.version[i], ops.size[i])
                    tally.sets += 1
                    tally.set_user_bytes += len(key_name(k)) + len(value)
                else:
                    self._failed_set(reply)
                continue
            tally.gets += 1
            kind = m.classify(reply)
            if kind is not None:
                tally.failures[kind] += 1
                continue
            problem = m.check_get(model, k, reply)
            if problem is not None:
                tally.problem(problem)
            if reply is None:
                if k not in refills:
                    refills.append(k)
            else:
                tally.hits += 1

    def _failed_set(self, reply) -> None:
        kind = m.classify(reply)
        if kind is None:
            self.tally.problem(f"SET replied {reply!r}")
        else:
            self.tally.failures[kind] += 1

    # -- waves (pressure-waves) ----------------------------------------------

    def wave(self) -> None:
        from repro.core.errors import SoftMemoryError

        sma, context = self.antagonist
        tally = self.tally
        want = self.wave_pages
        taken: list = []
        meter = Speedometer()
        meter.sample()
        t0 = time.perf_counter()
        try:
            for page in range(want):
                if page % 64 == 63:
                    meter.sample()
                taken.append(sma.soft_malloc(PAGE_SIZE, context))
        except SoftMemoryError as exc:
            tally.problem(f"wave got {len(taken)} of {want} pages: {exc}")
        elapsed = time.perf_counter() - t0 - meter.spent
        meter.sample()
        tally.wave_slow.append(meter.slowness())
        tally.wave_mib_s.append(len(taken) * PAGE_SIZE / 2**20 / elapsed)
        for ptr in taken:
            sma.soft_free(ptr)
        sma.return_excess()
        self.sweep_presence()

    def sweep_presence(self) -> None:
        """EXISTS every key after a wave: the model learns exactly
        which keys the wave dropped, so the next round's replies are
        all predictable. A key the model holds absent must stay so."""
        model, tally = self.model, self.tally
        n = len(model)
        for lo in range(0, n, 512):
            hi = min(lo + 512, n)
            payload = b"".join(command(b"EXISTS", key_name(k))
                               for k in range(lo, hi))
            replies = self.conn.exchange(payload, hi - lo)
            for k, reply in zip(range(lo, hi), replies):
                if reply == 1:
                    if not model.present[k]:
                        tally.problem(
                            f"resurrected key {key_name(k).decode()}"
                        )
                elif reply == 0:
                    model.present[k] = False
                else:
                    tally.problem(f"EXISTS replied {reply!r}")

    # -- end-of-run checks -------------------------------------------------

    def final_checks(self, info: dict[str, str], ledger: dict | None) -> None:
        tally, model = self.tally, self.model
        if self.w.waves:
            for problem in m.check_identities(model.inserted, info, ledger):
                tally.problem(problem)
        elif int(info["keys"]) != sum(model.present):
            tally.problem(
                f"DBSIZE {info['keys']} != model {sum(model.present)}"
            )
        if self.replica_store is not None:
            for problem in m.compare_contents(
                m.store_contents(self.replica_store), model
            ):
                tally.problem(f"replica stream: {problem}")

    def held_ratio(self, info: dict[str, str]) -> float:
        held = int(info["sma.held_pages"]) * PAGE_SIZE
        return (held + int(info["traditional_bytes"])) / max(
            1, self.model.live_user_bytes()
        )

    def get_sweep(self, conn) -> dict[bytes, object]:
        """GET every model key over ``conn`` (after a restart)."""
        contents: dict[bytes, object] = {}
        n = len(self.model)
        for lo in range(0, n, 256):
            hi = min(lo + 256, n)
            names = [key_name(k) for k in range(lo, hi)]
            replies = conn.exchange(
                b"".join(command(b"GET", name) for name in names), hi - lo
            )
            for name, reply in zip(names, replies):
                if reply is not None:
                    contents[name] = reply
        return contents


# ----------------------------------------------------------------------
# real processes (the end-to-end run)
# ----------------------------------------------------------------------


class ProcessRunner(Runner):
    """``kv_server`` (and SMD) subprocesses on loopback TCP."""

    def __init__(self, inputs: Inputs, procs: Processes) -> None:
        super().__init__(inputs)
        self.procs = procs
        self.server = None
        self.smd = None
        self.agent = None
        self.antagonist = None
        self.data_dir = None

    def server_cpu(self) -> float:
        return proc_cpu_s(self.server.pid)

    def setup(self, prefill: list) -> float:
        """Spawn, prefill, full sync, warm up; returns its seconds."""
        from repro.core.locking import LockedSoftMemoryAllocator
        from repro.kvstore.store import DataStore

        w = self.w
        t0 = time.perf_counter()
        work = self.procs.scratch_dir()
        args: list[str] = []
        if w.durable:
            self.data_dir = os.path.join(work, "data")
            args += ["--dir", self.data_dir, "--appendfsync", "everysec"]
        if w.waves:
            capacity = capacity_pages(self.inputs)
            self.wave_pages = int(capacity * w.wave_frac)
            self.smd = self.procs.smd(capacity, work)
            # the server runs beside the socket and names it relatively
            args += ["--smd-socket", "smd.sock"]
        self.server, address = self.procs.kv_server(*args, cwd=work)
        self.address = address
        self.conn = TcpConn(address)
        if w.durable:
            self.replica = TcpReplica(address)
            self.replica_store = DataStore(
                LockedSoftMemoryAllocator(name="replica-model")
            )
        self.prefill(prefill)
        if self.replica is not None:
            self.replica.drain(len(self.model))
            self.apply_stream(self.replica.take())
        if w.waves:
            self.connect_antagonist()
        self.warm_up()
        return time.perf_counter() - t0

    def connect_antagonist(self) -> None:
        from repro.core.locking import LockedSoftMemoryAllocator
        from repro.rpc import SmaAgent

        sma = LockedSoftMemoryAllocator(name="antagonist")
        self.agent = SmaAgent.connect(self.smd.socket_path, sma)
        request = self.agent.request
        rtts = self.tally.rpc_rtt_s

        def timed_request(pages: int) -> int:
            t0 = time.perf_counter()
            try:
                return request(pages)
            finally:
                rtts.append(time.perf_counter() - t0)

        self.agent.request = timed_request
        self.antagonist = (sma, sma.create_context("antagonist"))

    def teardown(self) -> None:
        for closable in (self.conn, self.replica):
            if closable is not None:
                closable.close()
        if self.agent is not None:
            self.agent.close()
        self.conn = self.replica = self.agent = None
        self.procs.close()

    def restart(self) -> float:
        """SIGKILL the master; time a restart on its dir to first reply."""
        self.server.kill()
        t0 = time.perf_counter()
        self.server, address = self.procs.kv_server(
            "--dir", self.data_dir, "--appendfsync", "everysec"
        )
        wait_first_reply(address)
        elapsed = time.perf_counter() - t0
        self.address = address
        return elapsed


def capacity_pages(inputs: Inputs) -> int:
    """SMD capacity: the prefilled keyspace's soft pages times
    ``capacity_frac``, so the whole keyspace fits between waves."""
    entry = sum(56 + len(key_name(0)) + s for s in inputs.sizes)
    return int(entry / PAGE_SIZE * inputs.workload.capacity_frac) + 64


def run_process(inputs: Inputs, root: str, inspect=None) -> tuple[Tally, dict]:
    """The end-to-end run of one workload on real processes.

    ``inspect(runner)``, if given, runs after the checks and before
    the processes and directories are removed. The returned figures
    are empty unless the run went through to its end."""
    w = inputs.workload
    procs = Processes(root)
    runner = ProcessRunner(inputs, procs)
    tally = runner.tally
    metrics: dict = {}
    found: dict = {}
    try:
        prefill = runner.prefill_batches()
        for attempt in range(SETUP_REPEATS):
            tally.setup_s.append(runner.setup(prefill))
            if attempt < SETUP_REPEATS - 1:
                runner.teardown()
        before = runner.info()
        runner.run_traffic()
        info = runner.info()
        ledger = runner.smd.ledger() if runner.smd is not None else None
        runner.final_checks(info, ledger)
        found["held_bytes_per_user_byte"] = runner.held_ratio(info)
        if w.durable:
            aof = int(info["aof_size"]) + int(info["aof_pending_bytes"])
            aof -= int(before["aof_size"]) + int(before["aof_pending_bytes"])
            found["aof_bytes_per_user_byte"] = aof / tally.set_user_bytes
            restart_checks(runner)
        if w.waves:
            found["rpc.round_trips"] = int(info["rpc.round_trips"]) - int(
                before["rpc.round_trips"]
            )
        if inspect is not None:
            inspect(runner)
        metrics = found
    except (TransportFault, RuntimeError, OSError) as exc:
        # a failed set-up, a broken connection or a dead server: the
        # result reports it (correct: false) instead of a traceback
        tally.problem(f"run stopped: {exc!r}")
    finally:
        runner.teardown()
    return tally, metrics


def restart_checks(runner: ProcessRunner) -> None:
    """Kill -9 the master, restart on its dir: it must serve the model."""
    tally = runner.tally
    tally.restart_s.append(runner.restart())
    conn = TcpConn(runner.address)
    try:
        for problem in m.compare_contents(runner.get_sweep(conn), runner.model):
            tally.problem(f"after restart: {problem}")
    finally:
        conn.close()
    for __ in range(RESTART_REPEATS - 1):
        tally.restart_s.append(runner.restart())


def end_to_end(tally: Tally, extra: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics of a run, by name; every workload has all.

    ``scaled`` reports the traffic timings at the reference host speed
    (see ``Speedometer``); unscaled they are the raw readings. Set-up
    time is mostly other processes' start-up, which samples taken here
    cannot follow, so it stays raw.
    """
    median = statistics.median

    def slow(value: float) -> float:
        return value if scaled else 1.0

    def batch_ms(q: float) -> float:
        # median over rounds of each round's percentile: a stall of the
        # host moves a few rounds, not the run's figure
        return median(percentile(batch_s, q) * 1000 / slow(s) for batch_s, s
                      in zip(tally.round_batch_s, tally.round_slow))

    cpu = tally.server_cpu_scaled_s if scaled else tally.server_cpu_s
    return {
        "setup_s": (median(tally.setup_s), "s"),
        "ops_s": (median(o * slow(s) for o, s in
                         zip(tally.round_ops_s, tally.round_slow)), "1/s"),
        "batch_p50_ms": (batch_ms(0.50), "ms"),
        "batch_p99_ms": (batch_ms(0.99), "ms"),
        "server_cpu_us_per_op": (cpu / tally.ops * 1e6, "us"),
        "held_bytes_per_user_byte": (
            extra["held_bytes_per_user_byte"], "ratio"
        ),
        "hit_rate": (tally.hits / tally.gets, "ratio"),
    }


def plane_figures(tally: Tally, extra: dict) -> dict:
    """Figures of the real run that only one workload produces, for
    the per-layer ledger (0 where the workload has none): the waves'
    reclaim rate, scaled like the traffic timings, and the AOF's bytes
    and restart time, raw."""
    waves = [r * s for r, s in zip(tally.wave_mib_s, tally.wave_slow)]
    return {
        "wave.reclaim_mib_s": (
            statistics.median(waves) if waves else 0.0, "MiB/s"
        ),
        "persist.aof_bytes_per_user_byte": (
            extra.get("aof_bytes_per_user_byte", 0.0), "ratio"
        ),
        "persist.restart_s": (
            statistics.median(tally.restart_s) if tally.restart_s else 0.0,
            "s",
        ),
    }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return ordered[index]
