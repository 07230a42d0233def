"""The benchmark's model of the keyspace and its correctness checks.

The model is what the benchmark itself wrote: for each key id its
current version and value size, and whether the key is present. Value
bytes are a pure function of ``(key id, version, size)``, so the model
holds no value copies. Every check compares the program's output with
this model, or with an identity the method must hold; none compares
with a stored copy of earlier output.
"""

from __future__ import annotations

import random
import struct

from resp import Error

#: failure classes an error reply or a transport fault falls into
FAILURE_KINDS = ("oom", "readonly", "protocol", "timeout", "desync", "other")

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32


def key_name(key_id: int) -> bytes:
    return b"k:%07d" % key_id


class Values:
    """Deterministic, compressible value bytes.

    A value is a 16-byte ``<key id>.<version>|`` header followed by a
    slice of a fixed blob made of repeated 8-byte words: about 0.3 of
    its size after zlib at 1 KiB, about 0.8 at 64 B, so the small end
    sometimes fails the tier's ``min_ratio`` test, like real data.
    """

    HEADER = 16

    def __init__(self) -> None:
        # one blob for every seed: the seed moves the operations, not
        # how well the data compresses
        rng = random.Random(7919)
        words = [rng.randbytes(8) for __ in range(16)]
        parts: list[bytes] = []
        length = 0
        while length < 1 << 16:
            part = rng.choice(words) * rng.randint(1, 3)
            parts.append(part)
            length += len(part)
        self._blob = b"".join(parts)
        self._span = len(self._blob) - 4096

    def value(self, key_id: int, version: int, size: int) -> bytes:
        offset = (key_id * 7919 + version * 104729) % self._span
        body = self._blob[offset:offset + size - self.HEADER]
        return b"%07d.%07d|" % (key_id, version) + body


class Model:
    """What the keyspace must hold, per key id."""

    def __init__(self, values: Values, sizes: list[int]) -> None:
        self.values = values
        self.version = [0] * len(sizes)
        self.size = list(sizes)
        self.present = [False] * len(sizes)
        #: SETs that created an absent key (prefill and refills)
        self.inserted = 0

    def __len__(self) -> int:
        return len(self.size)

    def value(self, key_id: int) -> bytes:
        return self.values.value(
            key_id, self.version[key_id], self.size[key_id]
        )

    def expected(self, key_id: int) -> bytes | None:
        """What a GET of ``key_id`` must return now."""
        return self.value(key_id) if self.present[key_id] else None

    def write(self, key_id: int, version: int, size: int) -> bytes:
        """Record a SET (acknowledged with OK); return its value."""
        if not self.present[key_id]:
            self.present[key_id] = True
            self.inserted += 1
        self.version[key_id] = version
        self.size[key_id] = size
        return self.values.value(key_id, version, size)

    def live_user_bytes(self) -> int:
        """Key plus value bytes of every present key."""
        key_len = len(key_name(0))
        return sum(
            key_len + size
            for size, here in zip(self.size, self.present)
            if here
        )


def classify(reply: object) -> str | None:
    """Failure class of one reply, or None if it is not an error."""
    if type(reply) is not Error:
        return None
    if reply.startswith("OOM"):
        return "oom"
    if reply.startswith("READONLY"):
        return "readonly"
    if reply.startswith("ERR protocol"):
        return "protocol"
    return "other"


def check_get(model: Model, key_id: int, reply: object) -> str | None:
    """A GET reply against the model; a problem string or None."""
    expected = model.expected(key_id)
    if reply == expected:
        return None
    name = key_name(key_id).decode()
    if expected is None:
        if type(reply) is bytes and reply == model.value(key_id):
            return f"resurrected key {name}: dropped, then read back"
        return f"wrong value for absent key {name}"
    if reply is None:
        return f"unexpected miss on {name}"
    return f"wrong value for {name}"


def compare_contents(contents: dict[bytes, object], model: Model) -> list[str]:
    """A whole keyspace (key -> value) against the model."""
    problems: list[str] = []
    for key_id in range(len(model)):
        name = key_name(key_id)
        got = contents.get(name)
        expected = model.expected(key_id)
        if got == expected:
            continue
        if expected is None:
            problems.append(f"resurrected or stray key {name.decode()}")
        elif got is None:
            problems.append(f"missing key {name.decode()}")
        else:
            problems.append(f"wrong value for {name.decode()}")
        if len(problems) >= 10:
            problems.append("... (further differences not listed)")
            break
    if len(contents) > sum(model.present) and len(problems) < 10:
        problems.append(
            f"{len(contents)} keys held, model has {sum(model.present)}"
        )
    return problems


def count_frames(buf: bytes | bytearray, start: int = 0) -> tuple[int, int]:
    """Whole stream frames in ``buf[start:]``: (count, end offset)."""
    count = 0
    pos = start
    total = len(buf)
    unpack = _FRAME_HEADER.unpack_from
    while total - pos >= _FRAME_HEADER.size:
        length, __ = unpack(buf, pos)
        end = pos + _FRAME_HEADER.size + length
        if end > total:
            break
        count += 1
        pos = end
    return count, pos


def replay_stream(stream: bytes, store) -> list[str]:
    """Apply a captured replication stream to ``store``.

    Returns problems: a torn or corrupt tail is one, since every byte
    the master sent was drained after the batch that produced it.
    """
    from repro.kvstore.persist.codec import decode_record, scan_frames
    from repro.kvstore.repl.link import apply_record
    from repro.kvstore.repl.state import ReplicationState

    payloads, valid = scan_frames(stream)
    problems = []
    if valid != len(stream):
        problems.append(
            f"replication stream has {len(stream) - valid} bytes "
            "past its last whole frame"
        )
    state = ReplicationState()
    state.become_replica("master", 0)
    now_ms = 0
    for payload in payloads:
        apply_record(store, state, decode_record(payload), now_ms)
    return problems


def store_contents(store) -> dict[bytes, object]:
    """Every key of an in-process ``DataStore`` with its value."""
    return {key: store.get(key) for key in list(store.keyspace.keys())}


def check_identities(
    inserted: int, info: dict[str, str], ledger: dict | None
) -> list[str]:
    """The reclamation, tier and SMD ledger identities."""
    problems: list[str] = []
    dbsize = int(info["keys"])
    reclaimed = int(info["reclaimed_keys"])
    if inserted - dbsize != reclaimed:
        problems.append(
            f"keys inserted {inserted} - DBSIZE {dbsize} != "
            f"reclaimed_keys {reclaimed}"
        )
    demotions = int(info["tier.demotions"])
    accounted = (
        int(info["tier.promotions"])
        + int(info["tier.second_chance_drops"])
        + int(info["tier.displacements"])
        + int(info["compressed_entries"])
    )
    if demotions != accounted:
        problems.append(
            f"tier demotions {demotions} != promotions + drops + "
            f"displacements + compressed ({accounted})"
        )
    if ledger is not None:
        balance = (
            ledger["granted"] - ledger["released"]
            - ledger["reclaimed"] - ledger["forfeited"]
        )
        if ledger["assigned"] != balance:
            problems.append(
                f"SMD assigned {ledger['assigned']} != granted - released"
                f" - reclaimed - forfeited ({balance})"
            )
    return problems


def parse_info(text: bytes | str) -> dict[str, str]:
    """``INFO`` text as a flat dict (section headers dropped)."""
    if isinstance(text, bytes):
        text = text.decode()
    info: dict[str, str] = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and ":" in line:
            name, __, value = line.partition(":")
            info[name] = value
    return info
