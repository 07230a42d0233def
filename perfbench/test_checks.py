"""Each benchmark check flags its bad case and passes the good one.

Run: ``python -m pytest perfbench/test_checks.py -q`` from the
repository root.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import model as m  # noqa: E402
import workloads as wl  # noqa: E402
from resp import Error, ReplyReader, command  # noqa: E402


def fresh_model(n: int = 4, size: int = 200) -> m.Model:
    model = m.Model(m.Values(), [size] * n)
    for k in range(n):
        model.write(k, 0, size)
    return model


def store():
    from repro.core.locking import LockedSoftMemoryAllocator
    from repro.kvstore.store import DataStore

    return DataStore(LockedSoftMemoryAllocator(name="test"))


def test_get_check_passes_the_model_value():
    model = fresh_model()
    assert m.check_get(model, 1, model.value(1)) is None


def test_get_check_flags_a_wrong_value():
    model = fresh_model()
    stale = model.values.value(1, 0, 200)
    model.write(1, 1, 200)
    assert "wrong value" in m.check_get(model, 1, stale)


def test_get_check_flags_an_unexpected_miss():
    assert "unexpected miss" in m.check_get(fresh_model(), 2, None)


def test_get_check_flags_a_resurrected_key():
    model = fresh_model()
    model.present[2] = False  # the benchmark saw the key dropped
    assert m.check_get(model, 2, None) is None
    assert "resurrected" in m.check_get(model, 2, model.value(2))


def test_presence_sweep_flags_a_resurrected_key():
    from repro.kvstore.server import KvServer

    kv_store = store()
    runner = wl.Runner.__new__(wl.Runner)
    runner.tally = wl.Tally()
    runner.model = fresh_model()
    runner.conn = wl.LocalConn(KvServer(kv_store))
    for k in range(len(runner.model)):
        kv_store.set(m.key_name(k), runner.model.value(k))
    runner.sweep_presence()
    assert runner.tally.problems == []
    runner.model.present[3] = False  # dropped, yet the server has it
    runner.sweep_presence()
    assert any("resurrected" in p for p in runner.tally.problems)


def master_stream(model: m.Model) -> bytes:
    """The replication stream a master emits for the model's writes."""
    from repro.kvstore.repl.state import ReplicationState

    master = store()
    state = ReplicationState()
    state.stream_started = True
    master.repl = state
    for k in range(len(model)):
        master.set(m.key_name(k), model.value(k))
    return state.drain()


def test_replayed_stream_equals_the_model():
    model = fresh_model()
    replica = store()
    assert m.replay_stream(master_stream(model), replica) == []
    assert m.compare_contents(m.store_contents(replica), model) == []


@pytest.mark.parametrize("cut", [1, 40])
def test_truncated_stream_is_flagged(cut):
    model = fresh_model()
    replica = store()
    stream = master_stream(model)[:-cut]
    problems = m.replay_stream(stream, replica)
    problems += m.compare_contents(m.store_contents(replica), model)
    assert any("past its last whole frame" in p for p in problems)
    assert any("missing key" in p for p in problems)


def test_missing_last_aof_record_is_flagged(tmp_path):
    from repro.kvstore.persist.engine import Persistence, PersistenceConfig

    model = fresh_model()
    master = store()
    persistence = Persistence(PersistenceConfig(dir=str(tmp_path)))
    master.attach_persistence(persistence)
    for k in range(len(model)):
        master.set(m.key_name(k), model.value(k))
    persistence.flush(force_fsync=True)
    path = persistence.aof_path
    size_before_last = os.path.getsize(path)
    model.write(0, 1, 200)
    master.set(m.key_name(0), model.value(0))
    persistence.flush(force_fsync=True)
    persistence.close()

    def recovered():
        restarted = store()
        restarted.attach_persistence(
            Persistence(PersistenceConfig(dir=str(tmp_path)))
        )
        return m.store_contents(restarted)

    assert m.compare_contents(recovered(), model) == []
    with open(path, "r+b") as handle:
        handle.truncate(size_before_last)
    assert "wrong value for k:0000000" in m.compare_contents(
        recovered(), model
    )


def good_info() -> dict[str, str]:
    return {
        "keys": "90", "reclaimed_keys": "10",
        "tier.demotions": "7", "tier.promotions": "2",
        "tier.second_chance_drops": "1", "tier.displacements": "1",
        "compressed_entries": "3",
    }


def good_ledger() -> dict:
    return {"assigned": 50, "granted": 100, "released": 30,
            "reclaimed": 15, "forfeited": 5}


def test_identities_hold_on_a_consistent_run():
    assert m.check_identities(100, good_info(), good_ledger()) == []


@pytest.mark.parametrize("field,value,words", [
    ("keys", "91", "DBSIZE"),
    ("tier.promotions", "3", "tier demotions"),
])
def test_identities_flag_a_broken_counter(field, value, words):
    info = good_info()
    info[field] = value
    problems = m.check_identities(100, info, good_ledger())
    assert len(problems) == 1 and words in problems[0]


def test_smd_ledger_identity_is_checked():
    ledger = good_ledger()
    ledger["assigned"] = 51
    assert "SMD assigned" in m.check_identities(100, good_info(), ledger)[0]


def test_error_replies_are_classified():
    assert m.classify(Error("OOM command not allowed")) == "oom"
    assert m.classify(Error("READONLY replica")) == "readonly"
    assert m.classify(Error("ERR protocol error: bad")) == "protocol"
    assert m.classify(Error("ERR something")) == "other"
    assert m.classify(b"value") is None


def test_reply_reader_parses_split_replies():
    wire = b"+OK\r\n$3\r\nabc\r\n$-1\r\n:7\r\n-ERR x\r\n*2\r\n:1\r\n$1\r\nz\r\n"
    reader = ReplyReader()
    for i in range(len(wire)):
        reader.feed(wire[i:i + 1])
        done = reader.parse(6)
    assert done
    assert reader.take() == ["OK", b"abc", None, 7, "ERR x", [1, b"z"]]
    assert reader.leftover == 0


def test_command_encoding_round_trips_through_the_server():
    from repro.kvstore.server import KvServer

    kv = KvServer(store())
    out = kv.feed(command(b"SET", b"k", b"v") + command(b"GET", b"k"))
    assert out == b"+OK\r\n$1\r\nv\r\n"
