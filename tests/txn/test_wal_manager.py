"""WAL and transaction-manager tests."""

import dataclasses

import pytest

from repro.hardware import Disk, HDD_SPEC, Network, NetworkPort, SSD_SPEC
from repro.metrics import CostBreakdown
from repro.sim import Environment
from repro.txn import LogManager, LogShippingSink, TransactionManager
from repro.storage import checksum
from repro.txn.wal import LOG_BLOCK_BYTES


def make_log():
    env = Environment()
    disk = Disk(env, SSD_SPEC, name="logdisk")
    return env, disk, LogManager(env, disk)


def run(env, gen):
    return env.run(until=env.process(gen))


class TestLogRecordVerifyOnce:
    def test_replace_of_a_clean_record_starts_unverified(self):
        _env, _disk, log = make_log()
        log.append(1, "update", ("t", 1, ("a", 2)))
        record = log.records[0]
        record.verify(where="test")
        rotten = dataclasses.replace(record, payload=("rot",))
        assert not rotten.clean
        with pytest.raises(checksum.IntegrityError):
            rotten.verify(where="test")
        assert not rotten.clean

    def test_clean_is_outside_eq_hash_and_repr(self):
        _env, _disk, log = make_log()
        log.append(1, "commit")
        record = log.records[0]
        twin = dataclasses.replace(record)
        before = (hash(record), repr(record))
        record.verify(where="test")
        assert record.clean and not twin.clean
        assert record == twin
        assert (hash(record), repr(record)) == before == (hash(twin),
                                                          repr(twin))
        assert "clean" not in repr(record)

    def test_second_verify_does_not_hash(self, monkeypatch):
        _env, _disk, log = make_log()
        log.append(1, "update", ("t", 1, ("a", 2)))
        record = log.records[0]
        calls = []
        real = checksum.checksum_of
        monkeypatch.setattr(checksum, "checksum_of",
                            lambda obj: calls.append(obj) or real(obj))
        record.verify(where="test")
        assert len(calls) == 1
        record.verify(where="test")
        assert len(calls) == 1


class TestLogManager:
    def test_append_assigns_increasing_lsns(self):
        _env, _disk, log = make_log()
        lsns = [log.append(1, "insert") for _ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert len(log.records) == 5

    def test_flush_writes_to_disk(self):
        env, disk, log = make_log()
        lsn = log.append(1, "insert")

        def work():
            yield from log.flush(lsn)

        run(env, work())
        assert disk.writes == 1
        assert disk.bytes_written >= LOG_BLOCK_BYTES
        assert log.flushed_lsn == lsn

    def test_flush_is_idempotent(self):
        env, disk, log = make_log()
        lsn = log.append(1, "insert")

        def work():
            yield from log.flush(lsn)
            yield from log.flush(lsn)

        run(env, work())
        assert disk.writes == 1

    def test_group_commit_batches_flushes(self):
        """Many concurrent committers produce far fewer physical writes."""
        env, disk, log = make_log()

        def committer(txn_id):
            lsn = log.append(txn_id, "commit")
            yield from log.flush(lsn)

        for txn_id in range(20):
            env.process(committer(txn_id))
        env.run()
        assert log.flushed_lsn == 20
        assert disk.writes < 20

    def test_logging_time_recorded(self):
        env, _disk, log = make_log()
        breakdown = CostBreakdown()
        lsn = log.append(1, "commit")

        def work():
            yield from log.flush(lsn, breakdown=breakdown)

        run(env, work())
        assert breakdown.logging > 0

    def test_log_shipping_redirects_writes(self):
        env = Environment()
        local_disk = Disk(env, HDD_SPEC, name="local")
        helper_disk = Disk(env, HDD_SPEC, name="helper")
        network = Network(env)
        log = LogManager(env, local_disk)
        sink = LogShippingSink(
            network, NetworkPort(env, "src"), NetworkPort(env, "dst"), helper_disk
        )
        log.ship_to(sink)
        assert log.is_shipping
        lsn = log.append(1, "commit")

        def work():
            yield from log.flush(lsn)

        run(env, work())
        assert local_disk.writes == 0
        assert helper_disk.writes == 1
        log.ship_locally()
        assert not log.is_shipping

    def test_checkpoint_and_truncate(self):
        _env, _disk, log = make_log()
        log.append(1, "insert")
        log.append(1, "commit")
        ckpt = log.checkpoint()
        log.append(2, "insert")
        cut = log.truncate_before(ckpt)
        assert cut == 2
        assert [r.kind for r in log.records] == ["checkpoint", "insert"]

    def test_committed_ops_since(self):
        _env, _disk, log = make_log()
        log.append(1, "insert", payload="a")
        log.append(2, "insert", payload="b")
        log.append(1, "commit")
        # txn 2 never commits -> its ops are not redone.
        ops = log.committed_ops_since(0)
        assert [r.payload for r in ops] == ["a"]


class TestTransactionManager:
    def test_begin_assigns_snapshot(self):
        env = Environment()
        tm = TransactionManager(env)
        t1 = tm.begin()
        t2 = tm.begin()
        assert t2.txn_id > t1.txn_id
        assert t2.begin_ts >= t1.begin_ts
        assert tm.active_count == 2

    def test_commit_flushes_dirty_logs(self):
        env = Environment()
        disk = Disk(env, SSD_SPEC)
        log = LogManager(env, disk)
        tm = TransactionManager(env)
        txn = tm.begin()
        log.append(txn.txn_id, "insert")
        txn.note_log(log)

        def work():
            yield from tm.commit(txn)

        run(env, work())
        assert disk.writes == 1
        assert tm.committed_count == 1
        assert tm.active_count == 0
        assert any(r.kind == "commit" for r in log.records)

    def test_readonly_commit_no_io(self):
        env = Environment()
        tm = TransactionManager(env)
        txn = tm.begin()

        def work():
            yield from tm.commit(txn)

        run(env, work())
        assert txn.is_read_only

    def test_abort_releases_locks(self):
        env = Environment()
        tm = TransactionManager(env)
        from repro.txn import LockMode

        txn = tm.begin()

        def work():
            yield from tm.locks.acquire(txn.txn_id, "r", LockMode.X)

        run(env, work())
        tm.abort(txn)
        assert tm.locks.holders("r") == {}
        assert tm.aborted_count == 1

    def test_system_transaction_flag(self):
        env = Environment()
        tm = TransactionManager(env)
        txn = tm.begin(is_system=True)
        assert txn.is_system
