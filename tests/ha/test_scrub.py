"""Scrub daemon: detect silent corruption, repair from a replica,
fence what cannot be repaired, rebuild rotten replica logs."""

import dataclasses

import pytest

from repro.ha import (
    FailoverCoordinator,
    FaultInjector,
    ReplicationManager,
    ScrubDaemon,
    ScrubPolicy,
)
from repro.cluster.master import PartitionUnavailableError
from repro.metrics import render_scrub_summary
from repro.storage.checksum import IntegrityError

from tests.ha.conftest import insert_rows, run


def kv_partition(cluster):
    return next(iter(cluster.workers[1].partitions.values()))


def setup_protected(env, cluster, k=2, rows=20):
    insert_rows(env, cluster, rows)
    replication = ReplicationManager(cluster, k=k)
    run(env, replication.protect_all())
    coordinator = FailoverCoordinator(cluster, replication)
    return replication, coordinator


def rot_row(cluster, partition):
    """Garble one committed row in place, fault-injector style;
    returns (version, original_values)."""
    for segment in partition.segments.values():
        for _p, _s, version in segment.scan_versions():
            if version.checksum is None or version.created_ts is None \
                    or version.deleted_ts is not None:
                continue
            original = version.values
            version.values = ("§rot",) + tuple(original[1:])
            version.clean = False
            return version, original
    raise AssertionError("no committed row to rot")


def rot_replica_record(replica):
    """Garble one data record of a replica log the way the fault
    injector does: the frozen record is replaced by a copy whose
    payload changed and whose checksum stayed."""
    index = next(
        i for i, r in enumerate(replica.log.records)
        if r.kind in ("insert", "update") and r.checksum is not None
    )
    record = replica.log.records[index]
    replica.log.records[index] = dataclasses.replace(
        record, payload=("§rot", record.payload)
    )


def scrub_once(env, cluster, replication, coordinator, **policy):
    policy.setdefault("interval", 1.0)
    policy.setdefault("pages_per_tick", None)
    daemon = ScrubDaemon(cluster, replication, coordinator,
                         policy=ScrubPolicy(**policy))
    run(env, daemon._tick())
    return daemon


def test_scrub_repairs_page_rot_from_replica(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    partition = kv_partition(cluster)
    version, original = rot_row(cluster, partition)

    daemon = scrub_once(env, cluster, replication, coordinator)

    assert daemon.corruptions_found == 1
    assert daemon.repaired == 1
    assert daemon.fenced == 0
    assert version.values == tuple(original)
    version.verify(where="test")  # does not raise


def test_scrub_fences_when_no_replica_exists(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster, k=1)
    partition = kv_partition(cluster)
    version, _original = rot_row(cluster, partition)

    daemon = scrub_once(env, cluster, replication, coordinator)

    assert daemon.corruptions_found == 1
    assert daemon.repaired == 0
    assert daemon.fenced == 1
    location = cluster.master.gpt.locate("kv", version.key)
    assert not location.available
    with pytest.raises(IntegrityError):
        version.verify(where="test")


def test_fenced_partition_fails_fast_for_clients(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster, k=1)
    partition = kv_partition(cluster)
    version, _ = rot_row(cluster, partition)
    scrub_once(env, cluster, replication, coordinator)

    def read():
        txn = cluster.txns.begin()
        try:
            yield from cluster.master.read("kv", version.key, txn)
        finally:
            if txn.state.value == "active":
                cluster.txns.abort(txn)

    with pytest.raises(PartitionUnavailableError):
        run(env, read())


def test_scrub_marks_rotten_replica_log_stale_and_rebuilds(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    partition = kv_partition(cluster)
    replica_set = cluster.catalog.replica_set_for(partition.partition_id)
    replica = replica_set.replicas[0]
    rot_replica_record(replica)

    daemon = scrub_once(env, cluster, replication, coordinator)

    assert daemon.corruptions_found == 1
    assert replica.stale
    assert daemon.replicas_rebuilt == 1
    fresh = [r for r in replica_set.replicas if not r.stale]
    assert fresh and all(r is not replica for r in fresh)
    for r in fresh:
        for rec in r.log.records:
            rec.verify(where="test")


def test_scrub_finds_rot_on_a_replica_log_an_earlier_pass_verified(rig):
    """Rot that lands after a clean pass: the records the first pass
    verified are memoised clean, the rotten copy is not, so the next
    pass still catches it and rebuilds the replica."""
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    partition = kv_partition(cluster)
    replica_set = cluster.catalog.replica_set_for(partition.partition_id)
    replica = replica_set.replicas[0]
    daemon = scrub_once(env, cluster, replication, coordinator)
    assert daemon.corruptions_found == 0
    assert all(r.clean for r in replica.log.records)

    rot_replica_record(replica)
    run(env, daemon._tick())

    assert daemon.passes == 2
    assert daemon.corruptions_found == 1
    assert replica.stale
    assert daemon.replicas_rebuilt == 1
    assert any(not r.stale and r is not replica
               for r in replica_set.replicas)


def test_fold_rejects_rot_on_a_replica_log_verified_clean(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    partition = kv_partition(cluster)
    replica = cluster.catalog.replica_set_for(
        partition.partition_id).replicas[0]
    daemon = scrub_once(env, cluster, replication, coordinator)
    assert run(env, daemon._fold_replica(replica))  # clean: folds rows

    rot_replica_record(replica)

    assert run(env, daemon._fold_replica(replica)) is None
    assert replica.stale
    assert daemon.corruptions_found == 1


def test_scrub_counts_hashed_and_already_clean_replica_records(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    walked = sum(
        len(replica.log.records)
        for replica_set in cluster.catalog.replica_sets.values()
        for replica in replica_set.replicas
    )
    assert walked > 0
    daemon = scrub_once(env, cluster, replication, coordinator)
    assert daemon.replica_records_hashed \
        + daemon.replica_records_clean == walked
    hashed = daemon.replica_records_hashed
    clean = daemon.replica_records_clean

    run(env, daemon._tick())  # second pass: nothing new to hash

    assert daemon.replica_records_hashed == hashed
    assert daemon.replica_records_clean == clean + walked
    stats = daemon.stats()
    assert stats["replica_records_hashed"] == hashed
    assert stats["replica_records_clean"] == clean + walked
    summary = render_scrub_summary(stats)
    assert "replica records hashed" in summary
    assert "replica records already clean" in summary


def test_scrub_budget_resumes_across_ticks(rig):
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster, rows=200)
    daemon = ScrubDaemon(cluster, replication, coordinator,
                         policy=ScrubPolicy(interval=1.0, pages_per_tick=2))
    run(env, daemon._tick())
    assert daemon.stats()["pending_units"] > 0
    first = daemon.pages_scanned
    assert first <= 2
    while daemon.stats()["pending_units"]:
        run(env, daemon._tick())
    assert daemon.passes == 1
    assert daemon.pages_scanned > first


def test_scrub_via_injector_ledger(rig):
    """End-to-end: the fault injector rots a row, the scrubber repairs
    it, and the ledger's original bytes match the repaired row."""
    env, cluster = rig
    replication, coordinator = setup_protected(env, cluster)
    injector = FaultInjector(cluster)
    injector.bit_rot_at(env.now + 0.5, 1)
    env.process(injector.run(), name="faults")
    daemon = ScrubDaemon(cluster, replication, coordinator,
                         policy=ScrubPolicy(interval=1.0,
                                            pages_per_tick=None)).start()
    env.run(until=env.now + 5.0)
    daemon.stop()
    page_rots = [c for c in injector.corruptions if c.target == "page"]
    if not page_rots:  # the seeded draw picked the replica log instead
        assert any(c.target == "replica-log" for c in injector.corruptions)
        assert daemon.corruptions_found >= 1
        return
    assert daemon.repaired == len(page_rots)
    for c in page_rots:
        worker = cluster.workers[1]
        partition = worker.partitions[c.partition_id]
        segment = partition.segment_for(c.key)
        values = [v.values for _p, _s, v in segment.versions_for(c.key)
                  if v.deleted_ts is None]
        assert tuple(c.original) in [tuple(v) for v in values]
