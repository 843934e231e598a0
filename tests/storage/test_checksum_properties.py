"""Property tests for the checksum layer: round-trip for arbitrary
payloads, detection of arbitrary byte flips, and the torn-tail
discipline (a torn prefix never replays as committed)."""

import dataclasses
import zlib

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

from repro.hardware import Disk, SSD_SPEC
from repro.sim import Environment
from repro.storage.checksum import (
    IntegrityError,
    canonical_bytes,
    checksum_bytes,
    checksum_of,
    verify,
)
from repro.storage.record import RecordVersion, Schema, Column
from repro.txn.recovery import analyze, integrity_scan
from repro.txn.wal import LogManager

# Values that survive repr-canonicalisation bit-exactly: what rows and
# WAL payloads are actually made of.
scalars = st.one_of(
    st.integers(min_value=-2**40, max_value=2**40),
    st.text(max_size=24),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_checksum_round_trip(payload):
    verify(payload, checksum_of(payload), where="prop")  # does not raise


@given(payloads, payloads)
@settings(max_examples=200, deadline=None)
def test_distinct_payloads_rarely_collide_and_always_differ_in_bytes(a, b):
    if canonical_bytes(a) == canonical_bytes(b):
        assert checksum_of(a) == checksum_of(b)
    # (CRC32 collisions across distinct bytes are possible but the
    # canonical-bytes equality above is the identity that matters.)


@given(payloads, st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=200, deadline=None)
def test_any_byte_flip_is_detected(payload, pos, bit):
    """CRC32 detects every single-byte corruption of the canonical
    serialisation (burst errors <= 32 bits are guaranteed caught)."""
    data = canonical_bytes(payload)
    index = pos % len(data)
    flipped = (data[:index]
               + bytes([data[index] ^ (1 << bit)])
               + data[index + 1:])
    assert flipped != data
    assert checksum_bytes(flipped) != zlib.crc32(data)


@given(st.lists(st.tuples(st.integers(0, 10**6), st.text(max_size=16)),
                min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_record_version_round_trip_and_garble_detection(rows):
    schema = Schema([Column("id"), Column("v", "str", width=32)],
                    key=("id",))
    for key, text in rows:
        version = RecordVersion.make(schema, (key, text), created_by=1)
        version.verify(where="prop")
        version.clean = False
        version.verify(where="prop")  # idempotent
        version.values = (key, text + "!")
        version.clean = False
        with pytest.raises(IntegrityError):
            version.verify(where="prop")


def _log(env):
    return LogManager(env, Disk(env, SSD_SPEC), name="prop")


@given(st.lists(payloads, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_torn_prefix_never_replays_as_committed(tails, torn_after):
    """Garbling any suffix of the log (the torn flush) makes
    integrity_scan discard exactly that suffix; the transactions whose
    commits fell in it never come back committed."""
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    torn_from = min(torn_after, log.live_records - 1) + 0
    keep = log.live_records - torn_from if torn_from else log.live_records
    # Garble every record from index ``keep`` on — a torn multi-record
    # flush.
    for index in range(keep, log.live_records):
        record = log.records[index]
        log.records[index] = dataclasses.replace(
            record, payload=("§torn", record.payload)
        )
    records, discarded = integrity_scan(log, 0)
    assert discarded == log.live_records - keep
    assert len(records) == keep
    for record in records:
        record.verify(where="prop")
    # Commits inside the torn suffix are gone; only fully-durable
    # transactions can be treated as committed.
    surviving_commits = {r.txn_id for r in records if r.kind == "commit"}
    torn_commits = {
        r.txn_id for r in
        [log.records[i] for i in range(keep, log.live_records)]
    }
    assert not (surviving_commits
                & {t for t in torn_commits
                   if t not in surviving_commits})


@given(st.lists(payloads, min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_mid_log_garble_raises(tails):
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    record = log.records[0]
    log.records[0] = dataclasses.replace(record,
                                         payload=("§rot", record.payload))
    with pytest.raises(IntegrityError):
        integrity_scan(log, 0)


@given(st.lists(payloads, min_size=1, max_size=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_discard_tail_then_append_stays_verifiable(tails, extra):
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    record = log.records[-1]
    log.records[log.live_records - 1] = dataclasses.replace(
        record, payload=("§torn", record.payload)
    )
    _records, discarded = integrity_scan(log, 0)
    assert discarded == 1
    log.discard_tail(discarded)
    for txn_id in range(1000, 1000 + extra):
        log.append(txn_id, "update", ("t", txn_id, "post"))
        log.append(txn_id, "commit")
    records, discarded2 = integrity_scan(log, 0)
    assert discarded2 == 0
    lsns = [r.lsn for r in records]
    assert lsns == sorted(lsns)


@given(st.lists(payloads, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_commit_verified_at_ship_then_torn_is_still_discarded(tails):
    """Verify-once must not mask a later tear: a commit record that
    already passed replica-ship verification and is then torn is
    discarded as a torn tail, and its transaction recovers as a
    loser."""
    env = Environment(seed=1)
    log = _log(env)
    for txn_id, payload in enumerate(tails, start=1):
        log.append(txn_id, "update", ("t", txn_id, payload))
        log.append(txn_id, "commit")
    for record in log.records:
        record.verify(where="replica-ship")
    index = log.live_records - 1
    commit = log.records[index]
    assert commit.kind == "commit" and commit.clean
    log.records[index] = dataclasses.replace(
        commit, payload=("§torn", commit.txn_id)
    )

    records, discarded = integrity_scan(log, 0)
    assert discarded == 1
    assert len(records) == log.live_records - 1
    _data, committed, losers = analyze(log, 0)
    assert commit.txn_id not in committed
    assert committed == set(range(1, len(tails)))
    assert losers == 1
