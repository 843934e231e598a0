"""Work-ledger gate for the routing and move-journal lookups.

Each lookup's cost must not grow with the size of the structure it
searches: one candidate partition per ``locate``, one candidate segment
per ``find``, and only the open moves per resume lookup.  The counts
are taken by wrapping methods for the duration of one call, so the gate
is exact and holds on any machine.
"""

import contextlib

from repro.index import (
    GlobalPartitionTable,
    KeyRange,
    PartitionLocation,
    PartitionTree,
)
from repro.moves import DONE, MoveJournal, SegmentMoveEntry


@contextlib.contextmanager
def touched(monkeypatch, cls):
    """Collect the ids of ``cls`` instances whose attributes are read
    inside the block."""
    seen: set[int] = set()
    read = cls.__getattribute__

    def spy(self, name):
        seen.add(id(self))
        return read(self, name)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "__getattribute__", spy)
        yield seen


def test_locate_checks_one_partition_of_ten_thousand(monkeypatch):
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(None, 0), PartitionLocation(0, node_id=0))
    for pid in range(1, 10_000):
        gpt.register("t", KeyRange((pid - 1) * 10, pid * 10),
                     PartitionLocation(pid, node_id=pid % 100))
    calls = []
    contains = KeyRange.contains

    def counting(self, key):
        calls.append(self)
        return contains(self, key)

    monkeypatch.setattr(KeyRange, "contains", counting)
    for key, pid in ((-5, 0), (0, 1), (55_555, 5_556), (99_989, 9_999)):
        calls.clear()
        assert gpt.locate("t", key).partition_id == pid
        assert len(calls) <= 1


def test_find_touches_one_segment_of_five_thousand(monkeypatch):
    tree = PartitionTree(partition_id=1)
    for sid in range(5_000):
        tree.attach(sid, KeyRange((sid,), (sid + 1,)), f"seg-{sid}")
    for key, expected in (((0, 1, 1), "seg-0"), ((4_321, 9, 9), "seg-4321"),
                          ((5_000, 1, 1), None)):
        with touched(monkeypatch, KeyRange) as seen:
            found = tree.find(key)
        assert found == expected
        assert len(seen) <= 1


def test_resume_lookup_inspects_only_open_moves(monkeypatch):
    journal = MoveJournal()
    for sid in range(10_000):
        entry = journal.open_segment_move(sid, 1, 2, 8192, 2048)
        journal.advance(entry, DONE)
    live = [journal.open_segment_move(sid, 1, 2, 8192, 2048)
            for sid in (7, 8, 9)]
    with touched(monkeypatch, SegmentMoveEntry) as seen:
        found = journal.resumable_segment_move(9, 1, 2)
    assert found is live[2]
    assert len(seen) <= 3
