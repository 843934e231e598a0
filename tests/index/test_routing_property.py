"""Model-based tests: the global partition table and partition tree
against dict/interval reference models under random operation streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    GlobalPartitionTable,
    KeyRange,
    PartitionLocation,
    PartitionTree,
)
from repro.index.partition_tree import Forwarding


@settings(max_examples=40, deadline=None)
@given(
    boundaries=st.lists(
        st.integers(min_value=1, max_value=999),
        min_size=1, max_size=8, unique=True,
    ),
    probes=st.lists(st.integers(min_value=0, max_value=1000), max_size=30),
)
def test_property_gpt_partitions_cover_exactly(boundaries, probes):
    """Ranges built from sorted boundaries tile the key space; every
    probe maps to exactly the partition whose interval contains it."""
    bounds = sorted(boundaries)
    gpt = GlobalPartitionTable()
    edges = [None] + bounds + [None]
    for i in range(len(edges) - 1):
        gpt.register(
            "t", KeyRange(edges[i], edges[i + 1]),
            PartitionLocation(partition_id=i + 1, node_id=i % 3),
        )
    for key in probes:
        location = gpt.locate("t", key)
        index = sum(1 for b in bounds if b <= key)
        assert location.partition_id == index + 1
        hits = gpt.locate_range("t", KeyRange(key, key + 1))
        assert [l.partition_id for l in hits] == [index + 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_moves=st.integers(min_value=1, max_value=10),
)
def test_property_gpt_moves_keep_cover_invariant(seed, n_moves):
    """Random splits/moves never leave a key uncovered or doubly owned."""
    rng = random.Random(seed)
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(None, None), PartitionLocation(1, node_id=0))
    next_pid = 2
    for _ in range(n_moves):
        ranges = gpt.partitions("t")
        key_range, location = rng.choice(ranges)
        action = rng.random()
        if action < 0.5 and not location.is_moving:
            low = key_range.low if key_range.low is not None else 0
            high = key_range.high if key_range.high is not None else 1000
            if high - low > 1:
                split = rng.randrange(low + 1, high)
                gpt.split("t", location.partition_id, split, next_pid,
                          rng.randrange(4))
                next_pid += 1
        elif not location.is_moving:
            gpt.begin_move("t", location.partition_id, rng.randrange(4))
        else:
            if rng.random() < 0.5:
                gpt.finish_move("t", location.partition_id)
            else:
                gpt.abort_move("t", location.partition_id)
    # Invariants: total cover, no overlap, candidate sets non-empty.
    for key in range(0, 1000, 37):
        location = gpt.locate("t", key)
        assert location.candidate_nodes
    entries = gpt.partitions("t")
    for i, (r1, _l1) in enumerate(entries):
        for r2, _l2 in entries[i + 1:]:
            assert not r1.overlaps(r2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_segments=st.integers(min_value=1, max_value=10),
)
def test_property_partition_tree_find_matches_model(seed, n_segments):
    rng = random.Random(seed)
    tree = PartitionTree(partition_id=1)
    bounds = sorted(rng.sample(range(1, 1000), n_segments + 1))
    model = {}
    for i in range(n_segments):
        key_range = KeyRange(bounds[i], bounds[i + 1])
        tree.attach(i + 1, key_range, f"seg-{i + 1}")
        model[(bounds[i], bounds[i + 1])] = f"seg-{i + 1}"
    for key in range(0, 1000, 13):
        expected = None
        for (low, high), seg in model.items():
            if low <= key < high:
                expected = seg
        assert tree.find(key) == expected
    # Detach a random subset; finds reflect it.
    for segment_id in rng.sample(range(1, n_segments + 1),
                                 rng.randint(0, n_segments)):
        tree.detach(segment_id)
        low, high = bounds[segment_id - 1], bounds[segment_id]
        del model[(low, high)]
    for key in range(0, 1000, 13):
        expected = None
        for (low, high), seg in model.items():
            if low <= key < high:
                expected = seg
        assert tree.find(key) == expected


# -- indexed lookups against a linear-scan reference ------------------------

#: Bound domains: plain int keys, and TPC-C-style tuple keys whose
#: partition bounds are ``(w,)`` while probes are full ``(w, d, o)``
#: primary keys that sort between them.
INT_BOUNDS = list(range(0, 40, 3))
INT_PROBES = list(range(-3, 43))
TUPLE_BOUNDS = [(w,) for w in range(1, 9)] + [(w, 5) for w in range(1, 9)]
TUPLE_PROBES = [(w, d, o) for w in range(0, 10) for d in (1, 5, 9)
                for o in (1, 2)] + [(w,) for w in range(0, 10)]
DOMAINS = {
    "int": (sorted(INT_BOUNDS), INT_PROBES),
    "tuple": (sorted(TUPLE_BOUNDS), TUPLE_PROBES),
}


def _random_range(rng, bounds):
    lo, hi = sorted(rng.sample(range(len(bounds)), 2))
    low = None if rng.random() < 0.15 else bounds[lo]
    high = None if rng.random() < 0.15 else bounds[hi]
    return KeyRange(low, high)


def _scan_locate(model, key):
    """Reference lookup: every entry, no index."""
    hits = [pid for pid, m in model.items() if m["range"].contains(key)]
    assert len(hits) <= 1
    return hits[0] if hits else None


def _sorted_pids(model):
    return sorted(
        model, key=lambda pid: (model[pid]["range"].low is not None,
                                model[pid]["range"].low),
    )


def _check_gpt_against_scan(gpt, model, probes, bounds, rng, retired):
    if not model and "t" not in gpt.tables():
        return
    assert [loc.partition_id for _r, loc in gpt.partitions("t")] == \
        _sorted_pids(model)
    for key in probes:
        expected = _scan_locate(model, key)
        if expected is None:
            with pytest.raises(KeyError):
                gpt.locate("t", key)
            continue
        location = gpt.locate("t", key)
        m = model[expected]
        assert location.partition_id == expected
        assert (location.node_id, location.moving_to_node_id,
                location.epoch) == (m["node"], m["moving"], m["epoch"])
    for _ in range(4):
        query = _random_range(rng, bounds)
        assert [loc.partition_id for loc in gpt.locate_range("t", query)] \
            == [pid for pid in _sorted_pids(model)
                if model[pid]["range"].overlaps(query)]
    for pid, m in model.items():
        assert gpt.range_of("t", pid) == m["range"]
        assert gpt.epoch_of("t", pid) == m["epoch"]
    for pid in retired:
        with pytest.raises(KeyError):
            gpt.range_of("t", pid)
        with pytest.raises(KeyError):
            gpt.epoch_of("t", pid)


def _gpt_step(gpt, model, rng, bounds, next_pid, retired):
    """One random mutation applied to both the table and the model;
    returns the next free partition id."""
    op = rng.choice(["register", "register", "split", "unsplit",
                     "unregister", "begin", "finish", "abort", "reassign"])
    pids = list(model)
    if op == "register" or not pids:
        key_range = _random_range(rng, bounds)
        location = PartitionLocation(next_pid, node_id=rng.randrange(4))
        if any(m["range"].overlaps(key_range) for m in model.values()):
            with pytest.raises(ValueError):
                gpt.register("t", key_range, location)
        else:
            gpt.register("t", key_range, location)
            model[next_pid] = dict(range=key_range, node=location.node_id,
                                   moving=None, epoch=0)
        return next_pid + 1
    pid = rng.choice(pids)
    m = model[pid]
    if op == "split":
        inside = [b for b in bounds if m["range"].contains(b)
                  and b != m["range"].low]
        if inside:
            split_key = rng.choice(inside)
            node = rng.randrange(4)
            gpt.split("t", pid, split_key, next_pid, node)
            low_range, high_range = m["range"].split_at(split_key)
            m["range"] = low_range
            model[next_pid] = dict(range=high_range, node=node,
                                   moving=None, epoch=0)
            return next_pid + 1
    elif op == "unsplit":
        adjacent = [(a, b) for a in model for b in model
                    if model[a]["range"].high is not None
                    and model[a]["range"].high == model[b]["range"].low]
        if adjacent:
            lower, upper = rng.choice(adjacent)
            merged = KeyRange(model[lower]["range"].low,
                              model[upper]["range"].high)
            keeper, absorbed = rng.sample([lower, upper], 2)
            gpt.unsplit("t", keeper, absorbed)
            del model[absorbed]
            model[keeper]["range"] = merged
            model[keeper]["epoch"] += 1
            retired.add(absorbed)
    elif op == "unregister":
        gpt.unregister("t", pid)
        del model[pid]
        retired.add(pid)
    elif op == "begin":
        if m["moving"] is None:
            target = rng.randrange(4)
            gpt.begin_move("t", pid, target)
            m["moving"] = target
        else:
            with pytest.raises(RuntimeError):
                gpt.begin_move("t", pid, 0)
    elif op in ("finish", "abort"):
        call = gpt.finish_move if op == "finish" else gpt.abort_move
        if m["moving"] is None:
            with pytest.raises(RuntimeError):
                call("t", pid)
        else:
            call("t", pid)
            if op == "finish":
                m["node"] = m["moving"]
            m["moving"] = None
            m["epoch"] += 1
    else:
        node = rng.randrange(4)
        gpt.reassign("t", pid, node)
        m.update(node=node, moving=None, epoch=m["epoch"] + 1)
    return next_pid


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       domain=st.sampled_from(sorted(DOMAINS)))
def test_property_gpt_indexed_lookups_match_linear_scan(seed, domain):
    """Random register/split/unsplit/unregister/move/reassign streams:
    after every step, locate, locate_range, epoch_of and range_of answer
    exactly what a scan over every registered range answers."""
    bounds, probes = DOMAINS[domain]
    rng = random.Random(seed)
    gpt = GlobalPartitionTable()
    model: dict[int, dict] = {}
    retired: set[int] = set()
    next_pid = 1
    for _ in range(40):
        next_pid = _gpt_step(gpt, model, rng, bounds, next_pid, retired)
        retired -= set(model)
        _check_gpt_against_scan(gpt, model, probes, bounds, rng, retired)


def test_gpt_duplicate_id_and_unbounded_overlap_are_rejected():
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(None, (3,)), PartitionLocation(1, 0))
    with pytest.raises(ValueError):
        gpt.register("t", KeyRange(None, (1,)), PartitionLocation(2, 0))
    with pytest.raises(ValueError):
        gpt.register("t", KeyRange((5,), None), PartitionLocation(1, 0))
    gpt.register("t", KeyRange((3,), None), PartitionLocation(2, 1))
    assert gpt.locate("t", (2, 9, 9)).partition_id == 1
    assert gpt.locate("t", (3, 1, 1)).partition_id == 2
    with pytest.raises(KeyError):
        gpt.locate("other", (1,))


def test_gpt_unsplit_with_keeper_above_absorbed():
    """Two partitions that meet at one key and are unbounded on their
    outer ends merge back whichever of them keeps the range — the
    upper keeper must not read the two open ends as the shared edge."""
    gpt = GlobalPartitionTable()
    gpt.register("t", KeyRange(None, (3,)), PartitionLocation(1, 0))
    gpt.register("t", KeyRange((3,), None), PartitionLocation(2, 1))
    gpt.unsplit("t", 2, 1)
    assert gpt.range_of("t", 2) == KeyRange(None, None)
    assert gpt.locate("t", (1, 1, 1)).partition_id == 2
    assert gpt.epoch_of("t", 2) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       domain=st.sampled_from(sorted(DOMAINS)))
def test_property_partition_tree_find_matches_linear_scan(seed, domain):
    """Random attach/detach/forward/retire_forwarding streams: after
    every step ``find`` answers what a scan over every entry answers,
    and the entries keep attach order."""
    bounds, probes = DOMAINS[domain]
    rng = random.Random(seed)
    tree = PartitionTree(partition_id=1)
    model: dict[int, tuple[KeyRange, object]] = {}
    for _ in range(50):
        op = rng.choice(["attach", "attach", "detach", "forward", "retire"])
        segment_id = rng.randrange(1, 12)
        entry = model.get(segment_id)
        if op == "attach":
            key_range = _random_range(rng, bounds)
            if entry is not None or any(
                    r.overlaps(key_range) for r, _t in model.values()):
                with pytest.raises(ValueError):
                    tree.attach(segment_id, key_range, f"seg-{segment_id}")
            else:
                tree.attach(segment_id, key_range, f"seg-{segment_id}")
                model[segment_id] = (key_range, f"seg-{segment_id}")
        elif op == "detach":
            if entry is None:
                with pytest.raises(KeyError):
                    tree.detach(segment_id)
            else:
                tree.detach(segment_id)
                del model[segment_id]
        elif op == "forward":
            if entry is not None:
                node = rng.randrange(4)
                tree.forward(segment_id, node)
                model[segment_id] = (entry[0], Forwarding(segment_id, node))
        elif entry is None or not isinstance(entry[1], Forwarding):
            with pytest.raises(KeyError):
                tree.retire_forwarding(segment_id)
        else:
            tree.retire_forwarding(segment_id)
            del model[segment_id]
        assert list(tree.entries()) == [
            (sid, r, t) for sid, (r, t) in model.items()
        ]
        for key in probes:
            hits = [t for r, t in model.values() if r.contains(key)]
            assert len(hits) <= 1
            assert tree.find(key) == (hits[0] if hits else None)
