"""The benchmark's own checks.

    python3 -m pytest perfbench -q

* wrapping the constructors and ``Environment.run`` (the probe), with
  the calibration timer running or the profiler on top, leaves the
  simulated outcome bit-identical;
* calibrated seconds exclude the bursts and scale with the host speed;
* the layer attribution of profiler statistics;
* ``BENCHMARK.json`` and ``spec.json`` agree with each other and with
  what the runs report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from probe import Probe, profiled_pass  # noqa: E402
from workloads import READ_TIER_COUNTERS, WORKLOADS  # noqa: E402

from repro.experiments.fig6_schemes import Fig6Config, run_fig6  # noqa: E402
from repro.experiments.read_scaling import (  # noqa: E402
    ReadScalingConfig,
    run_read_scaling,
)
from repro.workload import TpccConfig  # noqa: E402


def _tiny_fig6(seed: int):
    """A shrunk fig6 (same regime, seconds to run) reporting what the
    program itself exposes: its ``instrument`` hook and its result."""
    config = Fig6Config(
        tpcc=TpccConfig(
            warehouses=4, districts_per_warehouse=4,
            customers_per_district=20, items=200,
            orders_per_district=8, order_lines_per_order=5,
            pad_blob_bytes=4096, seed=seed,
        ),
        clients=4, ballast_rows_per_warehouse=600,
        ballast_blob_bytes=16 * 1024, buffer_pages_per_node=128,
        warmup=10.0, tail=30.0,
    )
    built = []
    result = run_fig6("physiological", config,
                      instrument=lambda env, cluster: built.append((env, cluster)))
    env, cluster = built[0]
    return (env.events_processed, env.now, cluster.txns.committed_count,
            cluster.energy_joules(), result.total_completed,
            result.bytes_moved, result.rebalance_finished,
            result.response_ms, result.watts)


def _tiny_read_scaling(seed: int):
    result = run_read_scaling(ReadScalingConfig(duration=20.0,
                                                min_requests=1_000),
                              seed=seed)
    return (result.wall_events, result.wall_seconds, result.energy_joules,
            result.offered, result.completed, result.tier_stats,
            result.tenants, result.violations)


@pytest.mark.parametrize("run", [_tiny_fig6, _tiny_read_scaling])
def test_probe_and_profiler_leave_the_simulation_unchanged(run):
    plain = run(3)
    probe = Probe()
    sampler = calibrate.SpeedSampler()
    with sampler.running(), probe.attached():
        probed = run(3)
    assert probed == plain
    assert sampler.bursts
    assert probe.first("env") is not None and probe.first("cluster") is not None
    assert 0 < probe.setup_s and 0 < probe.wall_s
    _probe, profiled, setup_stats, timed_stats = profiled_pass(run, 3)
    assert profiled == plain
    assert setup_stats and timed_stats


def test_probe_restores_the_wrapped_classes():
    from probe import CAPTURED
    from repro.sim.engine import Environment

    before = {cls: cls.__dict__.get("__init__") for cls in CAPTURED.values()}
    run_before = Environment.run
    with Probe().attached():
        assert Environment.run is not run_before
    assert Environment.run is run_before
    assert {cls: cls.__dict__.get("__init__")
            for cls in CAPTURED.values()} == before


def test_calibrated_seconds_net_out_bursts_and_rescale():
    sampler = calibrate.SpeedSampler()
    reference = calibrate.REFERENCE_BURST_S
    # Bursts at twice the reference time: a host at half speed.
    sampler.bursts = [(1.0, 2 * reference), (5.0, 2 * reference),
                      (20.0, 2 * reference)]
    net = 10.0 - 2 * 2 * reference
    assert sampler.calibrated(0.0, 10.0) == pytest.approx(net / 2)
    with sampler.running():
        deadline = time.perf_counter() + 3 * calibrate.PERIOD_S
        while time.perf_counter() < deadline:
            calibrate.burst()
    assert len(sampler.bursts) > 3


def test_layer_of_maps_packages():
    assert layers.layer_of("/x/src/repro/storage/checksum.py") == "storage"
    assert layers.layer_of("/x/src/repro/core/rebalancer.py") == "moves"
    assert layers.layer_of("/usr/lib/python3/random.py") is None
    assert layers.layer_of("~") is None


def test_attribute_charges_library_time_to_calling_layers():
    storage = ("/s/repro/storage/record.py", 1, "make")
    index = ("/s/repro/index/btree.py", 1, "find")
    library = ("/usr/lib/python3/bisect.py", 1, "insort")
    stats = {
        storage: (10, 10, 2.0, 5.0, {}),
        index: (5, 5, 1.0, 2.0, {}),
        # 3 s in the library: 2.25 s of it called from storage.
        library: (8, 8, 3.0, 3.0, {storage: (6, 6, 2.25, 2.25),
                                   index: (2, 2, 0.75, 0.75)}),
    }
    self_s, calls = layers.attribute(stats)
    assert self_s["storage"] == pytest.approx(4.25)
    assert self_s["index"] == pytest.approx(1.75)
    assert sum(self_s.values()) == pytest.approx(6.0)
    assert calls["storage"] == 10 and calls["index"] == 5
    assert layers.call_count(stats, "storage/record.py", "make") == 10


def test_declared_metrics_match_the_spec_and_the_runs():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert set(WORKLOADS) == set(spec["workloads"])
    per_layer = {m["name"] for m in bench["per_layer"]}
    mapped = {name for entry in spec["layer_map"].values()
              for name in entry["metrics"]}
    assert mapped <= per_layer
    produced = {f"{prefix}{layer}.{suffix}"
                for layer in layers.LAYERS
                for prefix, suffix in (("", "self_s"), ("setup.", "self_s"),
                                       ("", "calls_per_txn"))}
    produced |= set(layers.CALL_COUNTS) | set(READ_TIER_COUNTERS)
    produced |= {"sim.events_per_wall_s", "trace.overhead"}
    assert produced <= per_layer
    gated = [m["name"] for m in bench["end_to_end"]]
    assert gated == (spec["end_to_end"]["host"]
                     + spec["end_to_end"]["simulated"])
    assert spec["default_seed"] != spec["held_out_seed"]
