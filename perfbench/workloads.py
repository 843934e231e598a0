"""The three benchmark workloads and what is read off each pass.

Each workload calls one public experiment entry point in a single
process (no ``--jobs``; the simulator is single-threaded).  The seed is
the benchmark's argument: fig6 passes it as ``TpccConfig.seed``,
read-scaling as ``ReadScalingConfig.seed``.

Simulated metrics are deterministic for a seed.  "txn" means a
completed transaction on fig6 and a completed logical request on
read-scaling.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing

from repro.experiments.fig6_schemes import (
    quick_fig6_config,
    run_fig6,
    scale_fig6_config,
)
from repro.experiments.read_scaling import (
    quick_read_scaling_config,
    run_read_scaling,
)
from repro.metrics.series import LatencyHistogram, percentile


@dataclasses.dataclass
class Outcome:
    """What one pass delivered, read off the result and the handles."""

    #: Simulated end-to-end metrics: name -> (value, unit, samples).
    simulated: dict[str, tuple[float, str, int | None]]
    #: Per-layer counters that need no profiler.
    counters: dict[str, float]
    attempted: int
    failed: int
    #: Completed txns: the denominator of every ``*_per_txn``.
    txns: int
    #: Deterministic summary that must repeat for a seed.
    fingerprint: list
    #: Failed correctness checks (empty when the pass is correct).
    problems: list[str]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: typing.Callable[[int], typing.Any]
    outcome: typing.Callable[[typing.Any, typing.Any], Outcome]


def _fig6(config_factory):
    def run(seed: int):
        config = config_factory()
        config.tpcc = dataclasses.replace(config.tpcc, seed=seed)
        return run_fig6("physiological", config)
    return run


def _read_scaling(seed: int):
    # Without the fault schedule: with it, where the crash and the sever
    # land in the Zipf traffic decides how far the queue backs up, so
    # latency and the amount of simulated work swing with the seed (p50
    # from 5.6 to 125 ms, events by +-12% over five seeds) far beyond
    # any bound a cross-seed comparison can hold.
    config = dataclasses.replace(quick_read_scaling_config(), faults=False)
    return run_read_scaling(config, seed=seed)


def _common_counters(probe, txns: int) -> dict[str, float]:
    """Counters every workload has: kernel, storage, hardware, txn,
    cluster and moves, read from the captured cluster."""
    env = probe.first("env")
    cluster = probe.first("cluster")
    kernel = env.kernel_stats()
    workers = cluster.workers
    disks = [disk for machine in cluster.machines for disk in machine.disks]
    buffers = [worker.buffer for worker in workers]
    hits = sum(b.hits + b.remote_hits for b in buffers)
    misses = sum(b.misses for b in buffers)
    locks = cluster.txns.locks
    moves = cluster.moves.summary()
    per = 1.0 / max(txns, 1)
    return {
        "sim.events_per_txn": kernel["events_processed"] * per,
        "sim.fast_fraction": kernel["fast_fraction"],
        "sim.cohort_max": kernel["cohort_max"],
        "storage.buffer_hit_ratio": hits / max(hits + misses, 1),
        "storage.buffer_misses_per_txn": misses * per,
        "storage.evictions_per_txn": sum(b.evictions for b in buffers) * per,
        "storage.latch_contended": sum(b.latch_contended for b in buffers),
        "hardware.disk_reads_per_txn": sum(d.reads for d in disks) * per,
        "hardware.disk_writes_per_txn": sum(d.writes for d in disks) * per,
        "hardware.disk_bytes_per_txn":
            sum(d.bytes_read + d.bytes_written for d in disks) * per,
        "hardware.net_bytes_per_txn": cluster.network.bytes_total * per,
        "hardware.net_retransmits":
            sum(m.port.retransmits for m in cluster.machines),
        "txn.aborts_per_commit":
            cluster.txns.aborted_count / max(cluster.txns.committed_count, 1),
        "txn.lock_waits_per_txn": locks.wait_count * per,
        "txn.lock_timeouts": locks.timeout_count,
        "txn.wal_flushes_per_txn": sum(w.wal.flush_count for w in workers) * per,
        "txn.wal_bytes_per_txn":
            sum(w.wal.bytes_flushed_total for w in workers) * per,
        "cluster.queries_planned_per_txn": cluster.master.queries_planned * per,
        "cluster.vacuum_reclaimed": probe.first("vacuum").reclaimed,
        "moves.bytes_moved": moves["bytes_shipped"],
        "moves.segments_moved": moves["moves_total"],
        "moves.retries": moves["retries_total"],
    }


#: Counters of the replication, read and traffic layers, which only
#: read-scaling builds; they read 0 on fig6.
READ_TIER_COUNTERS = (
    "ha.records_shipped", "ha.scrub_repaired", "ha.promotions",
    "reads.replica_serves", "reads.cache_hit_ratio", "reads.bounce_ratio",
    "reads.view_lag_max_s", "traffic.peak_queue_depth",
    "traffic.peak_queue_wait_s",
)


def _fingerprint(probe) -> list:
    env = probe.first("env")
    cluster = probe.first("cluster")
    return [env.events_processed, env.now, cluster.txns.committed_count,
            cluster.energy_joules()]


def _fig6_outcome(result, probe) -> Outcome:
    driver = probe.first("driver")
    cluster = probe.first("cluster")
    config = result.config
    duration = config.warmup + config.tail
    responses = driver.response_times.values()
    during = driver.response_times.between(result.rebalance_started,
                                           result.rebalance_finished)
    txns = result.total_completed
    failed = result.total_failed + driver.total_abandoned
    simulated = {
        "throughput_tps": (txns / duration, "1/s", txns),
        "resp_mean_ms": (statistics.fmean(responses), "ms", len(responses)),
        "resp_p50_ms": (percentile(responses, 50), "ms", len(responses)),
        "resp_p99_ms": (percentile(responses, 99), "ms", len(responses)),
        "joules_per_txn": (cluster.energy_joules() / txns, "J", txns),
        "failed_frac": (failed / (txns + failed), "frac", txns + failed),
        "migration_s": (result.migration_seconds, "s", None),
        "move_resp_p50_ms": (percentile(during, 50), "ms", len(during)),
    }
    counters = _common_counters(probe, txns)
    counters.update(dict.fromkeys(READ_TIER_COUNTERS, 0))
    counters["workload.retries_per_txn"] = driver.retries_total / txns
    problems = []
    if result.rebalance_finished <= result.rebalance_started:
        problems.append("the migration did not complete")
    if result.bytes_moved <= 0:
        problems.append("the migration moved no bytes")
    if txns <= 0:
        problems.append("no transaction completed")
    return Outcome(simulated, counters, txns + failed, failed, txns,
                   _fingerprint(probe) + [txns, result.bytes_moved], problems)


def _read_scaling_outcome(result, probe) -> Outcome:
    engine = probe.first("engine")
    tier = probe.first("tier")
    replication = probe.first("replication")
    latency = LatencyHistogram(name="all")
    reads = LatencyHistogram(name="reads")
    writes = LatencyHistogram(name="writes")
    for runtime in engine.runtimes.values():
        latency.merge(runtime.latency)
        reads.merge(runtime.read_latency)
        writes.merge(runtime.write_latency)
    admission = result.admission
    txns = result.completed
    attempted = admission["offered"]
    failed = attempted - txns
    duration = probe.first("env").now
    simulated = {
        "throughput_tps": (txns / duration, "1/s", txns),
        "resp_mean_ms": (latency.mean(), "ms", latency.count),
        "resp_p50_ms": (latency.p50, "ms", latency.count),
        "resp_p99_ms": (latency.p99, "ms", latency.count),
        "joules_per_txn": (result.energy_joules / txns, "J", txns),
        "failed_frac": (failed / attempted, "frac", attempted),
        "resp_p999_ms": (latency.p999, "ms", latency.count),
        "read_p99_ms": (reads.p99, "ms", reads.count),
        "write_p99_ms": (writes.p99, "ms", writes.count),
    }
    counters = _common_counters(probe, txns)
    bounces = sum(tier.bounces.values())
    serves = tier.replica_reads_total
    cache = tier.cache
    counters.update({
        "ha.records_shipped": replication.records_shipped,
        "ha.scrub_repaired": probe.first("scrub").repaired,
        "ha.promotions": len(probe.first("coordinator").promotions),
        "reads.replica_serves": serves,
        "reads.cache_hit_ratio": cache.hits / max(cache.lookups, 1),
        "reads.bounce_ratio": bounces / max(bounces + serves, 1),
        "reads.view_lag_max_s": tier.views.max_lag,
        "traffic.peak_queue_depth": admission["peak_queue_depth"],
        "traffic.peak_queue_wait_s": admission["peak_queue_wait"],
        "workload.retries_per_txn":
            sum(r.conflicts for r in engine.runtimes.values()) / txns,
    })
    problems = [f"read-scaling check failed: {v}" for v in result.violations]
    problems += [f"isolation anomaly: {a}" for a in result.anomalies]
    return Outcome(simulated, counters, attempted, failed, txns,
                   _fingerprint(probe) + [txns, result.offered], problems)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig6-quick", _fig6(quick_fig6_config), _fig6_outcome),
        Workload("fig6-100n", _fig6(lambda: scale_fig6_config(100, 10_000)),
                 _fig6_outcome),
        Workload("read-scaling", _read_scaling, _read_scaling_outcome),
    )
}
