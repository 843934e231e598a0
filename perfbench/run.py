"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig6-quick --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``): one full pass of the workload, then set-up-only
passes (at least three set-ups in all covering two seconds, more until
``--seconds`` have passed) so ``setup_s`` is a median.  ``wall_s`` and
``setup_s`` are calibrated for the host's speed (``calibrate.py``).
Prints every end-to-end metric with its unit and sample count, the host
fingerprint, and as the last line one JSON object with the end-to-end
metrics.

Traced (``--trace 1``): one pass under cProfile, split into set-up and
timed phase, reporting self time and calls per layer plus the layer
counters, and the profiler's overhead against an untraced pass.

Every run checks the program's outputs and exits 1 if a check fails.
The simulated fingerprint (events, commits, energy) of each seed is
kept in ``perfbench/.cache`` per source tree; a later pass of the same
seed and tree, traced or not, must reproduce it exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
#: ``setup_s`` is a median of at least this many set-ups, covering at
#: least ``MIN_SETUP_SECONDS``: read-scaling sets up in 0.2 s, so one
#: sample alone is mostly noise.
MIN_SETUP_PASSES = 3
MIN_SETUP_SECONDS = 2.0


def load_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def host_fingerprint() -> dict[str, str]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": str(os.cpu_count()), "cpu": cpu}


def tree_hash() -> str:
    """Digest of the simulator's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RunCache:
    """Fingerprints and untraced wall times of earlier runs of this tree."""

    def __init__(self):
        self.path = CACHE / f"{tree_hash()}.json"
        self.data = load_json(self.path) if self.path.exists() else {
            "fingerprints": {}, "wall_s": {}}

    def check(self, workload: str, seed: int, fingerprint: list) -> str | None:
        key = f"{workload}/{seed}"
        known = self.data["fingerprints"].setdefault(key, fingerprint)
        if known != fingerprint:
            return (f"simulated fingerprint {fingerprint} differs from an "
                    f"earlier run of the same seed and tree: {known}")
        return None

    def untraced_wall(self, workload: str) -> list[float]:
        return self.data["wall_s"].setdefault(workload, [])

    def save(self) -> None:
        CACHE.mkdir(exist_ok=True)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(self.data))
        os.replace(scratch, self.path)


def untraced(workload, args, cache: RunCache):
    from calibrate import SpeedSampler
    from probe import full_pass, setup_pass

    sampler = SpeedSampler()
    began = time.perf_counter()
    with sampler.running():
        probe, outcome = full_pass(workload, args.seed)
        peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024)
        setups = [probe]
        while (len(setups) < MIN_SETUP_PASSES
               or sum(p.setup_s for p in setups) < MIN_SETUP_SECONDS
               or time.perf_counter() - began < args.seconds):
            setups.append(setup_pass(workload, args.seed))
    cache.untraced_wall(workload.name).append(probe.wall_s)
    setup_s = statistics.median(
        sampler.calibrated(p.started, p.timed_from) for p in setups)
    host = {
        "wall_s": (sampler.calibrated(probe.timed_from, probe.ended), "s", 1),
        "setup_s": (setup_s, "s", len(setups)),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
        "wall_raw_s": (probe.wall_s, "s", 1),
        "setup_raw_s": (statistics.median(p.setup_s for p in setups), "s",
                        len(setups)),
    }
    return outcome, {**host, **outcome.simulated}


def traced(workload, args, cache: RunCache):
    import layers
    from probe import full_pass, profiled_pass

    walls = cache.untraced_wall(workload.name)
    problems = []
    if not walls:
        baseline_probe, baseline = full_pass(workload, args.seed)
        problems += baseline.problems
        walls.append(baseline_probe.wall_s)
    probe, result, setup_stats, timed = profiled_pass(workload.run, args.seed)
    outcome = workload.outcome(result, probe)
    outcome.problems = problems + outcome.problems
    untraced_wall = statistics.median(walls)
    timed_self, timed_calls = layers.attribute(timed)
    setup_self, _calls = layers.attribute(setup_stats)
    per = 1.0 / max(outcome.txns, 1)
    metrics = dict(outcome.counters)
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = timed_self[layer]
        metrics[f"setup.{layer}.self_s"] = setup_self[layer]
        metrics[f"{layer}.calls_per_txn"] = timed_calls[layer] * per
    for name, (suffix, function) in layers.CALL_COUNTS.items():
        metrics[name] = layers.call_count(timed, suffix, function) * per
    events = probe.first("env").events_processed
    metrics["sim.events_per_wall_s"] = events / untraced_wall
    metrics["trace.overhead"] = probe.wall_s / untraced_wall
    return outcome, metrics


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':34} {'value':>16} {'unit':8} {'samples':>8}")
    for name, value, unit, samples in rows:
        shown = "" if samples is None else samples
        print(f"  {name:34} {value:16.6g} {unit:8} {shown!s:>8}")


def main(argv: list[str] | None = None) -> int:
    spec = load_json(HERE / "spec.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    bench = load_json(ROOT / "BENCHMARK.json")
    workload = WORKLOADS[args.workload]
    cache = RunCache()
    run = traced if args.trace else untraced
    outcome, measured = run(workload, args, cache)
    problem = cache.check(workload.name, args.seed, outcome.fingerprint)
    if problem:
        outcome.problems.append(problem)
    cache.save()

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("host: " + " | ".join(f"{k} {v}"
                                for k, v in host_fingerprint().items()))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values = measured
        print_table("per layer (timed phase unless setup.*)",
                    [(n, values[n], units[n], None) for n in names])
    else:
        values = {n: measured[n][0] for n in names}
        print_table("end to end (gated)", [(n, *measured[n]) for n in names])
        print_table("end to end (reported, not gated)",
                    [(n, *v) for n, v in measured.items() if n not in units])
    print(f"attempted {outcome.attempted} failed {outcome.failed} "
          f"fingerprint {outcome.fingerprint}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
