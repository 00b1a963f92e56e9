#!/usr/bin/env python3
"""Runs one benchmark workload for about --seconds and prints its metrics.

    python3 perfbench/run.py --workload geo12 --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds `perfbench/` (a cargo
package of its own) in release mode. The seed and the time then fix a set
of simulated worlds, each with a seed of its own, and the script starts
one process per run of one world:

* `--trace 0`: every world untraced, for the host-time figures and the
  latency percentiles; world 0 also traced, for the simulated counts that
  need the probes;
* `--trace 1`: every world untraced and then traced, for the per-layer
  metrics and the tracing overhead.

Every run is checked: the safety checker (and replica lockstep on
`repl12-hunt`) must pass, and a traced run must reproduce the untraced
run of its world exactly. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; the
line before it records the host and every run. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("geo12", "wide128", "repl12-hunt")
DEFAULT_SEED = 1
# Used only to confirm a claimed gain, never while tuning a change.
HELD_OUT_SEED = 7919
# CPU seconds `host::calibrate` takes on the 2-core Xeon the numbers in
# README.md come from, when no other tenant slows it. Host times are
# scaled by this over the calibration measured around each run.
CALIBRATION_REF_S = 0.15
# The same for `host::calibrate_setup`, which scales each set-up.
SETUP_CALIBRATION_REF_S = 0.013
# Host seconds of one untraced and one traced run on that host; they
# size how many worlds fit into --seconds. The count depends on nothing
# measured, so a seed and a time always give the same inputs.
RUN_COST_S = {"geo12": (6.0, 6.0), "wide128": (6.0, 5.5), "repl12-hunt": (4.2, 4.5)}
# A single run may not take longer than this.
RUN_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "host_s_per_sim_s": "s/s",
    "txns_per_host_s": "1/s",
    "peak_rss_mb": "MB",
    "txn_per_sim_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "bytes_per_txn": "B",
}

TIMED_LAYERS = (
    "core.client", "core.msg", "core.ack", "core.notif", "core.advert",
    "smr.paxos", "smr.group_msg", "smr.ble", "smr.tick", "smr.snapshot",
    "smr.client", "harness.client",
)


def _per_layer_units():
    units = {
        "sim.self_s": "s",
        "sim.ns_per_event": "ns",
        "sim.events": "count",
        "sim.peak_queue_depth": "count",
        "sim.dropped": "count",
    }
    for layer in TIMED_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".busy_s"] = "s"
        units[layer + ".us_per_call"] = "us"
    units.update({
        "core.delta_entries": "count",
        "core.dup_ratio": "ratio",
        "core.suppressed_entries": "count",
        "core.ns_per_delta_entry": "ns",
        "chaos.actions": "count",
        "harness.check_s": "s",
        "harness.max_stall_ms": "ms",
        "wire.size_calls": "count",
        "wire.msgs_per_txn": "count",
        "wire.size_s": "s",
        "wire.ns_per_size": "ns",
        "overlay.order_s": "s",
        "harness.build_s": "s",
        "trace.overhead_s": "s",
        "trace.residual_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()

# Simulated counts a traced run must reproduce from its untraced run.
DETERMINISTIC = ("issued", "completed", "events", "lat_samples", "lat_p999_ms")
DETERMINISTIC_E2E = ("lat_p50_ms", "lat_p99_ms")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "flexcast-perfbench")


def world_seed(seed, world):
    """The seed of world `world` of a run (splitmix64 of both)."""
    z = (seed * 0x9E3779B97F4A7C15 + world + 1) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def plan(trace, seconds, workload):
    """The (world, traced) runs that fill `seconds`, in order."""
    untraced_s, traced_s = RUN_COST_S[workload]
    if trace == 0:
        worlds = max(1, int((seconds - traced_s) // untraced_s))
        return [(w, False) for w in range(worlds)] + [(0, True)]
    worlds = max(1, int(seconds // (untraced_s + traced_s)))
    return [(w, traced) for w in range(worlds) for traced in (False, True)]


def one_run(binary, workload, seed, traced):
    args = [binary, workload, str(seed), "traced" if traced else "untraced"]
    try:
        proc = subprocess.run(args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gates(runs):
    """Every correctness gate; returns the failures as text."""
    errors = []
    untraced = {r["seed"]: r for r in runs if not r["traced"]}
    for i, r in enumerate(runs):
        kind = "traced" if r["traced"] else "untraced"
        if not r["check_ok"]:
            errors.append(f"run {i} ({kind}): safety checker failed")
        if not r["lockstep_ok"]:
            errors.append(f"run {i} ({kind}): replica lockstep failed")
        if r["lat_samples"] < 1000:
            errors.append(f"run {i}: {r['lat_samples']} latency samples cannot support a p99")
        if not r["traced"]:
            continue
        ref = untraced[r["seed"]]
        for key in DETERMINISTIC:
            if r[key] != ref[key]:
                errors.append(f"run {i} (traced): {key} {r[key]} != {ref[key]} untraced")
        for key in DETERMINISTIC_E2E:
            if r["end_to_end"][key] != ref["end_to_end"][key]:
                errors.append(f"run {i} (traced): {key} differs from the untraced run")
    return errors


def speed(r):
    """The factor that scales a run's host times to the reference speed."""
    return CALIBRATION_REF_S / mean(r["calibration_s"])


def setup_samples(r):
    """A run's set-up times, each scaled by the calibration next to it."""
    return [(order + build) * SETUP_CALIBRATION_REF_S / cal
            for order, build, cal in zip(r["order_s"], r["build_s"], r["setup_calibration_s"])]


def metrics(trace, runs):
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    out = {}
    if trace == 0:
        values = {
            "setup_s": median([s for r in untraced for s in setup_samples(r)]),
            "host_s_per_sim_s": median([r["cpu_s"] * speed(r) / r["sim_s"] for r in untraced]),
            "txns_per_host_s": median([r["completed"] / (r["cpu_s"] * speed(r)) for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        for key in ("lat_p50_ms", "lat_p99_ms"):
            values[key] = median([r["end_to_end"][key] for r in untraced])
        for key in ("txn_per_sim_s", "bytes_per_txn"):
            values[key] = traced[0]["end_to_end"][key]
        for name, unit in END_TO_END.items():
            out[name] = {"value": values[name], "unit": unit}
    else:
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = (median([r["run_s"] for r in traced])
                         - median([r["run_s"] for r in untraced]))
            else:
                value = median([r["per_layer"][name] for r in traced])
            out[name] = {"value": value, "unit": unit}
    return out


def command_output(args):
    try:
        proc = subprocess.run(args, capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def host_block(runs):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "profile": "release",
        "flex_shards_env": os.environ.get("FLEX_SHARDS"),
        "shards": runs[0]["shards"],
        "resolved_shards": runs[0]["resolved_shards"],
    }


def run_summary(r):
    keep = ("seed", "traced", "run_s", "cpu_s", "calibration_s", "issued", "completed", "events",
            "lat_samples", "lat_p999_ms", "peak_rss_mb", "check_ok", "lockstep_ok")
    return {k: r[k] for k in keep}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    binary = build()
    runs = [one_run(binary, args.workload, world_seed(args.seed, w), traced)
            for w, traced in plan(args.trace, args.seconds, args.workload)]
    errors = gates(runs)
    attempted = sum(r["issued"] for r in runs)
    failed = sum(r["issued"] - r["completed"] for r in runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "host": host_block(runs),
        "runs": [run_summary(r) for r in runs],
        "errors": errors,
    }
    print(json.dumps(detail))
    if errors:
        # A run that fails a gate is never reported as a number.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        sys.exit(1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics(args.trace, runs)}))


if __name__ == "__main__":
    main()
