#!/usr/bin/env python3
"""Runs every workload once untraced and once traced at one seed, prints
every metric by name and unit, and records the per-layer split in
perfbench/layers.json.

    python3 perfbench/layers.py [--seed N] [--seconds S]

Run from the repository root. Each layer's self time is reported with its
share of the workload's op wall time, and each "shows on / ~0 on"
prediction of the workload design is checked against the split.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["cases-cpu", "stream-gpu", "service-cpu"]
HERE = os.path.dirname(os.path.abspath(__file__))

# Self times that partition an op's wall time on the op's own thread.
SELF_LAYERS = [
    "workloads.verify_s",
    "baselines.sweep_s",
    "core.register_s",
    "core.self_s",
    "device.cpu.functional_s",
    "device.cpu.self_s",
    "device.gpu.functional_s",
    "device.gpu.self_s",
    "core.service.submit_s",
    "core.service.wait_s",
]
# Service lanes run on shard threads: their device time is a split of
# core.service.wait_s, not a further part of the op thread's time.
WAIT_SPLITS = [
    "core.service.lane_device_s",
    "device.cpu.functional_s",
    "device.cpu.self_s",
    "core.service.overhead_s",
]

# (layer metrics, workloads where they should show, where they should be ~0)
PREDICTIONS = [
    (["baselines.sweep_s", "baselines.pure_runs"], ["cases-cpu"], ["stream-gpu", "service-cpu"]),
    (["device.cpu.busy_s", "device.cpu.launches"], ["cases-cpu", "service-cpu"], ["stream-gpu"]),
    (["device.gpu.busy_s", "device.gpu.launches"], ["stream-gpu"], ["cases-cpu", "service-cpu"]),
    (
        ["core.service.wait_s", "core.service.submit_s", "core.service.lanes"],
        ["service-cpu"],
        ["cases-cpu", "stream-gpu"],
    ),
    (["core.journal.bytes", "core.service.recover_s"], ["service-cpu"], ["cases-cpu", "stream-gpu"]),
    (["core.pool.reuses", "core.warm_skips"], ["stream-gpu"], ["cases-cpu"]),
]


# (numerator, denominator, workload, predicted range of the ratio, source)
RATIO_PREDICTIONS = [
    ("core.self_s", "core.launch_s", "stream-gpu", (0.17, 0.20),
     "runtime self time ~17-20% of launch wall on small GPU inputs"),
    ("core.self_s", "core.launch_s", "cases-cpu", (0.03, 0.05),
     "runtime self time ~3-5% of launch wall on CPU cases"),
    ("device.cpu.busy_s", "core.launch_s", "cases-cpu", (0.90, 1.0),
     "device calls ~95% of Runtime::launch wall on CPU cases"),
    ("device.cpu.functional_s", "device.cpu.busy_s", "cases-cpu", (0.30, 0.65),
     "kernel run_group time 30-65% of device time"),
]


def run(workload, seed, seconds, trace):
    cmd = [
        "cargo", "run", "--release", "--quiet", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, "predictions": []}
    layers = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            result = run(w, args.seed, args.seconds, trace)
            print(f"{w} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers[w] = metrics
        wall = metrics["trace.op_wall_s"]
        share = lambda k: round(metrics[k] / wall, 4) if wall else 0.0
        splits = WAIT_SPLITS if metrics["core.service.wait_s"] else []
        parts = [k for k in SELF_LAYERS if k not in splits and metrics[k]]
        record["workloads"][w] = {
            "op_wall_s_per_pass": wall,
            "coverage": round(metrics["trace.coverage"], 4),
            "trace_overhead": round(metrics["trace.overhead"], 4),
            "self_s_per_pass": {k: metrics[k] for k in parts + splits},
            "share_of_op_wall": {k: share(k) for k in parts},
            "share_of_op_wall_within_wait": {k: share(k) for k in splits},
        }
    for names, shows, zero in PREDICTIONS:
        shown = all(layers[w][n] > 0 for w in shows for n in names)
        absent = all(layers[w][n] == 0 for w in zero for n in names)
        record["predictions"].append(
            {"metrics": names, "shows_on": shows, "zero_on": zero, "held": shown and absent}
        )
    for num, den, w, (lo, hi), claim in RATIO_PREDICTIONS:
        ratio = layers[w][num] / layers[w][den] if layers[w][den] else 0.0
        record["predictions"].append({
            "claim": claim, "workload": w, "ratio": f"{num} / {den}",
            "measured": round(ratio, 4), "held": lo <= ratio <= hi,
        })
    with open(os.path.join(HERE, "layers.json"), "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print("predictions held:", all(p["held"] for p in record["predictions"]))


if __name__ == "__main__":
    sys.exit(main())
