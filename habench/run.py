#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 habench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

`--trace 0` runs the timed binary and prints its end-to-end metrics.
`--trace 1` runs the timed binary once and then the traced binary on the
same seed, checks that both produced the same deterministic fingerprint
(events, elements, overhead, recovery times), and prints the per-layer
metrics plus `bench.trace_overhead_ratio`, the traced run's wall time over
the timed run's. The last line of stdout is the JSON result; the exit code
is nonzero if the build or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds both binaries (a no-op when up to date); returns their dir."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release")


def run(binary, args):
    """Runs a benchmark binary; returns (exit code, fingerprint, run_s, result)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    if not lines or "fingerprint" not in fields:
        sys.exit(f"run.py: {os.path.basename(binary)} printed no result")
    return (proc.returncode, json.loads(fields["fingerprint"]),
            float(fields["run_s"]), json.loads(lines[-1]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    bins = build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    if a.trace == 0:
        code, _, _, result = run(os.path.join(bins, "habench"),
                                 common + ["--seconds", str(a.seconds)])
        print(json.dumps(result))
        return code

    timed_code, timed_fp, timed_s, _ = run(os.path.join(bins, "habench"),
                                           common + ["--reps", "1"])
    code, traced_fp, traced_s, result = run(
        os.path.join(bins, "habench-traced"), common + ["--seconds", str(a.seconds)])
    agree = timed_fp == traced_fp
    if not agree:
        print(f"run.py: timed {timed_fp} and traced {traced_fp} runs disagree",
              file=sys.stderr)
    result["correct"] = result["correct"] and timed_code == 0 and agree
    result["metrics"]["bench.trace_overhead_ratio"] = {
        "value": traced_s / timed_s, "unit": "ratio"}
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
