#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --bless

A single-workload run prints the benchmark binary's output: a table on
stderr and, as the last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in turn and prints one table of all their metrics. `--bless`
regenerates `fingerprints.txt` after a deliberate change of simulated
behaviour. The build goes to `$CARGO_TARGET_DIR`, by default `.bench_build`
in the current directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
FINGERPRINTS = os.path.join(HERE, "fingerprints.txt")
WORKLOADS = ["session", "transmit", "hostile"]
# A run measures for --seconds; this bounds set-up, checks and the exit.
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"no simulator sources next to {HERE}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo reports on stderr; keep stdout for the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed", done.returncode)
    return os.path.join(target, "release", "perfbench")


def run(binary, args, capture=False):
    """Runs the benchmark binary to completion, killing it on timeout."""
    try:
        return subprocess.run(
            [binary, *args],
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped", 1)


def run_all(binary, args):
    """Runs every workload and prints one table of all their metrics."""
    results = {}
    for w in WORKLOADS:
        done = run(binary, ["--workload", w, *args], capture=True)
        lines = done.stdout.strip().splitlines()
        results[w] = (done.returncode, json.loads(lines[-1]) if lines else None)
    print(f"{'workload':<10} {'metric':<28} {'value':>16}  unit")
    status = 0
    for w, (code, res) in results.items():
        if res is None:
            print(f"{w:<10} no result (exit {code})")
            status = 1
            continue
        print(
            f"{w:<10} {'attempted / failed':<28} {res['attempted']:>9} / {res['failed']:<4}"
            f"  correct={str(res['correct']).lower()}"
        )
        for name, m in res["metrics"].items():
            print(f"{w:<10} {name:<28} {m['value']:>16.6f}  {m['unit']}")
        if code != 0 or not res["correct"]:
            status = 1
    return status


def bless(binary):
    """Regenerates fingerprints.txt, one process per workload."""
    procs = [
        subprocess.Popen(
            [binary, "--bless", "--workload", w],
            stdout=subprocess.PIPE,
            text=True,
        )
        for w in WORKLOADS
    ]
    outputs = [p.communicate()[0] for p in procs]
    if any(p.returncode != 0 for p in procs):
        fail("blessing failed", 1)
    with open(FINGERPRINTS, "w") as f:
        f.write(
            "# Committed simulation fingerprints: workload seed ops fnv64.\n"
            "# Each hashes one pass's decoded bits, eviction sets, final core\n"
            "# clocks and MEE statistics. Regenerate only after a deliberate\n"
            "# change of simulated behaviour: python3 perfbench/run.py --bless\n"
        )
        for out in outputs:
            f.write(out)
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--bless", action="store_true")
    a = p.parse_args()
    if a.bless:
        bless(build())
        return
    if a.workload is None or a.seed is None or a.seconds is None:
        fail("--workload, --seed and --seconds are required")
    binary = build()
    args = [
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
    ]
    if a.workload == "all":
        sys.exit(run_all(binary, args))
    sys.exit(run(binary, ["--workload", a.workload, *args]).returncode)


if __name__ == "__main__":
    main()
