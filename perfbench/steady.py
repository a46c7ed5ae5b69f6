#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, interleaved run by run.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--workloads session,transmit,hostile]
        [--runs 10] [--seconds S] [--first-seed 1] [--root-b DIR]

Pair i runs both sets at one seed, first-seed + i; which set goes first
alternates from pair to pair, so slow phases of a shared host fall on both
sets alike. Set A runs the benchmark of this
checkout. Set B runs the same one, or with --root-b the benchmark of another
checkout, which turns the check into an A/B comparison of two builds.

For every end-to-end metric of BENCHMARK.json the check prints, against the
metric's bound:

- each set's median and the gap between them in the metric's worse
  direction, as a share of set A's median;
- each set's interquartile range as a share of its median. With a seed per
  pair this mixes host noise with seed-to-seed differences in work;
- the host spread: the interquartile range of the pairs' ratios B/A as a
  share of their median. Both runs of a pair have the same seed, so this is
  host noise alone (of two runs, not one).

It exits 1 if any gap or host spread exceeds its bound, or any set's spread
does, except that of setup_s: a transmit or hostile set-up establishes a
different channel for each seed, and Algorithm 1's work differs several-fold
between channels, so that spread measures the seeds, not the host.
setup_s's host spread and gap are still checked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds):
    """One untraced run in `root`; returns its result object."""
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} in {root} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed} in {root}: {lines[-1]}")
    return result


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def host_spread(a, b):
    """Spread of the same-seed pair ratios; 0 if every pair agrees exactly."""
    ratios = [y / x if x else 1.0 for x, y in zip(a, b)]
    return spread(ratios)


def gap(a, b, better):
    """How much worse set B's median is than set A's, as a share of A's."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse = mb - ma if better == "lower" else ma - mb
    return worse / ma


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--root-b", default=ROOT, help="checkout whose benchmark forms set B")
    a = p.parse_args()
    if a.runs < 4:
        sys.exit("steady.py: --runs must be at least 4 for quartiles")
    roots = {"A": ROOT, "B": os.path.abspath(a.root_b)}

    failed = False
    for w in a.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(a.runs):
            seed = a.first_seed + i
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[s].append(run_once(roots[s], w, seed, a.seconds)["metrics"])
            print(f"steady.py: {w} pair {i + 1}/{a.runs} done", file=sys.stderr)
        print(f"\n{w}: {a.runs} interleaved pairs, {a.seconds} s per run")
        print(f"  {'metric':<12} {'median A':>12} {'median B':>12} {'gap':>8} "
              f"{'IQR A':>7} {'IQR B':>7} {'host':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r[name]["value"] for r in sets["A"]]
            vb = [r[name]["value"] for r in sets["B"]]
            g, sa, sb, sh = gap(va, vb, m["better"]), spread(va), spread(vb), host_spread(va, vb)
            worst = sh if name == "setup_s" else max(sa, sb, sh)
            bad = g > bound or worst > bound
            verdict = "FAIL" if bad else ("ok" if worst < bound / 3 else "ok, spread above bound/3")
            failed |= bad
            print(f"  {name:<12} {statistics.median(va):>12.6g} {statistics.median(vb):>12.6g} "
                  f"{g:>+8.2%} {sa:>7.2%} {sb:>7.2%} {sh:>7.2%} {bound:>6.0%}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
