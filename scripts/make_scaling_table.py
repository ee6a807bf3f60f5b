#!/usr/bin/env python3
"""Measure the staircase path-cover family and write docs/scaling.md.

For each size parameter i the instance forces the greedy cover to spend
i paths while two paths suffice, so the table records how the gap and
the wall-clock costs grow with the instance size.
"""

import argparse
import os
import time

from gkcover import MismatchError, gen_gc, greedy_weighted_chain_cover, minimum_path_cover

HEADER = """# Staircase path-cover scaling

Measured on the staircase family `gen gc --i N`: instance `i` has
`2^(i+1) - i - 2` vertices, the greedy cover picks one path per round
until nothing is uncovered, and an exact minimum cover needs just two
paths (one for `i = 1`). Wall-clock numbers are from a single run on
this machine and will vary; the structural columns are deterministic.

The flow reduction checks its own iteration bound on every run and
raises MismatchError if the number of augmenting pushes exceeds the
total flow decrease; here `searches = pushes + 1` (the final search
proves minimality).

| i | vertices | edges | greedy paths | greedy ms | exact cover | exact ms | searches | pushes |
|---|----------|-------|--------------|-----------|-------------|----------|----------|--------|
"""


def measure(i: int) -> str:
    inst = gen_gc(i)
    dag = inst.dag

    t0 = time.perf_counter()
    _, _, trace = greedy_weighted_chain_cover(dag, 0)
    greedy_ms = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    mpc, mf = minimum_path_cover(dag)
    exact_ms = (time.perf_counter() - t0) * 1000

    # raised, not asserted, so that python -O cannot publish a wrong row
    if len(trace.rounds) != i:
        raise MismatchError(f"gc {i}: greedy took {len(trace.rounds)} paths, not {i}")
    if mpc != inst.expected.optimal:
        raise MismatchError(
            f"gc {i}: minimum path cover {mpc}, expected {inst.expected.optimal}")
    return (f"| {i} | {dag.n} | {len(dag.edges)} | {len(trace.rounds)} "
            f"| {greedy_ms:.1f} | {mpc} | {exact_ms:.1f} "
            f"| {mf.searches} | {mf.pushes} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "docs", "scaling.md")
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--max-i", type=int, default=12)
    args = parser.parse_args()

    rows = [measure(i) for i in range(1, args.max_i + 1)]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(HEADER + "\n".join(rows) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
