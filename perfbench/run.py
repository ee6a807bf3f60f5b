#!/usr/bin/env python3
"""Closed-loop benchmark of gkcover: one client, one process, one thread.

    python3 perfbench/run.py --workload exact-random --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; gkcover is imported from `src/`.
Set-up imports gkcover, writes the workload's inputs for the seed and
warms up; it is repeated SETUP_REPS times and `setup_s` is the median.
The client then sends the next request as soon as the previous one has
returned and been checked, until `--seconds` have passed, at least
MIN_REQUESTS requests were made, so that ten samples lie beyond p90, and
the schedule stands at a whole number of strides, so that every run
holds the same mix of requests.
Request time covers only the call into gkcover, not the check. The
end-to-end times are reported at a nominal machine speed, calibrated by
a reference loop timed throughout the run (see REFERENCE_NOMINAL_S); the
measured times are printed next to them and kept in the result record.

`--trace 0` prints the end-to-end metrics. `--trace 1` instead replays
the first requests of the schedule in passes, alternately traced and
untraced, and prints the per-layer metrics of the traced passes: counts
from the first pass (they must repeat exactly in every pass), times as
the median over passes, and the tracing overhead against the untraced
passes, whose responses must be identical.

The last line of standard output is the JSON result. Spans and a full
result record, with the environment, are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import tracing, workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_REQUESTS = 100
HARD_STOP_S = 150.0

# On a shared 2-vCPU Xeon virtual machine the time of a fixed Python loop
# stepped by 30% and more within a minute, in wall and CPU time alike, so
# no run length averages it out. Every end-to-end time is therefore
# reported at a nominal speed: a reference loop of plain Python that
# shares no code with gkcover is timed after each CALIBRATE_EVERY_S of
# measured time, and each measured time is multiplied by
# REFERENCE_NOMINAL_S over the median of the REFERENCE_WINDOW reference
# times measured nearest around it.
REFERENCE_NOMINAL_S = 0.0015
CALIBRATE_EVERY_S = 0.05
REFERENCE_WINDOW = 5
_REFERENCE_ARCS = [(i % 300, (i * 7 + 3) % 300, (i * 13) % 11 - 5) for i in range(1500)]


def reference_s() -> float:
    """Time one pass of the reference loop: relaxation over a fixed arc list."""
    start = time.perf_counter()
    dist = [0] * 300
    pred = {}
    for _ in range(10):
        for u, v, cost in _REFERENCE_ARCS:
            d = dist[u] + cost
            if -50 < d < dist[v]:
                dist[v] = d
                pred[v] = u
    return time.perf_counter() - start


class NominalClock:
    """Records measured times and the reference times around them."""

    def __init__(self):
        self.references = [reference_s() for _ in range(REFERENCE_WINDOW)]
        self.measured: list[tuple[float, int]] = []
        self.due = CALIBRATE_EVERY_S

    def record(self, seconds: float) -> None:
        self.measured.append((seconds, len(self.references)))
        self.due -= seconds
        if self.due <= 0:
            self.references.append(reference_s())
            self.due = CALIBRATE_EVERY_S

    def nominal(self) -> list[float]:
        """Every recorded time at nominal speed, scaled by the median of
        the REFERENCE_WINDOW reference times measured nearest around it."""
        out = []
        for seconds, mark in self.measured:
            lo = max(0, min(mark - REFERENCE_WINDOW // 2 - 1,
                            len(self.references) - REFERENCE_WINDOW))
            window = self.references[lo:lo + REFERENCE_WINDOW]
            out.append(seconds * REFERENCE_NOMINAL_S / statistics.median(window))
        return out


END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def import_gkcover() -> types.SimpleNamespace:
    """Import gkcover afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "gkcover" or m.startswith("gkcover.")]:
        del sys.modules[name]
    importlib.import_module("gkcover")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"gkcover.{name}") for name in ("cli", "dagcore", "oracle")})


def execute(req, api, seen: dict) -> tuple[float, object, str | None]:
    """Time one request and check its response: (seconds, response, failure)."""
    start = time.perf_counter()
    try:
        resp = workloads.call(req, api)
    except SystemExit as exc:
        return time.perf_counter() - start, None, f"{req.label}: exited with {exc.code}"
    except Exception as exc:  # a request boundary: count the failure and go on
        return time.perf_counter() - start, None, f"{req.label}: raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        req.check(resp, seen)
    except (workloads.CheckFailed, KeyError, ValueError, TypeError, AttributeError) as exc:
        return elapsed, resp, f"{req.label}: {type(exc).__name__}: {exc}"
    return elapsed, resp, None


def set_up(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    api = import_gkcover()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.WORKLOADS[workload](seed, str(workdir))
    seen: dict = {}
    for req in plan.warmup:
        failure = execute(req, api, seen)[2]
        if failure:
            raise RuntimeError(f"warm-up failed: {failure}")
    return api, plan, time.perf_counter() - start


def closed_loop(plan, api, seconds: float, clock: NominalClock) -> tuple[list[float], list[str]]:
    seen: dict = {}
    latencies: list[float] = []
    failures: list[str] = []
    gc.collect()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(latencies) >= MIN_REQUESTS
                                      and len(latencies) % plan.stride == 0):
            break
        req = plan.requests[len(latencies) % len(plan.requests)]
        dt, _, failure = execute(req, api, seen)
        latencies.append(dt)
        clock.record(dt)
        if failure:
            failures.append(failure)
    return latencies, failures


def end_to_end(latencies: list[float], setup_times: list[float]) -> dict[str, float]:
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "request_ms_p50": 1000 * statistics.median(latencies),
        "request_ms_p90": 1000 * statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def replay(requests, api, recorder=None) -> tuple[float, list, list[str], dict[str, int]]:
    """One pass over `requests`: busy seconds, response fingerprints,
    failures, and the counters the CLI reports in its JSON."""
    seen: dict = {}
    busy = 0.0
    prints, failures = [], []
    counts = {"cli.cycle_cancels": 0, "cli.decrementing_searches": 0}
    for rid, req in enumerate(requests):
        if recorder is not None:
            recorder.request_id = rid
        dt, resp, failure = execute(req, api, seen)
        busy += dt
        if failure:
            failures.append(failure)
            prints.append(None)
            continue
        prints.append(workloads.fingerprint(resp))
        if isinstance(resp[1], str):
            iterations = json.loads(resp[1]).get("iterations", {})
            counts["cli.cycle_cancels"] += iterations.get("cycle_cancels", 0)
            counts["cli.decrementing_searches"] += iterations.get("decrementing_searches", 0)
    return busy, prints, failures, counts


def traced_run(plan, api, seconds: float, spans_path: Path,
               env: dict) -> tuple[dict, int, list[str], list[str]]:
    """Per-layer metrics, requests attempted, failed requests, and other
    check failures of a traced run."""
    requests = plan.requests[:plan.trace_pass]
    targets = list(tracing.traced_functions())
    per_pass: list[dict] = []
    traced_s, plain_s = [], []
    failures: list[str] = []
    problems: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        recorder = tracing.Recorder(keep_spans=not per_pass)
        with tracing.patched(recorder):
            busy, traced_prints, fails, counts = replay(requests, api, recorder)
        traced_s.append(busy)
        failures += fails
        if not per_pass:
            recorder.write_spans(str(spans_path))
            try:
                plan.trace_check(recorder.path_covers)
            except workloads.CheckFailed as exc:
                problems.append(f"trace check: {exc}")
        metrics = tracing.layer_metrics(recorder, targets)
        metrics.update(counts)
        per_pass.append(metrics)

        busy, plain_prints, fails, plain_counts = replay(requests, api)
        plain_s.append(busy)
        failures += fails
        attempted += 2 * len(requests)
        if plain_prints != traced_prints or plain_counts != counts:
            problems.append("traced and untraced passes returned different responses")
        if {k: v for k, v in metrics.items() if tracing.is_count(k)} != {
                k: v for k, v in per_pass[0].items() if tracing.is_count(k)}:
            problems.append("counts differ between traced passes")
        elapsed = time.perf_counter() - start
        if elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            break
    out = {}
    for key in per_pass[0]:
        if tracing.is_count(key):
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    env["trace_pass_requests"] = len(requests)
    env["trace_passes"] = len(per_pass)
    out["trace.traced_pass_ms"] = 1000 * statistics.median(traced_s)
    out["trace.untraced_pass_ms"] = 1000 * statistics.median(plain_s)
    out["trace.overhead_pct"] = 100 * (statistics.median(traced_s) / statistics.median(plain_s) - 1)
    return out, attempted, failures, problems


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gkcover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _git_commit(), "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: gkcover certifies its answers with assert; run without -O", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "gkcover" / "__init__.py").is_file():
        print(f"error: no gkcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"inputs-{tag}-{os.getpid()}"
    try:
        clock = NominalClock()
        setup_times = []
        for _ in range(SETUP_REPS):
            api, plan, took = set_up(args.workload, args.seed, workdir)
            setup_times.append(took)
            clock.record(took)
        problems: list[str] = []
        if args.trace:
            metrics, attempted, failures, problems = traced_run(
                plan, api, args.seconds, OUT_DIR / f"spans-{tag}.jsonl", env)
        else:
            latencies, failures = closed_loop(plan, api, args.seconds, clock)
            nominal = clock.nominal()
            metrics = end_to_end(nominal[SETUP_REPS:], nominal[:SETUP_REPS])
            raw = end_to_end(latencies, setup_times)
            attempted = len(latencies)
            env["samples_beyond_p90"] = sum(
                1 for x in nominal[SETUP_REPS:] if 1000 * x > metrics["request_ms_p90"])
            env["reference_ms_median"] = 1000 * statistics.median(clock.references)
            env["raw_metrics"] = raw
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures and not problems, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "environment": env, "failures": failures[:50], "problems": problems},
                  fh, indent=1)
    for failure in problems + failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(f"error_rate: {len(failures) / max(attempted, 1):.6f} ({len(failures)} of {attempted})")
    for name, value in metrics.items():
        measured = f" (measured {env['raw_metrics'][name]:.6g})" if "raw_metrics" in env else ""
        print(f"{name}: {value:.6g} {unit_of(name)}{measured}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
