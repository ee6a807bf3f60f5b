"""Tests of the benchmark itself: its inputs, its checks and its tracing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gkcover  # noqa: E402
from gkcover import adversarial, cli, dagcore, flowcore, oracle  # noqa: E402

API = types.SimpleNamespace(cli=cli, dagcore=dagcore, oracle=oracle)


def _plan(workload: str, seed: int, tmp_path: Path) -> workloads.Plan:
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return workloads.WORKLOADS[workload](seed, str(workdir))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(workload, tmp_path):
    a, b, c = (_plan(workload, s, tmp_path) for s in (3, 3, 4))
    assert a.inputs == b.inputs
    assert [r.label for r in a.requests] == [r.label for r in b.requests]
    assert a.inputs != c.inputs


def test_family_generators_match_gkcover():
    for i in (3, 8, 11):
        assert workloads.staircase_edges(i) == (
            adversarial.gen_gc(i).dag.n, list(adversarial.gen_gc(i).dag.edges))
    for i in (2, 4, 5):
        assert workloads.tier_edges(i) == (
            adversarial.gen_ga(i).dag.n, list(adversarial.gen_ga(i).dag.edges))


def _fake_api(main) -> types.SimpleNamespace:
    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main), dagcore=dagcore, oracle=oracle)


def test_forced_wrong_value_and_exit_code_fail(tmp_path):
    plan = _plan("exact-random", 1, tmp_path)
    for req in plan.warmup:
        _, resp, failure = run.execute(req, API, {})
        assert failure is None
        report = json.loads(resp[1])

        def wrong_value(argv, report=report):
            print(json.dumps({**report, "value": report["value"] + 1}))
            return 0

        def bad_exit(argv, out=resp[1]):
            print(out, end="")
            return 2

        def raises(argv):
            raise flowcore.InvalidCycleError("forced")

        for main in (wrong_value, bad_exit, raises):
            assert run.execute(req, _fake_api(main), {})[2] is not None


def test_wrong_verify_report_fails(tmp_path):
    req = _plan("verify-small", 1, tmp_path).requests[0]
    _, resp, failure = run.execute(req, API, {})
    assert failure is None
    bad = types.SimpleNamespace(**{**vars(resp[1]), "alpha_solver": resp[1].alpha_solver + 1})
    with pytest.raises(workloads.CheckFailed):
        req.check((0, bad), {})


def test_traced_and_untraced_passes_agree(tmp_path):
    requests = (_plan("exact-random", 2, tmp_path).warmup
                + _plan("greedy-staircase", 2, tmp_path).warmup
                + _plan("verify-small", 2, tmp_path).requests[:20])
    original = flowcore.residual
    passes = []
    for _ in range(2):
        recorder = tracing.Recorder(keep_spans=True)
        with tracing.patched(recorder):
            assert gkcover.networks.residual is not original
            traced = run.replay(requests, API, recorder)
        passes.append(tracing.layer_metrics(recorder, list(tracing.traced_functions())))
        plain = run.replay(requests, API)
        assert traced[2] == plain[2] == []
        assert traced[1] == plain[1] and traced[3] == plain[3]
    assert flowcore.residual is original and gkcover.networks.residual is original
    counts = [{k: v for k, v in p.items() if tracing.is_count(k)} for p in passes]
    assert counts[0] == counts[1]
    assert counts[0]["flowcore.find_negative_cycle.calls"] > 0
    # verify_gk solves outside the CLI, so its cancels come on top
    assert counts[0]["flowcore.min_cost_circulation.cancels"] > traced[3]["cli.cycle_cancels"]
    assert recorder.spans and all(end >= start for *_, start, end in recorder.spans)


def _bench(*args: str, cwd: Path = ROOT, python: tuple = (sys.executable,)):
    return subprocess.run([*python, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "verify-small", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_refuses_optimized_python():
    proc = _bench("--workload", "verify-small", "--seed", "1", "--seconds", "1",
                  python=(sys.executable, "-O"))
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="oracle.brute_beta recurses once per skipped chain")
def test_verify_gk_on_ten_vertex_chain():
    """Why verify-small stops at n = 9: a 10-vertex path has 1023 chains."""
    oracle.verify_gk(dagcore.build_dag(10, [(v, v + 1) for v in range(9)]), 3)
