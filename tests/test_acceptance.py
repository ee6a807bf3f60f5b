"""Acceptance gate: one test per shipped guarantee, one printed line each.

Two tests document known-unattainable guarantees and fail on purpose
(criteria 4 and 6): the recorded worst-case greedy traces for the
antichain families require tie-breaking that the minimum-flow extraction
rule provably never produces (it always returns whole sink-side layers),
and the stated odd-k optimal-coverage formula double-counts one block.
Their passing sub-assertions are split out so the honest failures stay
narrow. Everything else must pass.
"""

import os
import time

import pytest

from gkcover import (
    build_dag,
    gen_antichain_ratio,
    gen_chain_ratio,
    gen_ga,
    gen_gc,
    greedy_antichain_cover,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    knorm_collection,
    knorm_partition,
    minimum_path_cover,
    random_dag,
    run_verification_sweep,
    solve_alpha,
    solve_beta,
)

from conftest import FIG_EDGES

DOCS_TABLE = os.path.join(os.path.dirname(__file__), "..", "docs", "scaling.md")


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def test_criterion_1_golden_nine_vertex_instance():
    t0 = time.perf_counter()
    dag = build_dag(9, FIG_EDGES)
    res = solve_alpha(dag, 2)
    elapsed = time.perf_counter() - t0
    checks = {
        "ma value": res.ma.value == 8,
        "two disjoint antichains": len(res.ma.family) == 2 and res.ma.family.disjoint,
        "mps 2-norm": knorm_collection(res.mps.family.members, 9, 2) == 8,
        "mcp 2-norm": knorm_partition(res.mcp.family, 9, 2) == 8,
        "circulation cost": res.stats.final_cost == -1 == res.alpha - dag.n,
        "runtime < 1s": elapsed < 1.0,
    }
    ok = all(checks.values())
    report(1, ok, f"value 8, cost -1, {elapsed * 1000:.0f} ms")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_equality_sweep_200_instances():
    t0 = time.perf_counter()
    result = run_verification_sweep(8, 200, seed=7, k_max=3)
    elapsed = time.perf_counter() - t0
    ok = result.mismatches == [] and len(result.reports) == 600 and elapsed < 60
    report(2, ok, f"600 checks, {len(result.mismatches)} mismatches, {elapsed:.1f} s")
    assert result.mismatches == []
    assert len(result.reports) == 600
    assert elapsed < 60


def test_criterion_3_greedy_chain_tightness():
    table = {2: 12, 3: 19, 4: 24, 6: 36, 7: 43}
    failures = []
    for k, expected_greedy in table.items():
        inst = gen_chain_ratio(k)
        fam, _ = greedy_k_chains(inst.dag, k)
        beta = solve_beta(inst.dag, k).beta
        if fam.coverage() != expected_greedy or beta != inst.dag.n:
            failures.append((k, fam.coverage(), beta))
        if k % 2 == 0 and 4 * fam.coverage() != 3 * beta:
            failures.append((k, "even ratio"))
        if k % 2 == 1 and 4 * fam.coverage() > 3 * beta:
            failures.append((k, "odd ratio"))
    ok = not failures
    report(3, ok, "coverage/optimal = 12/16, 19/27, 24/32, 36/48, 43/59")
    assert ok, failures


def test_criterion_4_greedy_antichain_tightness_as_stated():
    failures = []
    for k in (2, 3, 4, 5):
        stated_greedy = 12 * (k // 2) + (19 if k % 2 else 0)
        stated_alpha = 16 * (k // 2) + (27 if k % 2 else 0)
        inst = gen_antichain_ratio(k)
        fam, _ = greedy_k_antichains(inst.dag, k)
        alpha = solve_alpha(inst.dag, k).alpha
        if alpha != stated_alpha:
            failures.append(f"k={k}: alpha {alpha} != stated {stated_alpha}")
        if fam.coverage() != stated_greedy:
            failures.append(
                f"k={k}: greedy coverage {fam.coverage()} != stated {stated_greedy}")
    ok = not failures
    report(4, ok, "; ".join(failures) if failures else "all values reproduced")
    assert ok, (
        "known divergence: the minimum-flow antichain extraction always "
        "returns whole sink-side layers, so greedy attains the optimum on "
        "these layered instances instead of the recorded worst-case trace, "
        "and the stated odd-k optimum double-counts one two-layer block "
        f"(actual coverage is 8k+3, not 8k+19): {failures}")


def test_criterion_4_alpha_confirmed_for_even_k():
    # the even-k half of the optimal-value claim holds and is pinned here
    for k in (2, 4):
        inst = gen_antichain_ratio(k)
        assert solve_alpha(inst.dag, k).alpha == 16 * (k // 2) == inst.dag.n


def test_criterion_5_log_path_lower_bound():
    failures = []
    notes = []
    for i in range(1, 9):
        inst = gen_gc(i)
        n = inst.dag.n
        _, _, trace = greedy_weighted_chain_cover(inst.dag, 0)
        if len(trace.rounds) != i:
            failures.append(f"i={i}: {len(trace.rounds)} paths")
        if trace.gains() != [2 ** (i - j + 1) - 1 for j in range(1, i + 1)]:
            failures.append(f"i={i}: gains {trace.gains()}")
        mpc, _ = minimum_path_cover(inst.dag)
        expected_mpc = 1 if i == 1 else 2
        if mpc != expected_mpc:
            failures.append(f"i={i}: mpc {mpc}")
        if i == 1:
            notes.append("i=1 is a single vertex, its cover size is 1")
        if i < n.bit_length() - 1:  # i >= floor(log2 n)
            failures.append(f"i={i}: log bound, n={n}")
    ok = not failures
    report(5, ok, "i paths, halving gains, cover size 2"
           + ("; " + "; ".join(notes) if notes else ""))
    assert ok, failures


def test_criterion_6_log_antichain_lower_bound_as_stated():
    failures = []
    for i in range(1, 9):
        inst = gen_ga(i)
        claimed = list(inst.layout["tiers"]) + [
            frozenset({inst.layout["x1"]}), frozenset({inst.layout["y1"]})]
        _, partition, _ = greedy_antichain_cover(inst.dag, 1)
        emitted = [frozenset(a.vertices) for a in partition.members]
        if emitted != claimed:
            failures.append(
                f"i={i}: emitted {len(emitted)} antichains, claimed {len(claimed)}")
    ok = not failures
    report(6, ok, "; ".join(failures) if failures else "claimed order reproduced")
    assert ok, (
        "known divergence: every minimum flow on these two-layer instances "
        "is a perfect matching, so the sink-side extraction returns the "
        "whole bottom layer and then the whole top layer (2 antichains), "
        f"never the recorded tier-by-tier trace: {failures}")


def test_criterion_6_optimal_partition_value_confirmed():
    # the other half of the claim: a two-antichain partition is optimal
    for i in range(1, 9):
        inst = gen_ga(i)
        assert solve_beta(inst.dag, 1).map.value == 2


def test_criterion_7_coverage_approximation_guarantee():
    violations = []
    for trial in range(200):
        dag = random_dag(8, trial, seed=7)
        for k in (1, 2, 3):
            factor_num = k ** k - (k - 1) ** k
            factor_den = k ** k
            chains, _ = greedy_k_chains(dag, k)
            beta = solve_beta(dag, k).beta
            if chains.coverage() * factor_den < factor_num * beta:
                violations.append(("chains", trial, k))
            antis, _ = greedy_k_antichains(dag, k)
            alpha = solve_alpha(dag, k).alpha
            if antis.coverage() * factor_den < factor_num * alpha:
                violations.append(("antichains", trial, k))
    ok = not violations
    report(7, ok, "greedy >= (1-(1-1/k)^k) * optimal on 600 instance-k pairs")
    assert ok, violations


def test_criterion_8_flow_machinery_contracts():
    solves = []
    dag = build_dag(9, FIG_EDGES)
    for k in (1, 2, 3):
        solves.append(solve_alpha(dag, k).stats)
        solves.append(solve_beta(dag, k).stats)
    for k in (2, 4):
        inst = gen_chain_ratio(k)
        solves.append(solve_beta(inst.dag, k).stats)
        inst = gen_antichain_ratio(k)
        solves.append(solve_alpha(inst.dag, k).stats)
    for trial in range(0, 40):
        rdag = random_dag(8, trial, seed=7)
        solves.append(solve_alpha(rdag, 2).stats)
        solves.append(solve_beta(rdag, 2).stats)
    # a solve that returns has passed the negative-cycle and decomposition
    # certificates, which raise MismatchError or ConservationError otherwise
    bound_failures = [
        (idx, st) for idx, st in enumerate(solves) if not st.iterations <= -st.final_cost
    ]
    round_failures = []
    for target in (dag, gen_antichain_ratio(2).dag, gen_ga(4).dag):
        _, trace = greedy_k_antichains(target, 3)
        for j, r in enumerate(trace.rounds):
            if r.member and r.flow_value != r.gain:
                round_failures.append((target.n, j))
    ok = not bound_failures and not round_failures
    report(8, ok, f"{len(solves)} solves: no residual negative cycles, "
           "exact decompositions, iteration bounds hold; greedy round "
           "sizes equal flow values")
    assert ok, (bound_failures, round_failures)


def test_criterion_9_scaling_table_published():
    assert os.path.exists(DOCS_TABLE), "docs/scaling.md missing"
    with open(DOCS_TABLE) as fh:
        text = fh.read()
    rows = [ln for ln in text.splitlines()
            if ln.strip().startswith("|") and ln.split("|")[1].strip().isdigit()]
    ids = sorted(int(ln.split("|")[1].strip()) for ln in rows)
    ok = ids == list(range(1, 13))
    # asymptotic claims are replaced by the published measurements; the
    # only asserted runtime facts are the iteration bounds, re-checked on
    # a mid-size instance here
    inst = gen_gc(8)
    mpc, mf = minimum_path_cover(inst.dag)
    ok = ok and mpc == 2 and mf.pushes <= mf.searches
    report(9, ok, "measured wall-clock table for staircase sizes 1..12 in docs")
    assert ok, ids
