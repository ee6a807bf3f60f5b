"""Brute-force oracles and solver cross-verification.

Everything here works over bitmask encodings of the transitive closure
and is deliberately independent of the flow machinery, so agreement
between the two is meaningful. Budgets keep the search spaces small.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from .dagcore import Antichain, Chain, Dag, Family, build_dag
from .errors import BudgetExceeded, MismatchError
from .networks import solve_alpha, solve_beta


@dataclass
class OracleBudget:
    """Hard caps for the exponential searches."""

    max_n: int = 10
    max_k: int = 4
    max_expansions: int = 2_000_000

    @classmethod
    def from_env(cls) -> "OracleBudget":
        budget = cls()
        raw = os.environ.get("GKCOVER_BUDGET_N")
        if raw:
            budget.max_n = int(raw)
        return budget

    def check(self, dag: Dag, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if dag.n > self.max_n:
            raise BudgetExceeded(f"n={dag.n} exceeds oracle budget {self.max_n}")
        if k > self.max_k:
            raise BudgetExceeded(f"k={k} exceeds oracle budget {self.max_k}")


def _comparability_masks(dag: Dag) -> list[int]:
    """comp[v] = vertices comparable to v (v excluded)."""
    desc = dag.closure()
    anc = [0] * dag.n
    for v in dag.topo:
        for w in dag.succ[v]:
            anc[w] |= anc[v] | (1 << v)
    return [(desc[v] | anc[v]) & ~(1 << v) for v in range(dag.n)]


class _Expansions:
    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0

    def tick(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise BudgetExceeded(f"oracle expansion limit {self.limit} hit")


def brute_alpha(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Maximum coverage by k disjoint antichains, by labeled search.

    Vertices are assigned, in topological order, either no label or one
    of k antichain classes; branch and bound on the remaining count.
    """
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    comp = _comparability_masks(dag)
    order = list(dag.topo)
    exp = _Expansions(budget.max_expansions)
    best = [-1, [ [] for _ in range(k)]]

    def rec(i: int, covered: int, used: int, forbidden: list[int], classes: list[list[int]]) -> None:
        exp.tick()
        if covered + (n - i) <= best[0]:
            return
        if i == n:
            if covered > best[0]:
                best[0] = covered
                best[1] = [list(c) for c in classes]
            return
        v = order[i]
        bit = 1 << v
        limit = min(used + 1, k)
        for c in range(limit):
            if not (forbidden[c] & bit):
                old = forbidden[c]
                forbidden[c] |= comp[v]
                classes[c].append(v)
                rec(i + 1, covered + 1, max(used, c + 1), forbidden, classes)
                classes[c].pop()
                forbidden[c] = old
        rec(i + 1, covered, used, forbidden, classes)

    rec(0, 0, 0, [0] * k, [[] for _ in range(k)])
    members = tuple(Antichain(frozenset(c)) for c in best[1] if c)
    return best[0], Family(members, disjoint=True)


def _all_chains(dag: Dag, within: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every non-empty chain inside the vertex mask, as (mask, vertices)."""
    desc = dag.closure()
    out: list[tuple[int, tuple[int, ...]]] = []

    def extend(last: int, mask: int, seq: list[int]) -> None:
        out.append((mask, tuple(seq)))
        rest = desc[last] & within & ~(1 << last)
        w = rest
        while w:
            b = w & -w
            v = b.bit_length() - 1
            seq.append(v)
            extend(v, mask | b, seq)
            seq.pop()
            w &= w - 1

    m = within
    while m:
        b = m & -m
        v = b.bit_length() - 1
        extend(v, b, [v])
        m &= m - 1
    return out


def brute_beta(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Maximum coverage by k disjoint chains, by search over chain picks."""
    budget = budget or OracleBudget()
    budget.check(dag, k)
    full = (1 << dag.n) - 1
    chains = _all_chains(dag, full)
    chains.sort(key=lambda c: -len(c[1]))
    exp = _Expansions(budget.max_expansions)
    best = [0, []]

    def rec(idx: int, taken_mask: int, covered: int, left: int, picks: list[int]) -> None:
        exp.tick()
        if covered > best[0]:
            best[0] = covered
            best[1] = list(picks)
        if left == 0 or idx >= len(chains):
            return
        if covered + left * len(chains[idx][1]) <= best[0]:
            return
        mask, seq = chains[idx]
        if not (mask & taken_mask):
            picks.append(idx)
            rec(idx + 1, taken_mask | mask, covered + len(seq), left - 1, picks)
            picks.pop()
        rec(idx + 1, taken_mask, covered, left, picks)

    rec(0, 0, 0, k, [])
    members = tuple(Chain(chains[i][1]) for i in best[1])
    return best[0], Family(members, disjoint=True)


def brute_min_knorm_chain_partition(dag: Dag, k: int,
                                    budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Minimum sum of min(|C|, k) over chain partitions, by memoized search."""
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    desc = dag.closure()
    topo_pos = dag.topo_pos
    exp = _Expansions(budget.max_expansions)
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def first_vertex(mask: int) -> int:
        best_v = -1
        m = mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if best_v < 0 or topo_pos[v] < topo_pos[best_v]:
                best_v = v
            m &= m - 1
        return best_v

    def rec(mask: int) -> tuple[int, tuple[int, ...]]:
        if mask == 0:
            return 0, ()
        if mask in memo:
            return memo[mask]
        exp.tick()
        v = first_vertex(mask)
        best_val = None
        best_chain: tuple[int, ...] = ()

        def try_chain(last: int, cmask: int, seq: list[int]) -> None:
            nonlocal best_val, best_chain
            sub_val, _ = rec(mask & ~cmask)
            val = min(len(seq), k) + sub_val
            if best_val is None or val < best_val:
                best_val = val
                best_chain = tuple(seq)
            rest = desc[last] & mask & ~cmask & ~(1 << last)
            w = rest
            while w:
                b = w & -w
                u = b.bit_length() - 1
                seq.append(u)
                try_chain(u, cmask | b, seq)
                seq.pop()
                w &= w - 1

        try_chain(v, 1 << v, [v])
        if best_val is None:
            raise MismatchError("no chain through the first vertex was scored")
        memo[mask] = (best_val, best_chain)
        return memo[mask]

    full = (1 << n) - 1
    value, _ = rec(full)
    members: list[Chain] = []
    mask = full
    while mask:
        _, chain = rec(mask)
        members.append(Chain(chain))
        for u in chain:
            mask &= ~(1 << u)
    return value, Family(tuple(members), disjoint=True)


def brute_min_knorm_antichain_partition(dag: Dag, k: int,
                                        budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Minimum sum of min(|A|, k) over antichain partitions."""
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    comp = _comparability_masks(dag)
    topo_pos = dag.topo_pos
    order = sorted(range(n), key=lambda v: topo_pos[v])
    exp = _Expansions(budget.max_expansions)
    memo: dict[int, tuple[int, int]] = {}

    def rec(mask: int) -> tuple[int, int]:
        if mask == 0:
            return 0, 0
        if mask in memo:
            return memo[mask]
        exp.tick()
        v = next(u for u in order if mask >> u & 1)
        best_val = None
        best_ac = 0

        def try_antichain(amask: int, size: int, start: int) -> None:
            nonlocal best_val, best_ac
            sub_val, _ = rec(mask & ~amask)
            val = min(size, k) + sub_val
            if best_val is None or val < best_val:
                best_val = val
                best_ac = amask
            for j in range(start, n):
                u = order[j]
                b = 1 << u
                if (mask & b) and not (amask & b):
                    ok = True
                    m = amask
                    while m:
                        bb = m & -m
                        w = bb.bit_length() - 1
                        if comp[w] >> u & 1:
                            ok = False
                            break
                        m &= m - 1
                    if ok:
                        try_antichain(amask | b, size + 1, j + 1)

        vi = order.index(v)
        try_antichain(1 << v, 1, vi + 1)
        if best_val is None:
            raise MismatchError("no antichain through the first vertex was scored")
        memo[mask] = (best_val, best_ac)
        return memo[mask]

    full = (1 << n) - 1
    value, _ = rec(full)
    members: list[Antichain] = []
    mask = full
    while mask:
        _, amask = rec(mask)
        vs = []
        m = amask
        while m:
            b = m & -m
            vs.append(b.bit_length() - 1)
            m &= m - 1
        members.append(Antichain(frozenset(vs)))
        mask &= ~amask
    return value, Family(tuple(members), disjoint=True)


@dataclass
class GkReport:
    """Every number the exact machinery must agree on for one (dag, k)."""

    n: int
    k: int
    alpha_brute: int
    alpha_chain_partition: int
    alpha_solver: int
    beta_brute: int
    beta_antichain_partition: int
    beta_solver: int


def verify_gk(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> GkReport:
    """Cross-check the flow solvers against the brute-force oracles.

    Raises MismatchError with witnesses when any pair of numbers that
    must coincide does not.
    """
    budget = budget or OracleBudget()
    a_val, a_fam = brute_alpha(dag, k, budget)
    mcp_val, mcp_fam = brute_min_knorm_chain_partition(dag, k, budget)
    b_val, b_fam = brute_beta(dag, k, budget)
    map_val, map_fam = brute_min_knorm_antichain_partition(dag, k, budget)
    sa = solve_alpha(dag, k)
    sb = solve_beta(dag, k)
    checks = [
        ("alpha vs chain-partition norm", a_val, mcp_val),
        ("alpha vs solver", a_val, sa.alpha),
        ("beta vs antichain-partition norm", b_val, map_val),
        ("beta vs solver", b_val, sb.beta),
    ]
    for name, x, y in checks:
        if x != y:
            raise MismatchError(
                f"{name}: {x} != {y} (n={dag.n}, k={k}, edges={dag.edges})",
                witnesses={
                    "edges": dag.edges, "k": k,
                    "brute_alpha": a_fam, "brute_chain_partition": mcp_fam,
                    "brute_beta": b_fam, "brute_antichain_partition": map_fam,
                    "solver_alpha": sa, "solver_beta": sb,
                })
    return GkReport(dag.n, k, a_val, mcp_val, sa.alpha, b_val, map_val, sb.beta)


DENSITIES = (0.1, 0.3, 0.5)


def random_dag(n_max: int, trial: int, seed: int) -> Dag:
    """Deterministic random DAG: forward edges over a shuffled labeling."""
    rng = random.Random(1_000_003 * seed + trial)
    n = rng.randint(1, n_max)
    p = DENSITIES[trial % len(DENSITIES)]
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((labels[i], labels[j]))
    return build_dag(n, edges)


@dataclass
class SweepResult:
    trials: int
    k_max: int
    reports: list[GkReport] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)


def run_verification_sweep(n_max: int, trials: int, seed: int, k_max: int,
                           budget: Optional[OracleBudget] = None) -> SweepResult:
    """verify_gk over a seeded random corpus, one trial after another.

    Each trial derives its own seed, so results depend only on the
    arguments. Raises ValueError when ``n_max``, ``trials`` or ``k_max``
    is below 1, since such a sweep would check nothing.
    """
    for name, value in (("n_max", n_max), ("trials", trials), ("k_max", k_max)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    budget = budget or OracleBudget.from_env()
    result = SweepResult(trials, k_max)
    for t in range(trials):
        dag = random_dag(n_max, t, seed)
        try:
            reports = [verify_gk(dag, k, budget) for k in range(1, k_max + 1)]
        except MismatchError as exc:
            result.mismatches.append(f"trial {t}: {exc}")
            continue
        result.reports.extend(reports)
    return result
