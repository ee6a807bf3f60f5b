"""Brute-force oracles and solver cross-verification.

Everything here works over bitmask encodings of the transitive closure
and is deliberately independent of the flow machinery, so agreement
between the two is meaningful. Budgets keep the search spaces small.

The four searches hold vertex sets as int masks. brute_alpha, brute_beta
and the chain-partition search use vertex-id masks (bit v is vertex v);
the antichain-partition search uses masks over topological positions
(bit p is dag.topo[p]), so a set's first vertex is its lowest bit, and
maps positions back to vertex ids only when it reads off its members.
Each search visits its nodes in a fixed order and counts one expansion
per node, so its value, its witness family and the point where
BudgetExceeded fires are deterministic. Each search builds its members
with certify_antichain or certify_chain, as the solvers do, and scores
the family it returns against its own value: coverage for brute_alpha
and brute_beta, the k-norm of the partition for the two partition
searches. A difference raises MismatchError, also under python -O.

Each search recurses through a nested function that calls itself, and
such a function and the cell that holds it form a reference cycle that
keeps the search's memo and lists alive until the cyclic collector
runs. Each search deletes that name when it returns or raises, so
everything it built is freed by reference counting, also when the CLI
has paused the collector.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .dagcore import Antichain, Chain, Dag, Family, build_dag, certify_antichain, certify_chain
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
        """The default budget, with max_n from GKCOVER_BUDGET_N when set.

        Raises ValueError naming the variable when its value is not a
        non-negative integer.
        """
        budget = cls()
        raw = os.environ.get("GKCOVER_BUDGET_N")
        if raw:
            invalid = ValueError(f"GKCOVER_BUDGET_N must be a non-negative integer, got {raw!r}")
            try:
                budget.max_n = int(raw)
            except ValueError:
                raise invalid from None
            if budget.max_n < 0:
                raise invalid
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


def _expansion_limit(limit: int) -> BudgetExceeded:
    return BudgetExceeded(f"oracle expansion limit {limit} hit")


def _scored_family(members: Sequence[Chain | Antichain], value: int, k: int = 0,
                   partition_of: Optional[int] = None) -> Family:
    """The disjoint family of ``members``, checked to score ``value``: its
    coverage, or its k-norm when it must partition ``partition_of`` vertices.

    A disjoint family covers the sum of its member sizes, and partitions
    n vertices when that sum is n, so no vertex set is built. Raises
    MismatchError on a difference.
    """
    family = Family(tuple(members), disjoint=True)
    sizes = list(map(len, members))
    score = sum(sizes)
    if partition_of is not None:
        if score != partition_of:
            raise MismatchError(f"the partition covers {score} of {partition_of} vertices")
        score = sum(size if size < k else k for size in sizes)
    if score != value:
        raise MismatchError(f"the family scores {score}, the search found {value}")
    return family


def brute_alpha(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Maximum coverage by k disjoint antichains, by labeled search.

    Vertices are assigned, in topological order, either no label or one
    of k antichain classes; branch and bound on the remaining count.
    """
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    comp = _comparability_masks(dag)
    order = dag.topo
    bits = [1 << v for v in order]
    comps = [comp[v] for v in order]
    limit = budget.max_expansions
    count = 0
    best = -1
    best_classes: list[list[int]] = []
    forbidden = [0] * k
    classes: list[list[int]] = [[] for _ in range(k)]

    def rec(i: int, covered: int, used: int) -> None:
        nonlocal count, best, best_classes
        count += 1
        if count > limit:
            raise _expansion_limit(limit)
        if covered + n - i <= best:
            return
        if i == n:
            best = covered
            best_classes = [list(c) for c in classes]
            return
        bit = bits[i]
        for c in range(used + 1 if used < k else k):
            old = forbidden[c]
            if not old & bit:
                forbidden[c] = old | comps[i]
                classes[c].append(order[i])
                rec(i + 1, covered + 1, used + 1 if c == used else used)
                classes[c].pop()
                forbidden[c] = old
        rec(i + 1, covered, used)

    try:
        rec(0, 0, 0)
    finally:
        del rec
    members = [certify_antichain(dag, c) for c in best_classes if c]
    return best, _scored_family(members, best)


def _all_chains(dag: Dag) -> list[tuple[int, tuple[int, ...]]]:
    """Every non-empty chain, as (mask, vertices), depth first: by first
    vertex in id order, each extended by its descendants in id order."""
    desc = dag.closure()
    out: list[tuple[int, tuple[int, ...]]] = []
    # push the chains to extend highest first, so the lowest comes next
    stack = [(v, 1 << v, (v,)) for v in reversed(range(dag.n))]
    while stack:
        last, mask, seq = stack.pop()
        out.append((mask, seq))
        rest = desc[last] & ~mask
        while rest:
            u = rest.bit_length() - 1
            b = 1 << u
            stack.append((u, mask | b, seq + (u,)))
            rest ^= b
    return out


def brute_beta(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Maximum coverage by k disjoint chains, by search over chain picks.

    The chains are taken longest first; each node either picks chain
    idx or skips it, one recursion frame per skipped chain.
    """
    budget = budget or OracleBudget()
    budget.check(dag, k)
    chains = _all_chains(dag)
    chains.sort(key=lambda c: -len(c[1]))
    masks = [mask for mask, _ in chains]
    # A length of 0 past the last chain: best >= covered at every node,
    # so the bound below also ends the search once no chain or pick is left.
    lens = [len(seq) for _, seq in chains] + [0]
    limit = budget.max_expansions
    count = 0
    best = 0
    best_picks: list[int] = []
    picks: list[int] = []

    def rec(idx: int, taken: int, covered: int, left: int) -> None:
        nonlocal count, best, best_picks
        count += 1
        if count > limit:
            raise _expansion_limit(limit)
        if covered + left * lens[idx] <= best:
            return
        mask = masks[idx]
        if not mask & taken:
            picks.append(idx)
            got = covered + lens[idx]
            if got > best:
                best = got
                best_picks = picks[:]
            rec(idx + 1, taken | mask, got, left - 1)
            picks.pop()
        rec(idx + 1, taken, covered, left)

    try:
        rec(0, 0, 0, k)
    finally:
        del rec
    members = [certify_chain(dag, chains[i][1]) for i in best_picks]
    return best, _scored_family(members, best)


def brute_min_knorm_chain_partition(dag: Dag, k: int,
                                    budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Minimum sum of min(|C|, k) over chain partitions, by memoized search.

    A vertex mask's best partition takes a chain through its first
    vertex in topological order; the chains are tried in depth-first
    order, extending by descendants in vertex-id order, and the first
    one of least norm is kept.
    """
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    desc = dag.closure()
    topo = dag.topo
    limit = budget.max_expansions
    count = 0
    memo: dict[int, int] = {0: 0}
    pick: dict[int, int] = {}

    def rec(mask: int) -> int:
        nonlocal count
        count += 1
        if count > limit:
            raise _expansion_limit(limit)
        for v in topo:
            if mask >> v & 1:
                break
        best = n + 1
        best_chain = 0
        stack = [(v, 1 << v, 1)]
        while stack:
            last, cmask, size = stack.pop()
            sub = mask ^ cmask
            val = memo.get(sub)
            if val is None:
                val = rec(sub)
            val += size if size < k else k
            if val < best:
                best = val
                best_chain = cmask
            # push the extensions highest first, so the lowest is tried next
            rest = desc[last] & sub
            while rest:
                u = rest.bit_length() - 1
                b = 1 << u
                stack.append((u, cmask | b, size + 1))
                rest ^= b
        memo[mask] = best
        pick[mask] = best_chain
        return best

    full = (1 << n) - 1
    try:
        value = rec(full) if n else 0
    finally:
        del rec
    members: list[Chain] = []
    mask = full
    while mask:
        chain = pick[mask]
        members.append(certify_chain(dag, [v for v in topo if chain >> v & 1]))
        mask ^= chain
    return value, _scored_family(members, value, k, partition_of=n)


def brute_min_knorm_antichain_partition(dag: Dag, k: int,
                                        budget: Optional[OracleBudget] = None) -> tuple[int, Family]:
    """Minimum sum of min(|A|, k) over antichain partitions.

    Sets are masks over topological positions (bit p is dag.topo[p]). A
    mask's best partition takes an antichain through its lowest bit; the
    antichains are tried in depth-first order, each extended by the free
    bits above its highest, lowest first, and the first one of least
    norm is kept.
    """
    budget = budget or OracleBudget()
    budget.check(dag, k)
    n = dag.n
    comp = _comparability_masks(dag)
    order = dag.topo
    pos_bit = [1 << p for p in dag.topo_pos]
    pcomp = [sum(pos_bit[u] for u in range(n) if comp[v] >> u & 1) for v in order]
    limit = budget.max_expansions
    count = 0
    memo: dict[int, int] = {0: 0}
    pick: dict[int, int] = {}

    def rec(mask: int) -> int:
        nonlocal count
        count += 1
        if count > limit:
            raise _expansion_limit(limit)
        first = mask & -mask
        best = n + 1
        best_ac = 0
        # (antichain, its size, the positions comparable to a member,
        # one past its highest position)
        top = first.bit_length()
        stack = [(first, 1, pcomp[top - 1], top)]
        while stack:
            amask, size, blocked, top = stack.pop()
            sub = mask ^ amask
            val = memo.get(sub)
            if val is None:
                val = rec(sub)
            val += size if size < k else k
            if val < best:
                best = val
                best_ac = amask
            # push the extensions highest first, so the lowest is tried next
            free = (sub & ~blocked) >> top << top
            while free:
                p = free.bit_length() - 1
                b = 1 << p
                stack.append((amask | b, size + 1, blocked | pcomp[p], p + 1))
                free ^= b
        memo[mask] = best
        pick[mask] = best_ac
        return best

    full = (1 << n) - 1
    try:
        value = rec(full) if n else 0
    finally:
        del rec
    members: list[Antichain] = []
    mask = full
    while mask:
        amask = pick[mask]
        members.append(certify_antichain(dag, [order[p] for p in range(n) if amask >> p & 1]))
        mask ^= amask
    return value, _scored_family(members, value, k, partition_of=n)


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
    result = SweepResult()
    for t in range(trials):
        dag = random_dag(n_max, t, seed)
        try:
            reports = [verify_gk(dag, k, budget) for k in range(1, k_max + 1)]
        except MismatchError as exc:
            result.mismatches.append(f"trial {t}: {exc}")
            continue
        result.reports.extend(reports)
    return result
