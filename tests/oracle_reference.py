"""Reference copies of the brute-force searches that oracle replaced.

brute_alpha, brute_beta, brute_min_knorm_chain_partition and
brute_min_knorm_antichain_partition are the searches as they stood
before their inner loops were rewritten: the antichain-partition search
tests each extension against every member's comparability mask, the
chain-partition search finds its first vertex by a scan of the mask, and
every node costs one _Expansions.tick() call. Each search is kept as it
was except that it also returns its expansion count, the number of
ticks, so tests can require the rewritten searches to visit the same
nodes and to give the same values and witness families.
"""

from __future__ import annotations

from typing import Optional

from gkcover.dagcore import Antichain, Chain, Dag, Family
from gkcover.errors import BudgetExceeded, MismatchError
from gkcover.oracle import OracleBudget


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


def brute_alpha(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family, int]:
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
    return best[0], Family(members, disjoint=True), exp.count


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


def brute_beta(dag: Dag, k: int, budget: Optional[OracleBudget] = None) -> tuple[int, Family, int]:
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
    return best[0], Family(members, disjoint=True), exp.count


def brute_min_knorm_chain_partition(dag: Dag, k: int,
                                    budget: Optional[OracleBudget] = None) -> tuple[int, Family, int]:
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
    return value, Family(tuple(members), disjoint=True), exp.count


def brute_min_knorm_antichain_partition(dag: Dag, k: int,
                                        budget: Optional[OracleBudget] = None) -> tuple[int, Family, int]:
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
    return value, Family(tuple(members), disjoint=True), exp.count
