"""Instance generators that pin greedy's worst-case behaviour.

The chain instances interleave k rows so that the best single path eats
across every row, leaving three quarters of the optimum; vertices are
numbered so the deterministic tie-breaks reproduce the intended trace
(intended path first, then the follow-up paths, then leftovers). The
chain and antichain ratio families share one block mix and expected
record and differ in their blocks and in how blocks are joined. The
path-count and antichain-count families come with closed-form expected
records; layouts carry the named substructures tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable

from .dagcore import Dag, build_dag
from .errors import DomainError, MismatchError
from .greedy import _best_path_rounds


@dataclass(frozen=True)
class ExpectedStats:
    optimal: int
    greedy: int
    greedy_members: int
    optimal_members: int


@dataclass
class AdversarialInstance:
    dag: Dag
    family: str
    param: int
    expected: ExpectedStats
    layout: dict = field(default_factory=dict)


# Two interleaved 8-rows. Ids: intended diagonal path first (A1..A4 then
# B5..B8), then the A-row tail, then the B-row head.
_G2_CHAIN_N = 16
_G2_CHAIN_ROWS = [
    [0, 1, 2, 3, 8, 9, 10, 11],      # A1..A8
    [12, 13, 14, 15, 4, 5, 6, 7],    # B1..B8
]


# Three interleaved 9-rows. Ids: intended first path (A1..A3, B4..B6,
# C7..C9) = 0..8, second path (B1, B2, C3, C4, A8, A9) = 9..14, third
# (A4..A7) = 15..18, leftovers 19..26.
_G3_CHAIN_N = 27
_G3_CHAIN_ROWS = [
    [0, 1, 2, 15, 16, 17, 18, 13, 14],   # A1..A9
    [9, 10, 19, 3, 4, 5, 20, 21, 22],    # B1..B9
    [23, 24, 11, 12, 25, 26, 6, 7, 8],   # C1..C9
]
_G3_CHAIN_CROSS = [(2, 3), (10, 11), (5, 6), (12, 13)]  # A3->B4, B2->C3, B6->C7, C4->A8


def _row_edges(rows: list[list[int]], cross: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each row's consecutive pairs, then the crossing edges."""
    edges = []
    for row in rows:
        edges.extend(zip(row, row[1:]))
    edges.extend(cross)
    return edges


# A block: its vertex count, its edges and its rows, each on ids from 0.
_Block = tuple[int, list[tuple[int, int]], list[list[int]]]


def _compose_disjoint(blocks: list[_Block]) -> _Block:
    """Disjoint union; returns (n, edges, shifted per-block rows)."""
    n = 0
    edges: list[tuple[int, int]] = []
    rows: list[list[int]] = []
    for bn, bedges, brows in blocks:
        edges.extend((u + n, v + n) for u, v in bedges)
        rows.extend([v + n for v in row] for row in brows)
        n += bn
    return n, edges, rows


def _ratio_instance(k: int, name: str, family: str, two: _Block, three: _Block,
                    compose: Callable[[list[_Block]], _Block]) -> AdversarialInstance:
    """The ratio families' shared body: the block mix by parity, composed,
    with the optimum n (the k rows partition V) and greedy's 6k / 6k+1."""
    if k < 2:
        raise DomainError(f"{name} instances need k >= 2, got {k}")
    blocks = [two] * (k // 2) if k % 2 == 0 else [two] * ((k - 3) // 2) + [three]
    n, edges, rows = compose(blocks)
    expected = ExpectedStats(
        optimal=n,
        greedy=6 * k if k % 2 == 0 else 6 * k + 1,
        greedy_members=k,
        optimal_members=k)
    return AdversarialInstance(build_dag(n, edges), family, k, expected,
                               layout={"rows": rows})


def gen_chain_ratio(k: int) -> AdversarialInstance:
    """k interleaved rows on which k greedy paths cover 3/4 of beta_k.

    Even k: k/2 disjoint two-row blocks. Odd k: (k-3)/2 two-row blocks
    plus one three-row block. beta_k equals n (the rows partition V);
    greedy covers 6k (even) or 6k+1 (odd).
    """
    return _ratio_instance(
        k, "chain-ratio", "ChainRatio",
        # A4 -> B5, the diagonal jump
        (_G2_CHAIN_N, _row_edges(_G2_CHAIN_ROWS, [(3, 4)]), _G2_CHAIN_ROWS),
        (_G3_CHAIN_N, _row_edges(_G3_CHAIN_ROWS, _G3_CHAIN_CROSS), _G3_CHAIN_ROWS),
        _compose_disjoint)


# Two 8-rows with edges x_j -> y_j and x_j -> y_{j-4} (j = 5..8).
_G2_ANTI_N = 16
_G2_ANTI_ROWS = [list(range(0, 8)), list(range(8, 16))]


def _g2_anti_edges() -> list[tuple[int, int]]:
    edges = [(i, 8 + i) for i in range(8)]
    edges.extend((i, 8 + i - 4) for i in range(4, 8))
    return edges


# Three 9-rows A=0..8, B=9..17, C=18..26 with column edges and crossings.
_G3_ANTI_N = 27
_G3_ANTI_ROWS = [list(range(0, 9)), list(range(9, 18)), list(range(18, 27))]


def _g3_anti_edges() -> list[tuple[int, int]]:
    edges = [(j, 9 + j) for j in range(9)]
    edges.extend((9 + j, 18 + j) for j in range(9))
    crossings_1based = [
        ("A", 4, "B", 1), ("A", 5, "B", 2), ("A", 6, "B", 3),
        ("A", 6, "B", 8), ("A", 7, "B", 9),
        ("B", 1, "C", 3), ("B", 2, "C", 4), ("B", 7, "C", 4),
        ("B", 8, "C", 5), ("B", 9, "C", 6),
    ]
    base = {"A": 0, "B": 9, "C": 18}
    edges.extend((base[r1] + j1 - 1, base[r2] + j2 - 1)
                 for r1, j1, r2, j2 in crossings_1based)
    return edges


def _compose_chained(blocks: list[_Block]) -> _Block:
    """Disjoint union plus all edges from each block to the next."""
    n, edges, rows = _compose_disjoint(blocks)
    lo = 0
    for (n1, _, _), (n2, _, _) in zip(blocks, blocks[1:]):
        mid = lo + n1
        edges.extend((u, v) for u in range(lo, mid) for v in range(mid, mid + n2))
        lo = mid
    return n, edges, rows


def gen_antichain_ratio(k: int) -> AdversarialInstance:
    """k stacked rows on which the claimed greedy covers 3/4 of alpha_k.

    Same block mix as gen_chain_ratio but with antichain rows, blocks
    chained by complete edge sets so alpha_k = n via the k rows. The
    expected greedy value records the intended worst-case trace of
    12 per two-row block (+19 for the three-row block).
    """
    return _ratio_instance(
        k, "antichain-ratio", "AntichainRatio",
        (_G2_ANTI_N, _g2_anti_edges(), _G2_ANTI_ROWS),
        (_G3_ANTI_N, _g3_anti_edges(), _G3_ANTI_ROWS),
        _compose_chained)


def gen_gc(i: int) -> AdversarialInstance:
    """Binomially-weighted staircase forcing i greedy paths against MPC 2.

    Path m (m = i..1) has segments of sizes C(m, 0), .., C(m, m-1);
    ordering edges chain column j of consecutive paths, and skip edges
    return from the short paths into the long one, so two paths suffice
    to cover everything while greedy's best path in round j gains only
    2^(i-j+1) - 1. Built so the round-1 maximizer is unique; the vertex
    count and that path are checked, raising MismatchError.
    """
    if i < 1:
        raise DomainError(f"staircase instances need i >= 1, got {i}")
    first: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    seqs: dict[int, list[int]] = {m: [] for m in range(1, i + 1)}
    n = 0
    edges: list[tuple[int, int]] = []
    for m in range(i, 0, -1):
        for j in range(m):
            size = comb(m, j)
            first[(m, j)] = n
            last[(m, j)] = n + size - 1
            seqs[m].extend(range(n, n + size))
            edges.extend((v, v + 1) for v in range(n, n + size - 1))
            n += size
        for j in range(m - 1):
            edges.append((last[(m, j)], first[(m, j + 1)]))
    for j in range(1, i + 1):
        for m in range(i, j, -1):
            edges.append((last[(m, j - 1)], first[(m - 1, j - 1)]))
    for j in range(1, i - 1):
        edges.append((last[(j, j - 1)], first[(i, j + 1)]))
    if n != 2 ** (i + 1) - i - 2:
        raise MismatchError(f"staircase {i} has {n} vertices, not {2 ** (i + 1) - i - 2}")
    dag = build_dag(n, edges)
    # round 1 of the memoised best-path rounds, which gen gc --check reuses
    path1, _, _ = next(_best_path_rounds(dag))
    if list(path1.vertices) != seqs[i]:
        raise MismatchError("round-1 path deviates from the intended staircase path")
    expected = ExpectedStats(
        optimal=1 if i == 1 else 2,
        greedy=i,
        greedy_members=i,
        optimal_members=1 if i == 1 else 2)
    return AdversarialInstance(dag, "GreedyPathLower", i, expected,
                               layout={"paths": {m: seqs[m] for m in seqs}})


def gen_ga(i: int) -> AdversarialInstance:
    """Bipartite tiers on which the claimed greedy emits i+2 antichains.

    X = x_1..x_{2^i}, Y likewise; tier T_m holds the x and y of indices
    2^(m-1) < j <= 2^m, and x_j -> y_j' exists unless both sit in the
    same tier. A two-antichain partition (X, Y) is optimal; the expected
    record carries the intended trace T_i, .., T_1, {x_1}, {y_1}.
    """
    if i < 1:
        raise DomainError(f"tier instances need i >= 1, got {i}")
    half = 2 ** i
    n = 2 * half

    def tier(j: int) -> int:
        # 1-based index; index 1 sits in no tier.
        return (j - 1).bit_length() if j >= 2 else 0

    edges = []
    for j in range(1, half + 1):
        for jp in range(1, half + 1):
            tj, tjp = tier(j), tier(jp)
            if tj and tjp and tj == tjp:
                continue
            edges.append((j - 1, half + jp - 1))
    tiers = []
    for m in range(i, 0, -1):
        ids = [j - 1 for j in range(2 ** (m - 1) + 1, 2 ** m + 1)]
        tiers.append(frozenset(ids) | frozenset(half + v for v in ids))
    expected = ExpectedStats(
        optimal=2,
        greedy=2 * half,
        greedy_members=i + 2,
        optimal_members=2)
    return AdversarialInstance(build_dag(n, edges), "GreedyAntichainLower", i, expected,
                               layout={"tiers": tiers, "x1": 0, "y1": half})
