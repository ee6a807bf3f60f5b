"""Circulation networks whose minimum cost solves the coverage problems.

Each vertex v splits into v_in and v_out joined by two parallel arcs: a
unit-capacity arc of cost -1 that pays for covering v, and a free
overflow arc. A return arc t->s closes the circulation; its cost
(problem Alpha) or capacity (problem Beta) carries k. The minimum cost
then equals alpha_k - n, respectively -beta_k. The network is a
flowcore.SplitNetwork, which owns the layout, and goes to the solvers as
it is. Every solve starts from the zero flow and runs
flowcore.min_cost_circulation (successive shortest paths, certified on
the solver's own residual capacities by one reduced-cost pass of its
final labels, which falls back to a negative-cycle search only when an
arc has negative reduced cost). Chain witnesses are the flow's unit
paths, read off one vertex at a time by flowcore.peel_paths and
certified as graph paths; their disjoint remnants are certified as
chains, each as a subsequence of its path, with no reachability search.
Antichain witnesses are read off the solver's labels, the residual
shortest distances from s, once flowcore.check_distances has proved them
exact on the residual capacities of the reported flow. For problem
Alpha, and for problem Beta when nothing is padded, these are the
solver's own list, which its certificate checked, and the proof reuses
the certificate's reduced-cost pass. A padded problem Beta flow gets the
one residual() build of the padded flow, which is also that flow's one
feasibility check, and a pass of its own. Each level is certified as an
antichain by one sweep of the topological order. So every member of
every family a solve returns is certified, except the one-vertex
members that complete a partition. Every value a witness family scores
is checked against the circulation cost, raising MismatchError on a
difference, as are two of the paper's guarantees: at most alpha_k / k
augmentations for problem Alpha, and beta_1 equal to the DAG's height
(Mirsky).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .dagcore import (
    Antichain,
    Chain,
    Dag,
    Family,
    GraphPath,
    certify_antichain,
    certify_chain,
    certify_path,
    knorm_collection,
    knorm_partition,
    partition_completion,
)
from .errors import MismatchError
from .flowcore import (
    INF,
    ReducedCosts,
    SplitNetwork,
    check_distances,
    min_cost_circulation,
    peel_paths,
    residual,
)

ALPHA = "alpha"
BETA = "beta"


# Gadget arcs of a vertex: the cover arc (capacity 1, cost -1) pays for
# covering it, the free overflow arc lets further paths pass through.
COVER, OVERFLOW = 0, 1


class GkNetwork(SplitNetwork):
    """Problem network on the shared vertex-split layout.

    The return arc carries k as its cost (problem Alpha) or as its
    capacity (problem Beta); ``levels``, the DAG's height levels, fix
    its topological order.
    """

    def __init__(self, dag: Dag, k: int, kind: str):
        super().__init__(dag.n, dag.edges, [(1, -1), (INF, 0)],
                         ret=(INF, k) if kind == ALPHA else (k, 0))
        self.kind = kind
        self.k = k
        self.dag = dag
        self.levels = height_levels(dag)
        # FIFO Kahn takes the vertices level by level, in dag.topo order
        self.take_levels(self.levels)


def build_network(dag: Dag, k: int, kind: str) -> GkNetwork:
    if kind not in (ALPHA, BETA):
        raise ValueError(f"unknown network kind {kind!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return GkNetwork(dag, k, kind)


@dataclass
class GkSolution:
    """A certified witness family together with its objective value."""

    problem: str
    family: Family
    value: int
    synthetic_members: tuple[int, ...] = ()


@dataclass
class SolveStats:
    """The augmentation count and the optimal cost of one circulation;
    min_cost_circulation raises MismatchError unless
    ``iterations <= -final_cost``."""

    iterations: int
    final_cost: int


def chains_from_paths(dag: Dag, paths: Sequence[GraphPath]) -> Family:
    """Disjoint chains from possibly overlapping paths.

    Each vertex is kept by the earliest path that visits it. A remnant
    of a path is a chain because reachability is transitive, and each
    remnant is certified as one against the path it was cut from.
    """
    seen: set[int] = set()
    members: list[Chain] = []
    for p in paths:
        remnant = [v for v in p.vertices if v not in seen]
        seen.update(remnant)
        if remnant:
            members.append(certify_chain(dag, remnant, p.vertices))
    return Family(tuple(members), disjoint=True)


def _expect(ok: bool, message: str) -> None:
    """Raise MismatchError unless a value check holds; unlike assert, it
    also runs under python -O."""
    if not ok:
        raise MismatchError(message)


def _check_gadget_invariant(gk: GkNetwork, f: list[int]) -> None:
    for v in range(gk.n):
        if f[gk.gadget(v, OVERFLOW)] > 0:
            _expect(f[gk.gadget(v, COVER)] == 1,
                    f"overflow used at vertex {v} while its cover arc is empty")


def height_levels(dag: Dag) -> list[list[int]]:
    """Antichain layers by longest chain ending at each vertex, each in
    dag.topo order."""
    depth = [0] * dag.n
    get, pred = depth.__getitem__, dag.pred
    for v in dag.topo:
        if pred[v]:
            depth[v] = max(map(get, pred[v])) + 1
    levels: list[list[int]] = [[] for _ in range(max(depth, default=-1) + 1)]
    for v in dag.topo:
        levels[depth[v]].append(v)
    return levels


def extract_antichains(gk: GkNetwork, cap: list[int], labels: Sequence[int],
                       reduced: Optional[ReducedCosts] = None) -> Family:
    """Antichain levels from residual shortest-path labels.

    ``cap`` holds the residual capacities of the circulation (for
    problem Beta, of its padded flow), and ``labels`` are its residual
    distances from s; they are checked to be exact under ``cap``
    (MismatchError otherwise), on the reduced-cost pass ``reduced`` when
    it was computed from this ``cap`` and these labels, else on a new one.
    Vertex v lands in level d(v_in) - d(t) whenever d(v_in) > d(v_out);
    level indices run 1..d(s)-d(t).
    """
    if gk.n == 0:
        return Family((), disjoint=True)
    check_distances(gk, cap, gk.s, labels, reduced)
    d = labels
    dt = d[gk.t]
    h = -dt
    if gk.kind == ALPHA:
        _expect(h == gk.k, f"label spread {h} differs from k={gk.k}")
    else:
        # The optimal antichain collection may hold more than k members
        # (each costs k against uncovered vertices, not a cardinality cap).
        _expect(h >= 0, f"label spread {h} negative")
    buckets: dict[int, list[int]] = {}
    for v in range(gk.n):
        din, dout = d[gk.v_in(v)], d[gk.v_out(v)]
        if din > dout:
            level = din - dt
            _expect(1 <= level <= h, f"selected level {level} outside 1..{h}")
            buckets.setdefault(level, []).append(v)
    members = [certify_antichain(gk.dag, buckets[i]) for i in sorted(buckets)]
    return Family(tuple(members), disjoint=True)


@dataclass
class AlphaResult:
    alpha: int
    ma: GkSolution
    mps: GkSolution
    mcp: GkSolution
    stats: SolveStats


@dataclass
class BetaResult:
    beta: int
    mp: GkSolution
    mc: GkSolution
    mas: GkSolution
    map: GkSolution
    stats: SolveStats


def normalize_beta(gk: GkNetwork, f: list[int]) -> list[int]:
    """The flow padded to route exactly k units, at zero extra cost.

    Spare units go through vertex 0's overflow arc, so the cost and the
    cover arcs are untouched, which MismatchError checks on the padded
    copy. With nothing to pad, on the empty graph or when f routes k
    units already, f itself is returned.
    """
    if gk.kind != BETA:
        raise ValueError(f"normalize_beta needs a {BETA} network, got {gk.kind}")
    if gk.n == 0:
        return f
    pad = gk.k - f[gk.ts_arc]
    _expect(pad >= 0, f"return arc carries {gk.k - pad} units, more than k={gk.k}")
    if not pad:
        return f
    out = list(f)
    for ai in (gk.entry(0), gk.gadget(0, OVERFLOW), gk.exit(0), gk.ts_arc):
        out[ai] += pad
    _expect(gk.flow_cost(out) == gk.flow_cost(f), "padding changed the circulation cost")
    return out


def solve_alpha(dag: Dag, k: int) -> AlphaResult:
    """Maximum coverage by k disjoint antichains, with its dual witnesses.

    Returns the antichain family (MA-k), the path collection whose
    k-norm matches (MPS-k), and the chain partition completing it
    (MCP-k); all three values equal alpha_k.
    """
    gk = build_network(dag, k, ALPHA)
    n = dag.n
    circ = min_cost_circulation(gk)
    f = circ.flow
    _check_gadget_invariant(gk, f)
    alpha_k = circ.final_cost + n
    # alpha_k is k per unit on the return arc plus the uncovered vertices,
    # and every augmentation adds at least one unit there
    _expect(circ.iterations * k <= alpha_k,
            f"{circ.iterations} augmentations at k={k} exceed alpha_k / k for alpha_k={alpha_k}")
    dag_paths = [certify_path(dag, p) for p, _ in peel_paths(gk, f)]
    mps_family = Family(tuple(dag_paths))
    mps_value = knorm_collection(mps_family.members, n, k)
    _expect(mps_value == alpha_k, f"path collection norm {mps_value} != alpha {alpha_k}")
    chain_family = chains_from_paths(dag, dag_paths)
    routed = f[gk.ts_arc] > 0
    if routed:
        _expect(all(len(c) >= k for c in chain_family.members),
                "an extracted chain is shorter than k")
    mcp_family = partition_completion(chain_family, n, Chain)
    mcp_value = knorm_partition(mcp_family, n, k)
    _expect(mcp_value == alpha_k, f"chain partition norm {mcp_value} != alpha {alpha_k}")
    if routed:
        ma_family = extract_antichains(gk, circ.cap, circ.labels, circ.reduced)
    else:
        height = len(gk.levels)
        _expect(height <= k, f"zero circulation optimal at height {height} > k={k}")
        ma_family = Family(tuple(
            certify_antichain(dag, lv) for lv in gk.levels), disjoint=True)
    ma_value = ma_family.coverage()
    _expect(ma_value == alpha_k, f"antichain coverage {ma_value} != alpha {alpha_k}")
    _expect(len(ma_family) <= k, f"{len(ma_family)} antichains for k={k}")
    return AlphaResult(
        alpha_k,
        GkSolution("MA-k", ma_family, ma_value),
        GkSolution("MPS-k", mps_family, mps_value),
        GkSolution("MCP-k", mcp_family, mcp_value),
        SolveStats(circ.iterations, circ.final_cost))


def solve_beta(dag: Dag, k: int) -> BetaResult:
    """Maximum coverage by k disjoint chains, with its dual witnesses.

    Returns k paths (MP-k, padded with synthetic single-vertex paths if
    the circulation used fewer), the chains they induce (MC-k), the
    antichain collection whose k-norm matches (MAS-k), and its
    completion to a partition (MAP-k); all four values equal beta_k.
    """
    gk = build_network(dag, k, BETA)
    n = dag.n
    circ = min_cost_circulation(gk)
    f = circ.flow
    _check_gadget_invariant(gk, f)
    beta_k = -circ.final_cost
    if k == 1:
        # Mirsky: a longest chain has one vertex on every height level
        _expect(beta_k == len(gk.levels),
                f"beta_1 = {beta_k} differs from the height {len(gk.levels)}")
    fN = normalize_beta(gk, f)
    # Unpadded, fN is f, whose residual the certificate checked against
    # circ.cap. Padded, residual() checks fN, which peel_paths does not,
    # and extract_antichains computes a new pass for its capacities.
    cap = circ.cap if fN is f else residual(gk, fN)
    peeled = peel_paths(gk, fN)
    if n > 0:
        _expect(len(peeled) == k, f"expected k={k} paths, got {len(peeled)}")
    dag_paths = [certify_path(dag, p) for p, _ in peeled]
    # a padding unit: vertex 0 alone, through its overflow arc
    synthetic = tuple(i for i, unit in enumerate(peeled) if unit == ((0,), OVERFLOW))
    mp_family = Family(tuple(dag_paths))
    mp_value = mp_family.coverage()
    _expect(mp_value == beta_k, f"path coverage {mp_value} != beta {beta_k}")
    mc_family = chains_from_paths(dag, dag_paths)
    mc_value = mc_family.coverage()
    _expect(mc_value == beta_k, f"chain coverage {mc_value} != beta {beta_k}")
    _expect(len(mc_family) <= k, f"{len(mc_family)} chains for k={k}")
    mas_family = extract_antichains(gk, cap, circ.labels, circ.reduced)
    mas_value = knorm_collection(mas_family.members, n, k)
    _expect(mas_value == beta_k, f"antichain collection norm {mas_value} != beta {beta_k}")
    map_family = partition_completion(mas_family, n, Antichain)
    map_value = knorm_partition(map_family, n, k)
    _expect(map_value == beta_k, f"antichain partition norm {map_value} != beta {beta_k}")
    return BetaResult(
        beta_k,
        GkSolution("MP-k", mp_family, mp_value, synthetic),
        GkSolution("MC-k", mc_family, mc_value),
        GkSolution("MAS-k", mas_family, mas_value),
        GkSolution("MAP-k", map_family, map_value),
        SolveStats(circ.iterations, circ.final_cost))

