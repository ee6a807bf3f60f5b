"""Integer min-cost circulation and minimum flow via cycle canceling.

Networks are small enough here that exactness and auditability beat
asymptotics: Bellman-Ford everywhere, unit-by-unit path peeling, and a
fresh residual graph per iteration. SplitNetwork is the vertex-split
network of a DAG that the exact solver and the greedy rounds share.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

from .errors import (
    ConservationError,
    InfeasibleFlowError,
    InvalidCycleError,
    NegativeCycleError,
)

# Sentinel capacity, larger than any finite value our networks can carry.
INF = 10**18


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    upper: int
    cost: int


class FlowNetwork:
    """Directed network with lower/upper bounds and integer costs.

    ``ts_arc`` names the return arc of a circulation network; without it
    the network is in plain s-t flow form. Aside from the return arc the
    underlying graph is acyclic, which decomposition relies on.
    """

    def __init__(self, m: int, arcs: list[Arc], s: int, t: int, ts_arc: Optional[int] = None):
        self.m = m
        self.arcs = arcs
        self.s = s
        self.t = t
        self.ts_arc = ts_arc
        self.out_arcs: list[list[int]] = [[] for _ in range(m)]
        self.in_arcs: list[list[int]] = [[] for _ in range(m)]
        for i, a in enumerate(arcs):
            self.out_arcs[a.tail].append(i)
            self.in_arcs[a.head].append(i)
        self._topo: Optional[list[int]] = None

    def node_topo_pos(self) -> list[int]:
        """Topological positions over all arcs except the return arc."""
        if self._topo is None:
            ts = graphlib.TopologicalSorter({v: [] for v in range(self.m)})
            for i, a in enumerate(self.arcs):
                if i != self.ts_arc:
                    ts.add(a.head, a.tail)
            order = list(ts.static_order())
            pos = [0] * self.m
            for idx, v in enumerate(order):
                pos[v] = idx
            self._topo = pos
        return self._topo


@dataclass
class Flow:
    """Per-arc flow values, aligned with the network's arc list."""

    values: list[int]

    def copy(self) -> "Flow":
        return Flow(list(self.values))

    def value(self, net: FlowNetwork) -> int:
        if net.ts_arc is not None:
            return self.values[net.ts_arc]
        out = sum(self.values[i] for i in net.out_arcs[net.s])
        back = sum(self.values[i] for i in net.in_arcs[net.s])
        return out - back

    def cost(self, net: FlowNetwork) -> int:
        return sum(v * a.cost for v, a in zip(self.values, net.arcs))


def zero_flow(net: FlowNetwork) -> Flow:
    return Flow([0] * len(net.arcs))


class SplitNetwork:
    """Vertex-split network of a DAG on vertices 0..n-1.

    Nodes: v_in = 2v, v_out = 2v+1, s = 2n, t = 2n+1. Vertex v owns
    consecutive arc ids: entry (s, v_in), one (v_in, v_out) arc per
    ``gadgets`` entry (upper, cost), exit (v_out, t). Edge arcs follow
    in edge-list order; the return arc (t, s), given as (upper, cost),
    is last when present. The first gadget arc of every vertex in
    ``demand`` carries lower bound 1.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 gadgets: Sequence[tuple[int, int]], demand: Container[int] = (),
                 ret: Optional[tuple[int, int]] = None):
        self.n = n
        self.edges = edges
        self.stride = len(gadgets) + 2
        s, t = 2 * n, 2 * n + 1
        arcs: list[Arc] = []
        for v in range(n):
            arcs.append(Arc(s, 2 * v, 0, INF, 0))
            for j, (upper, cost) in enumerate(gadgets):
                lower = 1 if j == 0 and v in demand else 0
                arcs.append(Arc(2 * v, 2 * v + 1, lower, upper, cost))
            arcs.append(Arc(2 * v + 1, t, 0, INF, 0))
        arcs.extend(Arc(2 * u + 1, 2 * v, 0, INF, 0) for u, v in edges)
        if ret is not None:
            arcs.append(Arc(t, s, 0, *ret))
        self.net = FlowNetwork(2 * n + 2, arcs, s, t,
                               ts_arc=len(arcs) - 1 if ret is not None else None)

    def v_in(self, v: int) -> int:
        return 2 * v

    def v_out(self, v: int) -> int:
        return 2 * v + 1

    def entry(self, v: int) -> int:
        return self.stride * v

    def gadget(self, v: int, j: int = 0) -> int:
        return self.stride * v + 1 + j

    def exit(self, v: int) -> int:
        return self.stride * v + self.stride - 1

    def gadget_vertex(self, arc_id: int) -> Optional[int]:
        """Vertex owning this gadget arc, else None."""
        v, j = divmod(arc_id, self.stride)
        return v if v < self.n and 0 < j < self.stride - 1 else None

    @cached_property
    def edge_arc(self) -> dict[tuple[int, int], int]:
        """Arc id of each graph edge (u, v)."""
        base = self.stride * self.n
        return {e: base + j for j, e in enumerate(self.edges)}


def route_paths(split: SplitNetwork, paths: Iterable[Sequence[int]]) -> Flow:
    """One unit of flow per vertex sequence, through each vertex's first
    gadget arc with room, and around the return arc when there is one."""
    f = zero_flow(split.net)
    values, arcs = f.values, split.net.arcs
    for p in paths:
        values[split.entry(p[0])] += 1
        for i, v in enumerate(p):
            ai = split.gadget(v)
            while values[ai] >= arcs[ai].upper:
                ai += 1
            values[ai] += 1
            if i + 1 < len(p):
                values[split.edge_arc[(v, p[i + 1])]] += 1
        values[split.exit(p[-1])] += 1
        if split.net.ts_arc is not None:
            values[split.net.ts_arc] += 1
    return f


def check_feasible(net: FlowNetwork, f: Flow) -> None:
    """Raise InfeasibleFlowError on a bound or conservation violation."""
    if len(f.values) != len(net.arcs):
        raise InfeasibleFlowError("flow vector length does not match arc count")
    for i, a in enumerate(net.arcs):
        v = f.values[i]
        if v < a.lower or v > a.upper:
            raise InfeasibleFlowError(
                f"arc {i} carries {v}, outside [{a.lower}, {a.upper}]")
    exempt = set() if net.ts_arc is not None else {net.s, net.t}
    balance = [0] * net.m
    for i, a in enumerate(net.arcs):
        balance[a.tail] -= f.values[i]
        balance[a.head] += f.values[i]
    for v in range(net.m):
        if v not in exempt and balance[v] != 0:
            raise InfeasibleFlowError(f"conservation fails at node {v}")


@dataclass(frozen=True)
class ResidualArc:
    tail: int
    head: int
    cap: int
    cost: int
    arc: int
    forward: bool


class ResidualGraph:
    def __init__(self, m: int, arcs: list[ResidualArc]):
        self.m = m
        self.arcs = arcs
        self.out: list[list[int]] = [[] for _ in range(m)]
        for i, a in enumerate(arcs):
            self.out[a.tail].append(i)


def residual(net: FlowNetwork, f: Flow) -> ResidualGraph:
    """Residual graph of a feasible flow: forward slack and undo arcs."""
    check_feasible(net, f)
    arcs: list[ResidualArc] = []
    for i, a in enumerate(net.arcs):
        v = f.values[i]
        if v < a.upper:
            cap = INF if a.upper >= INF else a.upper - v
            arcs.append(ResidualArc(a.tail, a.head, cap, a.cost, i, True))
        if v > a.lower:
            arcs.append(ResidualArc(a.head, a.tail, v - a.lower, -a.cost, i, False))
    return ResidualGraph(net.m, arcs)


def find_negative_cycle(res: ResidualGraph) -> Optional[list[ResidualArc]]:
    """Return one negative-cost residual cycle, or None.

    Bellman-Ford from a virtual source (all labels start at zero); if
    labels still improve after m rounds, walking the predecessor arcs
    lands on a negative cycle.
    """
    m = res.m
    if m == 0:
        return None
    dist = [0] * m
    pred: list[Optional[ResidualArc]] = [None] * m
    last_updated = -1
    for round_no in range(m + 1):
        changed = False
        for a in res.arcs:
            if a.cap <= 0:
                continue
            nd = dist[a.tail] + a.cost
            if nd < dist[a.head]:
                dist[a.head] = nd
                pred[a.head] = a
                changed = True
                last_updated = a.head
        if not changed:
            return None
    x = last_updated
    for _ in range(m):
        a = pred[x]
        assert a is not None
        x = a.tail
    cycle_rev: list[ResidualArc] = []
    cur = x
    while True:
        a = pred[cur]
        assert a is not None
        cycle_rev.append(a)
        cur = a.tail
        if cur == x:
            break
    cycle = list(reversed(cycle_rev))
    assert sum(a.cost for a in cycle) < 0
    return cycle


def cancel_cycle(net: FlowNetwork, f: Flow, cycle: list[ResidualArc]) -> Flow:
    """Push the bottleneck amount around a residual cycle."""
    if not cycle:
        raise InvalidCycleError("empty arc list")
    for i, a in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        if a.head != nxt.tail:
            raise InvalidCycleError(f"arc {i} ends at {a.head}, next starts at {nxt.tail}")
    bottleneck = INF
    for a in cycle:
        orig = net.arcs[a.arc]
        v = f.values[a.arc]
        room = (orig.upper - v) if a.forward else (v - orig.lower)
        if room <= 0:
            raise InvalidCycleError(f"arc over {a.tail}->{a.head} has no residual capacity")
        bottleneck = min(bottleneck, room)
    out = f.copy()
    for a in cycle:
        out.values[a.arc] += bottleneck if a.forward else -bottleneck
    return out


@dataclass
class CirculationResult:
    flow: Flow
    iterations: int
    initial_cost: int
    final_cost: int


def min_cost_circulation(net: FlowNetwork, f0: Flow) -> CirculationResult:
    """Cancel negative residual cycles until none remains.

    Costs are integers, so every cancel improves the cost by at least
    one and the iteration count is bounded by the total improvement.
    """
    check_feasible(net, f0)
    f = f0.copy()
    c0 = f.cost(net)
    iterations = 0
    while True:
        cyc = find_negative_cycle(residual(net, f))
        if cyc is None:
            break
        f = cancel_cycle(net, f, cyc)
        iterations += 1
    cf = f.cost(net)
    assert iterations <= c0 - cf, "more cancels than total cost improvement"
    return CirculationResult(f, iterations, c0, cf)


@dataclass
class MinFlowResult:
    flow: Flow
    searches: int
    pushes: int


def _residual_path(res: ResidualGraph, src: int, dst: int) -> Optional[list[ResidualArc]]:
    """BFS for a positive-capacity residual path, scanning arcs in order."""
    prev: list[Optional[ResidualArc]] = [None] * res.m
    seen = [False] * res.m
    seen[src] = True
    queue = [src]
    while queue:
        nxt: list[int] = []
        for x in queue:
            for ai in res.out[x]:
                a = res.arcs[ai]
                if a.cap > 0 and not seen[a.head]:
                    seen[a.head] = True
                    prev[a.head] = a
                    if a.head == dst:
                        path: list[ResidualArc] = []
                        cur = dst
                        while cur != src:
                            pa = prev[cur]
                            assert pa is not None
                            path.append(pa)
                            cur = pa.tail
                        return list(reversed(path))
                    nxt.append(a.head)
        queue = nxt
    return None


def min_flow(net: FlowNetwork, f0: Flow) -> MinFlowResult:
    """Reduce a feasible s-t flow to minimum value.

    Repeatedly finds a t-to-s residual path and pushes the bottleneck
    along it; each push lowers the flow value, so successful searches
    are bounded by the total decrease.
    """
    if net.ts_arc is not None:
        raise InvalidCycleError("min_flow expects a network without a return arc")
    check_feasible(net, f0)
    f = f0.copy()
    v0 = f.value(net)
    searches = 0
    pushes = 0
    while True:
        res = residual(net, f)
        searches += 1
        path = _residual_path(res, net.t, net.s)
        if path is None:
            break
        bottleneck = min(a.cap for a in path)
        for a in path:
            f.values[a.arc] += bottleneck if a.forward else -bottleneck
        pushes += 1
        check_feasible(net, f)
    assert pushes <= v0 - f.value(net), "more pushes than total value decrease"
    return MinFlowResult(f, searches, pushes)


def has_decrementing_path(net: FlowNetwork, f: Flow) -> bool:
    """True when a t-to-s residual path still exists."""
    res = residual(net, f)
    return _residual_path(res, net.t, net.s) is not None


@dataclass(frozen=True)
class NetworkPath:
    """One unit of flow peeled off as an s-t path of network arcs."""

    nodes: tuple[int, ...]
    arcs: tuple[int, ...]


def decompose(net: FlowNetwork, f: Flow) -> list[NetworkPath]:
    """Peel a flow into exactly |f| unit s-t paths (return arc excluded).

    At every node the unit follows the positive-flow arc whose head is
    earliest in topological order, parallel arcs resolved by arc id.
    The peeled paths reconstruct the flow arc-exactly.
    """
    check_feasible(net, f)
    value = f.value(net)
    remaining = list(f.values)
    topo = net.node_topo_pos()
    paths: list[NetworkPath] = []
    for _ in range(value):
        nodes = [net.s]
        arcs: list[int] = []
        cur = net.s
        while cur != net.t:
            best = -1
            for ai in net.out_arcs[cur]:
                if ai == net.ts_arc or remaining[ai] <= 0:
                    continue
                if best < 0 or topo[net.arcs[ai].head] < topo[net.arcs[best].head] or (
                        topo[net.arcs[ai].head] == topo[net.arcs[best].head] and ai < best):
                    best = ai
            if best < 0:
                raise ConservationError(cur)
            remaining[best] -= 1
            cur = net.arcs[best].head
            nodes.append(cur)
            arcs.append(best)
        paths.append(NetworkPath(tuple(nodes), tuple(arcs)))
    for i, left in enumerate(remaining):
        if i != net.ts_arc and left != 0:
            raise ConservationError(net.arcs[i].tail)
    return paths


def shortest_distances(res: ResidualGraph, s: int) -> list[Optional[int]]:
    """Exact shortest distances from s over positive-capacity arcs.

    Bellman-Ford with early exit; raises NegativeCycleError if labels
    still improve after m rounds. Unreachable nodes get None.
    """
    m = res.m
    dist: list[Optional[int]] = [None] * m
    if m == 0:
        return dist
    dist[s] = 0
    for _ in range(m + 1):
        changed = False
        for a in res.arcs:
            if a.cap <= 0 or dist[a.tail] is None:
                continue
            nd = dist[a.tail] + a.cost
            if dist[a.head] is None or nd < dist[a.head]:
                dist[a.head] = nd
                changed = True
        if not changed:
            return dist
    raise NegativeCycleError("negative cycle reachable from source")
