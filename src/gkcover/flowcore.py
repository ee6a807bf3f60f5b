"""Integer min-cost circulation, minimum flow and flow decomposition.

min_cost_circulation runs successive shortest paths (Edmonds-Karp 1972,
Tomizawa 1971): start potentials from a pass in topological order, then
Dijkstra on reduced costs over paired residual arcs updated in place,
and one Bellman-Ford negative-cycle search on the result as an
independent optimality certificate. min_flow pushes along breadth-first
t-to-s residual paths over the same paired arcs, with feasibility
checked on the start flow and on the result. SplitNetwork is the
vertex-split network of a DAG that the exact solver and the greedy
rounds share.
"""

from __future__ import annotations

import graphlib
import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

from .errors import (
    ConservationError,
    InfeasibleFlowError,
    InvalidCycleError,
    MismatchError,
    NegativeCycleError,
    NotMinimumError,
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

    def release(self, vertices: Iterable[int]) -> None:
        """Drop the lower bound of each vertex's first gadget arc, in place.

        A flow feasible before stays feasible: bounds only relax.
        """
        arcs = self.net.arcs
        for v in vertices:
            i = self.gadget(v)
            arcs[i] = replace(arcs[i], lower=0)

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


def _paired_residual(net: FlowNetwork, values: list[int], skip: Optional[int] = None
                     ) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Residual graph of a flow as paired arcs: 2i along network arc i,
    2i+1 against it.

    Returns ``head``, ``cost`` and ``cap`` per residual arc, and ``out``:
    the arcs leaving each node in network-arc order, without the pair of
    network arc ``skip``. An arc is usable while its ``cap`` is positive.
    """
    head: list[int] = []
    cost: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(net.m)]
    for i, a in enumerate(net.arcs):
        v = values[i]
        head += (a.head, a.tail)
        cost += (a.cost, -a.cost)
        cap += (a.upper - v, v - a.lower)
        if i != skip:
            out[a.tail].append(2 * i)
            out[a.head].append(2 * i + 1)
    return head, cost, cap, out


def _augment(path: Iterable[int], push: int, cap: list[int], values: list[int]) -> None:
    """Push ``push`` units along paired residual arcs, in place."""
    for r in path:
        cap[r] -= push
        cap[r ^ 1] += push
        values[r >> 1] += -push if r & 1 else push


@dataclass
class CirculationResult:
    flow: Flow
    iterations: int
    initial_cost: int
    final_cost: int


def _start_potentials(m: int, order: list[int], out: list[list[int]], head: list[int],
                      cost: list[int], cap: list[int]) -> list[int]:
    """Labels with non-negative reduced cost on every residual arc in ``out``.

    Label-correcting passes over the nodes in topological order of the
    network, every label starting at zero. Where the residual graph has
    only forward arcs, as it has at the zero flow, the first pass settles
    every label and the second confirms it.
    """
    pi = [0] * m
    for _ in range(m + 1):
        changed = False
        for u in order:
            pu = pi[u]
            for r in out[u]:
                if cap[r] > 0 and pu + cost[r] < pi[head[r]]:
                    pi[head[r]] = pu + cost[r]
                    changed = True
        if not changed:
            return pi
    raise NegativeCycleError("the start flow leaves a negative residual cycle")


def min_cost_circulation(net: FlowNetwork, f0: Flow) -> CirculationResult:
    """Minimum-cost circulation by successive shortest paths.

    Each round runs Dijkstra on reduced costs from the head of the return
    arc to its tail, over the residual graph without the return arc, and
    pushes the bottleneck around the path and the return arc while that
    cycle has negative cost and the return arc has room. Path costs do
    not decrease from round to round, so the first non-negative one ends
    the solve. Residual capacities live in one array of paired arcs (2i
    along network arc i, 2i+1 against it) updated in place. One
    Bellman-Ford search for a negative residual cycle certifies the
    result. Costs are integers, so every round lowers the cost by at
    least one and ``iterations`` (the augmentations) is bounded by the
    total improvement.
    """
    if net.ts_arc is None:
        raise InvalidCycleError("min_cost_circulation expects a network with a return arc")
    check_feasible(net, f0)
    f = f0.copy()
    values = f.values
    c0 = f.cost(net)
    m = net.m
    ret_id = net.ts_arc
    ret = net.arcs[ret_id]
    src, dst = ret.head, ret.tail
    head, cost, cap, out = _paired_residual(net, values, skip=ret_id)
    order = sorted(range(m), key=net.node_topo_pos().__getitem__)
    pi = _start_potentials(m, order, out, head, cost, cap)
    iterations = 0
    while values[ret_id] < ret.upper:
        dist = [math.inf] * m
        pred = [-1] * m
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u == dst:
                break
            base = d + pi[u]
            for r in out[u]:
                if cap[r] > 0:
                    w = head[r]
                    nd = base + cost[r] - pi[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        pred[w] = r
                        heapq.heappush(heap, (nd, w))
        dt = dist[dst]
        if dt == math.inf or dt + pi[dst] - pi[src] + ret.cost >= 0:
            break
        push = ret.upper - values[ret_id]
        path: list[int] = []
        x = dst
        while x != src:
            r = pred[x]
            path.append(r)
            push = min(push, cap[r])
            x = head[r ^ 1]
        _augment(path, push, cap, values)
        values[ret_id] += push
        # Labels still in the heap are at least dt, so this keeps every
        # reduced cost non-negative without finishing the search.
        for v in range(m):
            pi[v] += min(dist[v], dt)
        iterations += 1
    # residual() re-checks feasibility of the final flow.
    if find_negative_cycle(residual(net, f)) is not None:
        raise MismatchError("a negative residual cycle remains after the last augmentation")
    cf = f.cost(net)
    if iterations > c0 - cf:
        raise MismatchError(
            f"{iterations} augmentations for a cost improvement of {c0 - cf}")
    return CirculationResult(f, iterations, c0, cf)


@dataclass
class MinFlowResult:
    """A minimum flow, its search and push counts, and which nodes are
    reachable from t in its residual graph (seen by the last, failed
    search)."""

    flow: Flow
    searches: int
    pushes: int
    t_reach: list[bool]


def _residual_bfs(out: list[list[int]], head: list[int], cap: list[int],
                  src: int, dst: int) -> tuple[Optional[list[int]], list[bool]]:
    """Breadth-first search over paired residual arcs with positive
    capacity, scanning each node's arcs in order and stopping when dst
    is first seen.

    Returns the path's arcs (dst first), or None, with the nodes seen;
    after a failed search they are every node reachable from src.
    """
    prev = [-1] * len(out)
    seen = [False] * len(out)
    seen[src] = True
    queue = [src]
    while queue:
        nxt: list[int] = []
        for x in queue:
            for r in out[x]:
                if cap[r] > 0:
                    w = head[r]
                    if not seen[w]:
                        seen[w] = True
                        prev[w] = r
                        if w == dst:
                            path: list[int] = []
                            while w != src:
                                r = prev[w]
                                path.append(r)
                                w = head[r ^ 1]
                            return path, seen
                        nxt.append(w)
        queue = nxt
    return None, seen


def min_flow(net: FlowNetwork, f0: Flow) -> MinFlowResult:
    """Reduce a feasible s-t flow to minimum value.

    Repeatedly finds a t-to-s residual path by breadth-first search and
    pushes the bottleneck along it, updating the paired residual arcs
    and the flow in place. Feasibility is checked on the start flow and
    on the result. Each push lowers the flow value, so successful
    searches are bounded by the total decrease.
    """
    if net.ts_arc is not None:
        raise InvalidCycleError("min_flow expects a network without a return arc")
    check_feasible(net, f0)
    f = f0.copy()
    values = f.values
    v0 = f.value(net)
    head, _, cap, out = _paired_residual(net, values)
    searches = 0
    pushes = 0
    while True:
        searches += 1
        path, reach = _residual_bfs(out, head, cap, net.t, net.s)
        if path is None:
            break
        _augment(path, min(cap[r] for r in path), cap, values)
        pushes += 1
    check_feasible(net, f)
    if pushes > v0 - f.value(net):
        raise MismatchError(
            f"{pushes} pushes for a value decrease of {v0 - f.value(net)}")
    return MinFlowResult(f, searches, pushes, reach)


def _sink_search(net: FlowNetwork, f: Flow) -> tuple[Optional[list[int]], list[bool]]:
    """min_flow's search from t to s on the residual graph of a feasible flow."""
    check_feasible(net, f)
    head, _, cap, out = _paired_residual(net, f.values)
    return _residual_bfs(out, head, cap, net.t, net.s)


def has_decrementing_path(net: FlowNetwork, f: Flow) -> bool:
    """True when a t-to-s residual path still exists."""
    return _sink_search(net, f)[0] is not None


def sink_reach(net: FlowNetwork, f: Flow) -> list[bool]:
    """The nodes reachable from t in the residual graph of a minimum flow.

    Raises NotMinimumError when s is among them: a decrementing path
    remains.
    """
    path, reach = _sink_search(net, f)
    if path is not None:
        raise NotMinimumError("a decrementing path remains; the flow is not minimum")
    return reach


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
