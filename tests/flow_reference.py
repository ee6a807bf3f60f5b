"""Reference copies of flow code that flowcore replaced.

ArcNetwork is the generic network that SplitNetwork replaced, built
from frozen Arc records and read one arc at a time, with a Kahn order;
flowcore's solvers and checks take it as they take a SplitNetwork.
Each residual arc is a frozen ResidualArc record; the Bellman-Ford
searches scan those records.
ssp_circulation keeps the successive-shortest-path solve that queued
the stop node under its own id and ran a separate, final search for
the labels, and tuple_dijkstra the search that queued (label, key)
tuples. check_feasible is the flow check that residual()'s errors are
compared with: it balances every node one arc at a time, whatever the
network's layout. decompose and vertex_paths peel a flow at network
level and map each path's arcs back to vertices, the route to chain
witnesses that flowcore.peel_paths replaced. Tests compare flowcore against these on random inputs.
"""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, mul
from typing import Optional

from gkcover.dagcore import _topological_order
from gkcover.errors import ConservationError, InfeasibleFlowError
from gkcover.flowcore import INF, _augment, _start_potentials, residual, zero_flow


class NegativeCycleError(Exception):
    """The reference search reached a negative cycle from its source."""


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    upper: int
    cost: int


def arcs(net):
    """The arcs of an ArcNetwork or a SplitNetwork as records, in id order."""
    return list(map(Arc, net.tail, net.head, net.lower, net.upper, net.cost))


class ArcNetwork:
    """A network on nodes 0..m-1 built from Arc records, with source s,
    sink t and, when ``ts_arc`` names one, a return arc. Aside from the
    return arc the network must be acyclic for a topological order."""

    def __init__(self, m, records, s, t, ts_arc=None):
        self.m, self.s, self.t, self.ts_arc = m, s, t, ts_arc
        self.tail, self.head, self.lower, self.upper, self.cost = (
            [getattr(a, f) for a in records] for f in ("tail", "head", "lower", "upper", "cost"))
        # the two columns that min_flow reads by name
        _, self._rhead, _, self._out = self._paired

    @cached_property
    def _paired(self):
        """Tail, head and cost of every paired residual arc, and the paired
        arcs leaving each node in arc order without the return arc's pair."""
        rtail, rhead, rcost = [], [], []
        out = [[] for _ in range(self.m)]
        for i, (u, w, c) in enumerate(zip(self.tail, self.head, self.cost)):
            rtail += (u, w)
            rhead += (w, u)
            rcost += (c, -c)
            if i != self.ts_arc:
                out[u].append(2 * i)
                out[w].append(2 * i + 1)
        return rtail, rhead, rcost, out

    @cached_property
    def _topo(self):
        """The nodes in Kahn order over all arcs except the return arc,
        and each node's position in that order."""
        _, rhead, _, out = self._paired
        # the in-degrees: the arcs into a node are the odd (undo) ids in its list
        order = _topological_order([[rhead[r] for r in rs if not r & 1] for rs in out],
                                   [sum(r & 1 for r in rs) for rs in out])
        return order, sorted(range(self.m), key=order.__getitem__)  # inverse permutation

    def node_topo_pos(self):
        return self._topo[1]

    def flow_value(self, flow):
        """The flow on the return arc, or else the net flow out of s."""
        if self.ts_arc is not None:
            return flow[self.ts_arc]
        s = self.s
        return sum(x * ((u == s) - (w == s)) for u, w, x in zip(self.tail, self.head, flow))

    def flow_cost(self, flow):
        return sum(map(mul, flow, self.cost))

    def _unbalanced_node(self, values):
        """The smallest node whose inflow and outflow differ, s and t
        aside without a return arc, or None."""
        balance = [0] * self.m
        for u, w, x in zip(self.tail, self.head, values):
            balance[u] -= x
            balance[w] += x
        if self.ts_arc is None:
            balance[self.s] = balance[self.t] = 0
        return next((v for v, b in enumerate(balance) if b), None)


def split_arcs(n, edges, gadgets, demand=(), ret=None):
    """The vertex-split network's arcs, built one Arc at a time."""
    s, t = 2 * n, 2 * n + 1
    arcs = []
    for v in range(n):
        arcs.append(Arc(s, 2 * v, 0, INF, 0))
        for j, (upper, cost) in enumerate(gadgets):
            lower = 1 if j == 0 and v in demand else 0
            arcs.append(Arc(2 * v, 2 * v + 1, lower, upper, cost))
        arcs.append(Arc(2 * v + 1, t, 0, INF, 0))
    arcs.extend(Arc(2 * u + 1, 2 * v, 0, INF, 0) for u, v in edges)
    if ret is not None:
        arcs.append(Arc(t, s, 0, *ret))
    return arcs


def check_feasible(net, values):
    """The length, then the first arc outside its bounds, then the
    smallest unbalanced node by ArcNetwork's per-arc balance, also for
    a SplitNetwork."""
    if len(values) != len(net.lower):
        raise InfeasibleFlowError("flow vector length does not match arc count")
    for i, (x, lo, up) in enumerate(zip(values, net.lower, net.upper)):
        if not lo <= x <= up:
            raise InfeasibleFlowError(f"arc {i} carries {x}, outside [{lo}, {up}]")
    v = ArcNetwork._unbalanced_node(net, values)
    if v is not None:
        raise InfeasibleFlowError(f"conservation fails at node {v}")


@dataclass(frozen=True)
class ResidualArc:
    tail: int
    head: int
    cap: int
    cost: int
    arc: int
    forward: bool


def residual_arcs(arcs, values):
    """Residual arcs of a flow: forward slack and undo arcs, in arc order."""
    out = []
    for i, a in enumerate(arcs):
        v = values[i]
        if v < a.upper:
            cap = INF if a.upper >= INF else a.upper - v
            out.append(ResidualArc(a.tail, a.head, cap, a.cost, i, True))
        if v > a.lower:
            out.append(ResidualArc(a.head, a.tail, v - a.lower, -a.cost, i, False))
    return out


def find_negative_cycle(m, arcs) -> Optional[list[ResidualArc]]:
    """Bellman-Ford from a virtual source over ResidualArc records."""
    if m == 0:
        return None
    dist = [0] * m
    pred = [None] * m
    last_updated = -1
    for _ in range(m + 1):
        changed = False
        for a in arcs:
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
        x = pred[x].tail
    cycle_rev = []
    cur = x
    while True:
        a = pred[cur]
        cycle_rev.append(a)
        cur = a.tail
        if cur == x:
            break
    return list(reversed(cycle_rev))


def shortest_distances(m, arcs, s):
    """Bellman-Ford from s over ResidualArc records; None marks unreachable."""
    dist = [None] * m
    if m == 0:
        return dist
    dist[s] = 0
    for _ in range(m + 1):
        changed = False
        for a in arcs:
            if a.cap <= 0 or dist[a.tail] is None:
                continue
            nd = dist[a.tail] + a.cost
            if dist[a.head] is None or nd < dist[a.head]:
                dist[a.head] = nd
                changed = True
        if not changed:
            return dist
    raise NegativeCycleError("negative cycle reachable from source")


def residual_bfs(m, arcs, src, dst):
    """Breadth-first search over ResidualArc records, scanning each node's
    arcs in order and stopping when dst is first seen."""
    out = [[] for _ in range(m)]
    for a in arcs:
        out[a.tail].append(a)
    prev = [None] * m
    seen = [False] * m
    seen[src] = True
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            for a in out[x]:
                if a.cap > 0 and not seen[a.head]:
                    seen[a.head] = True
                    prev[a.head] = a
                    if a.head == dst:
                        path, cur = [], dst
                        while cur != src:
                            path.append(prev[cur])
                            cur = prev[cur].tail
                        return path, seen
                    nxt.append(a.head)
        queue = nxt
    return None, seen


def min_flow(net, f0):
    """The minimum flow computed by rebuilding the residual arcs before
    every search: (flow values, searches, pushes, nodes seen by the last
    search)."""
    records = arcs(net)
    f = list(f0)
    searches = pushes = 0
    while True:
        searches += 1
        path, seen = residual_bfs(net.m, residual_arcs(records, f), net.t, net.s)
        if path is None:
            return f, searches, pushes, seen
        push = min(a.cap for a in path)
        for a in path:
            f[a.arc] += push if a.forward else -push
        pushes += 1


def dijkstra(out, head, cost, cap, pi, heap, stop=-1):
    """Dijkstra on reduced costs from the (label, node) pairs in heap,
    until stop is taken; stop sorts among equal labels by its id."""
    dist = [math.inf] * len(out)
    pred = [-1] * len(out)
    for d, v in heap:
        if d < dist[v]:
            dist[v] = d
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == stop:
            break
        for r in out[u]:
            if cap[r] > 0:
                w = head[r]
                nd = d + pi[u] + cost[r] - pi[w]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = r
                    heapq.heappush(heap, (nd, w))
    return dist, pred


def ssp_circulation(net):
    """Successive shortest paths with one search per round, stopped at
    the return arc's tail, and one more, full search for the labels:
    (flow values, iterations, labels, final cost, residual capacities,
    searches). No certificate."""
    f = zero_flow(net)
    cap = residual(net, f)
    _, head, cost, out = net._paired
    ret = net.ts_arc
    src, dst = net.head[ret], net.tail[ret]
    pi = _start_potentials(net, cap)
    iterations = searches = 0
    while cap[2 * ret] > 0:
        dist, pred = dijkstra(out, head, cost, cap, pi, [(0, src)], dst)
        searches += 1
        dt = dist[dst]
        if dt == math.inf or dt + pi[dst] - pi[src] + net.cost[ret] >= 0:
            break
        path = [2 * ret]
        x = dst
        while x != src:
            path.append(pred[x])
            x = head[pred[x] ^ 1]
        _augment(path, min(cap[r] for r in path), cap, f)
        pi = list(map(add, pi, map(min, dist, repeat(dt))))
        iterations += 1
    undo = 2 * ret + 1
    starts = [(0, src)]
    if cap[undo] > 0:
        starts.append((cost[undo] + pi[src] - pi[dst], dst))
    dist, _ = dijkstra(out, head, cost, cap, pi, starts)
    searches += 1
    far = max(x for x in dist if x != math.inf)
    labels = [(x if x != math.inf else far) + p - pi[src] for x, p in zip(dist, pi)]
    return f, iterations, labels, net.flow_cost(f), cap, searches


def tuple_dijkstra(net, cap, pi, src, stop, seed, below):
    """Dijkstra on reduced costs from src at label 0 and stop at label
    seed (math.inf for none), queuing (label, key) tuples with key -1
    for stop, so that stop is taken first among equal labels; taking it
    below ``below`` ends the search. Returns the labels and the arc that
    last lowered each."""
    _, head, cost, out = net._paired
    m = len(out)
    dist = [math.inf] * m
    pred = [-1] * m
    key = list(range(m))
    key[stop] = -1
    dist[src] = 0
    heap = [(0, src)]
    if seed < math.inf:
        dist[stop] = seed
        heap.append((seed, -1))
        heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if u < 0:
            if d < below:
                break
            u = stop
        if d > dist[u]:
            continue
        base = d + pi[u]
        for r in out[u]:
            if cap[r] > 0:
                w = head[r]
                nd = base + cost[r] - pi[w]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = r
                    heapq.heappush(heap, (nd, key[w]))
    return dist, pred


def decompose(net, f):
    """The unit s-t paths of a flow as (nodes, arcs) tuples, the return
    arc aside. At every node the unit takes the arc with flow left whose
    head comes first in net.node_topo_pos(), parallel arcs by arc id.
    ConservationError names the node where a unit gets stuck, or else
    the tail of the first arc with flow left over."""
    pos = net.node_topo_pos()
    out = [[] for _ in range(net.m)]
    for i, u in enumerate(net.tail):
        if i != net.ts_arc:
            out[u].append(i)
    left = list(f)
    paths = []
    for _ in range(net.flow_value(f)):
        nodes, arcs = [net.s], []
        while nodes[-1] != net.t:
            live = [i for i in out[nodes[-1]] if left[i] > 0]
            if not live:
                raise ConservationError(nodes[-1])
            i = min(live, key=lambda i: (pos[net.head[i]], i))
            left[i] -= 1
            nodes.append(net.head[i])
            arcs.append(i)
        paths.append((tuple(nodes), tuple(arcs)))
    for i, x in enumerate(left):
        if i != net.ts_arc and x:
            raise ConservationError(net.tail[i])
    return paths


def vertex_paths(split, net_paths):
    """Each network path of a SplitNetwork as its vertices, read off its
    gadget arcs by the layout, and the gadget index of its first one."""
    out = []
    for _, arcs in net_paths:
        owned = [divmod(i, split.stride) for i in arcs]
        gadgets = [(v, j - 1) for v, j in owned if v < split.n and 0 < j < split.stride - 1]
        out.append((tuple(v for v, _ in gadgets), gadgets[0][1]))
    return out
