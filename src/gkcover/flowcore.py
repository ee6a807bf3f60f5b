"""Integer min-cost circulation, minimum flow and the unit paths of a flow.

The one network is SplitNetwork, the vertex-split network of a DAG
that the exact solver and the greedy rounds share. It is stored as
parallel integer lists with one entry per arc (``tail``, ``head``,
``lower``, ``upper``, ``cost``), and a flow as one more plain list
aligned with them. The lists and the adjacency are built with the
network, read off its regular layout, with only the edge arcs placed
one at a time. Its topological order is the DAG's depth levels, given
by SplitNetwork.take_levels. A flow's residual graph is the network's
paired arcs, 2i along network arc i and 2i+1 against it, plus one
capacity list. The network builds the paired heads and adjacency with
itself, and the paired tails and costs, which only the exact solver
reads, on first use. residual() builds the capacity list, every
routine on the residual graph takes the network and the list, the
solvers update the list in place, and the two checks on a solved flow
scan the arcs that have room.

residual() is the one flow check: a flow's length, then its bounds,
then conservation. It reads the bounds off the capacities it builds,
since a capacity is negative exactly where the flow leaves its bounds.
Conservation is read off the layout: per vertex it compares the entry
and edges in, the gadget columns, and the exit and edges out, from
stride slices of the flow, so that only the edge arcs with flow take a
step each.

min_cost_circulation runs successive shortest paths (Edmonds-Karp 1972,
Tomizawa 1971) from the zero flow: start potentials from one pass in
topological order, which settles them because at the zero flow only the
acyclic forward arcs have room, then Dijkstra on reduced costs over the
paired arcs, its heap entries single ints that order by label with the
sink first among equal labels. A search stops at the sink only for an
improving path; the one that does not runs to the end, and its
distances from the source are the labels, so a solve runs one search
per augmentation and one more. After an augmentation only the nodes the
search settled change potential: the rest would all move by the same
amount, and every use of the potentials is a difference. The
optimality certificate runs on the solver's own capacities, once they
are checked to equal residual() of the flow: one reduced-cost pass of
the capacities and labels (ReducedCosts, C-level maps) confirms a valid
potential, and only other labels go on to the full Bellman-Ford
negative-cycle search, the one Bellman-Ford left. check_distances
proves in O(m) that given labels are the exact shortest distances, so
callers can read the labels without trusting them. Handed the solve's
pass, it reuses it for capacities and labels equal to the copies the
pass keeps, and computes a new pass for any others.

min_flow pushes along breadth-first t-to-s residual paths over the same
paired arcs, in place, on capacities its caller built once: the greedy
rounds keep one list per run and relax it between rounds. residual()
checks the start flow, and min_flow proves each push in O(path), so
every flow it returns is feasible by induction. Its last, failed search
marks the nodes reachable from t (MinFlowResult.t_reach), the cut that
a maximum antichain is read off. route_paths and peel_paths turn
vertex sequences into a SplitNetwork's unit paths and back.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, gt, mul, neg, not_, sub
from typing import Container, Iterable, NamedTuple, Optional, Sequence

from .errors import ConservationError, InfeasibleFlowError, InvalidCycleError, MismatchError

# Sentinel capacity, larger than any finite value our networks can carry.
INF = 10**18


class SplitNetwork:
    """Vertex-split flow network of a DAG on vertices 0..n-1, with
    lower/upper bounds and integer costs.

    Network arc i runs from ``tail[i]`` to ``head[i]`` with bounds
    ``lower[i]`` and ``upper[i]`` and cost ``cost[i]``; a flow is a list
    aligned with them. The ``m`` nodes are v_in = 2v, v_out = 2v+1,
    s = 2n and t = 2n+1. Vertex v owns consecutive arc ids: entry
    (s, v_in), one (v_in, v_out) arc per ``gadgets`` entry (upper,
    cost), exit (v_out, t). Edge arcs follow in edge-list order; the
    return arc (t, s), given as (upper, cost), is last when present and
    named by ``ts_arc``; without it the network is in plain s-t flow
    form. The first gadget arc of every vertex in ``demand`` carries
    lower bound 1. The arc lists, the paired residual heads (``_rhead``)
    and the adjacency (``_out``) are built from this layout; only
    ``lower`` may change once they are (release). ``_paired`` adds the
    paired tails and costs on its first read (``_paired_cache``).
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 gadgets: Sequence[tuple[int, int]], demand: Container[int] = (),
                 ret: Optional[tuple[int, int]] = None):
        self.n = n
        self.edges = edges
        stride = self.stride = len(gadgets) + 2
        s, t = 2 * n, 2 * n + 1
        ins, outs = range(0, 2 * n, 2), range(1, 2 * n, 2)
        base = stride * n
        size = base + len(edges) + (ret is not None)
        # Every arc starts as (s, t) with bounds [0, INF] and cost 0; the
        # slices below set the entry heads, the gadget arcs, the exit
        # tails and the edge arcs.
        tail, head = [s] * size, [t] * size
        lower, upper, cost = [0] * size, [INF] * size, [0] * size
        head[0:base:stride] = ins
        for j, (up, c) in enumerate(gadgets, 1):
            tail[j:base:stride] = ins
            head[j:base:stride] = outs
            upper[j:base:stride] = [up] * n
            cost[j:base:stride] = [c] * n
        tail[stride - 1:base:stride] = outs
        if gadgets:
            lower[1:base:stride] = [1 if v in demand else 0 for v in range(n)]
        tail[base:base + len(edges)] = [2 * u + 1 for u, _ in edges]
        head[base:base + len(edges)] = [2 * v for _, v in edges]
        ts_arc = None
        if ret is not None:
            ts_arc = size - 1
            tail[ts_arc], head[ts_arc] = t, s
            upper[ts_arc], cost[ts_arc] = ret
        self.m, self.s, self.t, self.ts_arc = 2 * n + 2, s, t, ts_arc
        self.tail, self.head, self.lower, self.upper, self.cost = tail, head, lower, upper, cost
        # The paired residual arcs' heads, 2i along network arc i and
        # 2i + 1 against it, and the adjacency: all that min_flow reads.
        rhead = [0] * (2 * size)
        rhead[0::2] = head
        rhead[1::2] = tail
        self._rhead, self._out = rhead, self._adjacency()
        # _paired's columns, built on its first read. The slot is set
        # here, not by a functools.cached_property: one that writes the
        # instance's __dict__ after construction slowed every later
        # attribute read, small exact solves by about 4% on CPython 3.11.
        self._paired_cache: Optional[tuple] = None

    @property
    def _paired(self) -> tuple[list[int], list[int], list[int], list[list[int]]]:
        """Tail, head and cost of every paired residual arc, then the
        adjacency. The tails and costs, which only the exact solver
        reads, are built on the first read."""
        if self._paired_cache is None:
            rtail, rcost = [0] * len(self._rhead), [0] * len(self._rhead)
            rtail[0::2] = self.tail
            rtail[1::2] = self.head
            rcost[0::2] = self.cost
            rcost[1::2] = map(neg, self.cost)
            self._paired_cache = rtail, self._rhead, rcost, self._out
        return self._paired_cache

    def _adjacency(self) -> list[list[int]]:
        """The paired arcs leaving each node, in network-arc order and
        without the return arc's pair, read off the layout: the even ids
        leaving a node are its outgoing arcs, the odd ones its incoming.

        v_in lists its entry's undo arc, its gadget arcs, then the undo
        arc of each edge into v; v_out its gadget undo arcs, its exit, then
        each edge out of v. s lists the entries and t the exit undo arcs.
        """
        n, stride, edges = self.n, self.stride, self.edges
        step, end = 2 * stride, 2 * stride * n
        # the paired ids of vertex v's arcs run from step * v, in arc order
        gadgets = [range(2 * j, end, step) for j in range(1, stride - 1)]
        out: list = [None] * (2 * n + 2)
        out[0:2 * n:2] = map(list, zip(range(1, end, step), *gadgets))
        out[1:2 * n:2] = map(list, zip(*[range(g.start + 1, end, step) for g in gadgets],
                                       range(step - 2, end, step)))
        out[2 * n] = list(range(0, end, step))
        out[2 * n + 1] = list(range(step - 1, end, step))
        for r, (u, v) in enumerate(edges, stride * n):
            out[2 * u + 1].append(2 * r)
            out[2 * v].append(2 * r + 1)
        return out

    def node_topo_pos(self) -> list[int]:
        """Each node's position in the order that take_levels fixed."""
        return self._topo[1]

    def flow_value(self, flow: Sequence[int]) -> int:
        """The flow on the return arc, or else the flow out of s: without
        a return arc, no arc enters s and the arcs leaving it are the
        entries."""
        if self.ts_arc is not None:
            return flow[self.ts_arc]
        return sum(flow[0:self.stride * self.n:self.stride])

    def flow_cost(self, flow: Sequence[int]) -> int:
        return sum(map(mul, flow, self.cost))

    def _unbalanced_node(self, values: Sequence[int]) -> Optional[int]:
        """The smallest node whose inflow and outflow differ, s and t
        aside without a return arc, or None, read off the layout.

        Per vertex, the entry plus the edges in (into v_in), the gadget
        columns (v_in to v_out) and the exit plus the edges out (out of
        v_out) must agree. Entries, gadgets and exits are stride slices of
        the flow; only the edge arcs with flow take a step each. s is
        checked against the return arc when there is one; t then
        balances too, since the balances of all nodes sum to zero.
        """
        n, stride = self.n, self.stride
        base = stride * n
        into = values[0:base:stride]
        out = values[stride - 1:base:stride]
        through = values[1:base:stride] if stride > 2 else [0] * n
        for j in range(2, stride - 1):
            through = list(map(add, through, values[j:base:stride]))
        ret = self.ts_arc
        s_fault = ret is not None and values[ret] != sum(into)
        flows = values[base:base + len(self.edges)]
        for (u, v), x in zip(compress(self.edges, flows), compress(flows, flows)):
            out[u] += x
            into[v] += x
        if into != through or through != out:
            for v, (a, b, c) in enumerate(zip(into, through, out)):
                if a != b:
                    return 2 * v
                if b != c:
                    return 2 * v + 1
        return self.s if s_fault else None

    def take_levels(self, levels: Iterable[Sequence[int]]) -> None:
        """Fix the network's topological order: s, then per level its
        v_in nodes followed by its v_out nodes, then t.

        On the DAG's longest-path depth levels, each in the DAG's FIFO
        Kahn order, this is the FIFO Kahn order of the network itself.
        """
        order = [2 * self.n]
        for level in levels:
            ins = [2 * v for v in level]
            order += ins
            order += [v + 1 for v in ins]
        order.append(2 * self.n + 1)
        pos = [0] * len(order)
        for idx, v in enumerate(order):
            pos[v] = idx
        self._topo = order, pos

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

    def release(self, vertices: Iterable[int]) -> list[int]:
        """Drop the lower bound of each vertex's first gadget arc, in place.

        A flow feasible before stays feasible: bounds only relax. Returns
        the arcs whose bound dropped from 1 to 0; in a residual graph of
        such a flow, the undo capacity of each (2i + 1) rises by one.
        """
        lower = self.lower
        dropped = []
        for v in vertices:
            a = self.gadget(v)
            if lower[a]:
                lower[a] = 0
                dropped.append(a)
        return dropped


def zero_flow(net: SplitNetwork) -> list[int]:
    return [0] * len(net.tail)


def route_paths(split: SplitNetwork, paths: Iterable[Sequence[int]]) -> list[int]:
    """One unit of flow per vertex sequence, through each vertex's first
    gadget arc with room, and around the return arc when there is one."""
    values, upper, ret = zero_flow(split), split.upper, split.ts_arc
    stride = split.stride
    # arc ids by the layout: entry stride * v, first gadget one past it,
    # exit stride - 1 past it; a repeated edge keeps its last id
    edge_arc = dict(zip(split.edges, count(stride * split.n)))
    for p in paths:
        values[stride * p[0]] += 1
        for v in p:
            ai = stride * v + 1
            while values[ai] >= upper[ai]:
                ai += 1
            values[ai] += 1
        for e in zip(p, p[1:]):
            values[edge_arc[e]] += 1
        values[stride * p[-1] + stride - 1] += 1
        if ret is not None:
            values[ret] += 1
    return values


def peel_paths(split: SplitNetwork, f: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """route_paths' inverse: each unit of the flow's value as its vertex
    sequence and the gadget index it took at its first vertex.

    From s, and from each vertex after its first gadget arc with flow
    left, a unit takes the arc with flow left whose head comes first in
    topological order, parallel arcs by id, and the exit only when no
    edge arc is left. Flow only drops, so each node's arcs are sorted
    once and popped when spent. Bounds are not checked.
    ConservationError names the node where a unit gets stuck, or else
    the tail of the first arc, the return arc aside, with flow left over.
    """
    n, stride = split.n, split.stride
    pos, head = split.node_topo_pos(), split.head
    left = list(f)
    base = stride * n
    # the entries and edge arcs with flow, by tail (s as n, v_out as v),
    # each a stack that pops them by head position, then by id
    nxt: list[list[int]] = [[] for _ in range(n + 1)]
    ids = [*range(0, base, stride), *range(base, base + len(split.edges))]
    for e in sorted(compress(ids, map(left.__getitem__, ids)), key=lambda e: (-pos[head[e]], -e)):
        nxt[split.tail[e] >> 1].append(e)
    paths: list[tuple[tuple[int, ...], int]] = []
    for _ in range(split.flow_value(f)):
        v, vs = n, []
        while True:
            arcs = nxt[v]
            while arcs and left[arcs[-1]] <= 0:
                arcs.pop()
            if not arcs:
                break
            left[arcs[-1]] -= 1
            v = head[arcs[-1]] >> 1
            a = first = stride * v + 1
            end = first + stride - 2
            while a < end and left[a] <= 0:
                a += 1
            if a == end:
                raise ConservationError(2 * v)
            left[a] -= 1
            if not vs:
                gadget = a - first
            vs.append(v)
        # stuck at s (node 2n) before any vertex, or at v_out
        if not vs or left[end] <= 0:
            raise ConservationError(2 * v + bool(vs))
        left[end] -= 1
        paths.append((tuple(vs), gadget))
    if split.ts_arc is not None:
        left[split.ts_arc] = 0
    if any(left):
        raise ConservationError(split.tail[next(i for i, x in enumerate(left) if x)])
    return paths


def residual(net: SplitNetwork, f: Sequence[int]) -> list[int]:
    """The paired residual capacities of a feasible flow: upper less flow
    on 2i (INF less flow on an uncapped arc) and flow less lower on
    2i + 1. The arcs they belong to are the network's ``_paired`` columns.

    Raise InfeasibleFlowError on a length, bound or conservation
    violation, in that order. A capacity is negative exactly where the
    flow leaves its bounds, so the capacities are the bound check, and
    the first negative one names the first bad arc. Conservation names
    the smallest unbalanced node; s and t are exempt from it in a network
    without a return arc.
    """
    if len(f) != len(net.lower):
        raise InfeasibleFlowError("flow vector length does not match arc count")
    cap = [0] * (2 * len(f))
    cap[0::2] = map(sub, net.upper, f)
    cap[1::2] = map(sub, f, net.lower)
    if min(cap, default=0) < 0:
        i = next(r for r, x in enumerate(cap) if x < 0) >> 1
        raise InfeasibleFlowError(
            f"arc {i} carries {f[i]}, outside [{net.lower[i]}, {net.upper[i]}]")
    v = net._unbalanced_node(f)
    if v is not None:
        raise InfeasibleFlowError(f"conservation fails at node {v}")
    return cap


class ReducedCosts(NamedTuple):
    """One reduced-cost pass over a residual graph: the network, copies of
    the capacities and labels it was computed from, and the tail, head
    and reduced cost d[u] + c - d[w] of every residual arc with room
    under them, in id order. Only _slack builds one."""

    net: SplitNetwork
    cap: list[int]
    labels: list[int]
    tails: list[int]
    heads: list[int]
    slack: list[int]


def _slack(net: SplitNetwork, cap: Sequence[int], d: Sequence[int]) -> ReducedCosts:
    """The reduced-cost pass of ``cap`` and ``d``; MismatchError unless
    there is one label per node."""
    if len(d) != net.m:
        raise MismatchError(f"{len(d)} labels for a residual graph of {net.m} nodes")
    cap, d = list(cap), list(d)
    tail, head, cost, _ = net._paired
    room = list(map(gt, cap, repeat(0)))
    tails, heads = list(compress(tail, room)), list(compress(head, room))
    get = d.__getitem__
    slack = list(map(sub, map(add, map(get, tails), compress(cost, room)),
                     map(get, heads)))
    return ReducedCosts(net, cap, d, tails, heads, slack)


def _reduced_costs(net: SplitNetwork, cap: Sequence[int], d: Sequence[int],
                   reduced: Optional[ReducedCosts]) -> ReducedCosts:
    """``reduced`` if it was computed on ``net`` from capacities and
    labels equal to ``cap`` and ``d``, else a new pass of them. The pass
    holds its own copies, so a list changed since cannot reuse it."""
    if reduced is not None and reduced.net is net and reduced.cap == cap and reduced.labels == d:
        return reduced
    return _slack(net, cap, d)


def find_negative_cycle(net: SplitNetwork, cap: Sequence[int],
                        labels: Optional[Sequence[int]] = None,
                        reduced: Optional[ReducedCosts] = None) -> Optional[list[int]]:
    """Return the residual arc ids of one negative-cost cycle, or None,
    over the network's paired arcs with room under ``cap``.

    Bellman-Ford from a virtual source, scanning the arcs with room in id
    order, with the labels starting at ``labels`` (zeros when not given;
    MismatchError unless there is one per node). Labels that no arc
    improves, a valid potential, are confirmed by the minimum of one
    reduced-cost pass, ``reduced`` when it was computed from ``cap`` and
    these labels, and only other labels build the arc list for the full
    search, whose verdict does not depend on them. If labels still
    improve after m rounds, walking the predecessor arcs lands on a
    negative cycle. Of a returned id r, ``r >> 1`` is the network arc,
    and ``r & 1`` marks an undo arc.
    """
    m = net.m
    dist = [0] * m if labels is None else list(labels)
    if min(_reduced_costs(net, cap, dist, reduced).slack, default=0) >= 0:
        return None
    tail, head, cost, _ = net._paired
    arcs = [(r, u, w, c) for r, (u, w, c, x) in enumerate(zip(tail, head, cost, cap)) if x > 0]
    pred = [-1] * m
    last_updated = -1
    for _ in range(m + 1):
        changed = False
        for r, u, w, c in arcs:
            nd = dist[u] + c
            if nd < dist[w]:
                dist[w] = nd
                pred[w] = r
                changed = True
                last_updated = w
        if not changed:
            return None
    x = last_updated
    for _ in range(m):
        if pred[x] < 0:
            raise MismatchError(f"node {x} improved without a predecessor arc")
        x = tail[pred[x]]
    cycle_rev: list[int] = []
    cur = x
    while True:
        r = pred[cur]
        if r < 0:
            raise MismatchError(f"node {cur} on the walk back has no predecessor arc")
        cycle_rev.append(r)
        cur = tail[r]
        if cur == x:
            break
    found = cycle_rev[::-1]
    total = sum(cost[r] for r in found)
    if total >= 0:
        raise MismatchError(f"the predecessor cycle costs {total}, not less than zero")
    return found


def check_distances(net: SplitNetwork, cap: Sequence[int], s: int, d: Sequence[int],
                    reduced: Optional[ReducedCosts] = None) -> None:
    """Raise MismatchError unless ``d`` holds the exact shortest distances
    from s over the network's paired arcs with room under ``cap``.

    Three checks in O(m) prove it, after one that there is a label per
    node: d[s] is zero, no arc (u, w, c) has d[w] > d[u] + c, and the
    arcs with d[w] == d[u] + c reach every node from s. The first two
    bound every label by the cost of any path to it, the third gives
    each label a path of exactly that cost. They run on one reduced-cost
    pass: ``reduced`` when it was computed from ``cap`` and ``d``, else a
    new one of C-level maps; only a failure walks it.
    """
    m = net.m
    p = _reduced_costs(net, cap, d, reduced)
    tails, heads, slack = p.tails, p.heads, p.slack
    if d[s] != 0:
        raise MismatchError(f"the labels do not start at 0 on node {s}")
    if min(slack, default=0) < 0:
        i = next(i for i, x in enumerate(slack) if x < 0)
        u, w = tails[i], heads[i]
        raise MismatchError(f"residual arc ({u}, {w}) of cost {slack[i] + d[w] - d[u]} "
                            f"lowers the label of node {w}")
    tight: list[list[int]] = [[] for _ in range(m)]
    for u, w in compress(zip(tails, heads), map(not_, slack)):
        tight[u].append(w)
    seen = [False] * m
    seen[s] = True
    stack = [s]
    while stack:
        for w in tight[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        raise MismatchError(f"no path of label cost reaches node {seen.index(False)}")


def _augment(path: Iterable[int], push: int, cap: list[int], values: list[int]) -> None:
    """Push ``push`` units along paired residual arcs, in place."""
    for r in path:
        cap[r] -= push
        cap[r ^ 1] += push
        values[r >> 1] += -push if r & 1 else push


@dataclass
class CirculationResult:
    """An optimal circulation with its augmentation count and cost (the
    solve starts from the zero flow, of cost 0), ``labels``: the exact
    shortest distances from the head of the return arc over the residual
    graph of the flow, the return arc's forward pair aside, ``cap``:
    the solver's residual capacities of the flow, which the certificate
    has checked to equal residual() of it, and ``reduced``: the
    certificate's reduced-cost pass of ``cap`` and ``labels``, which
    check_distances reuses while both are unchanged."""

    flow: list[int]
    iterations: int
    final_cost: int
    labels: list[int]
    cap: list[int]
    reduced: ReducedCosts


def _start_potentials(net: SplitNetwork, cap: list[int]) -> list[int]:
    """Labels with non-negative reduced cost on every residual arc in the
    network's adjacency with room under ``cap``.

    One pass over the nodes in the network's topological order, every
    label starting at zero. At the zero flow only forward arcs have room,
    and without the return arc they are acyclic, so every arc into a node
    is relaxed before the node's own arcs and one pass settles every label.
    """
    _, head, cost, out = net._paired
    pi = [0] * net.m
    for u in net._topo[0]:
        pu = pi[u]
        for r in out[u]:
            if cap[r] > 0 and pu + cost[r] < pi[head[r]]:
                pi[head[r]] = pu + cost[r]
    return pi


def _dijkstra(net: SplitNetwork, cap: list[int], pi: list[int], src: int, stop: int,
              seed: float, below: float) -> tuple[list[float], list[int], list[int]]:
    """Dijkstra on reduced costs over the network's paired arcs with room
    under ``cap``, from ``src`` at label 0 and ``stop`` at label ``seed``
    (math.inf for none).

    A heap entry is one int, ``label * (m + 1) + key``, with key 0 for
    ``stop`` and w + 1 for any other node w, so entries order by label,
    ``stop`` first among equal labels, and // and % recover both, also
    for negative labels, since they round down. Taking ``stop`` with a
    label below ``below`` ends the search; otherwise it runs until every
    reachable node is taken. Returns the reduced labels (math.inf where
    not reached), the arc that last lowered each label, and the nodes
    taken at their final label, in the order taken, without a ``stop``
    taken to end the search.
    """
    _, head, cost, out = net._paired
    m = len(out)
    base_key = m + 1
    dist: list[float] = [math.inf] * m
    pred = [-1] * m
    key = list(range(1, base_key))
    key[stop] = 0
    settled: list[int] = []
    dist[src] = 0
    heap = [src + 1]
    if seed < math.inf:
        dist[stop] = seed
        heap.append(seed * base_key)
        heapq.heapify(heap)
    pop, push, take = heapq.heappop, heapq.heappush, settled.append
    while heap:
        e = pop(heap)
        d, u = e // base_key, e % base_key
        if u:
            u -= 1
        elif d < below:
            break
        else:
            u = stop
        if d > dist[u]:
            continue
        take(u)
        base = d + pi[u]
        for r in out[u]:
            if cap[r] > 0:
                w = head[r]
                nd = base + cost[r] - pi[w]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = r
                    push(heap, nd * base_key + key[w])
    return dist, pred, settled


def min_cost_circulation(net: SplitNetwork) -> CirculationResult:
    """Minimum-cost circulation by successive shortest paths from the
    zero flow.

    Each round runs Dijkstra on reduced costs from the head of the return
    arc, src, over the residual graph without the return arc, seeded at
    its tail, dst, with the return arc's undo arc (src to dst) while that
    has room. It stops when it takes dst along a path below the undo
    arc's reduced cost, that is when the path and the return arc close a
    cycle of negative cost, and the return arc has room; then it pushes
    the bottleneck around that cycle. Path costs do not decrease from
    round to round, so the first round that does not stop ends the
    solve, and its search, run to the end, gives the exact residual
    distances from src (``labels``). Nodes it does not reach get their
    potential plus the largest distance found, so the labels stay a
    valid potential. On a SplitNetwork s reaches every node through its
    uncapped entry, overflow and exit arcs, so only the tests'
    arc-record reference networks have such nodes. A solve runs
    ``iterations + 1`` searches. Costs are integers, so every round
    lowers the cost by at least one and ``iterations`` (the
    augmentations) is bounded by the total improvement.

    The capacities of residual() are updated in place. The certificate
    runs on them: residual() of the final flow, which checks the flow,
    must equal them, and a Bellman-Ford search for a negative residual
    cycle started from the labels confirms a valid potential by the
    minimum of one reduced-cost pass of the capacities and labels, and
    searches in full otherwise. The pass is returned (``reduced``) for
    check_distances to prove the labels exact without computing it again.
    """
    if net.ts_arc is None:
        raise InvalidCycleError("min_cost_circulation expects a network with a return arc")
    f = zero_flow(net)
    cap = residual(net, f)
    ret_id = net.ts_arc
    fwd, undo = 2 * ret_id, 2 * ret_id + 1
    src, dst = net.head[ret_id], net.tail[ret_id]
    _, head, cost, _ = net._paired
    pi = _start_potentials(net, cap)
    iterations = 0
    while True:
        # the reduced cost of the return arc's undo arc, src to dst: a
        # path below it closes a negative cycle with the return arc
        rc = cost[undo] + pi[src] - pi[dst]
        room = cap[fwd] > 0
        dist, pred, settled = _dijkstra(net, cap, pi, src, dst,
                                        rc if cap[undo] > 0 else math.inf,
                                        rc if room else -math.inf)
        dt = dist[dst]
        if not (room and dt < rc):
            break
        # the return arc closes the cycle and bounds the push
        path = [fwd]
        x = dst
        while x != src:
            r = pred[x]
            path.append(r)
            x = head[r ^ 1]
        _augment(path, min(map(cap.__getitem__, path)), cap, f)
        # Adding min(dist, dt) to every potential keeps every reduced cost
        # non-negative without finishing the search, since the labels left
        # in the heap are at least dt. Less dt on every node, which no
        # reduced cost or label sees, that is dist - dt on the settled
        # nodes, labelled at most dt, and nothing on the rest.
        for v in settled:
            pi[v] += dist[v] - dt
        iterations += 1
    # the last search ran to the end, so it settled every node it reached
    far = max(map(dist.__getitem__, settled))
    p0 = pi[src]
    labels = [(x if x != math.inf else far) + p - p0 for x, p in zip(dist, pi)]
    if cap != residual(net, f):
        raise MismatchError("the solver's residual capacities differ from its flow's")
    reduced = _slack(net, cap, labels)
    if find_negative_cycle(net, cap, labels, reduced) is not None:
        raise MismatchError("a negative residual cycle remains after the last augmentation")
    cf = net.flow_cost(f)
    if iterations > -cf:
        raise MismatchError(f"{iterations} augmentations for a cost improvement of {-cf}")
    return CirculationResult(f, iterations, cf, labels, cap, reduced)


@dataclass
class MinFlowResult:
    """The search and push counts of a minimum flow, and which nodes are
    reachable from t in its residual graph (seen by the last, failed
    search). The flow itself is the caller's list, reduced in place."""

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


def _proved_push(net: SplitNetwork, cap: Sequence[int], path: Sequence[int]) -> int:
    """The bottleneck of ``path`` (arcs s first, as _residual_bfs returns
    them), once proved in O(path) that its arcs are distinct paired arcs
    joining t to s, their ends read off the network's own ``tail`` and
    ``head`` (2i runs tail[i] to head[i], 2i + 1 back), and that the
    bottleneck is at least 1; MismatchError otherwise."""
    if path and (min(path) < 0 or max(path) >= len(cap)):
        raise MismatchError(f"the path names an arc outside 0..{len(cap) - 1}")
    if len(set(path)) < len(path):
        raise MismatchError("the path takes an arc twice")
    tail, head = net.tail, net.head
    x = net.t
    for r in reversed(path):
        u, w = (head[r >> 1], tail[r >> 1]) if r & 1 else (tail[r >> 1], head[r >> 1])
        if u != x:
            raise MismatchError(f"residual arc {r} leaves node {u}, not node {x}")
        x = w
    if x != net.s:
        raise MismatchError(f"the path ends at node {x}, not at s = {net.s}")
    push = min(map(cap.__getitem__, path))
    if push < 1:
        raise MismatchError(f"a push of {push} along the path")
    return push


def min_flow(net: SplitNetwork, cap: list[int], f: list[int]) -> MinFlowResult:
    """Reduce a feasible s-t flow to minimum value, in place.

    ``cap`` must equal residual(net, f): built by residual(), which
    checks the flow, and kept exact since. Repeatedly finds a t-to-s
    residual path by breadth-first search and pushes the bottleneck
    along it, updating ``cap`` and ``f`` in place, so both stay exact
    for a caller that relaxes bounds and reduces again. Each push lowers
    the flow value, so successful searches are bounded by the total
    decrease, and more pushes than the value fell raise MismatchError.

    The result is feasible by induction, with no O(arcs) check: the
    start flow is, as residual() checked, and _proved_push proves each
    path before its push. A push along distinct arcs from t to s, each
    with room, keeps a flow feasible: the path's interior nodes stay
    balanced, s and t are free without a return arc, and no capacity
    goes negative. Changes made outside min_flow go unnoticed: stale
    capacities (the flow returned, though feasible, need not be
    minimal), and a flow changed between calls without a change to its
    value. Only code outside gkcover can make either.
    """
    if net.ts_arc is not None:
        raise InvalidCycleError("min_flow expects a network without a return arc")
    v0 = net.flow_value(f)
    head, out = net._rhead, net._out
    searches = 0
    pushes = 0
    while True:
        searches += 1
        path, reach = _residual_bfs(out, head, cap, net.t, net.s)
        if path is None:
            break
        _augment(path, _proved_push(net, cap, path), cap, f)
        pushes += 1
    if pushes > v0 - net.flow_value(f):
        raise MismatchError(
            f"{pushes} pushes for a value decrease of {v0 - net.flow_value(f)}")
    return MinFlowResult(searches, pushes, reach)
