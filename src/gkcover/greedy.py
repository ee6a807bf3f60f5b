"""Greedy maximum-coverage procedures for chains and antichains.

Chains come from a longest-path dynamic program over the uncovered set
U, run on the DAG's runs (maximal unary chains), which are found once
per Dag: a round pays for U, the runs and the edges between them, and
the path, not for every vertex and edge. Its rounds from U = every
vertex depend only on the DAG, so they are memoised on it and shared by
the chain commands and the path cover that seeds the antichain flow.
Antichains come from minimum flows on one flowcore.SplitNetwork, one
flow list and one residual capacity list per run: lower bounds drop as
vertices are covered, and each round reduces the previous round's flow
in place.
Each round reads its antichain off the cut that min_flow's last, failed
search leaves (MinFlowResult.t_reach), so no search is run twice.
Every path, chain and antichain a greedy returns is certified as it is
built, except the one-vertex members that complete a partition: a chain
as a subsequence of the best path it was picked from, an antichain by
one sweep of the topological order, so no closure is built.
minimum_path_cover proves its value by an antichain of the same size
read off the same cut.
Tie-breaking is deterministic throughout: predecessor ties prefer the
smallest vertex id, endpoint ties prefer a still-uncovered vertex, then
the smallest id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import indexOf
from typing import Container, Iterable, Iterator, Optional

from .dagcore import (
    Antichain,
    Chain,
    Dag,
    Family,
    GraphPath,
    certify_antichain,
    certify_chain,
    certify_path,
    partition_completion,
)
from .errors import MismatchError
from .flowcore import (
    INF,
    MinFlowResult,
    SplitNetwork,
    min_flow,
    residual,
    route_paths,
)


@dataclass
class GreedyRound:
    member: tuple[int, ...]
    gain: int
    remaining: int
    flow_value: Optional[int] = None
    searches: int = 0
    pushes: int = 0


@dataclass
class GreedyTrace:
    rounds: list[GreedyRound] = field(default_factory=list)
    stop_reason: str = ""

    def gains(self) -> list[int]:
        return [r.gain for r in self.rounds]

    def assert_monotone(self) -> None:
        """Raise MismatchError unless the gains never increase."""
        g = self.gains()
        if any(g[i] < g[i + 1] for i in range(len(g) - 1)):
            raise MismatchError(f"greedy gains increased: {g}")


def _run_graph(dag: Dag) -> tuple[list[int], list[int], list[int], list[list[int]], int]:
    """The DAG's runs and the edges between them, as flat int lists.

    A run is a maximal unary chain v -> w -> ...: each vertex but the
    last has out-degree 1 and each but the first has in-degree 1. Every
    vertex lies on one run, and every predecessor of a run's head is the
    last vertex of its own run. Runs are numbered in the topological
    order of their heads, so the runs whose head is a source come first
    (dag.topo lists every source first). Returns ``flat``, the runs one
    after another, run r at flat[start[r]:start[r + 1]]; ``start``;
    ``run_of``, each vertex's run; ``run_pred[r]``, the runs that end at
    a predecessor of run r's head, in dag.pred order; and the number of
    source runs.
    """
    succ, pred = dag.succ, dag.pred
    flat: list[int] = []
    start: list[int] = []
    run_pred: list[list[int]] = []
    run_of = [-1] * dag.n
    for v in dag.topo:
        if run_of[v] >= 0:
            continue  # v extends the run of its one predecessor
        r = len(start)
        start.append(len(flat))
        run_pred.append([run_of[u] for u in pred[v]])
        flat.append(v)
        run_of[v] = r
        ws = succ[v]
        while len(ws) == 1:
            w = ws[0]
            if len(pred[w]) != 1:
                break
            flat.append(w)
            run_of[w] = r
            ws = succ[w]
    start.append(len(flat))
    return flat, start, run_of, run_pred, pred.count([])


def max_coverage_path(dag: Dag, uncovered: set[int]) -> GraphPath:
    """Path visiting the most uncovered vertices.

    score(v) = [v uncovered] + best predecessor score; the endpoint is
    the highest score, preferring uncovered vertices, then smaller ids;
    backtracking takes the smallest-id predecessor of maximum score and
    stops when no predecessor improves on zero. A vertex of
    ``uncovered`` outside 0..n-1 raises IndexError.

    The scores are computed run by run (_run_graph, built once per Dag):
    inside a run each score is the one before plus a seed, so a run ends
    on the best end score of its head's predecessor runs plus its
    uncovered count, and the path is read off in run slices. A round
    takes Python steps for U, the runs, the edges between runs and the
    path's runs, not for every vertex and edge.
    """
    n = dag.n
    su = sorted(uncovered)
    if not su:
        return GraphPath((0,) if n else ())
    if su[0] < 0 or su[-1] >= n:
        raise IndexError(f"vertex {su[0] if su[0] < 0 else su[-1]} out of range for n={n}")
    if dag._runs is None:
        dag._runs = _run_graph(dag)
    flat, start, run_of, run_pred, sources = dag._runs
    cnt = [0] * len(run_pred)
    for v in su:
        cnt[run_of[v]] += 1
    end = cnt.copy()  # end[r]: the score of run r's last vertex
    for r in range(sources, len(run_pred)):
        ps = run_pred[r]
        if len(ps) == 1:
            end[r] += end[ps[0]]
        else:
            best = 0
            for q in ps:
                if end[q] > best:
                    best = end[q]
            end[r] += best
    # The endpoint is the last uncovered vertex of some run that ends on
    # top. Walk U in id order, stopping only at vertices of such runs,
    # until the ids pass the smallest of those last vertices; the
    # trailing (top,) stops the walk at j == len(su).
    top = max(end)
    cur = n
    seen = set()
    scores = chain(map(end.__getitem__, map(run_of.__getitem__, su)), (top,))
    j = -1
    while True:
        j += indexOf(scores, top) + 1
        if j == len(su) or su[j] >= cur:
            break
        r = run_of[su[j]]
        if r not in seen:
            seen.add(r)
            b = start[r + 1]
            w = flat[b - 1]
            if w not in uncovered:
                w = next(filter(uncovered.__contains__, reversed(flat[start[r]:b])))
            if w < cur:
                cur = w
    # Backtrack run by run. A run is taken from its head when its head's
    # predecessors score base > 0, and from its first uncovered vertex
    # otherwise; the next run is the predecessor run whose last vertex
    # scores base, smallest id first.
    r = run_of[cur]
    i = flat.index(cur, start[r]) + 1
    parts = []
    while True:
        base = end[r] - cnt[r]
        a = start[r]
        if base <= 0 and flat[a] not in uncovered:
            a = flat.index(next(filter(uncovered.__contains__, flat[a:i])), a)
        parts.append(flat[a:i])
        if base <= 0:
            break
        u = n
        for q in run_pred[r]:
            if end[q] == base:
                t = flat[start[q + 1] - 1]
                if t < u:
                    u, i = t, start[q + 1]
        r = run_of[u]
    parts.reverse()
    return GraphPath(tuple(chain.from_iterable(parts)))


def _best_path_rounds(dag: Dag) -> Iterator[tuple[GraphPath, tuple[int, ...], int]]:
    """The best-path loop from U = every vertex: per round the path, the
    vertices of U it picks (in path order) and |U| after the round.

    The rounds depend only on the DAG, so they are memoised on it, like
    Dag.closure(), and extended as far as a caller reads. Once U is
    empty every round is the same one, which picks nothing, so the memo
    ends at the first of them.

    A set's hash table never shrinks, and max_coverage_path walks U's
    whole table each round, so U is replaced by a compact copy whenever
    it has halved since the last copy. The memo holds the current set,
    and every generator on the DAG reads it from there each round.
    """
    if dag._path_rounds is None:
        dag._path_rounds = ([], set(range(dag.n)), dag.n)
    rounds = dag._path_rounds[0]
    for i in count():
        if i == len(rounds):
            if rounds and not rounds[-1][1]:
                yield from repeat(rounds[-1])
            _, left, copied = dag._path_rounds
            path = max_coverage_path(dag, left)
            picked = tuple(filter(left.__contains__, path.vertices))
            left.difference_update(picked)
            if 2 * len(left) <= copied:
                dag._path_rounds = (rounds, set(left), len(left))
            rounds.append((path, picked, len(left)))
        yield rounds[i]


def greedy_k_chains(dag: Dag, k: int) -> tuple[Family, GreedyTrace]:
    """k rounds of best-path selection, each chain the path's uncovered part."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    members: list[Chain] = []
    trace = GreedyTrace()
    left = dag.n
    for path, picked, left in islice(_best_path_rounds(dag), k):
        trace.rounds.append(GreedyRound(tuple(path.vertices), len(picked), left))
        if picked:
            members.append(certify_chain(dag, picked, path.vertices))
    trace.stop_reason = "U empty" if not left else "k reached"
    trace.assert_monotone()
    return Family(tuple(members), disjoint=True), trace


def greedy_weighted_chain_cover(dag: Dag, k: int) -> tuple[Family, Family, GreedyTrace]:
    """Pick paths while their uncovered gain exceeds k, then singletons.

    Returns the chosen paths as a collection and the chain partition they
    induce (path remnants plus singleton chains for everything left).
    """
    paths: list[GraphPath] = []
    chains: list[Chain] = []
    trace = GreedyTrace()
    rounds = _best_path_rounds(dag)
    left = dag.n
    while left:
        path, picked, after = next(rounds)
        if len(picked) <= k:
            trace.stop_reason = "gain <= threshold"
            break
        trace.rounds.append(GreedyRound(tuple(path.vertices), len(picked), after))
        paths.append(certify_path(dag, path.vertices))
        chains.append(certify_chain(dag, picked, path.vertices))
        left = after
    else:
        trace.stop_reason = "U empty"
    trace.assert_monotone()
    collection = Family(tuple(paths))
    partition = partition_completion(Family(tuple(chains), disjoint=True), dag.n, Chain)
    return collection, partition, trace


def build_subset_network(dag: Dag, subset: Container[int]) -> SplitNetwork:
    """Vertex-split network whose minimum flow value is the largest
    antichain inside the subset: one uncapped gadget arc per vertex,
    with lower bound 1 exactly when the vertex is in the subset."""
    return SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=subset)


def cover_paths(dag: Dag) -> list[GraphPath]:
    """Best-path rounds until every vertex is covered."""
    out: list[GraphPath] = []
    rounds = _best_path_rounds(dag)
    left = dag.n
    while left:
        path, _, left = next(rounds)
        out.append(path)
    return out


def _path_cover_flow(dag: Dag, split: SplitNetwork) -> list[int]:
    """Feasible start flow for a subset network: a cover of every vertex
    by best-path rounds."""
    return route_paths(split, [p.vertices for p in cover_paths(dag)])


def _extract_antichain(dag: Dag, subset: Iterable[int], value: int,
                       t_reach: list[bool]) -> Antichain:
    """Sink-side tight-cut read-off of a minimum flow of the given value.

    With V_t the nodes reachable from t in the residual graph, the
    vertices of the subset whose out-copy is inside V_t but whose in-copy
    is not form a maximum antichain within it, of size equal to the flow
    value. By SplitNetwork's layout v_in is node 2v and v_out 2v + 1.
    """
    picked = [v for v in subset if t_reach[2 * v + 1] and not t_reach[2 * v]]
    ac = certify_antichain(dag, picked)
    if len(ac) != value:
        raise MismatchError(f"extracted {len(ac)} vertices from a flow of value {value}")
    return ac


def minimum_path_cover(dag: Dag) -> tuple[int, MinFlowResult]:
    """Exact minimum number of paths covering every vertex.

    The minimum is proved by an antichain of the same size read off the
    flow's cut (Dilworth: every path meets an antichain at most once);
    a flow that is not minimal raises MismatchError.
    """
    if dag.n == 0:
        return 0, MinFlowResult(0, 0, [])
    split = build_subset_network(dag, range(dag.n))
    flow = _path_cover_flow(dag, split)
    result = min_flow(split, residual(split, flow), flow)
    value = split.flow_value(flow)
    _extract_antichain(dag, range(dag.n), value, result.t_reach)
    return value, result


def _antichain_rounds(dag: Dag) -> Iterator[tuple[Antichain, GreedyRound]]:
    """A maximum antichain of the still-uncovered set U per round.

    One subset network, one flow and one residual capacity list serve
    every round. Round 1 reduces a path-cover flow to a minimum flow;
    later rounds reduce the previous round's flow in place, which stays
    feasible because covered vertices only lose their lower bound, and
    the capacities follow by raising each released gadget arc's undo
    capacity. min_flow checks the flow every round ends with. A
    yielded antichain leaves U when the next round is asked for.
    """
    uncovered = set(range(dag.n))
    split = build_subset_network(dag, uncovered)
    flow = _path_cover_flow(dag, split)
    cap = residual(split, flow)
    while uncovered:
        result = min_flow(split, cap, flow)
        value = split.flow_value(flow)
        ac = _extract_antichain(dag, uncovered, value, result.t_reach)
        yield ac, GreedyRound(
            tuple(sorted(ac.vertices)), len(ac), len(uncovered) - len(ac),
            flow_value=value, searches=result.searches, pushes=result.pushes)
        uncovered.difference_update(ac.vertices)
        for a in split.release(ac.vertices):
            cap[2 * a + 1] += 1


def greedy_k_antichains(dag: Dag, k: int) -> tuple[Family, GreedyTrace]:
    """k rounds of maximum antichain among the still-uncovered vertices.

    Rounds after U runs empty are recorded as empty. The searches obey
    the warm-start bound: searches - round-1 pushes <= k + f_1 - f_last.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    members: list[Antichain] = []
    trace = GreedyTrace()
    for ac, rnd in islice(_antichain_rounds(dag), k):
        members.append(ac)
        trace.rounds.append(rnd)
    if trace.rounds:
        first, last = trace.rounds[0], trace.rounds[-1]
        searches = sum(r.searches for r in trace.rounds)
        bound = first.pushes + k + first.flow_value - last.flow_value
        if searches > bound:
            raise MismatchError(
                f"{searches} decrementing-path searches exceed the warm-start bound {bound}")
    trace.rounds.extend(GreedyRound((), 0, 0) for _ in range(k - len(trace.rounds)))
    trace.stop_reason = "U empty" if sum(map(len, members)) == dag.n else "k reached"
    trace.assert_monotone()
    return Family(tuple(members), disjoint=True), trace


def greedy_antichain_cover(dag: Dag, k: int) -> tuple[Family, Family, GreedyTrace]:
    """Take maximum antichains while they are larger than k, then singletons.

    Returns the taken antichains and the full partition (taken members
    plus singleton antichains for whatever remains).
    """
    members: list[Antichain] = []
    trace = GreedyTrace()
    for ac, rnd in _antichain_rounds(dag):
        if rnd.gain <= k:
            trace.stop_reason = "gain <= threshold"
            break
        members.append(ac)
        trace.rounds.append(rnd)
    else:
        trace.stop_reason = "U empty"
    trace.assert_monotone()
    taken = Family(tuple(members), disjoint=True)
    partition = partition_completion(taken, dag.n, Antichain)
    return taken, partition, trace
