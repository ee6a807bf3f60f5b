"""DAG representation, chain/antichain/path certification, and k-norms.

Vertices are dense 0-based ids. Reachability is reflexive: every vertex
reaches itself, so a single vertex is both a chain and an antichain.
Certification proves reachability facts by forward sweeps of the
topological order, in O(n + m) time and memory: an antichain by one
sweep over its members' range that marks what they reach, a chain by
its edges, by one stamped sweep over the ranges of its other steps, or,
when it was cut from a graph path, as a subsequence of that path. Only
a failing member is searched again, for the witness the pairwise check
names. The transitive closure, one bitset of descendants per vertex
built on first use by Dag.closure(), serves the brute-force oracles'
bitmask searches and no certifier. Topological orders come from a FIFO
Kahn's algorithm that yields the order of graphlib's
``TopologicalSorter.static_order()`` on the same graph; graphlib itself
only runs to name a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (
    CycleError,
    NotAntichainError,
    NotChainError,
    NotPartitionError,
    OverlapError,
)


@dataclass(frozen=True)
class Chain:
    """Vertices pairwise comparable, stored in reachability order."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class Antichain:
    """Vertices pairwise unreachable from one another."""

    vertices: frozenset[int]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return self.vertices


@dataclass(frozen=True)
class GraphPath:
    """Vertices connected by consecutive edges of the graph."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


Member = Union[Chain, Antichain, GraphPath]


@dataclass(frozen=True)
class Family:
    """A collection of members, optionally vertex-disjoint.

    Every member must be non-empty. When ``disjoint`` is set, sharing a
    vertex between members raises OverlapError.
    """

    members: tuple[Member, ...]
    disjoint: bool = False

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for m in self.members:
            vs = m.vertex_set()
            if not vs:
                raise ValueError("family members must be non-empty")
            if self.disjoint:
                for v in vs:
                    if v in seen:
                        raise OverlapError(v)
                seen.update(vs)

    def __len__(self) -> int:
        return len(self.members)

    def covered(self) -> set[int]:
        out: set[int] = set()
        for m in self.members:
            out.update(m.vertex_set())
        return out

    def coverage(self) -> int:
        return len(self.covered())


class Dag:
    """Immutable DAG over vertices 0..n-1 with its adjacency and a cached
    topological order.

    ``edges`` must be in range, free of self-loops and duplicates;
    build_dag checks them.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.edges = edges
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            self.succ[u].append(v)
            self.pred[v].append(u)
        self.topo = tuple(_topological_order(self.succ, map(len, self.pred)))
        self.topo_pos = [0] * n
        for i, v in enumerate(self.topo):
            self.topo_pos[v] = i
        self._closure: list[int] | None = None
        # greedy's runs (maximal unary chains), built by greedy._run_graph
        # on the first best-path round
        self._runs: tuple | None = None
        # greedy's best-path rounds, the vertices they leave uncovered and
        # that set's size when it was last copied, memoised and extended
        # by greedy._best_path_rounds
        self._path_rounds: tuple[list, set[int], int] | None = None

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, edges={len(self.edges)})"

    def closure(self) -> list[int]:
        """Descendant bitsets (self included), built on first use: n²/8
        bytes, for the oracles' bitmask searches on small DAGs."""
        if self._closure is None:
            desc = [0] * self.n
            for v in reversed(self.topo):
                mask = 1 << v
                for w in self.succ[v]:
                    mask |= desc[w]
                desc[v] = mask
            self._closure = desc
        return self._closure


def _topological_order(succ: Sequence[Sequence[int]], indeg: Iterable[int]) -> list[int]:
    """Nodes 0..len(succ)-1 in topological order, by FIFO Kahn's
    algorithm, given each node's in-degree: how often succ lists it.

    The order equals graphlib's ``TopologicalSorter.static_order()`` with
    the nodes added in id order and each node's successors in list order:
    the sources in id order, then each node as soon as the last edge into
    it is taken, in the order the edges are listed. A repeated edge
    counts as often as it is listed. On a cycle, raises CycleError naming
    the cycle that graphlib finds.
    """
    indeg = list(indeg)
    order = [v for v, d in enumerate(indeg) if not d]
    for v in order:  # the loop also visits the nodes appended below
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) < len(succ):
        import graphlib

        ts = graphlib.TopologicalSorter({v: [] for v in range(len(succ))})
        for u, ws in enumerate(succ):
            for w in ws:
                ts.add(w, u)
        try:
            ts.prepare()
        except graphlib.CycleError as exc:
            raise CycleError(f"edge list contains a cycle: {exc.args[1]}") from exc
    return order


def build_dag(n: int, edges: Iterable[tuple[int, int]]) -> Dag:
    """Validate an edge list and return a Dag.

    Out-of-range endpoints raise IndexError, self-loops and directed
    cycles raise CycleError, duplicate edges are dropped. Duplicates go
    first, in bulk, and the checks walk what is left: an edge's first
    occurrence comes before its repeats, so the first bad edge found is
    the first in list order.
    """
    if n < 0:
        raise IndexError(f"vertex count must be non-negative, got {n}")
    pairs = tuple(dict.fromkeys(map(tuple, edges)))
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
    return Dag(n, pairs)


def _check_range(dag: Dag, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not 0 <= v < dag.n:
            raise IndexError(f"vertex {v} out of range for n={dag.n}")


def _stamp_reach(dag: Dag, stamp: list[int], mark: int, u: int, hi: int) -> None:
    """Set stamp[w] = mark on u and on every w that u reaches by a walk
    within topological positions pos[u]..hi: one forward sweep of
    dag.topo over that range, O(range + edges out of reached vertices)."""
    succ = dag.succ
    stamp[u] = mark
    for w in dag.topo[dag.topo_pos[u]:hi]:
        if stamp[w] == mark:
            for x in succ[w]:
                stamp[x] = mark


def certify_antichain(dag: Dag, vertices: Iterable[int]) -> Antichain:
    """Check pairwise unreachability; raise NotAntichainError with a witness.

    One forward sweep of dag.topo over the members' topological range
    marks what they reach by at least one edge; the check fails when a
    member is marked. Only then is the witness searched for: the first
    comparable pair in topological order.
    """
    vs = sorted(set(vertices))
    _check_range(dag, vs)
    if len(vs) > 1:
        succ, pos = dag.succ, dag.topo_pos
        mark = bytearray(dag.n)
        lo = hi = pos[vs[0]]
        for v in vs:
            mark[v] = 1
            p = pos[v]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        for w in dag.topo[lo:hi]:
            if mark[w]:
                for x in succ[w]:
                    mark[x] = 2
        if 2 in map(mark.__getitem__, vs):
            order = sorted(vs, key=pos.__getitem__)
            stamp = [-1] * dag.n
            for i, u in enumerate(order):
                _stamp_reach(dag, stamp, i, u, pos[order[-1]])
                for v in order[i + 1:]:
                    if stamp[v] == i:
                        raise NotAntichainError(u, v)
    return Antichain(frozenset(vs))


def _along(dag: Dag, seq: tuple[int, ...], path: Sequence[int]) -> bool:
    """Whether seq is a subsequence of path and path's vertices from
    seq's first to its last are joined by edges. Then seq is a chain:
    reachability is transitive, and a walk along the edges of a DAG
    repeats no vertex. O(length of path)."""
    if len(seq) < 2:
        return True
    try:
        start = path.index(seq[0])
    except ValueError:
        return False
    succ = dag.succ
    u, j = seq[0], 1
    for w in path[start + 1:]:
        if w not in succ[u]:
            return False
        u = w
        if w == seq[j]:
            j += 1
            if j == len(seq):
                return True
    return False


def certify_chain(dag: Dag, vertices: Sequence[int],
                  path: Sequence[int] | None = None) -> Chain:
    """Check consecutive reachability; raise NotChainError at the first gap
    or repeat.

    A step along an edge is accepted as it is. A step u -> v that is not
    one fails at once when v does not come after u in dag.topo (a repeat
    is named (v, v)); the other such steps are checked by one stamped
    forward sweep over their topological ranges, which lie one after
    another. A chain cut from a graph path can name it as ``path``: if
    the chain is a subsequence of it along edges, that O(len(path)) walk
    proves it and no sweep runs; otherwise the steps are checked as
    above, so a failure names the same step.
    """
    seq = tuple(vertices)
    _check_range(dag, seq)
    if path is not None and _along(dag, seq, path):
        return Chain(seq)
    succ, pos = dag.succ, dag.topo_pos
    gaps: list[tuple[int, int]] = []
    stop = None
    for i in range(1, len(seq)):
        u, v = seq[i - 1], seq[i]
        if v not in succ[u]:
            # up to here positions rise along seq, so v can repeat an
            # earlier vertex only if it does not come after u
            if pos[v] <= pos[u]:
                stop = (v, v) if v in seq[:i] else (u, v)
                break
            gaps.append((u, v))
    if gaps:
        stamp = [-1] * dag.n
        for i, (u, v) in enumerate(gaps):
            _stamp_reach(dag, stamp, i, u, pos[v])
            if stamp[v] != i:
                raise NotChainError(u, v)
    if stop:
        raise NotChainError(*stop)
    return Chain(seq)


def certify_path(dag: Dag, vertices: Sequence[int]) -> GraphPath:
    """Check that consecutive vertices are joined by edges of the graph."""
    seq = tuple(vertices)
    _check_range(dag, seq)
    for i in range(1, len(seq)):
        if seq[i] not in dag.succ[seq[i - 1]]:
            raise NotChainError(seq[i - 1], seq[i])
    return GraphPath(seq)


def knorm_partition(family: Family, n: int, k: int) -> int:
    """Sum of min(|member|, k) over a partition of all n vertices."""
    counts = [0] * n
    for m in family.members:
        for v in m.vertex_set():
            counts[v] += 1
    if any(c != 1 for c in counts):
        bad = next(v for v, c in enumerate(counts) if c != 1)
        raise NotPartitionError(f"vertex {bad} is covered {counts[bad]} times")
    return sum(min(len(m), k) for m in family.members)


def knorm_collection(members: Sequence[Member], n: int, k: int) -> int:
    """Uncovered vertex count plus k per member, for a (possibly
    overlapping) collection."""
    covered: set[int] = set()
    for m in members:
        covered.update(m.vertex_set())
    return (n - len(covered)) + k * len(members)


def partition_completion(family: Family, n: int,
                         member_type: type[Chain] | type[Antichain]) -> Family:
    """Extend disjoint members to a partition by adding singletons of
    ``member_type``, Chain or Antichain."""
    covered = family.covered()
    singles = tuple(Antichain(frozenset((v,))) if member_type is Antichain else Chain((v,))
                    for v in range(n) if v not in covered)
    return Family(family.members + singles, disjoint=True)
