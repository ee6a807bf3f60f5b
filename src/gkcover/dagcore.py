"""DAG representation, chain/antichain/path certification, and k-norms.

Vertices are dense 0-based ids. Reachability is reflexive: every vertex
reaches itself, so a single vertex is both a chain and an antichain.
A reachability test reads the DAG's transitive closure, one bitset of
descendants per vertex, built on first use; a chain step along an edge
needs none. Topological orders come from a FIFO Kahn's algorithm that
yields the order of graphlib's ``TopologicalSorter.static_order()`` on
the same graph; graphlib itself only runs to name a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import lshift
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
        """Descendant bitsets (self included), built on first use."""
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


def certify_antichain(dag: Dag, vertices: Iterable[int]) -> Antichain:
    """Check pairwise unreachability; raise NotAntichainError with a witness."""
    vs = sorted(set(vertices))
    _check_range(dag, vs)
    if len(vs) > 1:
        desc = dag.closure()
        # one pass: no member's descendants hold another member
        mask = sum(map(lshift, repeat(1), vs))
        if any(desc[v] & mask != 1 << v for v in vs):
            # the first comparable pair in topological order is the witness
            order = sorted(vs, key=lambda v: dag.topo_pos[v])
            for i, u in enumerate(order):
                for v in order[i + 1:]:
                    if desc[u] >> v & 1:
                        raise NotAntichainError(u, v)
    return Antichain(frozenset(vs))


def certify_chain(dag: Dag, vertices: Sequence[int]) -> Chain:
    """Check consecutive reachability; raise NotChainError at the first gap
    or repeat. A step along an edge is accepted as it is; the closure is
    built only at the first step that is not an edge."""
    seq = tuple(vertices)
    _check_range(dag, seq)
    succ = dag.succ
    seen: set[int] = set()
    for i, v in enumerate(seq):
        if v in seen:
            raise NotChainError(v, v)
        seen.add(v)
        if i:
            u = seq[i - 1]
            if v not in succ[u] and not dag.closure()[u] >> v & 1:
                raise NotChainError(u, v)
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
