"""Reference copies of the line-by-line parser, the edge-by-edge build_dag,
the pairwise certification, one DFS per pair, that the bulk and
closure-based versions replaced, and the path check against a set of
the DAG's edges that the adjacency lookup replaced.

Tests compare gkcover's parse_dag, build_dag, certify_antichain,
certify_chain and certify_path against these on random inputs: the same
result, or the same error with the same message, line and witness.
"""

from typing import Optional

from gkcover.dagcore import Dag
from gkcover.errors import CycleError, NotAntichainError, NotChainError, ParseError


def build_dag(n, edges):
    """Validate each edge in list order; keep the first of duplicates."""
    if n < 0:
        raise IndexError(f"vertex count must be non-negative, got {n}")
    seen = set()
    dedup = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop at vertex {u}")
        if (u, v) not in seen:
            seen.add((u, v))
            dedup.append((u, v))
    return Dag(n, tuple(dedup))


def parse_dag(text):
    """The dag file format, read one line at a time."""
    n: Optional[int] = None
    ids: dict[str, int] = {}
    first_line: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        if n is None:
            if len(toks) != 1:
                raise ParseError("expected the vertex count alone on the first line", lineno)
            try:
                n = int(toks[0])
            except ValueError:
                raise ParseError(f"vertex count {toks[0]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            continue
        if len(toks) != 2:
            raise ParseError(f"expected 'u v', got {len(toks)} tokens", lineno)
        a, b = toks
        u, v = ids.get(a), ids.get(b)
        if u is None or v is None:
            for tok in toks:
                if tok not in ids:
                    if len(ids) >= n:
                        raise ParseError(f"more than {n} distinct vertex names", lineno)
                    ids[tok] = len(ids)
                    first_line[tok] = lineno
            u, v = ids[a], ids[b]
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing the vertex count", 1)
    isolated = [str(v) for v in range(n) if str(v) not in ids]
    if len(ids) + len(isolated) != n:
        isolated = [str(v) for v in range(len(ids), n)]
        for name in isolated:
            if name in ids:
                raise ParseError(
                    f"token {name!r} is also the name of isolated vertex {name}; "
                    "name vertices by id or by tokens that are not ids", first_line[name])
    return build_dag(n, edges), list(ids) + isolated


def _pair_reaches(dag, u, v):
    """A DFS from u over dag.succ, reflexive; it never reads the closure."""
    stack = [u]
    seen = {u}
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for w in dag.succ[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def certify_antichain(dag, vertices):
    """Every pair in topological order; the first comparable pair is the witness."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < dag.n:
            raise IndexError(f"vertex {v} out of range for n={dag.n}")
    order = sorted(vs, key=lambda v: dag.topo_pos[v])
    for i, u in enumerate(order):
        for v in order[i + 1:]:
            if _pair_reaches(dag, u, v):
                raise NotAntichainError(u, v)
    return frozenset(vs)


def certify_chain(dag, vertices):
    """Consecutive pairs in order; the first repeat or gap is the witness."""
    seq = tuple(vertices)
    for v in seq:
        if not 0 <= v < dag.n:
            raise IndexError(f"vertex {v} out of range for n={dag.n}")
    seen = set()
    for i in range(len(seq)):
        if seq[i] in seen:
            raise NotChainError(seq[i], seq[i])
        seen.add(seq[i])
        if i > 0 and not _pair_reaches(dag, seq[i - 1], seq[i]):
            raise NotChainError(seq[i - 1], seq[i])
    return seq


def certify_path(dag, vertices):
    """Consecutive pairs against a set of the DAG's edges; the first
    pair that is not an edge is the witness."""
    seq = tuple(vertices)
    for v in seq:
        if not 0 <= v < dag.n:
            raise IndexError(f"vertex {v} out of range for n={dag.n}")
    edges = frozenset(dag.edges)
    for u, v in zip(seq, seq[1:]):
        if (u, v) not in edges:
            raise NotChainError(u, v)
    return seq
