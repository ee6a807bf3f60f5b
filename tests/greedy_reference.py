"""Reference copy of the per-vertex longest-path DP that greedy's
run-graph DP replaced.

It scores every vertex in topological order and backtracks one vertex
at a time. Tests compare greedy.max_coverage_path against it, round
after round and on arbitrary uncovered sets: the same path each time.
"""

from gkcover.dagcore import Dag, GraphPath


def max_coverage_path(dag: Dag, uncovered: set[int]) -> GraphPath:
    """Path visiting the most uncovered vertices.

    score(v) = [v uncovered] + best predecessor score; the endpoint is
    the highest score, preferring uncovered vertices, then smaller ids;
    backtracking takes the smallest-id predecessor of maximum score and
    stops when no predecessor improves on zero.
    """
    n = dag.n
    if n == 0:
        return GraphPath(())
    seed = [0] * n
    for v in uncovered:
        seed[v] = 1
    score = seed.copy()
    pred = dag.pred
    for v in dag.topo:
        ps = pred[v]
        if len(ps) == 1:
            score[v] += score[ps[0]]
        elif ps:
            best = 0
            for u in ps:
                if score[u] > best:
                    best = score[u]
            score[v] += best
    top = max(score)
    cur = score.index(top)
    if not seed[cur]:
        # an uncovered endpoint of the same score wins
        for v in range(cur + 1, n):
            if seed[v] and score[v] == top:
                cur = v
                break
    seq = [cur]
    while True:
        # the best predecessor's score, which is 0 at a source
        best = score[cur] - seed[cur]
        if best <= 0:
            break
        nxt = n
        for u in pred[cur]:
            if u < nxt and score[u] == best:
                nxt = u
        cur = nxt
        seq.append(cur)
    return GraphPath(tuple(reversed(seq)))
