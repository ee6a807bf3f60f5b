import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gkcover import (
    build_dag,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    knorm_partition,
    minimum_path_cover,
    solve_alpha,
    solve_beta,
)
from gkcover.cli import format_dag, parse_dag
from gkcover.flowcore import min_flow, residual, route_paths
from gkcover.greedy import _extract_antichain, build_subset_network, cover_paths


@st.composite
def dags(draw, max_n=10):
    """Random DAG: edges only go up a random relabeling, so no cycles."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations(range(n)))
    pairs = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n)
    edges = []
    for a, b in draw(pairs):
        if order[a] < order[b]:
            edges.append((a, b))
        elif order[b] < order[a]:
            edges.append((b, a))
    return build_dag(n, edges)


@given(dags(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_duality_sandwich(dag, k):
    # any k-antichain family coverage <= alpha_k <= any chain-partition
    # k-norm; the solver returns witnesses on both sides, so both hold
    # with equality through the solved value
    res = solve_alpha(dag, k)
    assert res.ma.family.coverage() == res.alpha
    assert knorm_partition(res.mcp.family, dag.n, k) == res.alpha
    greedy_fam, _ = greedy_k_antichains(dag, k)
    assert greedy_fam.coverage() <= res.alpha


@given(dags(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_beta_duality_and_monotonicity(dag, k):
    res = solve_beta(dag, k)
    assert res.mc.family.coverage() == res.beta
    assert knorm_partition(res.map.family, dag.n, k) == res.beta
    if k > 1:
        assert solve_beta(dag, k - 1).beta <= res.beta
    greedy_fam, _ = greedy_k_chains(dag, k)
    assert greedy_fam.coverage() <= res.beta


@given(dags())
@settings(max_examples=60, deadline=None)
def test_alpha_beta_extremes(dag):
    n = dag.n
    assert solve_alpha(dag, n).alpha == n if n else True
    mpc, _ = minimum_path_cover(dag)
    assert solve_beta(dag, mpc if mpc else 1).beta == n


@given(dags(max_n=30))
@settings(max_examples=40, deadline=None)
def test_greedy_cover_log_bound(dag):
    # classic set-cover guarantee with a safe ln-slack
    _, _, trace = greedy_weighted_chain_cover(dag, 0)
    mpc, _ = minimum_path_cover(dag)
    if mpc:
        assert len(trace.rounds) <= (math.log(dag.n) + 1) * mpc + 1e-9


@given(dags(max_n=15))
@settings(max_examples=60, deadline=None)
def test_parse_format_roundtrip(dag):
    # ids are assigned by first appearance; the labeled graph survives
    parsed, names = parse_dag(format_dag(dag))
    assert parsed.n == dag.n
    relabeled = {(int(names[u]), int(names[v])) for u, v in parsed.edges}
    assert relabeled == set(dag.edges)


@given(dags(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_partition_norm_bounds(dag, k):
    res = solve_alpha(dag, k)
    # k-norm of any partition lies between alpha_k and n
    value = knorm_partition(res.mcp.family, dag.n, k)
    assert res.alpha == value <= dag.n
    assert res.alpha >= min(dag.n, k)  # k singleton antichains always exist


# Identities that hold at any size, checked far past the brute-force
# oracles' n <= 10 on seeded random DAGs, with networkx as the
# independent reference.

def _random_dag(n, seed):
    rng = random.Random(seed)
    span = rng.choice([4, 12, 40])
    p = rng.choice([0.1, 0.25])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(n)
             for v in range(u + 1, min(n, u + 1 + span)) if rng.random() < p]
    return build_dag(n, edges)


LARGE = [(150, 1), (200, 2), (280, 3), (400, 4)]


def _width(nx, g, vertices):
    """Dilworth via Fulkerson: the width of the order that g's reachability
    induces on ``vertices`` is their number minus a maximum matching of
    the comparability bipartite graph (u on the left, v on the right,
    whenever u reaches v)."""
    comp = nx.Graph()
    comp.add_nodes_from(("L", u) for u in vertices)
    comp.add_nodes_from(("R", v) for v in vertices)
    comp.add_edges_from((("L", u), ("R", v)) for u in vertices
                        for v in nx.descendants(g, u) if v in vertices)
    matching = nx.bipartite.hopcroft_karp_matching(comp, top_nodes=[("L", u) for u in vertices])
    return len(vertices) - len(matching) // 2


@pytest.mark.parametrize("n,seed", LARGE)
def test_large_alpha_anchors(n, seed):
    nx = pytest.importorskip("networkx")
    dag = _random_dag(n, seed)
    g = nx.DiGraph(dag.edges)
    g.add_nodes_from(range(n))
    height = nx.dag_longest_path_length(g) + 1
    res = solve_alpha(dag, 1)
    assert res.alpha == _width(nx, g, set(range(n)))
    for k in (1, 2, height):
        st = solve_alpha(dag, k).stats
        assert st.iterations <= -st.final_cost
    assert solve_alpha(dag, height).alpha == n
    assert solve_alpha(dag, height - 1).alpha < n


@pytest.mark.parametrize("n,seed", LARGE)
def test_large_beta_anchors(n, seed):
    nx = pytest.importorskip("networkx")
    dag = _random_dag(n, seed)
    g = nx.DiGraph(dag.edges)
    g.add_nodes_from(range(n))
    res = solve_beta(dag, 1)
    assert res.beta == nx.dag_longest_path_length(g) + 1
    for k in (1, 2, 4):
        st = solve_beta(dag, k).stats
        assert st.iterations <= -st.final_cost
        assert st.iterations <= k


@pytest.mark.parametrize("n,seed", LARGE)
def test_large_subset_min_flow_anchor(n, seed):
    # the minimum flow of the subset network is the width of the subset
    nx = pytest.importorskip("networkx")
    dag = _random_dag(n, seed)
    g = nx.DiGraph(dag.edges)
    g.add_nodes_from(range(n))
    rng = random.Random(seed)
    subset = {v for v in range(n) if rng.random() < 0.5}
    split = build_subset_network(dag, subset)
    start = route_paths(split, [p.vertices for p in cover_paths(dag)])
    start_value = split.flow_value(start)
    result = min_flow(split, residual(split, start), start)
    width = _width(nx, g, subset)
    assert split.flow_value(start) == width
    assert result.pushes <= start_value - width
    assert len(_extract_antichain(dag, subset, width, result.t_reach)) == width
