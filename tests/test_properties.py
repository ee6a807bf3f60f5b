import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gkcover import (
    NotAntichainError,
    NotChainError,
    build_dag,
    certify_antichain,
    certify_chain,
    gen_ga,
    gen_gc,
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
from gkcover.networks import height_levels

import dag_reference


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


# The sweep-based certifiers against tests/dag_reference.py's pairwise
# DFS, far past TestCertifyMatchesReference's n <= 14: the same verdict,
# exception type, message and witness pair, and no closure built.

@st.composite
def sparse_dags(draw, max_n=150):
    """Random DAG with up to three edges from each vertex to one at most
    ``span`` places later in a random relabeling, and a seeded Random
    for drawing members of it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    span = draw(st.sampled_from([2, 8, 40, max_n]))
    rng = draw(st.randoms(use_true_random=False))
    perm = rng.sample(range(n), n)
    edges = [(perm[a], perm[b]) for a in range(n)
             for b in {a + rng.randint(1, span) for _ in range(rng.randint(0, 3))} if b < n]
    return build_dag(n, edges), rng


def _certified(certify, dag, vertices):
    """A certification's vertices, or the type, message and witness of its error."""
    try:
        result = certify(dag, vertices)
    except (NotAntichainError, NotChainError, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "u", None), getattr(exc, "v", None)
    return getattr(result, "vertices", result)


def _failed(verdict):
    """Whether _certified returned an error: a type first, not a vertex."""
    return isinstance(verdict, tuple) and isinstance(verdict[0], type)


def _walk(rng, dag):
    v = rng.randrange(dag.n)
    out = [v]
    while dag.succ[v]:
        v = rng.choice(dag.succ[v])
        out.append(v)
    return out


def _broken(rng, dag, member):
    """The member with one fault: a random vertex, a repeat or an
    out-of-range vertex inserted, or two vertices swapped."""
    m = list(member)
    fault = rng.randrange(4)
    if fault == 3 and len(m) > 1:
        i, j = rng.sample(range(len(m)), 2)
        m[i], m[j] = m[j], m[i]
    else:
        v = (rng.randrange(dag.n), rng.choice(m), rng.choice([-1, dag.n]), dag.n)[fault]
        m.insert(rng.randint(0, len(m)), v)
    return m


def _check_certifiers(dag, rng):
    """Certify drawn members with gkcover's and the reference's
    certifiers, assert they agree, and return the kinds of cases seen."""
    desc = build_dag(dag.n, dag.edges).closure()  # for drawing members only
    seen = set()
    for _ in range(4):
        # antichains: a greedy one of at most 12 vertices; it with a
        # descendant of a member; it with any vertex, or broken
        ac = []
        for v in rng.sample(range(dag.n), dag.n):
            if len(ac) < rng.randint(2, 12) and not any(
                    desc[u] >> v & 1 or desc[v] >> u & 1 for u in ac):
                ac.append(v)
        below = [w for w in range(dag.n) if w != ac[0] and desc[ac[0]] >> w & 1]
        for m in (ac, ac + rng.sample(below, min(len(below), 1)),
                  ac + [rng.randrange(dag.n)], _broken(rng, dag, ac)):
            want = _certified(dag_reference.certify_antichain, dag, m)
            assert _certified(certify_antichain, dag, m) == want
            seen.add(("antichain", want[0].__name__ if _failed(want) else "ok"))
        # chains: a walk along edges, a random subsequence of it (steps
        # off the edges), and either broken
        path = _walk(rng, dag)
        sub = [v for i, v in enumerate(path) if not i or rng.random() < 0.5]
        for m in (path, sub, _broken(rng, dag, path), _broken(rng, dag, sub)):
            want = _certified(dag_reference.certify_chain, dag, m)
            assert _certified(certify_chain, dag, m) == want
            # the same member as a remnant of the walk, or of itself as a
            # path: proved by the path when it is a subsequence of it along
            # edges, else by the steps
            assert _certified(lambda d, vs: certify_chain(d, vs, path), dag, m) == want
            assert _certified(lambda d, vs: certify_chain(d, vs, vs), dag, m) == want
            if not _failed(want):
                off = any(v not in dag.succ[u] for u, v in zip(m, m[1:]))
                seen.add(("chain", "off the edges" if off else "along edges"))
            elif want[0] is NotChainError:
                seen.add(("chain", "repeat" if want[2] == want[3] else "gap"))
            else:
                seen.add(("chain", want[0].__name__))
    assert dag._closure is None
    return seen


@given(sparse_dags())
@settings(max_examples=60, deadline=None)
def test_certifiers_match_the_pairwise_reference(drawn):
    _check_certifiers(*drawn)



def test_certifier_cases_cover_every_kind():
    # the property's members, drawn on seeded DAGs, reach every case
    seen = set()
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(100, 150)
        perm = rng.sample(range(n), n)
        edges = [(perm[a], perm[b]) for a in range(n)
                 for b in {a + rng.randint(1, 8) for _ in range(rng.randint(0, 3))} if b < n]
        seen |= _check_certifiers(build_dag(n, edges), rng)
    assert seen == {
        ("antichain", "ok"), ("antichain", "NotAntichainError"), ("antichain", "IndexError"),
        ("chain", "along edges"), ("chain", "off the edges"), ("chain", "repeat"),
        ("chain", "gap"), ("chain", "IndexError")}


# Round 1 of either greedy is exact, so the min-flow engine and the
# circulation must agree on it at any n (Dilworth on the antichain side,
# Mirsky on the chain side), far past the oracles' n <= 10.

def _check_first_round_anchors(dag):
    mpc, first = minimum_path_cover(dag)
    assert mpc == first.gain == solve_alpha(dag, 1).alpha
    assert greedy_k_antichains(dag, 1)[0].coverage() == mpc
    assert greedy_k_chains(dag, 1)[0].coverage() == solve_beta(dag, 1).beta \
        == len(height_levels(dag))


@pytest.mark.parametrize("gen,i", [(gen_gc, i) for i in range(1, 8)]
                         + [(gen_ga, i) for i in range(1, 5)])
def test_first_round_anchors_on_the_generated_families(gen, i):
    _check_first_round_anchors(gen(i).dag)


def test_first_round_anchors_on_the_empty_dag():
    _check_first_round_anchors(build_dag(0, []))


@given(sparse_dags())
@settings(max_examples=60, deadline=None)
def test_first_round_anchors_up_to_150_vertices(drawn):
    _check_first_round_anchors(drawn[0])
