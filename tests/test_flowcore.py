import math
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gkcover import CycleError, build_dag, flowcore
from gkcover.errors import ConservationError, InfeasibleFlowError, InvalidCycleError, MismatchError
from gkcover.flowcore import (
    INF,
    SplitNetwork,
    check_feasible,
    find_negative_cycle,
    min_cost_circulation,
    min_flow,
    peel_paths,
    residual,
    route_paths,
    zero_flow,
)
from gkcover.greedy import cover_paths
from gkcover.networks import (
    ALPHA,
    BETA,
    COVER,
    OVERFLOW,
    build_network,
    height_levels,
    normalize_beta,
)

import flow_reference
from flow_reference import Arc, ArcNetwork


def diamond(lower_mid=0):
    """s=0 -> {1,2} -> t=3, unit arcs; optional lower bound on 1->3."""
    arcs = [
        Arc(0, 1, 0, 2, 1),
        Arc(0, 2, 0, 2, 2),
        Arc(1, 3, lower_mid, 2, 1),
        Arc(2, 3, 0, 2, 1),
    ]
    return ArcNetwork(4, arcs, 0, 3)


def two_node_circulation():
    """0 -> 1 (cost -2) with return arc 1 -> 0 (cost 1)."""
    arcs = [Arc(0, 1, 0, 5, -2), Arc(1, 0, 0, 5, 1)]
    return ArcNetwork(2, arcs, 1, 0, ts_arc=1)


class TestFeasibility:
    def test_zero_flow_feasible_without_lower_bounds(self):
        net = diamond()
        check_feasible(net, zero_flow(net))

    def test_length_mismatch(self):
        net = diamond()
        with pytest.raises(InfeasibleFlowError):
            check_feasible(net, [0, 0, 0])

    def test_bound_violation(self):
        net = diamond(lower_mid=1)
        with pytest.raises(InfeasibleFlowError):
            check_feasible(net, zero_flow(net))

    def test_conservation_violation(self):
        net = diamond()
        with pytest.raises(InfeasibleFlowError):
            check_feasible(net, [1, 0, 0, 0])

    def test_endpoints_exempt_without_return_arc(self):
        net = diamond()
        check_feasible(net, [1, 0, 1, 0])  # imbalanced at s and t only

    def test_return_arc_makes_everything_conserved(self):
        net = two_node_circulation()
        check_feasible(net, [3, 3])
        with pytest.raises(InfeasibleFlowError):
            check_feasible(net, [3, 2])


class TestFlowAccessors:
    def test_value_st_form(self):
        net = diamond()
        assert net.flow_value([1, 1, 1, 1]) == 2

    def test_value_circulation_form(self):
        net = two_node_circulation()
        assert net.flow_value([4, 4]) == 4

    def test_value_counts_arcs_into_the_source(self):
        # s=0 -> 1 carries 3, 1 -> s carries 1 back, 1 -> t=2 carries 2
        net = ArcNetwork(3, [Arc(0, 1, 0, 5, 0), Arc(1, 0, 0, 5, 0), Arc(1, 2, 0, 5, 0)], 0, 2)
        assert net.flow_value([3, 1, 2]) == 2

    def test_value_after_release(self):
        dag = build_dag(4, [(0, 1), (1, 2), (0, 3)])
        split = SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=range(4))
        f = route_paths(split, [(0, 1, 2), (3,)])
        assert split.flow_value(f) == 2
        cap = residual(split, f)
        split.release([1, 2, 3])
        for a in (split.gadget(1), split.gadget(2), split.gadget(3)):
            cap[2 * a + 1] += 1
        result = min_flow(split, cap, f)
        assert split.flow_value(f) == 1 == sum(f[split.entry(v)] for v in range(4))
        assert result.pushes == 1

    def test_cost(self):
        net = diamond()
        assert net.flow_cost([1, 1, 1, 1]) == 1 + 2 + 1 + 1


def usable_arcs(net, cap):
    """(tail, head, forward) of every residual arc with room."""
    tail, head, _, _ = net._paired
    return {(tail[r], head[r], not r & 1) for r, x in enumerate(cap) if x > 0}


class TestResidual:
    def test_arc_directions(self):
        net = diamond()
        pairs = usable_arcs(net, residual(net, [1, 0, 1, 0]))
        assert (0, 1, True) in pairs    # slack remains
        assert (1, 0, False) in pairs   # undo arc
        assert (2, 0, False) not in pairs  # no flow to undo

    def test_saturated_arc_has_no_forward_residual(self):
        net = diamond()
        assert (0, 1, True) not in usable_arcs(net, residual(net, [2, 0, 2, 0]))


class TestNegativeCycles:
    def test_cycle_found_and_canceled(self):
        net = two_node_circulation()
        f = zero_flow(net)
        cyc = find_negative_cycle(net, residual(net, f))
        assert cyc is not None
        assert sum(net._paired[2][r] for r in cyc) < 0
        f2 = min_cost_circulation(net).flow
        check_feasible(net, f2)
        assert net.flow_cost(f2) < net.flow_cost(f)
        assert find_negative_cycle(net, residual(net, f2)) is None

    def test_no_cycle_at_optimum(self):
        net = two_node_circulation()
        assert find_negative_cycle(net, residual(net, [5, 5])) is None


class TestMinCostCirculation:
    def test_two_node_optimum(self):
        net = two_node_circulation()
        result = min_cost_circulation(net)
        assert result.final_cost == -5
        assert result.flow == [5, 5]
        assert result.iterations <= -result.final_cost

    def test_second_path_reroutes_through_an_undo_arc(self):
        # s=0, a=1, b=2, t=3. The first shortest path s-a-b-t (cost 3)
        # blocks b-t; the second, s-b-a-t, undoes a-b. Each unit earns 4
        # on the return arc.
        arcs = [Arc(0, 1, 0, 1, 1), Arc(1, 2, 0, 1, 1), Arc(2, 3, 0, 1, 1),
                Arc(0, 2, 0, 1, 2), Arc(1, 3, 0, 1, 2), Arc(3, 0, 0, INF, -4)]
        net = ArcNetwork(4, arcs, 0, 3, ts_arc=5)
        result = min_cost_circulation(net)
        assert result.flow == [1, 0, 1, 1, 1, 2]
        assert result.iterations == 2 and result.final_cost == 6 - 8

    def test_stops_at_the_first_unprofitable_path(self):
        # parallel s-t arcs of cost -3 and -1 against a return cost of 2
        arcs = [Arc(0, 1, 0, 1, -3), Arc(0, 1, 0, 5, -1), Arc(1, 0, 0, INF, 2)]
        net = ArcNetwork(2, arcs, 0, 1, ts_arc=2)
        result = min_cost_circulation(net)
        assert result.flow == [1, 0, 1] and result.iterations == 1

    def test_return_capacity_bounds_the_augmentations(self):
        arcs = [Arc(0, 1, 0, 1, -3), Arc(0, 1, 0, 5, -1), Arc(1, 0, 0, 2, 0)]
        net = ArcNetwork(2, arcs, 0, 1, ts_arc=2)
        result = min_cost_circulation(net)
        assert result.flow == [1, 1, 2] and result.final_cost == -4
        assert result.iterations == 2

    def test_rejects_networks_without_return_arc(self):
        net = diamond()
        with pytest.raises(InvalidCycleError):
            min_cost_circulation(net)

    def test_rejects_cycles_besides_the_return_arc(self):
        # 1 -> 2 -> 1 would leave the start potentials unsettled after one pass
        arcs = [Arc(0, 1, 0, 1, -1), Arc(1, 2, 0, 1, -1), Arc(2, 1, 0, 1, -1),
                Arc(2, 3, 0, 1, 0), Arc(3, 0, 0, INF, 0)]
        net = ArcNetwork(4, arcs, 0, 3, ts_arc=4)
        with pytest.raises(CycleError):
            min_cost_circulation(net)

    def test_start_potentials_settle_in_one_pass(self):
        # the path 0 -> 1 -> 2 -> 3 listed backwards: one pass in arc
        # order would stop at [0, -1, -1, -1]
        arcs = [Arc(2, 3, 0, 1, -1), Arc(1, 2, 0, 1, -1), Arc(0, 1, 0, 1, -1),
                Arc(3, 0, 0, INF, 9)]
        net = ArcNetwork(4, arcs, 0, 3, ts_arc=3)
        cap = residual(net, zero_flow(net))
        pi = flowcore._start_potentials(net, cap)
        assert pi == [0, -1, -2, -3]
        tail, head, cost, out = net._paired
        assert all(pi[head[r]] <= pi[tail[r]] + cost[r]
                   for rs in out for r in rs if cap[r] > 0)

    def test_certificate_failure_is_a_mismatch(self, monkeypatch):
        net = two_node_circulation()
        cycle = find_negative_cycle(net, residual(net, zero_flow(net)))
        monkeypatch.setattr(flowcore, "find_negative_cycle", lambda net, cap, labels, reduced: cycle)
        with pytest.raises(MismatchError):
            min_cost_circulation(net)


@st.composite
def acyclic_circulations(draw):
    """Acyclic network on nodes 0..m-1 in topological order, plus a
    return arc from m-1 to 0; the zero flow is feasible."""
    m = draw(st.integers(2, 7))
    arc = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                    st.integers(1, 3), st.integers(-4, 4))
    arcs = [Arc(min(u, v), max(u, v), 0, upper, cost)
            for u, v, upper, cost in draw(st.lists(arc, max_size=14)) if u != v]
    arcs.append(Arc(m - 1, 0, 0, draw(st.integers(1, 6)), draw(st.integers(-3, 3))))
    return ArcNetwork(m, arcs, 0, m - 1, ts_arc=len(arcs) - 1)


@given(acyclic_circulations())
@settings(max_examples=150, deadline=None)
def test_circulation_cost_matches_network_simplex(net):
    nx = pytest.importorskip("networkx")
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(net.m))
    for a in flow_reference.arcs(net):
        g.add_edge(a.tail, a.head, capacity=a.upper, weight=a.cost)
    want, _ = nx.network_simplex(g)
    result = min_cost_circulation(net)
    check_feasible(net, result.flow)
    assert result.final_cost == want
    assert result.iterations <= -result.final_cost


def solve_searches(net):
    """The residual capacities, potentials, source and stop node of every
    search that min_cost_circulation runs on net, as the search saw
    them: after 0, 1, 2, ... augmentations."""
    states = []
    real = flowcore._dijkstra

    def record(net, cap, pi, src, stop, seed, below):
        states.append((list(cap), list(pi), src, stop))
        return real(net, cap, pi, src, stop, seed, below)

    with mock.patch.object(flowcore, "_dijkstra", record):
        min_cost_circulation(net)
    return states


def check_search(net, cap, pi, src, stop):
    """The search gives the tuple-keyed reference's labels and
    predecessors, with and without a seed at stop and with ``below``
    finite and -inf, and settles each node at most once, in label order:
    when stop ends it, every node labelled below stop and no node
    labelled above; otherwise every node it reaches. Adding dist - dt on
    the settled nodes moves every potential by min(dist, dt) - dt."""
    undo = 2 * net.ts_arc + 1
    rc = net._paired[2][undo] + pi[src] - pi[stop]
    for seed in (rc, math.inf):
        for below in (rc, -math.inf):
            dist, pred, settled = flowcore._dijkstra(net, cap, pi, src, stop, seed, below)
            assert (dist, pred) == flow_reference.tuple_dijkstra(net, cap, pi, src, stop,
                                                                 seed, below)
            labels = [dist[v] for v in settled]
            assert len(set(settled)) == len(settled) and labels == sorted(labels)
            dt = dist[stop]
            if dt < below:
                assert stop not in settled
                assert {v for v, d in enumerate(dist) if d < dt} <= set(settled)
                assert max(labels, default=dt) <= dt
                shifted = list(pi)
                for v in settled:
                    shifted[v] += dist[v] - dt
                assert shifted == [p + min(d, dt) - dt for p, d in zip(pi, dist)]
            else:
                assert set(settled) == {v for v, d in enumerate(dist) if d < math.inf}


class TestSettledSearch:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dag_networks(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 30)
        dag = build_dag(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < rng.choice([0.1, 0.3])])
        for kind in (ALPHA, BETA):
            net = build_network(dag, rng.randint(1, 5), kind)
            for state in solve_searches(net):
                check_search(net, *state)

    @pytest.mark.parametrize("kind, k", [(ALPHA, 1), (BETA, 5)])
    def test_searches_after_several_augmentations(self, kind, k):
        # five 3-vertex chains, four joined by cross edges: one
        # augmentation per chain
        dag = build_dag(15, [(3 * i + j, 3 * i + j + 1) for i in range(5) for j in range(2)]
                        + [(0, 4), (3, 7), (6, 10), (9, 13)])
        net = build_network(dag, k, kind)
        states = solve_searches(net)
        assert len(states) == 6
        for state in states:
            check_search(net, *state)

    @given(acyclic_circulations())
    @settings(max_examples=150, deadline=None)
    def test_acyclic_circulations(self, net):
        for state in solve_searches(net):
            check_search(net, *state)


def reduce(net, f):
    """min_flow on fresh residual capacities of f, which it reduces in place."""
    return min_flow(net, residual(net, f), f)


class TestMinFlow:
    def test_reduces_to_zero_without_lower_bounds(self):
        net = diamond()
        f = [1, 1, 1, 1]
        result = reduce(net, f)
        assert net.flow_value(f) == 0
        assert result.pushes <= 2

    def test_respects_lower_bound(self):
        net = diamond(lower_mid=1)
        f = [2, 2, 2, 2]
        result = reduce(net, f)
        assert net.flow_value(f) == 1
        assert f[2] == 1
        assert not result.t_reach[net.s]

    def test_reduces_the_given_flow_and_residual_graph_in_place(self):
        net = diamond(lower_mid=1)
        f = [2, 2, 2, 2]
        cap = residual(net, f)
        min_flow(net, cap, f)
        assert f == [1, 0, 1, 0]
        assert cap == residual(net, f)

    def test_decrementing_path_detection(self):
        net = diamond()
        found = reduce(net, [1, 1, 1, 1])
        assert found.pushes == 2 and found.searches == 3
        none = reduce(net, zero_flow(net))
        assert (none.searches, none.pushes) == (1, 0)
        assert not none.t_reach[net.s]

    def test_rejects_circulation_networks(self):
        net = two_node_circulation()
        with pytest.raises(InvalidCycleError):
            reduce(net, zero_flow(net))

    def test_infeasible_start_flow_is_rejected(self):
        # residual() checks the start flow, so min_flow never sees it
        net = diamond(lower_mid=1)
        with pytest.raises(InfeasibleFlowError):
            reduce(net, zero_flow(net))

    def test_push_bound_is_checked(self, monkeypatch):
        # a search that returns an arc and its own undo arc would make a
        # push that leaves the value unchanged; the path proof rejects
        # it first, since the undo arc of s -> 1 does not leave t
        real = flowcore._residual_bfs
        calls = []

        def with_idle_push(out, head, cap, src, dst):
            calls.append(1)
            if len(calls) == 2:
                return [0, 1], [False] * len(out)
            return real(out, head, cap, src, dst)

        monkeypatch.setattr(flowcore, "_residual_bfs", with_idle_push)
        with pytest.raises(MismatchError, match="^residual arc 1 leaves node 1, not node 3$"):
            reduce(diamond(), [1, 0, 1, 0])

    def test_push_bound_sees_a_value_raised_after_the_last_search(self, monkeypatch):
        # one proved push takes the value from 1 to 0; raising it again
        # along s -> 1 -> t before the close leaves a decrease of 0
        f = [1, 0, 1, 0]
        real = flowcore._residual_bfs

        def raise_value_after_the_last_search(out, head, cap, src, dst):
            path, seen = real(out, head, cap, src, dst)
            if path is None:
                f[0] += 1
                f[2] += 1
            return path, seen

        monkeypatch.setattr(flowcore, "_residual_bfs", raise_value_after_the_last_search)
        with pytest.raises(MismatchError, match="^1 pushes for a value decrease of 0$"):
            reduce(diamond(), f)


class TestPushProof:
    """min_flow proves each search's path before it pushes: the arcs join
    head to tail from t to s, each at most once, with room for the push.
    On the diamond, s = 0 and t = 3; paired arc 2i runs along arc i and
    2i + 1 against it, and a path lists its arcs s first."""

    @pytest.mark.parametrize("flow, path, message", [
        # 1 -> 3 then 1 -> 0: the first arc from t leaves node 1
        ([1, 0, 1, 0], [1, 4], "residual arc 4 leaves node 1, not node 3"),
        # 3 -> 1 then 2 -> 0: no arc joins node 1 to node 2
        ([1, 1, 1, 1], [3, 5], "residual arc 3 leaves node 2, not node 1"),
        # 3 -> 1 leaves t but stops short of s
        ([1, 0, 1, 0], [5], "the path ends at node 1, not at s = 0"),
        # 3 -> 2 -> 0 joins t to s, but neither arc has room
        ([1, 0, 1, 0], [3, 7], "a push of 0 along the path"),
        # 3 -> 1 -> 3 -> 1 -> 0 takes the undo arc of 1 -> 3 twice
        ([1, 1, 1, 1], [1, 5, 4, 5], "the path takes an arc twice"),
        ([1, 1, 1, 1], [-1], r"the path names an arc outside 0\.\.7"),
    ], ids=["first-arc-not-from-t", "gap", "short-of-s", "no-room", "repeated-arc",
            "bad-id"])
    def test_bad_path_is_rejected(self, monkeypatch, flow, path, message):
        # the bad path once, then no path, so that an unproved push ends
        paths = [path]
        monkeypatch.setattr(flowcore, "_residual_bfs",
                            lambda out, head, cap, src, dst:
                            (paths.pop() if paths else None, [False] * len(out)))
        f = list(flow)
        with pytest.raises(MismatchError, match=f"^{message}$"):
            reduce(diamond(), f)
        assert f == flow

    def test_proof_survives_optimized_python(self):
        # the entry of vertex 0, s -> 0_in, does not leave t (node 7)
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, flowcore, greedy\n"
            "from gkcover.errors import MismatchError\n"
            "paths = [[0]]\n"
            "def bad_once(out, head, cap, src, dst):\n"
            "    return paths.pop() if paths else None, [False] * len(out)\n"
            "flowcore._residual_bfs = bad_once\n"
            "try:\n"
            "    greedy.greedy_k_antichains(build_dag(3, [(0, 1)]), 1)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatch: residual arc 0 leaves node 6, not node 7\n"


def _random_subset_network(seed):
    """A seeded random DAG's subset network, a random subset, and a start
    flow that covers every vertex by best-path rounds or by singletons."""
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    density = rng.choice([0.05, 0.2, 0.5])
    perm = list(range(n))
    rng.shuffle(perm)
    dag = build_dag(n, [(perm[u], perm[v]) for u in range(n)
                        for v in range(u + 1, n) if rng.random() < density])
    subset = {v for v in range(n) if rng.random() < rng.choice([0.3, 0.7, 1.0])}
    split = SplitNetwork(n, dag.edges, [(INF, 0)], demand=subset)
    if rng.random() < 0.5:
        paths = [p.vertices for p in cover_paths(dag)]
    else:
        paths = [(v,) for v in range(n)]
    return rng, split, subset, route_paths(split, paths)


class TestMinFlowMatchesReference:
    """min_flow over paired residual arcs takes the same paths as a
    search of the rebuilt residual graph before every push, also when
    one residual graph is carried across rounds."""

    @pytest.mark.parametrize("seed", range(24))
    def test_same_flow_and_counts(self, seed):
        rng, split, subset, flow = _random_subset_network(seed)
        cap = residual(split, flow)
        # one cold solve, then warm starts as the greedy rounds run them:
        # some subset vertices lose their lower bound between solves, and
        # the capacities follow by raising their undo capacities
        for _ in range(3):
            values, searches, pushes, seen = flow_reference.min_flow(split, flow)
            result = min_flow(split, cap, flow)
            assert flow == values
            assert (result.searches, result.pushes) == (searches, pushes)
            assert result.t_reach == seen
            assert cap == residual(split, flow)
            dropped = [v for v in subset if rng.random() < 0.4]
            for a in split.release(dropped):
                cap[2 * a + 1] += 1
            subset.difference_update(dropped)
            assert cap == residual(split, flow)


class TestDecompose:
    """peel_paths reads a flow's units back as vertex sequences."""

    def split(self):
        edges = [(0, 1), (1, 2), (0, 3)]
        split = SplitNetwork(4, edges, [(INF, 0)], demand=range(4))
        split.take_levels(height_levels(build_dag(4, edges)))
        return split

    def test_unit_paths_reconstruct_flow(self):
        split = self.split()
        f = route_paths(split, [(0, 1, 2), (3,)])
        peeled = peel_paths(split, f)
        assert peeled == [((0, 1, 2), 0), ((3,), 0)]
        assert route_paths(split, [p for p, _ in peeled]) == f

    def test_zero_flow_decomposes_to_nothing(self):
        split = self.split()
        assert peel_paths(split, zero_flow(split)) == []

    def gk_flow(self, path):
        """A beta network on the path 0 -> 1 -> 2 and the flow of one
        unit along ``path``."""
        gk = build_network(build_dag(3, [(0, 1), (1, 2)]), 2, BETA)
        return gk, route_paths(gk, [path])

    def test_flow_no_unit_reaches_is_left_over(self):
        gk, f = self.gk_flow((1, 2))
        # edge arc (0, 1) carries a unit that no entry feeds
        f[gk.stride * gk.n] += 1
        for peel in (peel_paths, self.reference):
            with pytest.raises(ConservationError) as err:
                peel(gk, f)
            assert err.value.node == gk.v_out(0)

    @pytest.mark.parametrize("stuck", ["s", "v_in", "v_out"])
    def test_unit_that_dead_ends(self, stuck):
        gk, f = self.gk_flow((0, 1))
        if stuck == "s":
            # the return arc carries a second unit that no entry takes on
            f[gk.ts_arc] += 1
            node = gk.s
        elif stuck == "v_in":
            # vertex 1 passes no flow from v_in to v_out
            f[gk.gadget(1, COVER)] -= 1
            node = gk.v_in(1)
        else:
            # nothing leaves vertex 1's v_out
            f[gk.exit(1)] -= 1
            node = gk.v_out(1)
        for peel in (peel_paths, self.reference):
            with pytest.raises(ConservationError) as err:
                peel(gk, f)
            assert err.value.node == node

    @staticmethod
    def reference(split, f):
        return flow_reference.decompose(split, f)


def _reference_units(split, f):
    """The units as the network-level peel and its map back give them,
    and the old synthetic test: vertex 0 alone through its overflow arc."""
    paths = flow_reference.decompose(split, f)
    synthetic = [len(arcs) == 3 and arcs[1] == split.gadget(0, OVERFLOW) for _, arcs in paths]
    return flow_reference.vertex_paths(split, paths), synthetic


class TestPeelMatchesReference:
    """peel_paths takes the network-level peel's tie-break: entries in
    topological order, the cover arc before the overflow arc, and the
    earliest edge arc with flow left before the exit."""

    def flows(self, seed):
        rng = random.Random(seed)
        n = rng.randint(40, 160)
        density = rng.choice([0.02, 0.2, 0.5, 0.9])
        perm = list(range(n))
        rng.shuffle(perm)
        dag = build_dag(n, [(perm[u], perm[v]) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < density])
        for k in (1, 2, 4):
            alpha = build_network(dag, k, ALPHA)
            yield alpha, min_cost_circulation(alpha).flow
            beta = build_network(dag, k, BETA)
            yield beta, normalize_beta(beta, min_cost_circulation(beta).flow)

    def test_same_units_and_synthetic_flags(self):
        flows = synthetic_flows = 0
        for seed in range(12):
            for gk, f in self.flows(seed):
                peeled = peel_paths(gk, f)
                units, synthetic = _reference_units(gk, f)
                assert peeled == units
                assert [u == ((0,), OVERFLOW) for u in peeled] == synthetic
                assert route_paths(gk, [p for p, _ in peeled]) == f
                flows += 1
                synthetic_flows += any(synthetic)
        assert flows == 72 and synthetic_flows > 0


def with_return_arc(net, cost, upper=INF):
    """The network with a return arc t -> s appended."""
    arcs = flow_reference.arcs(net) + [Arc(net.t, net.s, 0, upper, cost)]
    return ArcNetwork(net.m, arcs, net.s, net.t, ts_arc=len(arcs) - 1)


def reference_distances(net, f):
    arcs = flow_reference.residual_arcs(flow_reference.arcs(net), f)
    return flow_reference.shortest_distances(net.m, arcs, net.s)


class TestShortestDistances:
    """The circulation's labels are the exact residual distances from s."""

    def test_line_distances(self):
        # a return arc of cost 5 makes every s-t path unprofitable
        net = with_return_arc(diamond(), 5)
        circ = min_cost_circulation(net)
        assert circ.iterations == 0
        assert circ.labels == [0, 1, 2, 2] == reference_distances(net, circ.flow)

    def test_unreachable_nodes_get_capped_labels(self):
        # node 2 only sends: s = 0 reaches 1 and t = 3
        arcs = [Arc(0, 1, 0, 1, 4), Arc(1, 3, 0, 1, 1), Arc(2, 1, 0, 1, -7),
                Arc(3, 0, 0, INF, 9)]
        net = ArcNetwork(4, arcs, 0, 3, ts_arc=3)
        circ = min_cost_circulation(net)
        assert reference_distances(net, circ.flow) == [0, 4, None, 5]
        assert circ.labels[:2] + circ.labels[3:] == [0, 4, 5]
        tail, head, cost, _ = net._paired
        assert all(circ.labels[head[r]] <= circ.labels[tail[r]] + cost[r]
                   for r, x in enumerate(residual(net, circ.flow)) if x > 0)

    def test_uses_undo_arcs(self):
        # The unit routed on 0 -> 1 -> 2 saturates both arcs, so s reaches
        # t only by the return arc's undo arc (cost 5) and node 1 by the
        # undo arc of 1 -> 2 (cost -1).
        arcs = [Arc(0, 1, 0, 1, 1), Arc(1, 2, 0, 1, 1), Arc(2, 0, 0, INF, -5)]
        net = ArcNetwork(3, arcs, 0, 2, ts_arc=2)
        circ = min_cost_circulation(net)
        assert circ.flow == [1, 1, 1]
        assert circ.labels == [0, 4, 5] == reference_distances(net, circ.flow)


def _run_optimized(script, flags):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# python and python -O alike: a check that raises MismatchError, not an assert
PYTHON_FLAGS = [pytest.param((), id="python"), pytest.param(("-O",), id="python-O")]


@pytest.mark.parametrize("flags", PYTHON_FLAGS)
def test_labels_of_the_wrong_length_are_a_mismatch(flags):
    script = (
        "from gkcover.errors import MismatchError\n"
        "from gkcover.flowcore import (SplitNetwork, check_distances,\n"
        "                              find_negative_cycle, residual, zero_flow)\n"
        "def report(check, *args):\n"
        "    try:\n"
        "        check(*args)\n"
        "    except MismatchError as exc:\n"
        "        print('mismatch:', exc)\n"
        "net = SplitNetwork(1, [], [(1, 1)])\n"
        "cap = residual(net, zero_flow(net))\n"
        "for labels in ([0, 1, 2], [0, 1, 2, 3, 4]):\n"
        "    report(check_distances, net, cap, 0, labels)\n"
        "    report(find_negative_cycle, net, cap, labels)\n")
    assert _run_optimized(script, flags).splitlines() == [
        "mismatch: 3 labels for a residual graph of 4 nodes"] * 2 + [
        "mismatch: 5 labels for a residual graph of 4 nodes"] * 2


@pytest.mark.parametrize("flags", PYTHON_FLAGS)
def test_stale_capacity_fails_the_certificate(flags):
    # every push skips the capacity update of its path's first arc, an
    # entry arc, so the search runs as before but the capacities go stale
    script = (
        "from gkcover import build_dag, flowcore, networks\n"
        "from gkcover.errors import MismatchError\n"
        "real = flowcore._augment\n"
        "def stale(path, push, cap, values):\n"
        "    real(path, push, cap, values)\n"
        "    cap[path[-1]] += push\n"
        "flowcore._augment = stale\n"
        "try:\n"
        "    networks.solve_alpha(build_dag(3, [(0, 1), (1, 2)]), 1)\n"
        "except MismatchError as exc:\n"
        "    print('mismatch:', exc)\n")
    assert _run_optimized(script, flags) == (
        "mismatch: the solver's residual capacities differ from its flow's\n")
