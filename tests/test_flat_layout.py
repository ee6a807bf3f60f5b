"""The list-based networks, residual graphs and topological orders agree
with the object-based code and with graphlib on random inputs."""

import graphlib
import random

import pytest

from gkcover import (
    CycleError,
    build_dag,
    flowcore,
    gen_ga,
    gen_gc,
    greedy,
    greedy_antichain_cover,
    greedy_k_antichains,
    minimum_path_cover,
    networks,
    solve_alpha,
    solve_beta,
)
from gkcover.flowcore import (
    INF,
    SplitNetwork,
    check_distances,
    check_feasible,
    find_negative_cycle,
    min_cost_circulation,
    min_flow,
    residual,
    route_paths,
    zero_flow,
)
from gkcover.errors import MismatchError
from gkcover.greedy import cover_paths
from gkcover.networks import ALPHA, BETA, build_network, height_levels, normalize_beta

import flow_reference as ref
from flow_reference import Arc, ArcNetwork


def random_dag(rng, n_max=40):
    n = rng.randint(0, n_max)
    density = rng.choice([0.05, 0.2, 0.5])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    # duplicates are dropped by build_dag
    edges += rng.sample(edges, min(len(edges), 3))
    rng.shuffle(edges)
    return build_dag(n, edges)


def columns(net):
    return (net.tail, net.head, net.lower, net.upper, net.cost)


def residual_rows(net, cap, ids=None):
    """(tail, head, cap, cost, network arc, forward) of the paired arcs
    ``ids``, by default of every arc with room in id order. An uncapped
    arc's forward cap reads as INF, as in the reference."""
    tail, head, cost, _ = net._paired
    if ids is None:
        ids = [r for r, x in enumerate(cap) if x > 0]
    return [(tail[r], head[r], INF if not r & 1 and net.upper[r >> 1] >= INF else cap[r],
             cost[r], r >> 1, not r & 1) for r in ids]


def reference_rows(arcs):
    return [(a.tail, a.head, a.cap, a.cost, a.arc, a.forward) for a in arcs]


def static_order(n, succ):
    ts = graphlib.TopologicalSorter({v: [] for v in range(n)})
    for u, ws in enumerate(succ):
        for w in ws:
            ts.add(w, u)
    return list(ts.static_order())


def network_static_pos(net):
    succ = [[] for _ in range(net.m)]
    for i, (u, w) in enumerate(zip(net.tail, net.head)):
        if i != net.ts_arc:
            succ[u].append(w)
    pos = [0] * net.m
    for idx, v in enumerate(static_order(net.m, succ)):
        pos[v] = idx
    return pos


class TestSplitNetworkLists:
    @pytest.mark.parametrize("seed", range(30))
    def test_lists_match_the_arc_build(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng)
        gadgets = [(rng.choice([1, 2, INF]), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 3))]
        demand = {v for v in range(dag.n) if rng.random() < 0.5}
        if rng.random() < 0.3:
            demand = range(dag.n)
        ret = rng.choice([None, (INF, 3), (2, 0)])
        split = SplitNetwork(dag.n, dag.edges, gadgets, demand=demand, ret=ret)
        want = ref.split_arcs(dag.n, dag.edges, gadgets, demand, ret)
        assert ref.arcs(split) == want
        assert split.ts_arc == (len(want) - 1 if ret is not None else None)
        assert (split.m, split.s, split.t) == (2 * dag.n + 2, 2 * dag.n, 2 * dag.n + 1)
        assert columns(ArcNetwork(split.m, want, split.s, split.t, split.ts_arc)) == columns(split)

    @pytest.mark.parametrize("seed", range(10))
    def test_release_changes_only_the_released_lower_bounds(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng)
        split = SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=range(dag.n))
        before = [list(col) for col in columns(split)]
        released = [v for v in range(dag.n) if rng.random() < 0.4]
        split.release(released)
        after = columns(split)
        assert after[:2] == tuple(before[:2]) and after[3:] == tuple(before[3:])
        gadget_ids = {split.gadget(v) for v in released}
        for i, (old, new) in enumerate(zip(before[2], after[2])):
            assert new == (0 if i in gadget_ids else old)


def generic_build(net):
    """The paired adjacency and Kahn positions of the reference's
    arc-order build, on an ArcNetwork copy of ``net``."""
    copy = ArcNetwork(net.m, ref.arcs(net), net.s, net.t, net.ts_arc)
    return copy._paired, copy.node_topo_pos()


class TestSplitAdjacency:
    """A SplitNetwork's adjacency, read off its layout, is the generic
    build's, id for id and in order. Given the DAG's height levels, a
    network with gadget arcs takes the generic build's Kahn order; one
    without them has no arc from v_in to v_out, and Kahn's order differs."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("gadgets", range(4))
    @pytest.mark.parametrize("ret", [None, (2, 0)])
    def test_corner_cases(self, n, gadgets, ret):
        edges = [(0, 1)] if n == 2 else []
        split = SplitNetwork(n, edges, [(INF, 0)] * gadgets, demand=range(n), ret=ret)
        split.take_levels(height_levels(build_dag(n, edges)))
        paired, pos = generic_build(split)
        assert split._adjacency() == paired[3]
        assert split._paired == paired
        if gadgets:
            assert split.node_topo_pos() == pos

    @pytest.mark.parametrize("seed", range(40))
    def test_random_networks(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, rng.choice([5, 40]))
        edges = dag.edges if rng.random() < 0.8 else ()
        gadgets = [(rng.choice([1, 2, INF]), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 3))]
        demand = {v for v in range(dag.n) if rng.random() < 0.5}
        ret = rng.choice([None, (INF, 3), (2, 0)])
        split = SplitNetwork(dag.n, edges, gadgets, demand=demand, ret=ret)
        split.take_levels(height_levels(build_dag(dag.n, edges)))
        paired, pos = generic_build(split)
        assert split._adjacency() == paired[3]
        assert split._paired == paired
        if gadgets:
            assert split.node_topo_pos() == pos
        assert pos == network_static_pos(split)

    @pytest.mark.parametrize("case", ["empty", "edgeless", "gc-6"] + list(range(30)))
    def test_gk_networks_take_their_order_from_the_dag(self, case):
        if case == "empty":
            dag = build_dag(0, [])
        elif case == "edgeless":
            dag = build_dag(7, [])
        elif case == "gc-6":
            dag = gen_gc(6).dag
        else:
            dag = random_dag(random.Random(case), 60)
        for kind in (ALPHA, BETA):
            net = build_network(dag, 2, kind)
            assert "_topo" in vars(net)
            assert net.node_topo_pos() == generic_build(net)[1]

    @pytest.mark.parametrize("n", [0, 2, 16])
    def test_networks_are_built_with_their_adjacency(self, n):
        # the paired heads and the adjacency come with the network; the
        # paired tails and costs with the first read of _paired, which
        # reuses the two built columns
        split = SplitNetwork(n, [(0, 1)] if n else [], [(INF, 0)])
        paired = generic_build(split)[0]
        assert (split._rhead, split._out) == (paired[1], paired[3])
        assert split._paired_cache is None
        assert split._paired == paired
        assert split._paired[1] is split._rhead and split._paired[3] is split._out


class TestLazyResidualColumns:
    """The paired residual tails and costs are built on the first read of
    ``_paired``, which only the exact side makes: no greedy min-flow path
    builds them, and a solve's network ends with the reference's."""

    @pytest.mark.parametrize("seed", range(10))
    def test_min_flow_rounds_leave_them_unbuilt(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, 30)
        split = SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=range(dag.n))
        f = route_paths(split, [p.vertices for p in cover_paths(dag)])
        cap = residual(split, f)
        min_flow(split, cap, f)
        for a in split.release([v for v in range(dag.n) if rng.random() < 0.5]):
            cap[2 * a + 1] += 1
        min_flow(split, cap, f)
        check_feasible(split, f)
        assert split._paired_cache is None
        assert cap == residual(split, f)

    @pytest.mark.parametrize("solve", [solve_alpha, solve_beta])
    @pytest.mark.parametrize("seed", range(6))
    def test_solves_build_them_as_the_reference(self, monkeypatch, solve, seed):
        built = spy_on(monkeypatch, networks, "build_network")
        solve(random_dag(random.Random(seed), 30), 1 + seed % 3)
        net, = built
        assert net._paired_cache == generic_build(net)[0]

    @pytest.mark.parametrize("run", [
        minimum_path_cover,
        lambda dag: greedy_k_antichains(dag, 3),
        lambda dag: greedy_antichain_cover(dag, 1),
    ])
    @pytest.mark.parametrize("case", ["gc-8", "ga-4", 0, 1, 2])
    def test_greedy_min_flows_leave_them_unbuilt(self, monkeypatch, run, case):
        built = spy_on(monkeypatch, greedy, "build_subset_network")
        if isinstance(case, int):
            dag = random_dag(random.Random(case), 40)
        else:
            dag = (gen_gc if case.startswith("gc") else gen_ga)(int(case[3:])).dag
        run(dag)
        assert len(built) == (dag.n > 0)
        assert all(net._paired_cache is None for net in built)


def spy_on(monkeypatch, module, name):
    """The list of results of every call to ``module.name`` from now."""
    real = getattr(module, name)
    results = []

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def random_flows(seed):
    """Networks and feasible flows with undo arcs: circulation solves,
    path-cover flows on subset networks before and after a release, and
    the zero flow."""
    rng = random.Random(seed)
    dag = random_dag(rng, 25)
    gk = build_network(dag, rng.randint(1, 4), rng.choice([ALPHA, BETA]))
    yield gk, zero_flow(gk)
    yield gk, min_cost_circulation(gk).flow
    subset = {v for v in range(dag.n) if rng.random() < 0.6}
    split = SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=subset)
    f = route_paths(split, [p.vertices for p in cover_paths(dag)])
    yield split, f
    split.release([v for v in subset if rng.random() < 0.5])
    yield split, f


def random_circulation(rng):
    """A digraph with cycles and a feasible circulation on it: flow goes
    around random node cycles, and extra arcs carry none. Costs may make
    residual cycles negative; some nodes are left without arcs."""
    m = rng.randint(1, 9)
    arcs, values = [], []
    for _ in range(rng.randint(0, 4)):
        cyc = rng.sample(range(m), rng.randint(1, m)) if m > 1 else []
        if len(cyc) < 2:
            continue
        x = rng.randint(1, 2)
        for u, w in zip(cyc, cyc[1:] + cyc[:1]):
            arcs.append(Arc(u, w, rng.randint(0, x), x + rng.randint(0, 2), rng.randint(-3, 3)))
            values.append(x)
    for _ in range(rng.randint(0, 12)):
        u, w = rng.randrange(m), rng.randrange(m)
        arcs.append(Arc(u, w, 0, rng.randint(1, 3), rng.randint(-2, 4)))
        values.append(0)
    return ArcNetwork(m, arcs, 0, m - 1), values


class TestResidualLists:
    @pytest.mark.parametrize("seed", range(15))
    def test_residual_matches_the_record_build(self, seed):
        for net, f in random_flows(seed):
            want = ref.residual_arcs(ref.arcs(net), f)
            assert residual_rows(net, residual(net, f)) == reference_rows(want)

    @pytest.mark.parametrize("seed", range(15))
    def test_bellman_ford_on_solved_flows(self, seed):
        for net, f in random_flows(seed):
            cap = residual(net, f)
            arcs = ref.residual_arcs(ref.arcs(net), f)
            cyc = find_negative_cycle(net, cap)
            want = ref.find_negative_cycle(net.m, arcs)
            assert (cyc is None) == (want is None)
            if want is not None:
                assert residual_rows(net, cap, cyc) == reference_rows(want)
            for s in (net.s, net.t):
                assert_label_check_agrees(net, cap, arcs, s)

    @pytest.mark.parametrize("seed", range(60))
    def test_bellman_ford_with_cycles(self, seed):
        rng = random.Random(seed)
        net, f = random_circulation(rng)
        cap = residual(net, f)
        arcs = ref.residual_arcs(ref.arcs(net), f)
        assert residual_rows(net, cap) == reference_rows(arcs)
        cyc = find_negative_cycle(net, cap)
        want = ref.find_negative_cycle(net.m, arcs)
        if want is None:
            assert cyc is None
        else:
            assert residual_rows(net, cap, cyc) == reference_rows(want)
            assert sum(net._paired[2][r] for r in cyc) < 0
        # Seeded with any labels, the search reaches the same verdict.
        seeds = [[rng.randint(-6, 6) for _ in range(net.m)] for _ in range(4)]
        for s in range(net.m):
            try:
                d = ref.shortest_distances(net.m, arcs, s)
            except ref.NegativeCycleError:
                continue
            seeds.append([rng.randint(-6, 6) if x is None else x for x in d])
        for labels in seeds:
            cyc = find_negative_cycle(net, cap, labels)
            assert (cyc is None) == (want is None)
            if cyc is not None:
                assert_negative_cycle(net, cap, cyc)
        for s in range(net.m):
            assert_label_check_agrees(net, cap, arcs, s)

    def test_forced_negative_cycle_and_unreachable_nodes(self):
        # 0 -> 1 -> 2 -> 0 costs -1 in total; node 3 has no arcs
        arcs = [Arc(0, 1, 0, 1, 2), Arc(1, 2, 0, 1, -4), Arc(2, 0, 0, 1, 1)]
        net = ArcNetwork(4, arcs, 0, 3)
        cap = residual(net, zero_flow(net))
        want = ref.find_negative_cycle(4, ref.residual_arcs(ref.arcs(net), [0, 0, 0]))
        cyc = find_negative_cycle(net, cap)
        assert residual_rows(net, cap, cyc) == reference_rows(want)
        assert sorted(r >> 1 for r in cyc) == [0, 1, 2]
        for labels in ([0, 2, -2, 0], [0, 0, 0, 0], [0, 9, 9, 9]):
            assert_negative_cycle(net, cap, find_negative_cycle(net, cap, labels))
            with pytest.raises(MismatchError):
                check_distances(net, cap, 0, labels)
        # with the cycle saturated, only undo arcs remain and 3 stays unreachable
        cap = residual(net, [1, 1, 1])
        assert find_negative_cycle(net, cap) is None
        assert ref.shortest_distances(
            4, ref.residual_arcs(ref.arcs(net), [1, 1, 1]), 0) == [0, 3, -1, None]
        assert find_negative_cycle(net, cap, [0, 3, -1, 5]) is None
        with pytest.raises(MismatchError, match="node 3"):
            check_distances(net, cap, 0, [0, 3, -1, 5])


def assert_negative_cycle(net, cap, cyc):
    """The residual arc ids form a closed walk of negative cost over
    arcs with room."""
    tail, head, cost, _ = net._paired
    assert cyc
    for r, nxt in zip(cyc, cyc[1:] + cyc[:1]):
        assert cap[r] > 0 and head[r] == tail[nxt]
    assert sum(cost[r] for r in cyc) < 0


def assert_label_check_agrees(net, cap, arcs, s):
    """check_distances accepts the reference distances from s when they
    exist and reach every node, and rejects them with any one label
    moved; it rejects every labelling otherwise."""
    try:
        d = ref.shortest_distances(net.m, arcs, s)
    except ref.NegativeCycleError:
        d = None
    if d is None or None in d:
        labels = [0] * net.m if d is None else [x or 0 for x in d]
        with pytest.raises(MismatchError):
            check_distances(net, cap, s, labels)
        return
    check_distances(net, cap, s, d)
    for v in range(net.m):
        for delta in (-1, 1):
            moved = list(d)
            moved[v] += delta
            with pytest.raises(MismatchError):
                check_distances(net, cap, s, moved)


class TestCirculationLabels:
    @pytest.mark.parametrize("seed", range(20))
    def test_labels_are_the_reference_distances(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng)
        for kind in (ALPHA, BETA):
            for k in (1, 2, 3, 5):
                gk = build_network(dag, k, kind)
                circ = min_cost_circulation(gk)
                flows = [circ.flow]
                if kind == BETA:
                    flows.append(normalize_beta(gk, circ.flow))
                for f in flows:
                    arcs = ref.residual_arcs(ref.arcs(gk), f)
                    assert circ.labels == ref.shortest_distances(gk.m, arcs, gk.s)
                    check_distances(gk, residual(gk, f), gk.s, circ.labels)

    def test_labels_survive_the_beta_padding(self):
        # a path of 4 has width 1, so k = 5 leaves four units to pad
        gk = build_network(build_dag(4, [(0, 1), (1, 2), (2, 3)]), 5, BETA)
        circ = min_cost_circulation(gk)
        padded = normalize_beta(gk, circ.flow)
        assert padded[gk.ts_arc] == 5 > circ.flow[gk.ts_arc]
        assert circ.labels == ref.shortest_distances(
            gk.m, ref.residual_arcs(ref.arcs(gk), padded), gk.s)


def tied_network(rng):
    """An acyclic network on nodes 0..m-1 in topological order whose
    arcs, many of them parallel, cost -1 or 0, so that many labels tie,
    closed by a return arc m-1 -> 0."""
    m = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(1, 24)):
        u, v = sorted(rng.sample(range(m), 2))
        arcs += [Arc(u, v, 0, rng.randint(1, 3), rng.choice([-1, 0, 0]))] * rng.randint(1, 3)
    arcs.append(Arc(m - 1, 0, 0, rng.randint(1, 8), rng.randint(-1, 2)))
    return ArcNetwork(m, arcs, 0, m - 1, ts_arc=len(arcs) - 1)


class TestSearchMatchesReference:
    """Queuing the return arc's tail first among equal labels, and letting
    the last round's search give the labels, changes no result of the
    solve, which runs one search per augmentation and one more."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        real = flowcore._dijkstra

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(flowcore, "_dijkstra", counted)
        return calls

    def check(self, net, searches):
        values, iterations, labels, cost, cap, ref_searches = ref.ssp_circulation(net)
        searches.clear()
        circ = min_cost_circulation(net)
        assert circ.flow == values
        assert (circ.iterations, circ.labels, circ.final_cost) == (iterations, labels, cost)
        assert circ.cap == cap == residual(net, circ.flow)
        assert len(searches) == circ.iterations + 1 <= ref_searches

    @pytest.mark.parametrize("seed", range(12))
    def test_random_dag_networks(self, seed, searches):
        dag = random_dag(random.Random(seed), 30)
        for kind in (ALPHA, BETA):
            for k in range(1, 6):
                self.check(build_network(dag, k, kind), searches)

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_labels_and_parallel_arcs(self, seed, searches):
        rng = random.Random(seed)
        for _ in range(5):
            self.check(tied_network(rng), searches)

    @pytest.mark.parametrize("case", ["random-120", "gc-6"])
    def test_larger_networks(self, case, searches):
        if case == "gc-6":
            dag = gen_gc(6).dag
        else:
            rng = random.Random(120)
            edges = [(u, v) for u in range(120) for v in range(u + 1, 120)
                     if rng.random() < 0.05]
            dag = build_dag(120, edges)
        for kind in (ALPHA, BETA):
            for k in range(1, 7):
                self.check(build_network(dag, k, kind), searches)


class TestKahnOrder:
    @pytest.mark.parametrize("seed", range(30))
    def test_build_dag_order_is_graphlibs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 60)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.05, 0.3])]
        rng.shuffle(edges)
        dag = build_dag(n, edges)
        assert list(dag.topo) == static_order(n, dag.succ)

    @pytest.mark.parametrize("seed", range(15))
    def test_network_orders_are_graphlibs(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng)
        nets = [SplitNetwork(dag.n, dag.edges, [(INF, 0)], demand=range(dag.n))]
        nets[0].take_levels(height_levels(dag))
        for kind in (ALPHA, BETA):
            nets.append(build_network(dag, rng.randint(1, 3), kind))
        for net in nets:
            assert net.node_topo_pos() == network_static_pos(net)

    def test_parallel_arcs(self):
        arcs = [Arc(0, 2, 0, 1, 0), Arc(0, 2, 0, 1, 0), Arc(1, 2, 0, 1, 0), Arc(2, 3, 0, 1, 0)]
        net = ArcNetwork(4, arcs, 0, 3)
        assert net.node_topo_pos() == network_static_pos(net) == [0, 1, 2, 3]

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 0)],
        [(3, 4), (0, 1), (4, 2), (1, 0), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 1), (4, 0)],
    ])
    def test_cycle_message_is_graphlibs(self, edges):
        n = 1 + max(max(e) for e in edges)
        ts = graphlib.TopologicalSorter({v: [] for v in range(n)})
        for u, v in edges:
            ts.add(v, u)
        with pytest.raises(graphlib.CycleError) as want:
            ts.prepare()
        with pytest.raises(CycleError) as got:
            build_dag(n, edges)
        assert str(got.value) == f"edge list contains a cycle: {want.value.args[1]}"

    def test_cyclic_network_is_rejected(self):
        arcs = [Arc(0, 1, 0, 1, 0), Arc(1, 0, 0, 1, 0), Arc(1, 2, 0, 1, 0)]
        with pytest.raises(CycleError, match=r"\[0, 1, 0\]"):
            ArcNetwork(3, arcs, 0, 2).node_topo_pos()
