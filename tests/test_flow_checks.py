"""The flow checks: residual() and the circulation certificate against
the reference check_feasible, which balances every node one arc at a
time; and the layout that residual()'s conservation check relies on."""

import os
import random
import subprocess
import sys

import pytest

from gkcover import build_dag, flowcore, gen_ga, gen_gc
from gkcover.errors import InfeasibleFlowError
from gkcover.flowcore import (
    INF,
    SplitNetwork,
    min_cost_circulation,
    min_flow,
    residual,
    route_paths,
    zero_flow,
)
from gkcover.greedy import build_subset_network, cover_paths
from gkcover.networks import ALPHA, BETA, COVER, OVERFLOW, build_network, normalize_beta

import flow_reference as ref
from test_flat_layout import random_dag


def library_dags():
    yield build_dag(0, [])
    yield build_dag(5, [])
    yield build_dag(3, [(0, 1), (1, 2)])
    for i in (1, 3, 5):
        yield gen_gc(i).dag
    for i in (1, 2, 3):
        yield gen_ga(i).dag
    for seed in range(10):
        yield random_dag(random.Random(seed), 30)


DAGS = list(library_dags())


def library_networks(dag, rng):
    """Every kind of SplitNetwork the library builds on ``dag``: the
    alpha and beta networks at k = 1..3, the subset network of every
    vertex, and one of a random subset before and after a release."""
    for kind in (ALPHA, BETA):
        for k in (1, 2, 3):
            yield build_network(dag, k, kind)
    yield build_subset_network(dag, range(dag.n))
    subset = {v for v in range(dag.n) if rng.random() < 0.6}
    yield build_subset_network(dag, subset)
    released = build_subset_network(dag, subset)
    released.release([v for v in subset if rng.random() < 0.5])
    yield released


def library_flows(dag, rng):
    """(network, flow): the alpha and beta networks with their solved
    flows and beta's padded flows, and subset networks with path-cover
    flows, one of them routed before its network's release and then
    reduced to a minimum flow."""
    for kind in (ALPHA, BETA):
        for k in (1, 2, 3):
            gk = build_network(dag, k, kind)
            f = min_cost_circulation(gk).flow
            yield gk, f
            if kind == BETA:
                yield gk, normalize_beta(gk, f)
    subset = {v for v in range(dag.n) if rng.random() < 0.6}
    for split in (build_subset_network(dag, range(dag.n)), build_subset_network(dag, subset)):
        f = route_paths(split, [p.vertices for p in cover_paths(dag)])
        yield split, f
    split.release([v for v in subset if rng.random() < 0.5])
    yield split, f
    f = list(f)
    min_flow(split, residual(split, f), f)
    yield split, f


def perturbed(split, f, rng):
    """The flow, then copies with -1 or +1 on one arc of each kind (an
    entry, every gadget column, an exit, an edge, the return arc) and
    with one more unit along entry, first gadget and exit of a vertex."""
    yield f
    arcs = []
    for v in rng.sample(range(split.n), min(split.n, 3)):
        arcs += [split.entry(v), *(split.gadget(v, j) for j in range(split.stride - 2)),
                 split.exit(v)]
    base = split.stride * split.n
    arcs += rng.sample(range(base, base + len(split.edges)), min(len(split.edges), 3))
    if split.ts_arc is not None:
        arcs.append(split.ts_arc)
    for a in arcs:
        for delta in (-1, 1):
            g = list(f)
            g[a] += delta
            yield g
    if split.n:
        v = rng.randrange(split.n)
        g = list(f)
        for a in (split.entry(v), split.gadget(v), split.exit(v)):
            g[a] += 1
        yield g


def outcome(check, *args):
    """None if the check passes, else its exception's class and message."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    return None


class TestLayoutInvariant:
    """The arcs sit where SplitNetwork's layout puts them, which the
    layout's conservation check reads without looking at tail or head."""

    @staticmethod
    def layout_columns(split):
        n, s, t = split.n, split.s, split.t
        tail, head = [], []
        for v in range(n):
            tail += [s] + [2 * v] * (split.stride - 2) + [2 * v + 1]
            head += [2 * v] + [2 * v + 1] * (split.stride - 2) + [t]
        tail += [2 * u + 1 for u, _ in split.edges]
        head += [2 * v for _, v in split.edges]
        if split.ts_arc is not None:
            assert split.ts_arc == len(tail)
            tail.append(t)
            head.append(s)
        return tail, head

    @pytest.mark.parametrize("case", range(len(DAGS)))
    def test_library_networks_follow_the_layout(self, case):
        dag = DAGS[case]
        for split in library_networks(dag, random.Random(case)):
            assert isinstance(split, SplitNetwork)
            assert (split.s, split.t) == (2 * dag.n, 2 * dag.n + 1)
            assert (split.tail, split.head) == self.layout_columns(split)
            for v in range(dag.n):
                assert split.entry(v) == split.stride * v
                assert split.exit(v) == split.gadget(v, split.stride - 2)


def faults(net, f):
    """Flows made from the feasible flow ``f`` of vertex 0: one of the
    wrong length, one above an upper bound, one below a lower bound,
    and one out of balance."""
    over, under, unbalanced = list(f), list(f), list(f)
    over[net.gadget(0)] = net.upper[net.gadget(0)] + 1
    last = net.gadget(0, net.stride - 3)
    under[last] = net.lower[last] - 1
    unbalanced[net.exit(0)] += 1
    return [f + [0], over, under, unbalanced]


class TestLayoutConservation:
    """residual() on a SplitNetwork and the reference check_feasible
    raise the same error on randomly perturbed flows, or both pass; on a
    passing flow residual() gives the capacities of their formula."""

    @pytest.mark.parametrize("case", range(len(DAGS)))
    def test_same_verdict_as_the_reference(self, case):
        dag = DAGS[case]
        rng = random.Random(case)
        verdicts = set()
        for split, f in library_flows(dag, rng):
            for g in [f, *perturbed(split, f, rng)]:
                want = outcome(ref.check_feasible, split, g)
                assert outcome(residual, split, g) == want
                assert split._unbalanced_node(g) == ref.ArcNetwork._unbalanced_node(split, g)
                assert split.flow_value(g) == ref.ArcNetwork.flow_value(split, g)
                verdicts.add(want and want[1].split()[0])
                if want is None:
                    assert residual(split, g) == [x for a, lo, up in
                                                  zip(g, split.lower, split.upper)
                                                  for x in (up - a, a - lo)]
        assert verdicts == {None, "arc", "conservation"}

    @pytest.mark.parametrize("gadgets", range(4))
    def test_any_gadget_count(self, gadgets):
        rng = random.Random(gadgets)
        dag = random_dag(rng, 20)
        for ret in (None, (INF, 0)):
            split = SplitNetwork(dag.n, dag.edges, [(INF, 0)] * gadgets, ret=ret)
            paths = [p.vertices for p in cover_paths(dag)] if gadgets else []
            f = route_paths(split, paths)
            for g in perturbed(split, f, rng):
                assert outcome(residual, split, g) == outcome(ref.check_feasible, split, g)

    def test_names_the_smallest_unbalanced_node(self):
        # one unit too many on vertex 1's entry and on the return arc
        # unbalances v_in of 1 and t; without the entry's, s and t
        gk = build_network(build_dag(2, [(0, 1)]), 1, ALPHA)
        f = min_cost_circulation(gk).flow
        f[gk.entry(1)] += 1
        f[gk.ts_arc] += 1
        with pytest.raises(InfeasibleFlowError, match="conservation fails at node 2$"):
            residual(gk, f)
        f[gk.entry(1)] -= 1
        with pytest.raises(InfeasibleFlowError, match="conservation fails at node 4$"):
            residual(gk, f)

    @pytest.mark.parametrize("ret", [None, (1, 0)])
    def test_an_extra_unit_through_a_vertex(self, ret):
        # balanced at every vertex; only s and t, exempt without a return arc
        split = SplitNetwork(2, [(0, 1)], [(1, -1), (3, 0)], ret=ret)
        f = zero_flow(split)
        for a in (split.entry(0), split.gadget(0, OVERFLOW), split.exit(0)):
            f[a] += 1
        want = None if ret is None else (InfeasibleFlowError, "conservation fails at node 4")
        assert outcome(residual, split, f) == want == outcome(ref.check_feasible, split, f)

    def test_no_vertices(self):
        for ret in (None, (2, 0)):
            split = SplitNetwork(0, [], [(1, -1)], ret=ret)
            assert outcome(residual, split, zero_flow(split)) is None
        with pytest.raises(InfeasibleFlowError, match="conservation fails at node 0$"):
            residual(split, [1])


class TestSameErrorsFromEveryPath:
    """residual() and the circulation certificate read the bounds off the
    residual capacities but raise the reference check_feasible's errors,
    in its order."""

    @pytest.mark.parametrize("case", range(len(DAGS)))
    def test_residual_raises_what_check_feasible_raises(self, case):
        # the four faults of every library flow, one of each kind; a
        # network without vertices has only the wrong length to get wrong
        dag = DAGS[case]
        rng = random.Random(case)
        for split, f in library_flows(dag, rng):
            flows = faults(split, f) if split.n else [f + [0]]
            got = [outcome(residual, split, g) for g in flows]
            assert got == [outcome(ref.check_feasible, split, g) for g in flows]
            kinds = ["flow", "arc", "arc", "conservation"] if split.n else ["flow"]
            assert [msg.split()[0] for _, msg in got] == kinds

    def test_each_fault_kind(self):
        dag = build_dag(3, [(0, 1), (1, 2)])
        split = build_subset_network(dag, range(3))
        f = route_paths(split, [p.vertices for p in cover_paths(dag)])
        got = [outcome(residual, split, g) for g in faults(split, f)]
        assert got == [outcome(ref.check_feasible, split, g) for g in faults(split, f)]
        assert [msg.split()[0] for _, msg in got] == ["flow", "arc", "arc", "conservation"]
        # a bound fault comes before a conservation fault, the first arc first
        g = list(f)
        g[split.exit(2)] += 1
        g[split.gadget(1)] = 0
        g[split.gadget(0)] = 0
        assert outcome(residual, split, g) == (
            InfeasibleFlowError, f"arc {split.gadget(0)} carries 0, outside [1, {INF}]")

    @pytest.mark.parametrize("kind", ["length", "over", "under", "conservation"])
    def test_certificate_raises_what_check_feasible_raises(self, kind, monkeypatch):
        # the solver's flow goes wrong at its first augmentation while its
        # capacities stay right, so the certificate meets a bad flow
        gk = build_network(build_dag(3, [(0, 1), (1, 2)]), 1, ALPHA)
        real = flowcore._augment
        seen = []

        def corrupt_once(path, push, cap, values):
            real(path, push, cap, values)
            if not seen:
                seen.append(values)
                if kind == "length":
                    values.append(0)
                elif kind == "over":
                    values[gk.gadget(0, COVER)] += 1
                else:
                    values[gk.gadget(0, OVERFLOW)] += -1 if kind == "under" else 1

        monkeypatch.setattr(flowcore, "_augment", corrupt_once)
        got = outcome(min_cost_circulation, gk)
        assert got == outcome(ref.check_feasible, gk, seen[0])
        first = {"length": "flow", "over": "arc", "under": "arc", "conservation": "conservation"}
        assert got[0] is InfeasibleFlowError and got[1].split()[0] == first[kind]


def test_edge_arc_fault_survives_optimized_python():
    script = (
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "from gkcover import build_dag\n"
        "from gkcover.errors import InfeasibleFlowError\n"
        "from gkcover.flowcore import residual, route_paths\n"
        "from gkcover.greedy import build_subset_network, cover_paths\n"
        "dag = build_dag(3, [(0, 1), (1, 2)])\n"
        "split = build_subset_network(dag, range(3))\n"
        "f = route_paths(split, [p.vertices for p in cover_paths(dag)])\n"
        "f[3 * 3 + 1] += 1\n"
        "try:\n"
        "    residual(split, f)\n"
        "except InfeasibleFlowError as exc:\n"
        "    print('infeasible:', exc)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the edge (1, 2) carries one unit more: v_out of 1 sends more than it gets
    assert proc.stdout.splitlines() == ["infeasible: conservation fails at node 3"]
