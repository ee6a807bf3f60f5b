import contextlib
import io
import os
import random
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import flow_reference
import greedy_reference
from gkcover import cli, flowcore, greedy
from gkcover import (
    build_dag,
    certify_chain,
    gen_antichain_ratio,
    gen_chain_ratio,
    gen_ga,
    gen_gc,
    greedy_antichain_cover,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    knorm_collection,
    minimum_path_cover,
    solve_alpha,
    solve_beta,
)
from gkcover.dagcore import GraphPath
from gkcover.errors import MismatchError
from gkcover.flowcore import INF, SplitNetwork, min_flow, residual, route_paths
from gkcover.greedy import (
    GreedyRound,
    _extract_antichain,
    build_subset_network,
    cover_paths,
    max_coverage_path,
)

from conftest import FIG_EDGES, FIG_MPC
from flow_reference import arcs


class TestMaxCoveragePath:
    def test_longest_path_with_tie_breaks(self, fig):
        # endpoints 7 and 8 tie at score 3; smaller id wins, then the
        # predecessor tie 0-vs-1 also resolves to the smaller id.
        p = max_coverage_path(fig, set(range(9)))
        assert p.vertices == (0, 4, 7)

    def test_scores_count_only_uncovered(self, fig):
        p = max_coverage_path(fig, {1, 6})
        assert p.vertices == (1, 6)

    def test_prefers_uncovered_endpoint(self, fig):
        # with 7 covered, endpoint 8 is preferred at equal score
        p = max_coverage_path(fig, set(range(9)) - {7})
        assert p.vertices[-1] == 8

    def test_empty_graph(self):
        p = max_coverage_path(build_dag(0, []), set())
        assert p.vertices == ()

    def test_empty_uncovered_set(self, fig):
        # every score is 0, and vertex 0 is the first vertex of top score
        assert max_coverage_path(fig, set()).vertices == (0,)

    @pytest.mark.parametrize("uncovered, bad", [
        ({-1}, -1), ({0, -3}, -3), ({3}, 3), ({0, 1, 2, 4}, 4), ({-1, 5}, -1)])
    def test_out_of_range_ids_raise(self, uncovered, bad):
        path = build_dag(3, [(0, 1), (1, 2)])
        with pytest.raises(IndexError, match=rf"^vertex {bad} out of range for n=3$"):
            max_coverage_path(path, uncovered)

    def test_any_id_is_out_of_range_on_the_empty_graph(self):
        with pytest.raises(IndexError, match=r"^vertex 0 out of range for n=0$"):
            max_coverage_path(build_dag(0, []), {0})


def assert_rounds_match_reference(dag):
    """From U = every vertex, each round's path equals the per-vertex
    reference DP's, through the first round that finds U empty."""
    left = set(range(dag.n))
    while True:
        path = max_coverage_path(dag, left)
        assert path == greedy_reference.max_coverage_path(dag, left)
        if not left:
            return
        left.difference_update(path.vertices)


def random_edges(rng, n, p):
    labels = list(range(n))
    rng.shuffle(labels)
    return [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]


def path_heavy_dag(rng, chains, length, shortcuts, isolated, sources):
    """Long chains under a shuffled labelling, a few forward shortcut
    edges along and between them, isolated vertices, and extra sources
    that each point into a chain."""
    n = chains * length + isolated + sources
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for c in range(chains):
        edges.extend((labels[c * length + i], labels[c * length + i + 1])
                     for i in range(length - 1))
    for _ in range(shortcuts):
        a, b = sorted(rng.sample(range(chains * length), 2))
        if a // length <= b // length and b > a + 1:
            edges.append((labels[a], labels[b]))
    base = chains * length + isolated
    edges.extend((labels[base + s], labels[rng.randrange(chains * length)])
                 for s in range(sources))
    return build_dag(n, edges)


class TestRunGraphDP:
    """The run-by-run DP finds the same path as the per-vertex reference
    DP, ties included, round after round and on arbitrary uncovered sets."""

    @pytest.mark.parametrize("i", range(1, 13))
    def test_staircase_rounds(self, i):
        assert_rounds_match_reference(gen_gc(i).dag)

    @pytest.mark.parametrize("i", range(1, 8))
    def test_tier_rounds(self, i):
        assert_rounds_match_reference(gen_ga(i).dag)

    @pytest.mark.parametrize("gen", [gen_chain_ratio, gen_antichain_ratio])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_ratio_family_rounds(self, gen, k):
        assert_rounds_match_reference(gen(k).dag)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dag_rounds(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(0, 40)
            assert_rounds_match_reference(
                build_dag(n, random_edges(rng, n, rng.choice([0.03, 0.08, 0.2, 0.5]))))

    @pytest.mark.parametrize("n, degree", [(300, 1.5), (1000, 3.0)])
    def test_sparse_random_dag_rounds(self, n, degree):
        rng = random.Random(n)
        assert_rounds_match_reference(build_dag(n, random_edges(rng, n, 2 * degree / n)))

    @pytest.mark.parametrize("seed", range(6))
    def test_path_heavy_rounds(self, seed):
        rng = random.Random(seed)
        for chains, length in [(1, 200), (3, 60), (8, 15)]:
            dag = path_heavy_dag(rng, chains, length, shortcuts=rng.randint(0, 6),
                                 isolated=rng.randint(0, 10), sources=rng.randint(0, 40))
            assert_rounds_match_reference(dag)

    def test_runs_of_a_path_with_a_shortcut(self):
        # 0->1->2->3->4 plus 1->3 splits the path into runs at 1 and 3
        dag = build_dag(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        flat, start, run_of, run_pred, sources = greedy._run_graph(dag)
        runs = [flat[a:b] for a, b in zip(start, start[1:])]
        assert runs == [[0, 1], [2], [3, 4]]
        assert run_of == [0, 0, 1, 2, 2]
        assert run_pred == [[], [0], [1, 0]] and sources == 1


@st.composite
def dags_and_subsets(draw, max_n=25):
    """A DAG with unary chains and random forward edges under a random
    labelling, and any subset of its vertices."""
    n = draw(st.integers(0, max_n))
    labels = draw(st.permutations(range(n)))
    links = draw(st.lists(st.booleans(), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    edges = [(labels[i], labels[i + 1]) for i, link in enumerate(links) if link]
    if n > 1:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2 * n)):
            if a < b:
                edges.append((labels[a], labels[b]))
    subset = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return build_dag(n, edges), subset


@given(dags_and_subsets())
@settings(max_examples=300, deadline=None)
def test_any_uncovered_set_matches_reference(case):
    dag, uncovered = case
    assert max_coverage_path(dag, uncovered) == \
        greedy_reference.max_coverage_path(dag, uncovered)


class TestGreedyChains:
    def test_fig_rounds(self, fig):
        fam, trace = greedy_k_chains(fig, 2)
        assert [c.vertices for c in fam.members] == [(0, 4, 7), (1, 6)]
        assert trace.gains() == [3, 2]
        assert trace.stop_reason == "k reached"

    def test_runs_to_exhaustion(self, fig):
        fam, trace = greedy_k_chains(fig, 9)
        assert fam.coverage() == 9
        assert trace.stop_reason == "U empty"
        assert sum(trace.gains()) == 9

    def test_gains_monotone(self, fig):
        _, trace = greedy_k_chains(fig, 5)
        gains = [g for g in trace.gains() if g > 0]
        assert gains == sorted(gains, reverse=True)

    def test_chain_certification_builds_no_closure(self):
        # steps along edges and off them alike: gc 6's greedy chains, its
        # path cover, and every other vertex of each cover path
        dag = gen_gc(6).dag
        fam, _ = greedy_k_chains(dag, 3)
        paths = [p.vertices for p in cover_paths(dag)]
        for seq in [*(m.vertices for m in fam.members), *paths, *(p[::2] for p in paths)]:
            assert certify_chain(dag, seq).vertices == seq
        assert dag._closure is None

    def test_chain_members_disjoint_and_certified(self, fig):
        fam, _ = greedy_k_chains(fig, 4)
        assert fam.disjoint
        seen = set()
        for c in fam.members:
            assert not (set(c.vertices) & seen)
            seen.update(c.vertices)


def count_searches(monkeypatch) -> list[int]:
    """|U| at each max_coverage_path call the greedy rounds make from now."""
    real = greedy.max_coverage_path
    calls = []

    def counted(d, uncovered):
        calls.append(len(uncovered))
        return real(d, uncovered)

    monkeypatch.setattr(greedy, "max_coverage_path", counted)
    return calls


class TestBestPathRounds:
    """The best-path rounds are computed once per DAG and shared."""

    def test_chain_cover_and_path_cover_share_the_rounds(self, monkeypatch):
        calls = count_searches(monkeypatch)
        dag = gen_gc(5).dag
        _, _, trace = greedy_weighted_chain_cover(dag, 0)
        assert minimum_path_cover(dag)[0] == 2
        greedy_k_chains(dag, 3)
        assert len(trace.rounds) == 5 and len(calls) == 5

    def test_memoised_rounds_match_a_cold_run(self, fig):
        cover_paths(fig)  # every round up to U empty
        warm = greedy_k_chains(fig, 7)
        cold = greedy_k_chains(build_dag(9, FIG_EDGES), 7)
        assert warm == cold and len(warm[0]) < 7

    def test_rounds_past_u_empty_run_no_search(self, monkeypatch):
        family, covering = greedy_k_chains(gen_gc(6).dag, 6)
        calls = count_searches(monkeypatch)
        dag = gen_gc(6).dag
        for _ in range(2):
            fam, trace = greedy_k_chains(dag, 4000)
            # |U| before each search: six rounds cover the 120 vertices,
            # and the seventh, which picks nothing, is the last one run
            assert calls == [120, 57, 26, 11, 4, 1, 0]
            assert len(dag._path_rounds[0]) == 7
            assert fam == family
            assert trace.rounds == covering.rounds + [GreedyRound((0,), 0)] * 3994
            assert len(fam) < 4000 and trace.stop_reason == "U empty"

    def test_run_graph_is_built_once_and_shared(self, monkeypatch):
        real = greedy._run_graph
        builds = []

        def counted(dag):
            builds.append(dag)
            return real(dag)

        monkeypatch.setattr(greedy, "_run_graph", counted)
        inst = gen_gc(6)  # round 1 checks the staircase path
        assert builds == [inst.dag]
        calls = count_searches(monkeypatch)
        cli._check_instance(inst)  # gen gc --check's greedy and exact covers
        fam, _ = greedy_k_chains(inst.dag, 6)
        assert builds == [inst.dag] and calls == [57, 26, 11, 4, 1]
        assert len(fam) == 6 and fam.coverage() == 120

    def test_gen_check_builds_one_run_graph(self, monkeypatch):
        real = greedy._run_graph
        builds = []
        monkeypatch.setattr(greedy, "_run_graph", lambda dag: builds.append(dag) or real(dag))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "gc", "--i", "6", "--check", "--json"]) == 0
        assert len(builds) == 1 and builds[0].n == 120

    def test_interleaved_generators_match_a_fresh_dag(self):
        fresh = list(islice(greedy._best_path_rounds(gen_gc(7).dag), 12))
        dag = gen_gc(7).dag
        a = greedy._best_path_rounds(dag)
        b = greedy._best_path_rounds(dag)
        got_a = [next(a) for _ in range(2)]
        # b extends the rounds past a's, copying U as it halves
        got_b = [next(b) for _ in range(5)]
        got_a += [next(a) for _ in range(10)]
        got_b += [next(b) for _ in range(7)]
        assert got_a == fresh and got_b == fresh
        assert [left for _, _, left in fresh[:8]] == [120, 57, 26, 11, 4, 1, 0, 0]

    def test_uncovered_set_is_copied_once_it_halves(self):
        dag = build_dag(8, [])  # each round covers one vertex
        rounds = greedy._best_path_rounds(dag)
        copied = []
        for left in range(7, -1, -1):
            assert next(rounds)[2] == left
            _, uncovered, size = dag._path_rounds
            assert len(uncovered) == left
            copied.append(size)
        assert copied == [8, 8, 8, 4, 4, 2, 1, 0]

    def test_covered_staircase_leaves_a_compact_set(self):
        dag = gen_gc(9).dag
        cover_paths(dag)
        assert sys.getsizeof(dag._path_rounds[1]) == sys.getsizeof(set())

    def test_empty_graph_runs_one_search(self, monkeypatch):
        calls = count_searches(monkeypatch)
        dag = build_dag(0, [])
        fam, trace = greedy_k_chains(dag, 50)
        assert calls == [0] and len(dag._path_rounds[0]) == 1
        assert fam.members == () and trace.rounds == [GreedyRound((), 0)] * 50


class TestGreedyWeightedChainCover:
    def test_stops_when_gain_at_threshold(self, fig):
        collection, partition, trace = greedy_weighted_chain_cover(fig, 2)
        assert [p.vertices for p in collection.members] == [(0, 4, 7)]
        assert trace.stop_reason == "gain <= threshold"
        # collection norm: 6 uncovered + 2 * 1 member = 8
        assert knorm_collection(collection.members, fig.n, 2) == 8
        assert partition.coverage() == fig.n

    def test_k1_takes_paths_while_gain_exceeds_one(self, fig):
        collection, partition, trace = greedy_weighted_chain_cover(fig, 1)
        assert all(g > 1 for g in trace.gains())
        assert partition.coverage() == fig.n


class TestSubsetNetwork:
    def test_min_flow_value_is_max_antichain(self, fig):
        subset = set(range(fig.n))
        sub = build_subset_network(fig, subset)
        f0 = route_paths(sub, [p.vertices for p in cover_paths(fig)])
        result = min_flow(sub, residual(sub, f0), f0)
        assert sub.flow_value(f0) == 5  # the width
        ac = _extract_antichain(fig, subset, 5, result.t_reach)
        assert sorted(ac.vertices) == [2, 3, 4, 5, 6]

    def test_restricted_subset(self, fig):
        subset = {0, 1, 7, 8}
        sub = build_subset_network(fig, subset)
        f0 = route_paths(sub, [p.vertices for p in cover_paths(fig)])
        result = min_flow(sub, residual(sub, f0), f0)
        ac = _extract_antichain(fig, subset, sub.flow_value(f0), result.t_reach)
        assert sorted(ac.vertices) == [7, 8]  # sink-side maximum antichain

    def test_gadget_lower_bounds_follow_subset(self, fig):
        sub = build_subset_network(fig, {3, 4})
        for v in range(fig.n):
            expected = 1 if v in (3, 4) else 0
            assert arcs(sub)[sub.gadget(v)].lower == expected

    def test_release_drops_only_the_given_lower_bounds(self, fig):
        sub = build_subset_network(fig, {3, 4, 5})
        before = arcs(sub)
        # vertex 6 has no lower bound to drop
        assert sub.release([3, 5, 6]) == [sub.gadget(3), sub.gadget(5)]
        for i, (old, new) in enumerate(zip(before, arcs(sub))):
            if i in (sub.gadget(3), sub.gadget(5)):
                assert old.lower == 1 and new.lower == 0
                assert (new.tail, new.head, new.upper, new.cost) == \
                    (old.tail, old.head, old.upper, old.cost)
            else:
                assert new == old

    def test_stale_capacities_are_caught_by_the_read_off(self):
        # released without raising the undo capacities, the capacity list
        # is stale; min_flow trusts it and keeps the flow at value 2 with
        # no push, and only the read-off's size check sees that a flow of
        # value 1 exists
        dag = build_dag(4, [(0, 1), (1, 2), (0, 3)])
        net = SplitNetwork(4, dag.edges, [(INF, 0)], demand=range(4))
        f = route_paths(net, [(0, 1, 2), (3,)])
        cap = residual(net, f)
        net.release([1, 2, 3])
        result = min_flow(net, cap, f)
        assert (net.flow_value(f), result.pushes) == (2, 0)
        with pytest.raises(MismatchError, match="extracted 0 vertices from a flow of value 2"):
            _extract_antichain(dag, {0}, 2, result.t_reach)


class TestMinimumPathCover:
    def test_fig_value(self, fig):
        assert minimum_path_cover(fig)[0] == FIG_MPC

    def test_single_chain(self):
        dag = build_dag(4, [(0, 1), (1, 2), (2, 3)])
        assert minimum_path_cover(dag)[0] == 1

    def test_antichain(self):
        assert minimum_path_cover(build_dag(4, []))[0] == 4

    def test_empty(self):
        assert minimum_path_cover(build_dag(0, []))[0] == 0

    def test_non_minimal_flow_raises(self, monkeypatch):
        # min_flow stubbed to leave gc 6's start cover of 6 paths as it is;
        # the cut it reports holds an antichain of 2
        monkeypatch.setattr(greedy, "min_flow", reducing_a_copy)
        with pytest.raises(MismatchError, match="^extracted 2 vertices from a flow of value 6$"):
            minimum_path_cover(gen_gc(6).dag)

    def test_non_minimal_flow_raises_under_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import flowcore, gen_gc, greedy\n"
            "from gkcover.errors import MismatchError\n"
            "def reducing_a_copy(net, cap, f):\n"
            "    return flowcore.min_flow(net, list(cap), list(f))\n"
            "greedy.min_flow = reducing_a_copy\n"
            "try:\n"
            "    greedy.minimum_path_cover(gen_gc(6).dag)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatch: extracted 2 vertices from a flow of value 6\n"


def reducing_a_copy(net, cap, f):
    """A min_flow that reduces copies of the capacities and the flow: it
    reports a minimum flow's cut and leaves the caller's flow as it was."""
    return min_flow(net, list(cap), list(f))


@pytest.mark.parametrize("solve", [
    lambda dag: solve_alpha(dag, 2),
    lambda dag: solve_beta(dag, 2),
    lambda dag: greedy_k_chains(dag, 3),
    lambda dag: greedy_k_antichains(dag, 3),
    lambda dag: greedy_weighted_chain_cover(dag, 1),
    lambda dag: greedy_antichain_cover(dag, 1),
    minimum_path_cover,
], ids=["solve_alpha", "solve_beta", "greedy_k_chains", "greedy_k_antichains",
        "greedy_weighted_chain_cover", "greedy_antichain_cover", "minimum_path_cover"])
def test_solves_build_no_closure(solve):
    # every witness is certified by sweeps over the graph
    dag = gen_gc(9).dag
    solve(dag)
    assert dag._closure is None


class TestGreedyAntichains:
    def test_fig_rounds(self, fig):
        fam, trace = greedy_k_antichains(fig, 2)
        assert [sorted(a.vertices) for a in fam.members] == [[2, 3, 4, 5, 6], [7, 8]]
        assert trace.gains() == [5, 2]
        assert fam.coverage() == 7

    def test_flow_values_match_gains(self, fig):
        _, trace = greedy_k_antichains(fig, 3)
        for r in trace.rounds:
            if r.member:
                assert r.flow_value == r.gain

    def test_exhaustion_pads_empty_rounds(self):
        dag = build_dag(2, [])
        fam, trace = greedy_k_antichains(dag, 4)
        assert fam.coverage() == 2
        assert len(fam) < 4
        assert len(trace.rounds) == 4
        assert trace.stop_reason == "U empty"

    def test_round1_equals_width(self, fig):
        fam, _ = greedy_k_antichains(fig, 1)
        assert len(fam.members[0]) == solve_alpha(fig, 1).alpha

    def test_members_disjoint_antichains(self, fig):
        fam, _ = greedy_k_antichains(fig, 3)
        assert fam.disjoint


class TestSinkSideChoice:
    """Pins which maximum antichain the sink-side cut read-off returns.

    Criteria 4 and 6 depend on that choice, so a change to the network
    layout or to the min-flow search order must leave these unchanged.
    Members are given as half-open id ranges.
    """

    @pytest.mark.parametrize("gen,param,ranges", [
        (gen_antichain_ratio, 2, [(8, 16), (0, 8)]),
        (gen_antichain_ratio, 3, [(18, 27), (9, 18), (0, 9)]),
        (gen_antichain_ratio, 4, [(24, 32), (16, 24), (8, 16), (0, 8)]),
        (gen_ga, 3, [(8, 16), (0, 8)]),
        (gen_ga, 4, [(16, 32), (0, 16)]),
        (gen_ga, 5, [(32, 64), (0, 32)]),
    ])
    def test_greedy_antichain_members(self, gen, param, ranges):
        fam, _ = greedy_k_antichains(gen(param).dag, param)
        assert [sorted(a.vertices) for a in fam.members] == \
            [list(range(lo, hi)) for lo, hi in ranges]

    @pytest.mark.parametrize("i", range(3, 9))
    def test_path_cover_searches_and_pushes(self, i):
        value, result = minimum_path_cover(gen_gc(i).dag)
        assert (value, result.searches, result.pushes) == (2, i - 1, i - 2)


class TestTraceChecks:
    """The greedy trace checks raise MismatchError, which python -O keeps."""

    def test_increasing_gains(self, monkeypatch):
        dag = build_dag(4, [(0, 1), (1, 2)])
        real = greedy.max_coverage_path
        calls = []

        def isolated_vertex_first(d, uncovered):
            calls.append(len(uncovered))
            return GraphPath((3,)) if len(calls) == 1 else real(d, uncovered)

        monkeypatch.setattr(greedy, "max_coverage_path", isolated_vertex_first)
        with pytest.raises(MismatchError, match=r"greedy gains increased: \[1, 3\]"):
            greedy_k_chains(dag, 2)

    def test_warm_start_bound(self, fig, monkeypatch):
        real = greedy.min_flow

        def extra_searches(net, res, f):
            result = real(net, res, f)
            result.searches += fig.n
            return result

        monkeypatch.setattr(greedy, "min_flow", extra_searches)
        with pytest.raises(MismatchError, match="exceed the warm-start bound"):
            greedy_k_antichains(fig, 2)

    def test_every_round_checks_its_flow(self, fig, monkeypatch):
        # the flow that round 1 reduces is carried into every later
        # round; raising its value after round 2's last search must be
        # caught before round 2 is reported, by the push count
        flows = []
        real_seed = greedy.route_paths

        def seed(split, paths):
            flows.append(real_seed(split, paths))
            return flows[-1]

        real_bfs = flowcore._residual_bfs
        failed = []

        def corrupt_after_round_2(out, head, cap, src, dst):
            path, seen = real_bfs(out, head, cap, src, dst)
            if path is None:
                failed.append(1)
                if len(failed) == 2:
                    flows[0][0] += 1
            return path, seen

        monkeypatch.setattr(greedy, "route_paths", seed)
        monkeypatch.setattr(flowcore, "_residual_bfs", corrupt_after_round_2)
        with pytest.raises(MismatchError, match="^3 pushes for a value decrease of 2$"):
            greedy_k_antichains(fig, 3)
        assert len(failed) == 2

    def test_warm_start_bound_survives_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, greedy\n"
            "from gkcover.errors import MismatchError\n"
            "real = greedy.min_flow\n"
            "def extra_searches(net, res, f):\n"
            "    result = real(net, res, f)\n"
            "    result.searches += 3\n"
            "    return result\n"
            "greedy.min_flow = extra_searches\n"
            "try:\n"
            "    greedy.greedy_k_antichains(build_dag(3, [(0, 1)]), 1)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mismatch: ")
        assert "exceed the warm-start bound" in proc.stdout


class TestFlowChecks:
    """An antichain request checks its start flow once, in residual(), and
    no flow in full after that: min_flow proves each push instead."""

    @pytest.mark.parametrize("solve", [
        lambda dag: greedy_k_antichains(dag, 3),
        lambda dag: greedy_antichain_cover(dag, 1),
        minimum_path_cover,
    ], ids=["greedy_k_antichains", "greedy_antichain_cover", "minimum_path_cover"])
    def test_one_full_check_per_request(self, solve, monkeypatch):
        built = []
        real = greedy.residual

        def counted(net, f):
            built.append(1)
            return real(net, f)

        def refused(net, values):
            raise AssertionError("check_feasible called")

        monkeypatch.setattr(greedy, "residual", counted)
        monkeypatch.setattr(flowcore, "check_feasible", refused)
        solve(gen_gc(6).dag)
        assert len(built) == 1

    @pytest.mark.parametrize("dag", [gen_gc(i).dag for i in range(6, 10)]
                             + [gen_ga(i).dag for i in (4, 5)],
                             ids=[f"gc{i}" for i in range(6, 10)] + ["ga4", "ga5"])
    def test_every_round_ends_feasible_with_exact_capacities(self, dag, monkeypatch):
        # the reference's per-arc check and a rebuilt residual graph after
        # every round, run until U is empty
        rounds = []
        real = greedy.min_flow

        def rechecked(net, cap, f):
            result = real(net, cap, f)
            flow_reference.check_feasible(net, f)
            assert residual(net, f) == cap
            rounds.append(1)
            return result

        monkeypatch.setattr(greedy, "min_flow", rechecked)
        _, partition, trace = greedy_antichain_cover(dag, 0)
        assert partition.coverage() == dag.n
        assert len(rounds) == len(trace.rounds)


class TestGreedyAntichainCover:
    def test_fig_threshold_one(self, fig):
        taken, partition, trace = greedy_antichain_cover(fig, 1)
        assert trace.gains() == [5, 2, 2]
        assert partition.coverage() == fig.n
        assert len(partition) == 3

    def test_high_threshold_yields_singletons(self, fig):
        taken, partition, trace = greedy_antichain_cover(fig, 9)
        assert len(taken) == 0
        assert len(partition) == fig.n
        assert trace.stop_reason == "gain <= threshold"

    def test_cover_value_vs_optimal(self, fig):
        # greedy partition 1-norm is an upper bound on beta_1
        _, partition, _ = greedy_antichain_cover(fig, 1)
        assert len(partition) >= solve_beta(fig, 1).beta


def test_greedy_matches_optimal_on_small_random_dags(budget):
    # mini-fuzz: internal invariants (warm-start accounting, extraction
    # size checks) must hold across many shapes
    from gkcover import random_dag
    for trial in range(40):
        dag = random_dag(7, trial, seed=11)
        for k in (1, 2, 3):
            fam, _ = greedy_k_antichains(dag, k)
            assert fam.coverage() <= solve_alpha(dag, k).alpha
            cfam, _ = greedy_k_chains(dag, k)
            assert cfam.coverage() <= solve_beta(dag, k).beta


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("greedy_k", [greedy_k_chains, greedy_k_antichains])
def test_non_positive_k_rejected(fig, greedy_k, k):
    # the message solve_alpha and solve_beta give for the same k
    with pytest.raises(ValueError, match=rf"^k must be positive, got {k}$"):
        greedy_k(fig, k)
