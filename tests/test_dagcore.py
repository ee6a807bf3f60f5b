import os
import random
import subprocess
import sys

import pytest

from gkcover import (
    Antichain,
    Chain,
    CycleError,
    Family,
    GraphPath,
    NotAntichainError,
    NotChainError,
    NotPartitionError,
    OverlapError,
    build_dag,
    certify_antichain,
    certify_chain,
    certify_path,
    gen_gc,
    knorm_collection,
    knorm_partition,
)
from gkcover.dagcore import partition_completion

import dag_reference


class TestBuildDag:
    def test_basic_structure(self, fig):
        assert fig.n == 9
        assert len(fig.edges) == 8
        assert sorted(fig.topo) == list(range(9))
        pos = fig.topo_pos
        assert all(pos[u] < pos[v] for u, v in fig.edges)

    def test_duplicate_edges_collapse(self):
        dag = build_dag(3, [(0, 1), (0, 1), (1, 2)])
        assert len(dag.edges) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            build_dag(2, [(1, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            build_dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(IndexError):
            build_dag(2, [(0, 2)])
        with pytest.raises(IndexError):
            build_dag(2, [(-1, 0)])

    def test_empty_graph(self):
        dag = build_dag(0, [])
        assert dag.n == 0 and dag.topo == ()


def built(build, n, edges):
    """The edges of a build, or the type and message of its error."""
    try:
        return build(n, edges).edges
    except (IndexError, CycleError) as exc:
        return type(exc), str(exc)


class TestBuildDagMatchesReference:
    """Bulk deduplication and the walk over what is left give the
    edge-by-edge build's edges, or its error for the first bad edge."""

    @pytest.mark.parametrize("seed", range(300))
    def test_random_edge_lists(self, seed):
        rng = random.Random(seed)
        n = rng.randint(-1, 7)
        hi = max(n, 1)
        edges = [(rng.randint(-1, hi), rng.randint(-1, hi)) for _ in range(rng.randint(0, 10))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 4)))
        rng.shuffle(edges)
        assert built(build_dag, n, edges) == built(dag_reference.build_dag, n, edges)

    def test_duplicates_keep_their_first_occurrence(self):
        dag = build_dag(4, [(2, 3), (0, 1), (2, 3), (1, 2), (0, 1)])
        assert dag.edges == ((2, 3), (0, 1), (1, 2))

    @pytest.mark.parametrize("edges, error", [
        ([(0, 1), (5, 0), (0, 1), (1, 1)], (IndexError, "edge (5, 0) out of range for n=3")),
        ([(0, 1), (1, 1), (5, 0)], (CycleError, "self-loop at vertex 1")),
        ([(0, 1), (0, 1), (3, 3)], (IndexError, "edge (3, 3) out of range for n=3")),
    ])
    def test_first_bad_edge_in_list_order(self, edges, error):
        assert built(build_dag, 3, edges) == error == built(dag_reference.build_dag, 3, edges)

    def test_one_shot_generator_and_list_pairs(self):
        assert build_dag(3, ((u, u + 1) for u in range(2))).edges == ((0, 1), (1, 2))
        assert build_dag(3, iter([[0, 1], [0, 1], [1, 2]])).edges == ((0, 1), (1, 2))
        with pytest.raises(IndexError, match=r"edge \(2, 3\) out of range"):
            build_dag(3, ((u, u + 1) for u in range(3)))


class TestReachable:
    def test_reflexive(self, fig):
        desc = fig.closure()
        assert all(desc[v] >> v & 1 for v in range(9))

    def test_direct_and_transitive(self, fig):
        desc = fig.closure()
        assert desc[0] >> 4 & 1
        assert desc[0] >> 7 & 1  # 0 -> 4 -> 7
        assert desc[1] >> 8 & 1  # 1 -> 4 -> 8
        assert not desc[4] >> 0 & 1
        assert not desc[5] >> 6 & 1
        assert not desc[2] >> 8 & 1


class TestCertify:
    def test_antichain_ok(self, fig):
        ac = certify_antichain(fig, [2, 3, 4, 5, 6])
        assert isinstance(ac, Antichain) and len(ac) == 5

    def test_antichain_rejects_comparable_pair(self, fig):
        with pytest.raises(NotAntichainError) as exc:
            certify_antichain(fig, [0, 7])
        assert {exc.value.u, exc.value.v} == {0, 7}

    def test_chain_ok_skips_levels(self, fig):
        ch = certify_chain(fig, [0, 4, 8])
        assert isinstance(ch, Chain) and ch.vertices == (0, 4, 8)

    def test_chain_rejects_gap(self, fig):
        with pytest.raises(NotChainError):
            certify_chain(fig, [0, 6])  # 6 is a child of 1, not of 0

    def test_chain_rejects_duplicates(self, fig):
        with pytest.raises(NotChainError):
            certify_chain(fig, [4, 4])

    def test_chain_rejects_wrong_order(self, fig):
        with pytest.raises(NotChainError):
            certify_chain(fig, [7, 4])

    def test_chain_along_edges_builds_no_closure(self, fig):
        assert certify_chain(fig, [1, 4, 8]).vertices == (1, 4, 8)
        assert fig._closure is None

    def test_chain_builds_the_closure_at_a_step_off_the_edges(self, fig):
        # 1 reaches 7 through 4, by no edge of its own
        assert certify_chain(fig, [1, 7]).vertices == (1, 7)
        assert fig._closure is not None

    def test_unreachable_step_names_the_references_witness(self, fig):
        # 0 -> 4 is an edge; 4 does not reach 6
        want = certified(dag_reference.certify_chain, fig, [0, 4, 6])
        assert want[0] is NotChainError and want[2:] == (4, 6)
        assert certified(certify_chain, fig, [0, 4, 6]) == want

    def test_path_needs_consecutive_edges(self, fig):
        p = certify_path(fig, [0, 4, 7])
        assert isinstance(p, GraphPath)
        with pytest.raises(NotChainError):
            certify_path(fig, [0, 7])  # reachable but not an edge


def certified(certify, *args):
    """A certification's vertices, or the type, message and witness of its error."""
    try:
        result = certify(*args)
    except (NotAntichainError, NotChainError, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "u", None), getattr(exc, "v", None)
    return getattr(result, "vertices", result)


def random_members(rng, dag):
    """Antichains and chains, true and broken: greedy antichains, walks
    along edges (every other vertex skipped or not), and both with a
    random vertex inserted, a duplicate, two vertices swapped, or a
    random subset in their place."""
    desc = dag.closure()
    n = dag.n
    for _ in range(12):
        order = rng.sample(range(n), n)
        ac = []
        for v in order:
            if all(not (desc[u] >> v & 1 or desc[v] >> u & 1) for u in ac):
                ac.append(v)
        v = rng.randrange(n)
        ch = [v]
        while dag.succ[v]:
            v = rng.choice(dag.succ[v])
            ch.append(v)
        if rng.random() < 0.3:
            ch = ch[::2]
        for member in (ac, ch):
            m = list(member)
            fault = rng.randrange(5)
            if fault == 1:
                m.insert(rng.randint(0, len(m)), rng.randrange(n))
            elif fault == 2:
                m.insert(rng.randint(0, len(m)), rng.choice(m))
            elif fault == 3 and len(m) > 1:
                i, j = rng.sample(range(len(m)), 2)
                m[i], m[j] = m[j], m[i]
            elif fault == 4:
                m = rng.sample(range(n), rng.randint(0, n))
            yield m


def steps_off_the_edges(dag, m):
    """Whether a chain check of ``m`` reaches a step that is not an edge
    before it stops at a repeated vertex."""
    for i, v in enumerate(m):
        if v in m[:i]:
            return False
        if i and v not in dag.succ[m[i - 1]]:
            return True
    return False


class TestCertifyMatchesReference:
    """The closure-based checks accept what the pairwise DFS accepts and
    name the witness it names."""

    # warm_after: how many members are certified before the test builds
    # the checked DAG's closure itself; None leaves that to certification,
    # which must build it only for an in-range member of two or more
    # distinct vertices (the antichain check). The chain check, run on a
    # DAG of its own, must build it only at the first step that is
    # neither a repeat nor an edge.
    @pytest.mark.parametrize("warm_after", [None, 0, 5])
    @pytest.mark.parametrize("seed", range(40))
    def test_same_result_and_witness(self, seed, warm_after):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.3, 0.6])
        perm = rng.sample(range(n), n)
        edges = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        dag = build_dag(n, edges)  # random_members reads its closure
        checked, chained = build_dag(n, edges), build_dag(n, edges)
        chain_failures = 0
        needs_closure = chain_needs_closure = False
        for i, m in enumerate(random_members(rng, dag)):
            if i == warm_after:
                checked.closure()
            want = certified(dag_reference.certify_antichain, checked, m)
            assert certified(certify_antichain, checked, m) == want
            want = certified(dag_reference.certify_chain, checked, m)
            assert certified(certify_chain, checked, m) == want
            assert certified(certify_chain, chained, m) == want
            # an error's type, message and witness, not a chain's vertex tuple
            chain_failures += bool(want) and isinstance(want[0], type)
            if warm_after is None:
                in_range = all(0 <= v < n for v in m)
                needs_closure |= in_range and len(set(m)) > 1
                chain_needs_closure |= in_range and steps_off_the_edges(dag, m)
                assert (checked._closure is not None) == needs_closure
                assert (chained._closure is not None) == chain_needs_closure
        # every seed rejects some chains; some seeds reject no antichain
        assert chain_failures
        assert checked.closure() == dag.closure()

    @pytest.mark.parametrize("warm_after", [None, 0])
    def test_out_of_range_members(self, fig, warm_after):
        if warm_after == 0:
            fig.closure()
        for m in ([3, 9, -1], [0, 4, 9]):
            want = certified(dag_reference.certify_antichain, fig, m)
            assert certified(certify_antichain, fig, m) == want
            want = certified(dag_reference.certify_chain, fig, m)
            assert certified(certify_chain, fig, m) == want
        # the range check comes before the closure is built
        assert (fig._closure is None) == (warm_after is None)

    @pytest.mark.parametrize("seed", range(40))
    def test_path_check_matches_the_edge_set(self, seed):
        # walks along edges, broken or not, the edges, and random sequences
        # that may leave the vertex range
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.3, 0.6])
        perm = rng.sample(range(n), n)
        dag = build_dag(n, [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)
                            if rng.random() < p])
        members = [*random_members(rng, dag), *map(list, dag.edges)]
        members += [rng.choices(range(n + 1), k=rng.randint(0, 4)) for _ in range(12)]
        verdicts = [certified(dag_reference.certify_path, dag, m) for m in members]
        assert [certified(certify_path, dag, m) for m in members] == verdicts
        assert any(v and isinstance(v[0], type) for v in verdicts)

    def test_staircase_past_four_thousand_vertices(self):
        # gc 12 has 8178 vertices; its recorded paths are chains and its
        # sinks an antichain
        inst = gen_gc(12)
        dag = inst.dag
        assert dag.n == 8178
        paths = inst.layout["paths"]
        for seq in paths.values():
            assert certify_chain(dag, seq).vertices == tuple(seq)
        sinks = [v for v in range(dag.n) if not dag.succ[v]]
        assert len(sinks) > 1
        assert certify_antichain(dag, sinks).vertices == frozenset(sinks)
        long, short = paths[12], paths[1]
        broken = [
            (certify_chain, dag_reference.certify_chain, long[:3][::-1]),
            (certify_chain, dag_reference.certify_chain, [long[0], short[0], long[1]]),
            (certify_chain, dag_reference.certify_chain, long[:4] + [long[2]]),
            (certify_antichain, dag_reference.certify_antichain, sinks[:3] + long[5:7]),
            (certify_antichain, dag_reference.certify_antichain, [short[0], long[-1], long[0]]),
        ]
        for certify, reference, m in broken:
            want = certified(reference, dag, m)
            assert isinstance(want, tuple)
            assert certified(certify, dag, m) == want

    def test_failures_survive_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import NotAntichainError, NotChainError, build_dag, dagcore\n"
            "dag = build_dag(4, [(0, 1), (1, 2)])\n"
            "for certify, vs in ((dagcore.certify_antichain, [3, 2, 0]),\n"
            "                    (dagcore.certify_chain, [0, 2, 3])):\n"
            "    try:\n"
            "        certify(dag, vs)\n"
            "    except (NotAntichainError, NotChainError) as exc:\n"
            "        print(type(exc).__name__, exc.u, exc.v)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["NotAntichainError 0 2", "NotChainError 2 3", ""]


class TestFamily:
    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            Family((Chain(()),))

    def test_overlap_detected_when_disjoint(self):
        with pytest.raises(OverlapError) as exc:
            Family((Chain((0, 1)), Chain((1, 2))), disjoint=True)
        assert exc.value.vertex == 1

    def test_overlap_allowed_when_collection(self):
        fam = Family((GraphPath((0, 1)), GraphPath((1, 2))))
        assert fam.coverage() == 3  # distinct vertices only

    def test_coverage_and_covered(self):
        fam = Family((Antichain(frozenset({0, 2})), Antichain(frozenset({1}))),
                     disjoint=True)
        assert fam.covered() == {0, 1, 2}
        assert fam.coverage() == 3
        assert len(fam) == 2


class TestKnorms:
    def test_partition_norm_values(self, fig):
        fam = Family((Chain((0, 4, 7)), Chain((1, 6)), Chain((2,)),
                      Chain((3, 8)), Chain((5,))), disjoint=True)
        assert knorm_partition(fam, 9, 1) == 5
        assert knorm_partition(fam, 9, 2) == 8
        assert knorm_partition(fam, 9, 3) == 9

    def test_partition_must_cover_everything(self, fig):
        fam = Family((Chain((0, 4, 7)),), disjoint=True)
        with pytest.raises(NotPartitionError):
            knorm_partition(fam, 9, 1)

    def test_collection_norm_formula(self):
        members = (GraphPath((0, 1, 2)), GraphPath((2, 3)))
        # covered {0,1,2,3} out of 6 -> 2 uncovered + k * 2 members
        assert knorm_collection(members, 6, 1) == 2 + 2
        assert knorm_collection(members, 6, 3) == 2 + 6
        assert knorm_collection((), 6, 2) == 6


class TestPartitionCompletion:
    def test_adds_singletons_of_member_type(self):
        fam = Family((Chain((0, 1)),), disjoint=True)
        full = partition_completion(fam, 4, Chain)
        assert len(full) == 3
        assert all(isinstance(m, Chain) for m in full.members)
        assert full.covered() == {0, 1, 2, 3}

    def test_empty_family_gets_antichain_singletons(self):
        full = partition_completion(Family((), disjoint=True), 2, Antichain)
        assert len(full) == 2
        assert all(isinstance(m, Antichain) for m in full.members)

    def test_explicit_type_override(self):
        full = partition_completion(Family((), disjoint=True), 2, Chain)
        assert all(isinstance(m, Chain) for m in full.members)

    def test_overlapping_members_rejected(self):
        fam = Family((Chain((0, 1)), Chain((2, 1))))
        with pytest.raises(OverlapError) as exc:
            partition_completion(fam, 4, Chain)
        assert exc.value.vertex == 1
