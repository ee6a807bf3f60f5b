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
    knorm_collection,
    knorm_partition,
)
from gkcover.dagcore import partition_completion, reachable


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


class TestReachable:
    def test_reflexive(self, fig):
        assert all(reachable(fig, v, v) for v in range(9))

    def test_direct_and_transitive(self, fig):
        assert reachable(fig, 0, 4)
        assert reachable(fig, 0, 7)  # 0 -> 4 -> 7
        assert reachable(fig, 1, 8)  # 1 -> 4 -> 8
        assert not reachable(fig, 4, 0)
        assert not reachable(fig, 5, 6)
        assert not reachable(fig, 2, 8)


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

    def test_path_needs_consecutive_edges(self, fig):
        p = certify_path(fig, [0, 4, 7])
        assert isinstance(p, GraphPath)
        with pytest.raises(NotChainError):
            certify_path(fig, [0, 7])  # reachable but not an edge


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
        full = partition_completion(fam, 4)
        assert len(full) == 3
        assert all(isinstance(m, Chain) for m in full.members)
        assert full.covered() == {0, 1, 2, 3}

    def test_empty_family_defaults_to_antichains(self):
        full = partition_completion(Family((), disjoint=True), 2)
        assert len(full) == 2
        assert all(isinstance(m, Antichain) for m in full.members)

    def test_explicit_type_override(self):
        full = partition_completion(Family((), disjoint=True), 2, Chain)
        assert all(isinstance(m, Chain) for m in full.members)
