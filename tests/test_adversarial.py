import os
import subprocess
import sys

import pytest

from gkcover import adversarial, greedy
from gkcover.errors import MismatchError
from gkcover import (
    DomainError,
    certify_antichain,
    certify_chain,
    gen_antichain_ratio,
    gen_chain_ratio,
    gen_ga,
    gen_gc,
    greedy_antichain_cover,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    minimum_path_cover,
    solve_alpha,
    solve_beta,
)


class TestChainRatio:
    # greedy coverage 6k (even) / 6k+1 (odd) against optimal 8k / 8k+3
    CASES = {
        2: (16, 12, [8, 4]),
        3: (27, 19, [9, 6, 4]),
        4: (32, 24, [8, 8, 4, 4]),
        5: (43, 31, [9, 8, 6, 4, 4]),
        6: (48, 36, [8, 8, 8, 4, 4, 4]),
        7: (59, 43, [9, 8, 8, 6, 4, 4, 4]),
    }

    @pytest.mark.parametrize("k", sorted(CASES))
    def test_instance_numbers(self, k):
        n, greedy_cov, gains = self.CASES[k]
        inst = gen_chain_ratio(k)
        assert inst.dag.n == n
        assert inst.expected.optimal == n
        assert inst.expected.greedy == greedy_cov
        fam, trace = greedy_k_chains(inst.dag, k)
        assert fam.coverage() == greedy_cov
        assert trace.gains() == gains
        assert solve_beta(inst.dag, k).beta == n

    def test_rows_are_chains(self):
        inst = gen_chain_ratio(4)
        for row in inst.layout["rows"]:
            certify_chain(inst.dag, row)

    def test_even_ratio_is_exactly_three_quarters(self):
        for k in (2, 4, 6):
            inst = gen_chain_ratio(k)
            assert 4 * inst.expected.greedy == 3 * inst.expected.optimal

    def test_odd_ratio_below_three_quarters(self):
        for k in (3, 5, 7):
            inst = gen_chain_ratio(k)
            assert 4 * inst.expected.greedy < 3 * inst.expected.optimal

    def test_k_below_two_rejected(self):
        with pytest.raises(DomainError):
            gen_chain_ratio(1)


class TestAntichainRatio:
    @pytest.mark.parametrize("k,alpha", [(2, 16), (3, 27), (4, 32), (5, 43)])
    def test_optimal_value(self, k, alpha):
        inst = gen_antichain_ratio(k)
        assert solve_alpha(inst.dag, k).alpha == alpha
        assert inst.expected.optimal == alpha

    def test_layers_are_antichains(self):
        inst = gen_antichain_ratio(5)
        for layer in inst.layout["rows"]:
            certify_antichain(inst.dag, layer)

    def test_greedy_actually_reaches_optimal(self):
        # The documented divergence: minimum-flow extraction always
        # returns whole layers, so greedy attains alpha_k instead of the
        # worst-case trace the expected record carries.
        for k in (2, 3):
            inst = gen_antichain_ratio(k)
            fam, _ = greedy_k_antichains(inst.dag, k)
            assert fam.coverage() == solve_alpha(inst.dag, k).alpha
            assert fam.coverage() > inst.expected.greedy

    def test_k_below_two_rejected(self):
        with pytest.raises(DomainError):
            gen_antichain_ratio(1)


class TestLogPathFamily:
    @pytest.mark.parametrize("i", range(1, 9))
    def test_sizes_and_gains(self, i):
        inst = gen_gc(i)
        assert inst.dag.n == 2 ** (i + 1) - i - 2
        _, _, trace = greedy_weighted_chain_cover(inst.dag, 0)
        assert trace.stop_reason == "U empty"
        assert trace.gains() == [2 ** (i - j + 1) - 1 for j in range(1, i + 1)]
        mpc, _ = minimum_path_cover(inst.dag)
        assert mpc == inst.expected.optimal == (1 if i == 1 else 2)

    def test_layout_paths_cover_everything(self):
        inst = gen_gc(4)
        covered = set()
        for path in inst.layout["paths"].values():
            certify_chain(inst.dag, path)
            covered.update(path)
        assert covered == set(range(inst.dag.n))

    def test_round1_maximizer_is_unique(self):
        # the build already checks the round-1 path; check the score DP
        # has a strict argmax so ties never decide the trace
        for i in (2, 3, 4, 5, 6):
            inst = gen_gc(i)
            dag = inst.dag
            score = [0] * dag.n
            for v in dag.topo:
                best = max((score[u] for u in dag.pred[v]), default=0)
                score[v] = 1 + best
            top = max(score)
            assert score.count(top) == 1

    def test_i_below_one_rejected(self):
        with pytest.raises(DomainError):
            gen_gc(0)

    def test_wrong_round1_path_is_a_mismatch(self, monkeypatch):
        real = greedy.max_coverage_path

        def reversed_tie_break(dag, uncovered):
            return real(dag, set(uncovered) - {0})

        monkeypatch.setattr(greedy, "max_coverage_path", reversed_tie_break)
        with pytest.raises(MismatchError, match="round-1 path deviates"):
            gen_gc(4)

    def test_greedy_cover_reuses_the_round1_path(self, monkeypatch):
        # gen_gc's round-1 path is the first of the memoised rounds that
        # gen gc --check's greedy cover reads, so the check searches
        # only rounds 2..i
        inst = gen_gc(5)
        calls = []
        real = greedy.max_coverage_path

        def counted(dag, uncovered):
            calls.append(len(uncovered))
            return real(dag, uncovered)

        monkeypatch.setattr(greedy, "max_coverage_path", counted)
        _, _, trace = greedy_weighted_chain_cover(inst.dag, 0)
        assert trace.gains() == [31, 15, 7, 3, 1]
        assert calls == [26, 11, 4, 1]

    def test_wrong_vertex_count_is_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(adversarial, "comb", lambda m, j: 1)
        with pytest.raises(MismatchError, match="staircase 4 has 10 vertices, not 26"):
            gen_gc(4)

    def test_round1_check_survives_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import adversarial, greedy\n"
            "from gkcover.dagcore import GraphPath\n"
            "from gkcover.errors import MismatchError\n"
            "greedy.max_coverage_path = lambda dag, uncovered: GraphPath((0,))\n"
            "try:\n"
            "    adversarial.gen_gc(3)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatch: round-1 path deviates from the intended staircase path\n"


class TestLogAntichainFamily:
    @pytest.mark.parametrize("i", range(1, 7))
    def test_structure(self, i):
        inst = gen_ga(i)
        n = 2 ** (i + 1)
        assert inst.dag.n == n
        tiers = inst.layout["tiers"]
        assert len(tiers) == i
        for tier in tiers:
            certify_antichain(inst.dag, tier)
        seen = set().union(*map(set, tiers)) if tiers else set()
        seen |= {inst.layout["x1"], inst.layout["y1"]}
        assert seen == set(range(n))

    @pytest.mark.parametrize("i", range(1, 6))
    def test_optimal_partition_is_two(self, i):
        inst = gen_ga(i)
        assert solve_beta(inst.dag, 1).map.value == 2 == inst.expected.optimal

    def test_greedy_actually_finds_two_layers(self):
        # documented divergence: every minimum flow is a perfect matching,
        # so extraction returns the whole top layer, then the bottom one
        for i in (2, 3, 4):
            inst = gen_ga(i)
            _, partition, _ = greedy_antichain_cover(inst.dag, 1)
            assert len(partition) == 2
            half = inst.dag.n // 2
            got = {frozenset(a.vertices) for a in partition.members}
            assert got == {frozenset(range(half)),
                           frozenset(range(half, 2 * half))}

    def test_i_below_one_rejected(self):
        with pytest.raises(DomainError):
            gen_ga(0)


def test_expected_records_carry_member_counts():
    assert gen_chain_ratio(4).expected.greedy_members == 4
    assert gen_gc(5).expected.greedy_members == 5
    assert gen_ga(3).expected.greedy_members == 5  # i + 2 claimed members
