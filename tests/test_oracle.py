import gc
import os
import random
import subprocess
import sys

import pytest

from gkcover import oracle
from gkcover import (
    BudgetExceeded,
    brute_alpha,
    brute_beta,
    brute_min_knorm_antichain_partition,
    brute_min_knorm_chain_partition,
    build_dag,
    knorm_partition,
    random_dag,
    run_verification_sweep,
    verify_gk,
)
from gkcover.errors import MismatchError
from gkcover.oracle import OracleBudget

import oracle_reference
from conftest import FIG_ALPHA, FIG_BETA, dropping_last_vertex


class TestBruteValues:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_alpha_side(self, fig, budget, k):
        value, fam = brute_alpha(fig, k, budget)
        assert value == FIG_ALPHA[k]
        assert fam.disjoint and len(fam) <= k
        assert fam.coverage() == value
        pvalue, pfam = brute_min_knorm_chain_partition(fig, k, budget)
        assert pvalue == FIG_ALPHA[k]
        assert knorm_partition(pfam, fig.n, k) == pvalue

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_beta_side(self, fig, budget, k):
        value, fam = brute_beta(fig, k, budget)
        assert value == FIG_BETA[k]
        assert fam.disjoint and len(fam) <= k
        assert fam.coverage() == value
        pvalue, pfam = brute_min_knorm_antichain_partition(fig, k, budget)
        assert pvalue == FIG_BETA[k]
        assert knorm_partition(pfam, fig.n, k) == pvalue

    def test_trivial_graphs(self, budget):
        empty = build_dag(0, [])
        assert brute_alpha(empty, 2, budget)[0] == 0
        assert brute_beta(empty, 2, budget)[0] == 0
        one = build_dag(1, [])
        assert brute_alpha(one, 1, budget)[0] == 1
        assert brute_beta(one, 1, budget)[0] == 1


class TestBudget:
    def test_large_n_rejected(self, budget):
        with pytest.raises(BudgetExceeded):
            brute_alpha(build_dag(11, []), 1, budget)

    def test_large_k_rejected(self, fig, budget):
        with pytest.raises(BudgetExceeded):
            brute_alpha(fig, budget.max_k + 1, budget)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GKCOVER_BUDGET_N", "12")
        assert OracleBudget.from_env().max_n == 12
        monkeypatch.delenv("GKCOVER_BUDGET_N")
        assert OracleBudget.from_env().max_n == 10
        for raw in ("abc", "-1", "1.5"):
            monkeypatch.setenv("GKCOVER_BUDGET_N", raw)
            with pytest.raises(ValueError, match=f"^GKCOVER_BUDGET_N must be a non-negative "
                                                 f"integer, got '{raw}'$"):
                OracleBudget.from_env()
        monkeypatch.setenv("GKCOVER_BUDGET_N", "0")
        assert OracleBudget.from_env().max_n == 0


class TestVerify:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig_consistency(self, fig, budget, k):
        report = verify_gk(fig, k, budget)
        assert report.alpha_brute == report.alpha_solver == FIG_ALPHA[k]
        assert report.beta_brute == report.beta_solver == FIG_BETA[k]

    def test_sweep_has_no_mismatches(self):
        result = run_verification_sweep(6, 12, seed=5, k_max=2)
        assert result.mismatches == []
        assert len(result.reports) == 24

    def test_mismatching_trial_keeps_no_reports(self, monkeypatch):
        real = oracle.verify_gk

        def fail_on_k2(dag, k, budget):
            if k == 2:
                raise MismatchError("forced")
            return real(dag, k, budget)

        monkeypatch.setattr(oracle, "verify_gk", fail_on_k2)
        result = run_verification_sweep(6, 3, seed=5, k_max=2)
        assert result.mismatches == [f"trial {t}: forced" for t in range(3)]
        assert result.reports == []


class TestRandomDag:
    def test_deterministic(self):
        a = random_dag(8, 3, seed=7)
        b = random_dag(8, 3, seed=7)
        assert a.n == b.n and a.edges == b.edges

    def test_seed_changes_instance(self):
        instances = {(random_dag(8, t, seed=7).n,
                      tuple(random_dag(8, t, seed=7).edges)) for t in range(12)}
        assert len(instances) > 6

    def test_size_bound_and_acyclic(self):
        for t in range(30):
            dag = random_dag(8, t, seed=1)
            assert 1 <= dag.n <= 8  # build_dag already rejected cycles


SEARCHES = {
    "alpha": (brute_alpha, oracle_reference.brute_alpha),
    "beta": (brute_beta, oracle_reference.brute_beta),
    "chain-partition": (brute_min_knorm_chain_partition,
                        oracle_reference.brute_min_knorm_chain_partition),
    "antichain-partition": (brute_min_knorm_antichain_partition,
                            oracle_reference.brute_min_knorm_antichain_partition),
}


def small_corpus():
    """verify-small-style cases: n in 2..9 over a shuffled order, densities
    0.1/0.3/0.5 in turn, k 1..3 in turn, 300 of them."""
    rng = random.Random("oracle-reference")
    cases = []
    for j in range(300):
        n = rng.randint(2, 9)
        p = oracle.DENSITIES[(j // 3) % 3]
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        cases.append((build_dag(n, edges), 1 + j % 3))
    return cases


def ten_vertex_corpus():
    """random_dag(10, t, s) for 30 trials of 3 seeds at k 1..4."""
    return [(random_dag(10, t, s), k) for s in (1, 2, 3) for t in range(30) for k in range(1, 5)]


class TestMatchesReference:
    """Each search visits the nodes of its reference copy in the same
    order: the same value, the same family (member order included) and
    the same expansion count, pinned through the public budget."""

    @pytest.mark.parametrize("corpus", [small_corpus, ten_vertex_corpus],
                             ids=["small", "ten-vertex"])
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_same_values_families_and_expansions(self, search, corpus):
        fn, ref = SEARCHES[search]
        for dag, k in corpus():
            value, fam, count = ref(dag, k)
            assert count >= 1
            assert fn(dag, k, OracleBudget(max_expansions=count)) == (value, fam), (dag.edges, k)
            with pytest.raises(BudgetExceeded, match=f"^oracle expansion limit {count - 1} hit$"):
                fn(dag, k, OracleBudget(max_expansions=count - 1))


# each search's error on fig at k=2 when every certifier drops a vertex,
# in the order alpha, beta and the chain and antichain partitions
SHORT_FAMILY_ERRORS = {
    "alpha": "the family scores 6, the search found 8",
    "beta": "the family scores 3, the search found 5",
    "chain-partition": "the partition covers 8 of 9 vertices",
    "antichain-partition": "the partition covers 7 of 9 vertices",
}


class TestSearchesScoreTheirFamilies:
    """Each search checks the family it returns against its own value, so
    a member short of a vertex raises instead of reaching a report."""

    @pytest.fixture
    def short_members(self, monkeypatch):
        monkeypatch.setattr(oracle, "certify_antichain",
                            dropping_last_vertex(oracle.certify_antichain))
        monkeypatch.setattr(oracle, "certify_chain", dropping_last_vertex(oracle.certify_chain))

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_short_member_raises(self, fig, short_members, search):
        with pytest.raises(MismatchError, match=f"^{SHORT_FAMILY_ERRORS[search]}$"):
            SEARCHES[search][0](fig, 2)

    def test_verify_gk_raises(self, fig, short_members):
        with pytest.raises(MismatchError, match="^the family scores 6, the search found 8$"):
            verify_gk(fig, 2)

    def test_short_member_raises_under_python_O(self):
        script = (
            "from gkcover import GkError, build_dag, oracle\n"
            "from conftest import FIG_EDGES, dropping_last_vertex\n"
            "oracle.certify_antichain = dropping_last_vertex(oracle.certify_antichain)\n"
            "oracle.certify_chain = dropping_last_vertex(oracle.certify_chain)\n"
            "fig = build_dag(9, FIG_EDGES)\n"
            "for search in (oracle.brute_alpha, oracle.brute_beta,\n"
            "               oracle.brute_min_knorm_chain_partition,\n"
            "               oracle.brute_min_knorm_antichain_partition):\n"
            "    try:\n"
            "        search(fig, 2)\n"
            "    except GkError as exc:\n"
            "        print(exc)\n")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(here, "..", "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == list(SHORT_FAMILY_ERRORS.values())


class TestSearchesLeaveNoCycles:
    """Each search drops its recursive function's reference to itself on
    return and on raise, so reference counting frees all it built."""

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_no_unreachable_objects_after_return_or_raise(self, fig, search):
        fn = SEARCHES[search][0]
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            for k in (1, 3):
                fn(fig, k)
                assert gc.collect() == 0
                try:
                    fn(fig, k, OracleBudget(max_expansions=2))
                except BudgetExceeded:
                    pass
                else:
                    pytest.fail("the budget of 2 expansions was not hit")
                assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
