"""Every witness is certified once, by the library function that builds it.

Each member of more than one vertex in a Family that a public solver,
greedy or oracle returns must be the very object a certify_* call
returned; the one-vertex members that complete a partition are exempt,
as a single vertex is both a chain and an antichain.
"""

import sys

import pytest

from gkcover import (
    GraphPath,
    NotAntichainError,
    NotChainError,
    build_dag,
    dagcore,
    gen_ga,
    gen_gc,
    greedy,
    greedy_antichain_cover,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    networks,
    oracle,
    solve_alpha,
    solve_beta,
)
from gkcover.oracle import (
    OracleBudget,
    brute_alpha,
    brute_beta,
    brute_min_knorm_antichain_partition,
    brute_min_knorm_chain_partition,
    random_dag,
)

from conftest import FIG_EDGES

CERTIFIERS = ("certify_antichain", "certify_chain", "certify_path")

DAGS = {
    "readme": lambda: build_dag(9, FIG_EDGES),
    "random-1-0": lambda: random_dag(9, 0, 1),
    "random-3-1": lambda: random_dag(9, 1, 3),
    "random-3-2": lambda: random_dag(9, 2, 3),
    "random-3-5": lambda: random_dag(9, 5, 3),
    "gc-4": lambda: gen_gc(4).dag,
    "ga-3": lambda: gen_ga(3).dag,
}
ORACLE_DAGS = [name for name, make in DAGS.items() if make().n <= OracleBudget().max_n]
KS = (1, 2, 3)


def _solver_families(dag, k):
    a, b = solve_alpha(dag, k), solve_beta(dag, k)
    return [a.ma.family, a.mps.family, a.mcp.family,
            b.mp.family, b.mc.family, b.mas.family, b.map.family]


def _greedy_families(dag, k):
    return [greedy_k_chains(dag, k)[0], greedy_k_antichains(dag, k)[0],
            *greedy_weighted_chain_cover(dag, k)[:2], *greedy_antichain_cover(dag, k)[:2]]


def _oracle_families(dag, k):
    return [search(dag, k)[1] for search in (
        brute_alpha, brute_beta, brute_min_knorm_chain_partition,
        brute_min_knorm_antichain_partition)]


@pytest.fixture
def certified(monkeypatch):
    """Every object a certify_* call returns while the test runs: each
    gkcover module's binding of the three certifiers is wrapped."""
    out = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gkcover" or name.startswith("gkcover."))]
    for name in CERTIFIERS:
        real = getattr(dagcore, name)

        def recorded(*args, real=real):
            member = real(*args)
            out.append(member)
            return member

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recorded)
    return out


def _uncertified(families, certified):
    # `certified` keeps every object it holds alive, so equal ids mean
    # the same object
    ids = set(map(id, certified))
    return [m for fam in families for m in fam.members if len(m) > 1 and id(m) not in ids]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", DAGS)
@pytest.mark.parametrize("families", [_solver_families, _greedy_families],
                         ids=["solvers", "greedy"])
def test_returned_members_are_the_certified_objects(families, name, k, certified):
    fams = families(DAGS[name](), k)
    assert any(len(m) > 1 for fam in fams for m in fam.members)
    assert _uncertified(fams, certified) == []


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", ORACLE_DAGS)
def test_oracle_members_are_the_certified_objects(name, k, certified):
    fams = _oracle_families(DAGS[name](), k)
    assert any(len(m) > 1 for fam in fams for m in fam.members)
    assert _uncertified(fams, certified) == []


def test_cases_cover_routed_and_unrouted_solves():
    # problem Alpha's zero circulation takes the height levels instead of
    # reading antichains off the labels
    unrouted = {solve_alpha(make(), k).stats.iterations == 0
                for make in DAGS.values() for k in KS}
    assert unrouted == {True, False}
    assert len(ORACLE_DAGS) >= 4


class TestEachSiteRaises:
    def test_peeled_path_off_the_edges(self, fig, monkeypatch):
        # on the figure at k = 1 one unit runs 1 -> 4 -> 7; dropping 4
        # leaves 7 reachable from 1 but not along an edge
        real = networks.peel_paths

        def skip_4(gk, f):
            return [((1, 7) if tuple(p) == (1, 4, 7) else p, g) for p, g in real(gk, f)]

        monkeypatch.setattr(networks, "peel_paths", skip_4)
        with pytest.raises(NotChainError) as exc:
            solve_alpha(fig, 1)
        assert (exc.value.u, exc.value.v) == (1, 7)

    def test_greedy_path_off_the_edges(self, monkeypatch):
        # the first best path on the figure is 0 -> 4 -> 7; without 4 it
        # is still a chain, so only the path check catches it
        real = greedy.max_coverage_path
        monkeypatch.setattr(greedy, "max_coverage_path", lambda dag, left: GraphPath(
            tuple(v for v in real(dag, left).vertices if v != 4)))
        with pytest.raises(NotChainError) as exc:
            greedy_weighted_chain_cover(build_dag(9, FIG_EDGES), 1)
        assert (exc.value.u, exc.value.v) == (0, 7)

    def test_oracle_antichain_with_an_edge(self, fig, monkeypatch):
        # with no vertex comparable to another, the search puts all nine
        # in one antichain, edges and all
        monkeypatch.setattr(oracle, "_comparability_masks", lambda dag: [0] * dag.n)
        with pytest.raises(NotAntichainError):
            brute_alpha(fig, 1)
