import pytest

from gkcover import build_dag
from gkcover.oracle import OracleBudget

# 9-vertex working example: two near-trees joined at vertex 4.
FIG_EDGES = [(0, 4), (0, 5), (1, 4), (1, 6), (2, 7), (4, 7), (3, 8), (4, 8)]

# Values frozen from the brute-force oracles (tests/test_oracle.py
# recomputes them; everything else may rely on the constants).
FIG_ALPHA = {1: 5, 2: 8, 3: 9}
FIG_BETA = {1: 3, 2: 5, 3: 7}
FIG_MPC = 5
FIG_HEIGHT = 3


def dropping_last_vertex(certify):
    """A certifier like ``certify`` that drops the last vertex of every
    member of two or more vertices, as a search reading off one vertex too
    few would."""
    def short(dag, vertices):
        vs = list(vertices)
        return certify(dag, vs[:-1] if len(vs) > 1 else vs)
    return short


@pytest.fixture
def fig():
    return build_dag(9, FIG_EDGES)


@pytest.fixture
def budget():
    return OracleBudget()
