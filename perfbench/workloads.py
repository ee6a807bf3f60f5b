"""Inputs, requests and response checks of the three benchmark workloads.

A workload turns a seed into a request schedule. Every input is made
here, from the seed alone, and written out before the run; gkcover sees
only those inputs. Every response is checked against anchors computed
here without gkcover's flow code: a closure and longest-path analysis of
the input, the recorded optima of the staircase and tier families, and
an independent re-certification of each reported witness family.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from collections import Counter
from dataclasses import astuple, dataclass, field
from math import comb
from pathlib import Path
from typing import Callable, Optional

SCALING_TABLE = Path(__file__).resolve().parent.parent / "docs" / "scaling.md"


class Graph:
    """An input DAG as the benchmark knows it: vertex names, edges, and
    a descendant closure and height computed here."""

    def __init__(self, names: list[str], edges: list[tuple[int, int]]):
        self.names = names
        self.n = len(names)
        self.edges = edges
        self.index = {name: v for v, name in enumerate(names)}
        self.edge_set = set(edges)
        succ: list[list[int]] = [[] for _ in range(self.n)]
        indeg = [0] * self.n
        for u, v in edges:
            succ[u].append(v)
            indeg[v] += 1
        order = [v for v in range(self.n) if indeg[v] == 0]
        for v in order:
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) != self.n:
            raise ValueError("generated edge list has a cycle")
        self.desc = [0] * self.n
        for v in reversed(order):
            mask = 1 << v
            for w in succ[v]:
                mask |= self.desc[w]
            self.desc[v] = mask
        # depth[v]: vertices on the longest path ending at v. Equal depth
        # means incomparable, so each depth level is an antichain.
        depth = [1] * self.n
        for v in order:
            for w in succ[v]:
                depth[w] = max(depth[w], depth[v] + 1)
        self.height = max(depth, default=0)
        self.level_sizes = sorted(Counter(depth).values(), reverse=True)

    def text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{self.names[u]} {self.names[v]}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def comparable(self, u: int, v: int) -> bool:
        return bool(self.desc[u] >> v & 1 or self.desc[v] >> u & 1)


def _named(rng: random.Random, prefix: str, n: int) -> list[str]:
    labels = list(range(n))
    rng.shuffle(labels)
    return [f"{prefix}{x}" for x in labels]


def random_graph(rng: random.Random, n: int, degree: float, window: int) -> Graph:
    """Sparse DAG over a random topological order: position a links to
    floor((a+1)d) - floor(a d) of the next `window` positions, so every
    graph of one (n, d) has the same edge count; any vertex left without
    an edge is joined to a neighbour, so that each vertex is named in the file."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    touched = [False] * n
    for a in range(n - 1):
        targets = range(a + 1, min(n, a + 1 + window))
        out = min(len(targets), int((a + 1) * degree) - int(a * degree))
        for b in rng.sample(targets, out):
            edges.append((order[a], order[b]))
            touched[a] = touched[b] = True
    for a in range(n):
        if not touched[a]:
            b = a + 1 if a + 1 < n else a - 1
            edges.append((order[min(a, b)], order[max(a, b)]))
            touched[a] = touched[b] = True
    rng.shuffle(edges)
    return Graph(_named(rng, "v", n), edges)


def staircase_edges(i: int) -> tuple[int, list[tuple[int, int]]]:
    """The `gen gc --i i` staircase: paths m = i..1 of binomial segments,
    ordering edges down each column and skip edges back into path i.
    Edges are listed in the order gkcover writes them."""
    first: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    n = 0
    edges: list[tuple[int, int]] = []
    for m in range(i, 0, -1):
        for j in range(m):
            size = comb(m, j)
            first[m, j], last[m, j] = n, n + size - 1
            edges.extend((v, v + 1) for v in range(n, n + size - 1))
            n += size
        edges.extend((last[m, j], first[m, j + 1]) for j in range(m - 1))
    for j in range(1, i + 1):
        edges.extend((last[m, j - 1], first[m - 1, j - 1]) for m in range(i, j, -1))
    edges.extend((last[j, j - 1], first[i, j + 1]) for j in range(1, i - 1))
    return n, list(dict.fromkeys(edges))


def tier_edges(i: int) -> tuple[int, list[tuple[int, int]]]:
    """The `gen ga --i i` tiers: x_j -> y_j' unless j and j' share a tier."""
    half = 2 ** i

    def tier(j: int) -> int:
        return (j - 1).bit_length() if j >= 2 else 0

    edges = [(j - 1, half + jp - 1)
             for j in range(1, half + 1) for jp in range(1, half + 1)
             if not (tier(j) and tier(j) == tier(jp))]
    return 2 * half, edges


# --- response checks -----------------------------------------------------

ANTICHAIN, CHAIN, PATH = "antichain", "chain", "path"


class CheckFailed(Exception):
    """A response misses its anchor or its family fails re-certification."""


def _members(g: Graph, lists: list[list[str]], kind: str, disjoint: bool) -> list[list[int]]:
    members = []
    seen: set[int] = set()
    for names in lists:
        vs = [g.index[name] for name in names]
        if not vs or len(set(vs)) != len(vs):
            raise CheckFailed(f"{kind} {names} is empty or repeats a vertex")
        if disjoint and seen.intersection(vs):
            raise CheckFailed(f"{kind} {names} overlaps an earlier member")
        seen.update(vs)
        if kind == ANTICHAIN:
            ok = all(not g.comparable(u, v) for a, u in enumerate(vs) for v in vs[a + 1:])
        elif kind == CHAIN:
            ok = all(g.desc[u] >> v & 1 for u, v in zip(vs, vs[1:]))
        else:
            ok = all((u, v) in g.edge_set for u, v in zip(vs, vs[1:]))
        if not ok:
            raise CheckFailed(f"{names} is not a {kind}")
        members.append(vs)
    return members


def coverage(g: Graph, members: list[list[int]], k: int) -> int:
    return len(set().union(*members))


def collection_norm(g: Graph, members: list[list[int]], k: int) -> int:
    return g.n - coverage(g, members, k) + k * len(members)


def partition_norm(g: Graph, members: list[list[int]], k: int) -> int:
    if sorted(v for m in members for v in m) != list(range(g.n)):
        raise CheckFailed("partition does not cover every vertex exactly once")
    return sum(min(len(m), k) for m in members)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _report(resp: tuple) -> dict:
    rc, out = resp
    _expect(rc == 0, f"exit code {rc}")
    report = json.loads(out)
    _expect(report.get("certificate") == "verified",
            f"certificate {report.get('certificate')!r}")
    return report


ALPHA, BETA = "alpha", "beta"

# CLI problem -> (report tag, member kind, disjoint, objective, side, at most k members)
SOLVE_SPEC = {
    "ma-k": ("MA-k", ANTICHAIN, True, coverage, ALPHA, True),
    "mps-k": ("MPS-k", PATH, False, collection_norm, ALPHA, False),
    "mcp-k": ("MCP-k", CHAIN, True, partition_norm, ALPHA, False),
    "mc-k": ("MC-k", CHAIN, True, coverage, BETA, True),
    "mp-k": ("MP-k", PATH, False, coverage, BETA, True),
    "mas-k": ("MAS-k", ANTICHAIN, True, collection_norm, BETA, False),
    "map-k": ("MAP-k", ANTICHAIN, True, partition_norm, BETA, False),
}
SOLVE_ORDER = ("ma-k", "mc-k", "mp-k", "mcp-k", "map-k", "mas-k", "mps-k")


def check_value_anchors(g: Graph, side: str, k: int, value: int) -> None:
    """Anchors that hold at any size: alpha_k lies between the k largest
    depth levels and n, and equals n once k reaches the height; beta_1 is
    the height, and beta_k lies between the height and min(n, k * height)."""
    if side == ALPHA:
        _expect(sum(g.level_sizes[:k]) <= value <= g.n,
                f"alpha_{k}={value} outside [{sum(g.level_sizes[:k])}, {g.n}]")
        if k >= g.height:
            _expect(value == g.n, f"alpha_{k}={value} != n={g.n} with height {g.height}")
    else:
        _expect(g.height <= value <= min(g.n, k * g.height),
                f"beta_{k}={value} outside [{g.height}, {min(g.n, k * g.height)}]")
        if k == 1:
            _expect(value == g.height, f"beta_1={value} != height {g.height}")


def check_solve(g: Graph, key: int, problem: str, k: int, resp: tuple, seen: dict) -> None:
    tag, kind, disjoint, objective, side, capped = SOLVE_SPEC[problem]
    report = _report(resp)
    _expect(report["problem"] == tag and report["k"] == k, "report names another problem")
    value = report["value"]
    members = _members(g, report["families"][tag], kind, disjoint)
    _expect(objective(g, members, k) == value, f"{tag} family does not re-score to {value}")
    if capped:
        _expect(len(members) <= k, f"{tag} has {len(members)} members for k={k}")
    check_value_anchors(g, side, k, value)
    _expect(isinstance(report["iterations"]["cycle_cancels"], int), "no cycle_cancels count")
    first = seen.setdefault((key, k, side), value)
    _expect(first == value, f"{tag}={value} but another {side} problem reported {first}")


def check_gen_gc(i: int, n: int, edges: int, resp: tuple, seen: dict) -> None:
    report = _report(resp)
    _expect(report["n"] == n and report["edges"] == edges,
            f"gc {i}: n={report['n']} edges={report['edges']}, want {n}, {edges}")
    want = {"optimal": 2, "greedy": i, "greedy_members": i}
    _expect(report["actual"] == want, f"gc {i}: actual {report['actual']} != {want}")


def check_greedy(g: Graph, kind: str, k: int, anchor: dict, resp: tuple, seen: dict) -> None:
    """Greedy reports: families re-certified and re-scored, gains
    non-increasing, and the value checked against the recorded optimum."""
    report = _report(resp)
    gains = report["gains"]
    _expect(all(a >= b for a, b in zip(gains, gains[1:])), f"gains {gains} increase")
    fams = report["families"]
    value = report["value"]
    if kind == "chains":
        members = _members(g, fams["chains"], CHAIN, True)
        _expect(coverage(g, members, k) == value == sum(gains), "chains do not re-score")
        _expect(gains == anchor["gains"], f"chain gains {gains} != {anchor['gains']}")
    elif kind == "chain-cover":
        paths = _members(g, fams["paths"], PATH, False)
        partition_norm(g, _members(g, fams["partition"], CHAIN, True), k)
        _expect(collection_norm(g, paths, k) == value, "paths do not re-score")
        _expect(gains == anchor["gains"][:-1] and value == len(anchor["gains"]),
                f"chain-cover gains {gains}, value {value} against {anchor['gains']}")
    elif kind == "antichains":
        members = _members(g, fams["antichains"], ANTICHAIN, True)
        _expect(coverage(g, members, k) == value == sum(gains), "antichains do not re-score")
        _expect(len(gains) == k and gains[0] == anchor["width"]
                and max(gains) <= anchor["width"],
                f"antichain gains {gains} against width {anchor['width']}")
        _expect(isinstance(report["iterations"]["decrementing_searches"], int),
                "no decrementing_searches count")
    else:
        partition = _members(g, fams["partition"], ANTICHAIN, True)
        _members(g, fams["antichains"], ANTICHAIN, True)
        _expect(len(partition) == value, "partition size is not the value")
        partition_norm(g, partition, k)
        _expect(value == anchor["optimal"], f"cover {value} != optimum {anchor['optimal']}")


def check_verify(g: Graph, k: int, resp: tuple, seen: dict) -> None:
    _, rep = resp
    _expect(rep.n == g.n and rep.k == k, "report is for another instance")
    _expect(rep.alpha_brute == rep.alpha_chain_partition == rep.alpha_solver,
            f"alpha values disagree: {rep}")
    _expect(rep.beta_brute == rep.beta_antichain_partition == rep.beta_solver,
            f"beta values disagree: {rep}")
    check_value_anchors(g, ALPHA, k, rep.alpha_solver)
    check_value_anchors(g, BETA, k, rep.beta_solver)


# --- requests ---------------------------------------------------------------

@dataclass
class Request:
    """One call into gkcover: a CLI argv, or a verify_gk call on `graph`."""

    label: str
    check: Callable[[tuple, dict], None]
    argv: Optional[list[str]] = None
    graph: Optional[Graph] = None
    k: int = 0


def call(req: Request, api) -> tuple:
    """Run one request through gkcover's public entry points."""
    if req.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.cli.main(req.argv)
        return rc, out.getvalue()
    dag = api.dagcore.build_dag(req.graph.n, req.graph.edges)
    return 0, api.oracle.verify_gk(dag, req.k)


def fingerprint(resp: tuple) -> tuple:
    """What must be identical between a traced and an untraced response."""
    rc, body = resp
    return (rc, body) if isinstance(body, str) else (rc, astuple(body))


@dataclass
class Plan:
    """A workload's schedule for one seed.

    `requests` is cycled in a closed loop, which stops only after a whole
    number of `stride` requests, the length that holds each kind of
    request in its share; `trace_pass` is how many of its
    first requests one traced pass replays; `inputs` holds the text of
    every input, so equal seeds can be compared; `trace_check` receives
    the traced pass's minimum path covers, vertices -> (searches, pushes).
    """

    requests: list[Request]
    warmup: list[Request]
    trace_pass: int
    stride: int = 1
    inputs: dict[str, str] = field(default_factory=dict)
    trace_check: Callable[[dict], None] = lambda path_covers: None


def _write(workdir: str, name: str, text: str, plan_inputs: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    plan_inputs[name] = text
    return path


def _solve(path: str, g: Graph, key: int, problem: str, k: int) -> Request:
    return Request(f"solve {problem} k={k} n={g.n}",
                   lambda resp, seen: check_solve(g, key, problem, k, resp, seen),
                   argv=["solve", problem, "--k", str(k), "--json", path])


# exact-random: request j solves its own graph, so that no two requests
# in a run share a cost. Request j takes the size SIZES[j % 13], degree
# (j // 13) % 2, k from j % 3 and the problem j % 7; the moduli are
# coprime, so any few hundred consecutive requests hold a near-even mix.
# Sizes are fixed and lean small, so that a run holds enough requests
# for a steady p90, while the seed changes structure but not size.
SIZES = (40, 160, 50, 63, 126, 40, 79, 50, 100, 63, 40, 79, 50)
DEGREES = (1.5, 4.0)
WINDOW = 12
SOLVE_KS = (1, 2, 4)
EXACT_SCHEDULE = 300


def exact_random(seed: int, workdir: str) -> Plan:
    """Random DAGs with n from 40 to 160; all seven problems, k 1, 2, 4.

    The warm-up solves all seven problems on one small graph, where all
    problems of one side must report the same value."""
    rng = random.Random(f"exact-random/{seed}")
    plan = Plan([], [], trace_pass=7 * len(SIZES), stride=2 * len(SIZES))
    for j in range(EXACT_SCHEDULE):
        g = random_graph(rng, SIZES[j % len(SIZES)], DEGREES[j // len(SIZES) % 2], WINDOW)
        path = _write(workdir, f"random-{j}.txt", g.text(), plan.inputs)
        plan.requests.append(_solve(path, g, j, SOLVE_ORDER[j % 7], SOLVE_KS[j % 3]))
    g = random_graph(rng, 24, 2.0, 6)
    path = _write(workdir, "warmup.txt", g.text(), plan.inputs)
    plan.warmup = [_solve(path, g, -1, p, 2) for p in SOLVE_ORDER]
    return plan


STAIRCASE_IS = (8, 9, 10, 11)
TIER_IS = (4, 5)
STAIRCASE_CYCLES = 24


def greedy_staircase(seed: int, workdir: str) -> Plan:
    """Requests on the staircase gc 8..11 and tier ga 4..5 families.

    The families are fixed; the seed renames their vertices and orders
    the requests. Each cycle holds every request once, shuffled.
    """
    rng = random.Random(f"greedy-staircase/{seed}")
    cycle: list[Request] = []
    plan = Plan([], [], trace_pass=0)
    for i in STAIRCASE_IS:
        n, edges = staircase_edges(i)
        g = Graph(_named(rng, "s", n), edges)
        path = _write(workdir, f"gc-{i}.txt", g.text(), plan.inputs)
        cycle.append(Request(f"gen gc {i}",
                             lambda resp, seen, i=i, n=n, m=len(edges):
                                 check_gen_gc(i, n, m, resp, seen),
                             argv=["gen", "gc", "--i", str(i), "--check", "--json"]))
        # Round j of the greedy path cover gains 2^(i-j+1) - 1, and the
        # optimal cover of 2 paths bounds every antichain by 2. One
        # chain-cover request makes the cycle 19 kinds of request long: with
        # an odd count, the median of whole cycles falls inside one kind.
        kinds = [("antichains", 2), ("antichains", 3), ("chains", 3)]
        if i == STAIRCASE_IS[0]:
            kinds.append(("chain-cover", 1))
        for kind, k in kinds:
            rounds = i if kind == "chain-cover" else k
            anchor = {"width": 2, "gains": [2 ** (i - j + 1) - 1 for j in range(1, rounds + 1)]}
            cycle.append(Request(f"greedy {kind} k={k} gc {i}",
                                 lambda resp, seen, g=g, kind=kind, k=k, anchor=anchor:
                                     check_greedy(g, kind, k, anchor, resp, seen),
                                 argv=["greedy", kind, "--k", str(k), "--json", path]))
    for i in TIER_IS:
        n, edges = tier_edges(i)
        g = Graph(_named(rng, "t", n), edges)
        path = _write(workdir, f"ga-{i}.txt", g.text(), plan.inputs)
        cycle.append(Request(f"greedy antichain-cover k=1 ga {i}",
                             lambda resp, seen, g=g:
                                 check_greedy(g, "antichain-cover", 1, {"optimal": 2}, resp, seen),
                             argv=["greedy", "antichain-cover", "--k", "1", "--json", path]))
    for _ in range(STAIRCASE_CYCLES):
        rng.shuffle(cycle)
        plan.requests.extend(cycle)
    plan.trace_pass = plan.stride = len(cycle)
    plan.trace_check = check_scaling_table
    plan.warmup = [Request("gen gc 3", lambda resp, seen: check_gen_gc(3, 11, 12, resp, seen),
                           argv=["gen", "gc", "--i", "3", "--check", "--json"])]
    return plan


SMALL_DENSITIES = (0.1, 0.3, 0.5)
SMALL_GRAPHS = 900
# Not 10: oracle.brute_beta recurses once per chain it skips, and a
# 10-vertex DAG of height 10 has 1023 chains, so verify_gk raises
# RecursionError there for k >= 3 (see test_perfbench.py).
SMALL_MAX_N = 9


def verify_small(seed: int, workdir: str) -> Plan:
    """Random DAGs with 2 <= n <= SMALL_MAX_N: each request builds the Dag
    and runs verify_gk for one k in 1..3 (k and density vary independently)."""
    rng = random.Random(f"verify-small/{seed}")
    plan = Plan([], [], trace_pass=300, stride=9)
    for j in range(SMALL_GRAPHS + 1):
        n = rng.randint(2, SMALL_MAX_N)
        p = SMALL_DENSITIES[(j // 3) % 3]
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = Graph([str(v) for v in range(n)], edges)
        k = 1 + j % 3
        plan.inputs[f"small-{j}"] = f"k={k}\n" + g.text()
        req = Request(f"verify_gk n={n} k={k}",
                      lambda resp, seen, g=g, k=k: check_verify(g, k, resp, seen),
                      graph=g, k=k)
        (plan.requests if j < SMALL_GRAPHS else plan.warmup).append(req)
    return plan


WORKLOADS: dict[str, Callable[[int, str], Plan]] = {
    "exact-random": exact_random,
    "greedy-staircase": greedy_staircase,
    "verify-small": verify_small,
}


def scaling_table() -> dict[int, tuple[int, int]]:
    """vertices -> (searches, pushes), read from the table in docs/scaling.md."""
    rows = {}
    with open(SCALING_TABLE) as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 9 and re.fullmatch(r"\d+", cells[0]):
                rows[int(cells[1])] = (int(cells[7]), int(cells[8]))
    return rows


def check_scaling_table(path_covers: dict[int, tuple[int, int]]) -> None:
    """The traced gc 8..11 path covers must repeat the searches and pushes
    columns of docs/scaling.md."""
    table = scaling_table()
    for i in STAIRCASE_IS:
        n = staircase_edges(i)[0]
        _expect(n in table and path_covers.get(n) == table[n],
                f"gc {i}: searches, pushes {path_covers.get(n)} != scaling.md {table.get(n)}")
