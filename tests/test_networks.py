import os
import subprocess
import sys

import pytest

from gkcover import flowcore, networks
from gkcover import (
    Antichain,
    Chain,
    Family,
    build_dag,
    knorm_collection,
    knorm_partition,
    random_dag,
    solve_alpha,
    solve_beta,
)
from gkcover.adversarial import gen_gc
from gkcover.errors import InfeasibleFlowError, MismatchError, NotChainError
from gkcover.flowcore import (
    INF,
    check_distances,
    find_negative_cycle,
    min_cost_circulation,
    residual,
    zero_flow,
)
from gkcover.networks import (
    ALPHA,
    BETA,
    COVER,
    OVERFLOW,
    build_network,
    chains_from_paths,
    height_levels,
    normalize_beta,
)

from conftest import FIG_ALPHA, FIG_BETA, FIG_EDGES
from flow_reference import arcs


class TestNetworkLayout:
    def test_arc_ids_and_bounds(self, fig):
        gk = build_network(fig, 2, ALPHA)
        n = fig.n
        records = arcs(gk)
        assert len(records) == 4 * n + len(fig.edges) + 1
        assert gk.s == 2 * n and gk.t == 2 * n + 1
        for v in range(n):
            entry = records[gk.entry(v)]
            assert (entry.tail, entry.head) == (2 * n, 2 * v)
            e1 = records[gk.gadget(v, COVER)]
            assert (e1.tail, e1.head, e1.upper, e1.cost) == (2 * v, 2 * v + 1, 1, -1)
            e2 = records[gk.gadget(v, OVERFLOW)]
            assert (e2.tail, e2.head, e2.cost) == (2 * v, 2 * v + 1, 0)
            assert e2.upper >= INF
            exit_ = records[gk.exit(v)]
            assert (exit_.tail, exit_.head) == (2 * v + 1, 2 * n + 1)
        for j, (u, v) in enumerate(fig.edges):
            a = records[4 * n + j]
            assert (a.tail, a.head) == (2 * u + 1, 2 * v)
        assert gk.ts_arc == len(records) - 1

    def test_return_arc_alpha_vs_beta(self, fig):
        a = arcs(build_network(fig, 3, ALPHA))[-1]
        assert (a.lower, a.cost) == (0, 3) and a.upper >= INF
        b = arcs(build_network(fig, 3, BETA))[-1]
        assert (b.lower, b.upper, b.cost) == (0, 3, 0)

    def test_k_must_be_positive(self, fig):
        with pytest.raises(ValueError):
            build_network(fig, 0, ALPHA)


class TestSolveAlpha:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_and_witnesses(self, fig, k):
        res = solve_alpha(fig, k)
        assert res.alpha == FIG_ALPHA[k]
        assert res.ma.value == res.mps.value == res.mcp.value == res.alpha
        assert len(res.ma.family) <= k
        assert res.ma.family.coverage() == res.alpha
        assert knorm_collection(res.mps.family.members, fig.n, k) == res.alpha
        assert knorm_partition(res.mcp.family, fig.n, k) == res.alpha

    def test_alpha2_circulation_cost(self, fig):
        res = solve_alpha(fig, 2)
        assert res.stats.final_cost == FIG_ALPHA[2] - fig.n == -1

    def test_alpha2_antichains(self, fig):
        res = solve_alpha(fig, 2)
        got = {frozenset(a.vertices) for a in res.ma.family.members}
        assert got == {frozenset({0, 1, 2, 3}), frozenset({5, 6, 7, 8})}

    def test_degenerate_falls_back_to_levels(self, fig):
        # k = height: zero circulation is optimal, levels must cover.
        res = solve_alpha(fig, 3)
        got = [sorted(a.vertices) for a in res.ma.family.members]
        assert got == [sorted(lv) for lv in height_levels(fig)]

    def test_isolated_vertices(self):
        iso = build_dag(3, [])
        res = solve_alpha(iso, 1)
        assert res.alpha == 3
        assert [sorted(a.vertices) for a in res.ma.family.members] == [[0, 1, 2]]

    def test_empty_graph(self):
        res = solve_alpha(build_dag(0, []), 2)
        assert res.alpha == 0 and len(res.ma.family) == 0

    def test_stats_flags(self, fig):
        for k in (1, 2, 3):
            st = solve_alpha(fig, k).stats
            assert st.iterations <= -st.final_cost


class TestSolveBeta:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_and_witnesses(self, fig, k):
        res = solve_beta(fig, k)
        assert res.beta == FIG_BETA[k]
        assert res.mp.value == res.mc.value == res.mas.value == res.map.value == res.beta
        assert len(res.mp.family) == k
        assert len(res.mc.family) <= k
        assert res.mc.family.coverage() == res.beta
        assert knorm_collection(res.mas.family.members, fig.n, k) == res.beta
        assert knorm_partition(res.map.family, fig.n, k) == res.beta

    def test_beta1_longest_chain(self, fig):
        res = solve_beta(fig, 1)
        assert [c.vertices for c in res.mc.family.members] == [(0, 4, 7)]

    def test_beta1_antichain_collection(self, fig):
        res = solve_beta(fig, 1)
        got = {frozenset(a.vertices) for a in res.mas.family.members}
        assert got == {frozenset({0, 1, 2, 3}), frozenset({5, 6, 7, 8})}
        # one uncovered vertex + k per member = 1 + 2 = beta_1
        assert knorm_collection(res.mas.family.members, fig.n, 1) == 3

    def test_padding_marks_synthetic_paths(self):
        one = build_dag(1, [])
        res = solve_beta(one, 3)
        assert res.beta == 1
        assert [p.vertices for p in res.mp.family.members] == [(0,), (0,), (0,)]
        assert res.mp.synthetic_members == (1, 2)

    def test_path_count_is_k_even_when_padded(self):
        two = build_dag(2, [(0, 1)])
        res = solve_beta(two, 3)
        assert res.beta == 2 and len(res.mp.family) == 3
        assert res.mp.family.coverage() == 2

    def test_empty_graph(self):
        res = solve_beta(build_dag(0, []), 2)
        assert res.beta == 0 and len(res.mp.family) == 0

    def test_stats_flags(self, fig):
        for k in (1, 2, 3):
            st = solve_beta(fig, k).stats
            assert st.iterations <= -st.final_cost


class TestChainExtraction:
    def test_keep_first_assignment(self, fig):
        from gkcover import GraphPath
        paths = [GraphPath((0, 4, 7)), GraphPath((1, 4, 8))]
        fam = chains_from_paths(fig, paths)
        got = [c.vertices for c in fam.members]
        assert got == [(0, 4, 7), (1, 8)]  # 4 stays with its first path

    def test_non_chain_sequence_raises(self):
        # A remnant of a graph path is always a chain, so only a sequence
        # that is not a path can fail certification.
        from gkcover import GraphPath
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(NotChainError):
            chains_from_paths(dag, [GraphPath((0, 2))])


class TestValueChecks:
    """Value checks raise MismatchError, which python -O does not strip."""

    def _off_by_one(self, monkeypatch):
        real = networks.knorm_collection
        monkeypatch.setattr(networks, "knorm_collection",
                            lambda members, n, k: real(members, n, k) + 1)

    def test_alpha_mismatch(self, fig, monkeypatch):
        self._off_by_one(monkeypatch)
        with pytest.raises(MismatchError, match="path collection norm"):
            solve_alpha(fig, 2)

    def test_beta_mismatch(self, fig, monkeypatch):
        self._off_by_one(monkeypatch)
        with pytest.raises(MismatchError, match="antichain collection norm"):
            solve_beta(fig, 2)

    def test_mismatch_survives_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, networks\n"
            "from gkcover.errors import MismatchError\n"
            "real = networks.knorm_partition\n"
            "networks.knorm_partition = lambda fam, n, k: real(fam, n, k) + 1\n"
            "try:\n"
            "    networks.solve_alpha(build_dag(3, [(0, 1)]), 1)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mismatch: chain partition norm")

    # alpha at k = 3 routes nothing and takes the height levels instead
    @pytest.mark.parametrize("kind,k", [(ALPHA, 1), (ALPHA, 2), (BETA, 1), (BETA, 3)])
    def test_perturbed_labels_are_a_mismatch(self, fig, kind, k):
        gk = build_network(fig, k, kind)
        circ = min_cost_circulation(gk)
        cap = circ.cap if kind == ALPHA else residual(gk, normalize_beta(gk, circ.flow))
        networks.extract_antichains(gk, cap, circ.labels)
        for v in range(gk.m):
            for delta in (-1, 1):
                labels = list(circ.labels)
                labels[v] += delta
                with pytest.raises(MismatchError):
                    networks.extract_antichains(gk, cap, labels)

    def test_perturbed_labels_survive_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, networks\n"
            "from gkcover.errors import MismatchError\n"
            "from gkcover.flowcore import min_cost_circulation\n"
            "gk = networks.build_network(build_dag(3, [(0, 1)]), 1, networks.ALPHA)\n"
            "circ = min_cost_circulation(gk)\n"
            "labels = list(circ.labels)\n"
            "labels[gk.v_in(2)] -= 1\n"
            "try:\n"
            "    networks.extract_antichains(gk, circ.cap, labels)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mismatch: ")


class TestPaperGuarantees:
    """At most alpha_k / k augmentations for problem Alpha and beta_1
    equal to the height (Mirsky), checked by MismatchError."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hold_on_the_figure(self, fig, k):
        result = solve_alpha(fig, k)
        assert result.stats.iterations * k <= result.alpha
        assert solve_beta(fig, 1).beta == len(height_levels(fig))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inflated_augmentation_count(self, fig, monkeypatch, k):
        # alpha_k // k augmentations pass, one more does not
        real = networks.min_cost_circulation
        extra = []

        def inflated(gk):
            circ = real(gk)
            circ.iterations = (circ.final_cost + gk.n) // gk.k + len(extra)
            return circ

        monkeypatch.setattr(networks, "min_cost_circulation", inflated)
        alpha = solve_alpha(fig, k).alpha
        extra.append(1)
        with pytest.raises(MismatchError, match=f"{alpha // k + 1} augmentations at k={k} "
                                                f"exceed alpha_k / k for alpha_k={alpha}$"):
            solve_alpha(fig, k)

    def test_split_height_level(self, fig, monkeypatch):
        # one level split in two is still a valid topological order, but
        # one level too many for the longest chain
        real = networks.height_levels

        def split_first(dag):
            first, *rest = real(dag)
            return [first[:1], first[1:], *rest]

        monkeypatch.setattr(networks, "height_levels", split_first)
        with pytest.raises(MismatchError, match="beta_1 = 3 differs from the height 4"):
            solve_beta(fig, 1)
        solve_beta(fig, 2)

    def test_checks_survive_optimized_python(self):
        picked = tuple(i for i, (message, *_) in enumerate(VALUE_CHECKS) if message.startswith(
            ("overflow used", "return arc", "antichain partition")))
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, networks\n"
            "from gkcover.errors import MismatchError\n"
            "dag = build_dag(3, [(0, 1)])\n"
            "real_solve, real_levels = networks.min_cost_circulation, networks.height_levels\n"
            "def inflated(gk):\n"
            "    circ = real_solve(gk)\n"
            "    circ.iterations += 3\n"
            "    return circ\n"
            "networks.min_cost_circulation = inflated\n"
            "try:\n"
            "    networks.solve_alpha(dag, 1)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n"
            "networks.min_cost_circulation = real_solve\n"
            "networks.height_levels = lambda d: [[v] for lv in real_levels(d) for v in lv]\n"
            "try:\n"
            "    networks.solve_beta(dag, 1)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "mismatch: 4 augmentations at k=1 exceed alpha_k / k for alpha_k=2",
            "mismatch: beta_1 = 2 differs from the height 3"]


# A stub for the call just before each value check, which makes exactly
# that check fail on the figure: each takes the real function (or
# constant) and returns its replacement.

def _overflow_without_cover(real):
    def solve(gk):
        circ = real(gk)
        v = next(v for v in range(gk.n) if circ.flow[gk.gadget(v, COVER)])
        circ.flow[gk.gadget(v, COVER)] -= 1
        circ.flow[gk.gadget(v, OVERFLOW)] += 1
        return circ
    return solve


def _k_raised_after_solve(real):
    def solve(gk):
        circ = real(gk)
        gk.k += 1
        return circ
    return solve


def _zero_circulation(real):
    def solve(gk):
        circ = real(gk)
        circ.flow, circ.iterations, circ.final_cost = zero_flow(gk), 0, 0
        return circ
    return solve


def _solved_for_k_plus_1(real):
    return lambda gk: real(build_network(gk.dag, gk.k + 1, gk.kind))


def _raised_label(node, by):
    """A stub for extract_antichains that raises one node's label."""
    def stub(real):
        def extract(gk, cap, labels, reduced):
            labels = list(labels)
            labels[node(gk)] += by
            return real(gk, cap, labels, reduced)
        return extract
    return stub


def _split_first_member(real):
    def split(*args):
        first, *rest = real(*args).members
        if isinstance(first, Antichain):
            vs = sorted(first.vertices)
            head, tail = Antichain(frozenset(vs[:1])), Antichain(frozenset(vs[1:]))
        else:
            head, tail = Chain(first.vertices[:1]), Chain(first.vertices[1:])
        return Family((head, tail, *rest), disjoint=True)
    return split


def _drop_last_member(real):
    return lambda *args: Family(real(*args).members[:-1], disjoint=True)


def _one_vertex_chains(real):
    def chains(dag, paths):
        members = real(dag, paths).members
        return Family(tuple(Chain((v,)) for c in members for v in c.vertices), disjoint=True)
    return chains


def _last_path_cut_to_one_vertex(real):
    def peel(gk, f):
        *rest, (path, gadget) = real(gk, f)
        return [*rest, (path[:1], gadget)]
    return peel


# (message, solver, k, {name in networks: stub})
VALUE_CHECKS = [
    ("overflow used at vertex 0 while its cover arc is empty", "solve_alpha", 2,
     {"min_cost_circulation": _overflow_without_cover}),
    ("label spread 2 differs from k=3", "solve_alpha", 2,
     {"min_cost_circulation": _k_raised_after_solve}),
    # exact labels never break the next two checks, so the distance check
    # that proves them exact is stubbed too
    ("selected level 12 outside 1..2", "solve_alpha", 2,
     {"check_distances": lambda real: lambda *args: None,
      "extract_antichains": _raised_label(lambda gk: gk.v_in(0), 10)}),
    ("label spread -8 negative", "solve_beta", 2,
     {"check_distances": lambda real: lambda *args: None,
      "extract_antichains": _raised_label(lambda gk: gk.t, 10)}),
    ("an extracted chain is shorter than k", "solve_alpha", 2,
     {"chains_from_paths": _one_vertex_chains}),
    ("antichain coverage 4 != alpha 8", "solve_alpha", 2,
     {"extract_antichains": _drop_last_member}),
    ("3 antichains for k=2", "solve_alpha", 2,
     {"extract_antichains": _split_first_member}),
    ("zero circulation optimal at height 3 > k=2", "solve_alpha", 2,
     {"min_cost_circulation": _zero_circulation}),
    ("return arc carries 3 units, more than k=2", "solve_beta", 2,
     {"min_cost_circulation": _solved_for_k_plus_1}),
    # padding through vertex 0's cover arc, which costs -1 a unit
    ("padding changed the circulation cost", "solve_beta", 6,
     {"OVERFLOW": lambda real: COVER}),
    ("expected k=2 paths, got 1", "solve_beta", 2,
     {"peel_paths": lambda real: lambda gk, f: real(gk, f)[:-1]}),
    ("path coverage 3 != beta 5", "solve_beta", 2,
     {"peel_paths": _last_path_cut_to_one_vertex}),
    ("chain coverage 2 != beta 5", "solve_beta", 2,
     {"chains_from_paths": _drop_last_member}),
    ("3 chains for k=2", "solve_beta", 2,
     {"chains_from_paths": _split_first_member}),
    ("antichain partition norm 6 != beta 5", "solve_beta", 2,
     {"knorm_partition": lambda real: lambda fam, n, k: real(fam, n, k) + 1}),
]


class TestEveryValueCheckFires:
    """Each value check of the solvers raises its own message once the
    call just before it is stubbed to return something wrong."""

    @pytest.mark.parametrize("message,solver,k,stubs", VALUE_CHECKS,
                             ids=[" ".join(c[0].split()[:3]) for c in VALUE_CHECKS])
    def test_check_fires(self, fig, monkeypatch, message, solver, k, stubs):
        for name, stub in stubs.items():
            monkeypatch.setattr(networks, name, stub(getattr(networks, name)))
        with pytest.raises(MismatchError) as info:
            getattr(networks, solver)(fig, k)
        assert str(info.value) == message

    def test_checks_survive_optimized_python(self):
        picked = tuple(i for i, (message, *_) in enumerate(VALUE_CHECKS) if message.startswith(
            ("overflow used", "return arc", "antichain partition")))
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, networks\n"
            "from gkcover.errors import MismatchError\n"
            "from conftest import FIG_EDGES\n"
            "from test_networks import VALUE_CHECKS\n"
            f"for message, solver, k, stubs in (VALUE_CHECKS[i] for i in {picked}):\n"
            "    real = {name: getattr(networks, name) for name in stubs}\n"
            "    for name, stub in stubs.items():\n"
            "        setattr(networks, name, stub(real[name]))\n"
            "    try:\n"
            "        getattr(networks, solver)(build_dag(9, FIG_EDGES), k)\n"
            "    except MismatchError as exc:\n"
            "        print('mismatch:', exc)\n"
            "    for name, fn in real.items():\n"
            "        setattr(networks, name, fn)\n")
        here = os.path.dirname(__file__)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "mismatch: " + VALUE_CHECKS[i][0] for i in picked]
        assert len(picked) == 3


class TestOneReducedCostPass:
    """An exact solve computes the reduced costs of each distinct residual
    graph once, and the pass it shares is never reused for other
    capacities or labels."""

    # (solver, DAG, k, units beta pads, reduced-cost passes, residual() builds)
    CASES = {
        "alpha": (solve_alpha, build_dag(9, FIG_EDGES), 2, None, 1, 2),
        "unpadded beta": (solve_beta, build_dag(9, FIG_EDGES), 2, 0, 1, 2),
        "padded beta": (solve_beta, gen_gc(4).dag, 4, 2, 2, 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_passes_and_builds_per_solve(self, monkeypatch, case):
        solver, dag, k, padded, passes, builds = self.CASES[case]
        if solver is solve_beta:
            gk = build_network(dag, k, BETA)
            assert k - min_cost_circulation(gk).flow[gk.ts_arc] == padded
        counts = {"_slack": 0, "residual": 0}

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(flowcore, "_slack", counted("_slack", flowcore._slack))
        build = counted("residual", flowcore.residual)
        monkeypatch.setattr(flowcore, "residual", build)
        monkeypatch.setattr(networks, "residual", build)
        solver(dag, k)
        assert counts == {"_slack": passes, "residual": builds}

    @pytest.mark.parametrize("kind", [ALPHA, BETA])
    def test_perturbed_cap_gets_a_new_pass(self, fig, kind):
        gk = build_network(fig, 2, kind)
        circ = min_cost_circulation(gk)
        check_distances(gk, circ.cap, gk.s, circ.labels, circ.reduced)
        fired = 0
        for r, x in enumerate(circ.cap):
            cap = list(circ.cap)
            cap[r] = 0 if x > 0 else 1
            try:
                check_distances(gk, cap, gk.s, circ.labels)
            except MismatchError:
                fired += 1
                with pytest.raises(MismatchError):
                    check_distances(gk, cap, gk.s, circ.labels, circ.reduced)
                with pytest.raises(MismatchError):
                    networks.extract_antichains(gk, cap, circ.labels, circ.reduced)
        assert fired > 0

    def test_lists_changed_in_place_get_a_new_pass(self, fig):
        gk = build_network(fig, 2, ALPHA)
        circ = min_cost_circulation(gk)
        circ.labels[gk.v_in(0)] -= 1
        with pytest.raises(MismatchError):
            networks.extract_antichains(gk, circ.cap, circ.labels, circ.reduced)
        circ.labels[gk.v_in(0)] += 1
        tail, head, cost, _ = gk._paired
        d = circ.labels
        r = next(r for r, x in enumerate(circ.cap)
                 if x == 0 and d[tail[r]] + cost[r] < d[head[r]])
        circ.cap[r] = 1
        with pytest.raises(MismatchError):
            networks.extract_antichains(gk, circ.cap, circ.labels, circ.reduced)

    @pytest.mark.parametrize("labels", [lambda d: d[:-1], lambda d: [*d, 0]],
                             ids=["one short", "one over"])
    def test_wrong_label_count_is_a_mismatch(self, fig, labels):
        gk = build_network(fig, 2, ALPHA)
        circ = min_cost_circulation(gk)
        d = labels(circ.labels)
        for check in (lambda: check_distances(gk, circ.cap, gk.s, d, circ.reduced),
                      lambda: networks.extract_antichains(gk, circ.cap, d, circ.reduced),
                      lambda: find_negative_cycle(gk, circ.cap, d, circ.reduced)):
            with pytest.raises(MismatchError, match="labels for a residual graph"):
                check()

    def test_pass_does_not_vouch_for_other_capacities(self, fig):
        gk = build_network(fig, 2, ALPHA)
        circ = min_cost_circulation(gk)
        # the zero flow is not optimal, so its residual graph has a negative cycle
        cap = residual(gk, zero_flow(gk))
        assert find_negative_cycle(gk, cap, circ.labels, circ.reduced) is not None

    def test_perturbed_cap_survives_optimized_python(self):
        script = (
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "from gkcover import build_dag, networks\n"
            "from gkcover.errors import MismatchError\n"
            "from gkcover.flowcore import min_cost_circulation\n"
            "gk = networks.build_network(build_dag(3, [(0, 1)]), 1, networks.ALPHA)\n"
            "circ = min_cost_circulation(gk)\n"
            "tail, head, cost, _ = gk._paired\n"
            "d = circ.labels\n"
            "circ.cap[next(r for r, x in enumerate(circ.cap)\n"
            "              if x == 0 and d[tail[r]] + cost[r] < d[head[r]])] = 1\n"
            "try:\n"
            "    networks.extract_antichains(gk, circ.cap, d, circ.reduced)\n"
            "except MismatchError as exc:\n"
            "    print('mismatch:', exc)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mismatch: residual arc")

    def test_padded_flow_is_checked(self, fig, monkeypatch):
        # one more unit on vertex 0's entry arc and nowhere else
        monkeypatch.setattr(networks, "normalize_beta", lambda gk, f: [f[0] + 1, *f[1:]])
        with pytest.raises(InfeasibleFlowError, match="conservation fails"):
            solve_beta(fig, 2)


class TestSolutionScores:
    """Every solution's value is the score of its family under the public
    scorer of its problem."""

    @pytest.mark.parametrize("dag", [
        build_dag(9, FIG_EDGES),
        *(random_dag(12, t, 4) for t in range(3)),
    ], ids=["fig", "random-0", "random-1", "random-2"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_problem_kinds(self, dag, k):
        a = solve_alpha(dag, k)
        b = solve_beta(dag, k)
        for sol in (a.ma, b.mc, b.mp):
            assert sol.family.coverage() == sol.value
        for sol in (a.mps, b.mas):
            assert knorm_collection(sol.family.members, dag.n, k) == sol.value
        for sol in (a.mcp, b.map):
            assert knorm_partition(sol.family, dag.n, k) == sol.value
        assert [sol.value for sol in (a.ma, a.mps, a.mcp)] == [a.alpha] * 3
        assert [sol.value for sol in (b.mp, b.mc, b.mas, b.map)] == [b.beta] * 4


def test_height_levels(fig):
    levels = height_levels(fig)
    assert [sorted(lv) for lv in levels] == [[0, 1, 2, 3], [4, 5, 6], [7, 8]]
    assert height_levels(build_dag(0, [])) == []
