"""Command-line front end: solve, greedy, gen, oracle, verify.

One solve per invocation. A command parses its input, calls the
library and reports what it returns: the library certifies each family
against the graph where it builds it and checks each value against its
family where it computes it, so no command checks either again. Exit
codes: 0 on success, 1 on input and usage errors, 2 when values that
must agree do not or any other package error escapes (a witness that
fails its certification, or a family that does not score its value).
JSON output omits wall-clock timings so identical inputs give identical
bytes.

main runs each command with the cyclic garbage collector paused and
turns it back on afterwards if it was on. A command's DAG, network,
flows and report are large acyclic lists and dicts: reference counting
frees them, and collector passes would only re-scan them. The pause is
safe because no command makes reference cycles whose number grows with
its work (the oracle's searches break their own; see oracle). The one
cycle left is constant: json.dumps with indent builds a set of mutually
recursive encoder closures per call, which the collector frees once it
runs again.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
from itertools import chain, filterfalse
from typing import Callable, NoReturn, Optional, Sequence

from . import adversarial, greedy, networks, oracle
from .dagcore import Antichain, Dag, Family, build_dag, knorm_collection
from .errors import (
    BudgetExceeded,
    CycleError,
    DomainError,
    GkError,
    MismatchError,
    ParseError,
)


def parse_dag(text: str) -> tuple[Dag, list[str]]:
    """Parse the dag file format: vertex count, then one 'u v' per line.

    '#' starts a comment; vertex tokens are arbitrary and map to dense
    ids in order of first appearance. The remaining ids are isolated
    vertices. When every token is an integer below n, the file names
    vertices by id and the isolated vertices take the unused ids as
    names, in increasing order. Otherwise each isolated vertex is named
    by its dense id, and a token equal to such a name is an error.

    Lines are those of str.splitlines(). A well-formed file is checked
    and numbered in bulk; a malformed one is walked line by line, only
    to report its first bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))
    edge_rows = rows[1:]
    tokens = list(chain.from_iterable(edge_rows))
    # names in order of first appearance
    ids = dict.fromkeys(tokens)
    try:
        n = int(rows[0][0])
    except (IndexError, ValueError):
        n = -1
    if n < 0 or len(rows[0]) != 1 or not {2}.issuperset(map(len, edge_rows)) or len(ids) > n:
        _raise_parse_error(lines)
    ids = dict(zip(ids, range(len(ids))))
    # one iterator zipped with itself pairs up consecutive tokens
    dense = map(ids.__getitem__, tokens)
    edges = list(zip(dense, dense))
    isolated: list[str] = []
    if len(ids) < n:
        isolated = list(filterfalse(ids.__contains__, map(str, range(n))))
        if len(ids) + len(isolated) != n:
            # some token is not an id, so isolated vertices are named by dense id
            isolated = list(map(str, range(len(ids), n)))
            for name in isolated:
                if name in ids:
                    # the count line cannot hold it: its token reads as n
                    line = next(i for i, toks in enumerate(map(str.split, lines), 1)
                                if name in toks)
                    raise ParseError(
                        f"token {name!r} is also the name of isolated vertex {name}; "
                        "name vertices by id or by tokens that are not ids", line)
    names = list(ids) + isolated
    # the line and token lists and the name index go before the graph is
    # built, for a lower peak
    del lines, rows, edge_rows, tokens, ids, dense
    return build_dag(n, edges), names


def _raise_parse_error(lines: list[str]) -> NoReturn:
    """Raise the ParseError of the first malformed line of a file, its
    comments cut, read as parse_dag's format reads."""
    n: Optional[int] = None
    names: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            continue
        if n is None:
            if len(toks) != 1:
                raise ParseError("expected the vertex count alone on the first line", lineno)
            try:
                n = int(toks[0])
            except ValueError:
                raise ParseError(f"vertex count {toks[0]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            continue
        if len(toks) != 2:
            raise ParseError(f"expected 'u v', got {len(toks)} tokens", lineno)
        names.update(toks)
        if len(names) > n:
            raise ParseError(f"more than {n} distinct vertex names", lineno)
    if n is None:
        raise ParseError("empty input: missing the vertex count", 1)
    raise MismatchError("the bulk checks rejected a well-formed file")


def format_dag(dag: Dag) -> str:
    lines = [str(dag.n)]
    lines.extend(f"{u} {v}" for u, v in dag.edges)
    return "\n".join(lines) + "\n"


def _member_list(member, names: list[str]) -> list[str]:
    if isinstance(member, Antichain):
        return [names[v] for v in sorted(member.vertices)]
    return [names[v] for v in member.vertices]


def _family_lists(family: Family, names: list[str]) -> list[list[str]]:
    return [_member_list(m, names) for m in family.members]


def _read_dag(path: str) -> tuple[Dag, list[str]]:
    with open(path) as fh:
        return parse_dag(fh.read())


def _timings_ms(t0: float, t1: float, t2: float) -> dict[str, float]:
    """Wall-clock milliseconds of the parse and solve phases. The solve
    also certifies its witnesses and checks its value."""
    return {
        "parse": round(1000 * (t1 - t0), 3),
        "solve": round(1000 * (t2 - t1), 3),
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        report = {k: v for k, v in report.items() if k != "timings_ms"}
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if key == "families":
            for name, members in value.items():
                print(f"{name}:")
                for m in members:
                    print("  " + " ".join(m))
        else:
            print(f"{key}: {value}")


SOLVE_PROBLEMS = ("ma-k", "mc-k", "mp-k", "mcp-k", "map-k", "mas-k", "mps-k")


def _cmd_solve(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    dag, names = _read_dag(args.file)
    t1 = time.perf_counter()
    alpha_side = args.problem in ("ma-k", "mps-k", "mcp-k")
    res = (networks.solve_alpha if alpha_side else networks.solve_beta)(dag, args.k)
    # "mcp-k" names res.mcp, and so on for every problem
    sol = getattr(res, args.problem[:-2])
    stats = res.stats
    t2 = time.perf_counter()
    report = {
        "problem": sol.problem,
        "k": args.k,
        "value": sol.value,
        "families": {sol.problem: _family_lists(sol.family, names)},
        "synthetic_members": list(sol.synthetic_members),
        "iterations": {
            "cycle_cancels": stats.iterations,
            "initial_cost": 0,
            "final_cost": stats.final_cost,
        },
        "timings_ms": _timings_ms(t0, t1, t2),
        "certificate": "verified",
    }
    _emit(report, args.json)
    return 0


GREEDY_KINDS = ("chains", "antichains", "chain-cover", "antichain-cover")


def _cmd_greedy(args: argparse.Namespace) -> int:
    if args.k < 1:
        # the message solve gets from networks.build_network
        raise ValueError(f"k must be positive, got {args.k}")
    t0 = time.perf_counter()
    dag, names = _read_dag(args.file)
    t1 = time.perf_counter()
    iterations: dict[str, int] = {}
    families: dict[str, Family] = {}
    if args.kind == "chains":
        fam, trace = greedy.greedy_k_chains(dag, args.k)
        value = fam.coverage()
        families["chains"] = fam
    elif args.kind == "antichains":
        fam, trace = greedy.greedy_k_antichains(dag, args.k)
        value = fam.coverage()
        families["antichains"] = fam
        iterations["decrementing_searches"] = sum(r.searches for r in trace.rounds)
    elif args.kind == "chain-cover":
        paths, partition, trace = greedy.greedy_weighted_chain_cover(dag, args.k)
        value = knorm_collection(paths.members, dag.n, args.k)
        families["paths"] = paths
        families["partition"] = partition
    else:
        taken, partition, trace = greedy.greedy_antichain_cover(dag, args.k)
        value = len(partition)
        families["antichains"] = taken
        families["partition"] = partition
        iterations["decrementing_searches"] = sum(r.searches for r in trace.rounds)
    iterations["rounds"] = len(trace.rounds)
    t2 = time.perf_counter()
    report = {
        "problem": f"greedy-{args.kind}",
        "k": args.k,
        "value": value,
        "gains": trace.gains(),
        "stop_reason": trace.stop_reason,
        "families": {name: _family_lists(f, names) for name, f in families.items()},
        "iterations": iterations,
        "timings_ms": _timings_ms(t0, t1, t2),
        "certificate": "verified",
    }
    _emit(report, args.json)
    return 0


# family -> (the one parameter it takes, its generator in adversarial).
# The generator is looked up by name at each call, so a wrapper put on
# the adversarial module is the one that runs.
GEN_FAMILIES = {
    "chain-ratio": ("k", "gen_chain_ratio"),
    "antichain-ratio": ("k", "gen_antichain_ratio"),
    "gc": ("i", "gen_gc"),
    "ga": ("i", "gen_ga"),
}


def _check_instance(inst: adversarial.AdversarialInstance) -> dict:
    """Compare the actual solvers and greedies against the expected record."""
    exp = inst.expected
    actual: dict[str, int] = {}
    if inst.family == "ChainRatio":
        fam, _ = greedy.greedy_k_chains(inst.dag, inst.param)
        actual = {"optimal": networks.solve_beta(inst.dag, inst.param).beta,
                  "greedy": fam.coverage(), "greedy_members": len(fam)}
    elif inst.family == "AntichainRatio":
        fam, _ = greedy.greedy_k_antichains(inst.dag, inst.param)
        actual = {"optimal": networks.solve_alpha(inst.dag, inst.param).alpha,
                  "greedy": fam.coverage(), "greedy_members": len(fam)}
    elif inst.family == "GreedyPathLower":
        # minimization family: the greedy objective is how many paths it
        # takes to cover everything, against the optimal cover size
        _, partition, trace = greedy.greedy_weighted_chain_cover(inst.dag, 0)
        rounds = len(trace.rounds)
        mpc, _ = greedy.minimum_path_cover(inst.dag)
        actual = {"optimal": mpc, "greedy": rounds, "greedy_members": rounds}
    else:
        _, partition, _ = greedy.greedy_antichain_cover(inst.dag, 1)
        actual = {"optimal": networks.solve_beta(inst.dag, 1).map.value,
                  "greedy": partition.coverage(), "greedy_members": len(partition)}
    mismatches = []
    for key, got in actual.items():
        want = getattr(exp, key)
        if got != want:
            mismatches.append(f"{key}: expected {want}, got {got}")
    if mismatches:
        raise MismatchError(
            f"{inst.family}({inst.param}) check failed: " + "; ".join(mismatches))
    return actual


def _cmd_gen(args: argparse.Namespace) -> int:
    name, generator = GEN_FAMILIES[args.family]
    other = "i" if name == "k" else "k"
    param = getattr(args, name)
    if param is None:
        raise DomainError(f"gen {args.family} needs --{name}")
    if getattr(args, other) is not None:
        raise DomainError(f"gen {args.family} takes --{name}, not --{other}")
    inst = getattr(adversarial, generator)(param)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(format_dag(inst.dag))
    report = {
        "problem": f"gen-{args.family}",
        "k": param,
        "n": inst.dag.n,
        "edges": len(inst.dag.edges),
        "expected": {
            "optimal": inst.expected.optimal,
            "greedy": inst.expected.greedy,
            "greedy_members": inst.expected.greedy_members,
            "optimal_members": inst.expected.optimal_members,
        },
        "output": args.output or "-",
        "certificate": "generated",
    }
    if args.check:
        report["actual"] = _check_instance(inst)
        report["certificate"] = "verified"
    if args.output or args.json:
        _emit(report, args.json)
    else:
        sys.stdout.write(format_dag(inst.dag))
    return 0


ORACLE_PROBLEMS = ("alpha", "beta", "chain-partition", "antichain-partition")


def _cmd_oracle(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    dag, names = _read_dag(args.file)
    budget = oracle.OracleBudget.from_env()
    t1 = time.perf_counter()
    fn = {
        "alpha": oracle.brute_alpha,
        "beta": oracle.brute_beta,
        "chain-partition": oracle.brute_min_knorm_chain_partition,
        "antichain-partition": oracle.brute_min_knorm_antichain_partition,
    }[args.problem]
    value, family = fn(dag, args.k, budget)
    t2 = time.perf_counter()
    report = {
        "problem": f"oracle-{args.problem}",
        "k": args.k,
        "value": value,
        "families": {args.problem: _family_lists(family, names)},
        "timings_ms": _timings_ms(t0, t1, t2),
        "certificate": "verified",
    }
    _emit(report, args.json)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = oracle.run_verification_sweep(args.n, args.trials, args.seed, args.kmax)
    report = {
        "problem": "verify",
        "n_max": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "kmax": args.kmax,
        "checks": len(result.reports),
        "mismatches": result.mismatches,
        "certificate": "verified" if not result.mismatches else "mismatch",
    }
    _emit(report, args.json)
    if result.mismatches:
        raise MismatchError(f"{len(result.mismatches)} trial(s) mismatched")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the code of every
    input error; its subcommand parsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_file_command(sub: argparse._SubParsersAction, name: str, summary: str, choice: str,
                      choices: Sequence[str], func: Callable[[argparse.Namespace], int]) -> None:
    """Add the subcommand ``name`` that takes <choice> --k K [--json] file."""
    p = sub.add_parser(name, help=summary)
    p.add_argument(choice, choices=choices)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gkcover",
        description="Chain/antichain coverage solvers on DAGs (exact, greedy, oracle).")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_file_command(sub, "solve", "exact solve via min-cost circulation",
                      "problem", SOLVE_PROBLEMS, _cmd_solve)
    _add_file_command(sub, "greedy", "greedy approximations", "kind", GREEDY_KINDS, _cmd_greedy)

    p = sub.add_parser("gen", help="adversarial instance generators")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--check", action="store_true",
                   help="run solvers and compare against the expected record")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    _add_file_command(sub, "oracle", "brute-force reference values",
                      "problem", ORACLE_PROBLEMS, _cmd_oracle)

    p = sub.add_parser("verify", help="cross-check solvers against oracles on random DAGs")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built once per process: parsing leaves it
    unchanged, so every call of main can share it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ParseError, CycleError, DomainError, BudgetExceeded, IndexError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GkError as exc:
        # MismatchError, or a certification error from inside a solve
        print(f"mismatch: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
