"""Command line front end.

Every subcommand prints either a human-readable table (default) or a JSON
envelope {"command", "parameters", "results", "status"} with stable key
order, so repeated runs are byte-identical.  Exit codes: 0 success, 1 a
check failed, 2 bad usage, 3 a search cap or node budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .counting import count_n_dice, count_unbounded
from .cyclotomic import check_identity_suite
from .dice import Die, DieError, sum_histogram
from .oracle import DEFAULT_MAX_NODES, BudgetExceeded, brute_force_pairs
from .solver import (
    CertificateMissing,
    SearchCapExceeded,
    SolverError,
    SolutionPair,
    decompose,
    decomposition_die_labels,
    enumerate_mixed,
    enumerate_pairs,
    enumerate_unequal,
    negative_certificates,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

SEARCH_CAP_ENV = "SICHERMAN_SEARCH_CAP"


class UsageError(Exception):
    pass


def _search_cap() -> Optional[int]:
    raw = os.environ.get(SEARCH_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{SEARCH_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError(f"{SEARCH_CAP_ENV} must be positive, got {cap}")
    return cap


def _int_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects two comma-separated integers")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects two comma-separated integers") from None


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers") from None


def _vector_json(side) -> dict[str, int]:
    return {str(d): c for d, c in side.vector.entries}


def _vector_text(side) -> str:
    return "[" + " ".join(f"{d}:{c}" for d, c in side.vector.entries) + "]"


def _pair_results(pairs: Sequence[SolutionPair]) -> dict:
    dice = {side.die.labels for p in pairs for side in (p.left, p.right)}
    return {
        "pairs": [[list(p.left.die.labels), list(p.right.die.labels)] for p in pairs],
        "vectors": [[_vector_json(p.left), _vector_json(p.right)] for p in pairs],
        "pair_count": len(pairs),
        "die_count": len(dice),
    }


def _pair_lines(title: str, pairs: Sequence[SolutionPair]) -> list[str]:
    dice = {side.die.labels for p in pairs for side in (p.left, p.right)}
    lines = [f"{title}: {len(pairs)} pairs, {len(dice)} distinct dice"]
    for i, p in enumerate(pairs, 1):
        lines.append(f"pair {i}: {p.left.die} | {p.right.die}")
        lines.append(f"        {_vector_text(p.left)} | {_vector_text(p.right)}")
    return lines


def _emit(args, parameters: dict, results: dict, lines: list[str], code: int) -> int:
    if args.format == "json":
        envelope = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "status": "ok" if code == EXIT_OK else "fail",
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


# -- subcommands -------------------------------------------------------------


def cmd_solve(args) -> int:
    pairs = enumerate_pairs(args.sides, search_cap=_search_cap())
    return _emit(
        args,
        {"sides": args.sides},
        _pair_results(pairs),
        _pair_lines(f"m={args.sides}", pairs),
        EXIT_OK,
    )


def cmd_mixed(args) -> int:
    m1, m2 = _int_pair(args.sides, "--sides")
    pairs = enumerate_mixed(m1, m2, search_cap=_search_cap())
    return _emit(
        args,
        {"sides": [m1, m2]},
        _pair_results(pairs),
        _pair_lines(f"m={m1},{m2}", pairs),
        EXIT_OK,
    )


def cmd_unequal(args) -> int:
    s1, s2 = _int_pair(args.targets, "--targets")
    pairs = enumerate_unequal(args.sides, s1, s2, search_cap=_search_cap())
    return _emit(
        args,
        {"sides": args.sides, "targets": [s1, s2]},
        _pair_results(pairs),
        _pair_lines(f"m={args.sides} as {s1}x{s2}", pairs),
        EXIT_OK,
    )


def cmd_decompose(args) -> int:
    pair = decompose(args.sides, args.split)
    recipe = decomposition_die_labels(args.sides, args.split)
    match = recipe == pair.right.die
    results = _pair_results([pair])
    results["recipe"] = list(recipe.labels)
    results["recipe_matches"] = match
    lines = _pair_lines(f"m={args.sides} split a={args.split}", [pair])
    lines.append(f"recipe: {recipe}")
    lines.append(f"recipe matches expansion: {'yes' if match else 'NO'}")
    return _emit(
        args,
        {"sides": args.sides, "split": args.split},
        results,
        lines,
        EXIT_OK if match else EXIT_FAIL,
    )


def cmd_verify(args) -> int:
    if len(args.die) != 2:
        raise UsageError("verify needs exactly two --die arguments")
    dice = [Die.from_text(text) for text in args.die]
    got = sum_histogram(dice).as_dict()
    want = sum_histogram(
        [Die.standard(args.reference), Die.standard(args.reference)]
    ).as_dict()
    first_diff = None
    for s in sorted(set(got) | set(want)):
        if got.get(s, 0) != want.get(s, 0):
            first_diff = {"sum": s, "got": got.get(s, 0), "want": want.get(s, 0)}
            break
    match = first_diff is None
    if match:
        lines = ["MATCH"]
    else:
        lines = [
            "MISMATCH at sum {sum}: got {got}, want {want}".format(**first_diff)
        ]
    return _emit(
        args,
        {"die": [d.to_text() for d in dice], "reference": args.reference},
        {"match": match, "first_difference": first_diff},
        lines,
        EXIT_OK if match else EXIT_FAIL,
    )


def cmd_count(args) -> int:
    if args.dice is None:
        value = count_unbounded(args.exponent)
    else:
        value = count_n_dice(args.dice, args.exponent)
    return _emit(
        args,
        {"dice": args.dice, "exponent": args.exponent},
        {"count": value},
        [str(value)],
        EXIT_OK,
    )


def cmd_identities(args) -> int:
    report = check_identity_suite(args.bound)
    results = {
        "all_passed": report.all_passed,
        "checks": [
            {
                "name": c.name,
                "cases": c.cases,
                "passed": c.passed,
                "counterexample": c.counterexample,
            }
            for c in report.checks
        ],
    }
    return _emit(
        args,
        {"bound": args.bound},
        results,
        report.lines(),
        EXIT_OK if report.all_passed else EXIT_FAIL,
    )


def cmd_oracle(args) -> int:
    pairs = brute_force_pairs(args.sides, max_nodes=args.max_nodes)
    results = {
        "pairs": [[list(a.labels), list(b.labels)] for a, b in pairs],
        "pair_count": len(pairs),
    }
    lines = [f"m={args.sides}: {len(pairs)} pairs (brute force)"]
    lines.extend(f"pair {i}: {a} | {b}" for i, (a, b) in enumerate(pairs, 1))
    return _emit(
        args,
        {"sides": args.sides, "max_nodes": args.max_nodes},
        results,
        lines,
        EXIT_OK,
    )


def cmd_certify(args) -> int:
    primes = _int_list(args.primes, "--primes")
    certificates = negative_certificates(args.case, primes)
    results = {
        "case": args.case,
        "primes": list(primes),
        "certificates": [
            {
                "vector": list(c.vector),
                "power": c.power,
                "coefficient": c.coefficient,
            }
            for c in certificates
        ],
    }
    lines = [f"case {args.case}, primes {','.join(map(str, primes))}:"]
    lines.extend(
        f"vector {c.vector}: coefficient {c.coefficient} at x^{c.power}"
        for c in certificates
    )
    return _emit(
        args,
        {"case": args.case, "primes": list(primes)},
        results,
        lines,
        EXIT_OK,
    )


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicherman",
        description="Relabeled dice with standard sum frequencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default table)",
        )
        p.set_defaults(func=func)
        return p

    p = add("solve", cmd_solve, "all pairs of equal-size dice for one size")
    p.add_argument("--sides", type=int, required=True, help="die size m")

    p = add("mixed", cmd_mixed, "pairs matching two different standard sizes")
    p.add_argument("--sides", required=True, help="sizes m1,m2")

    p = add("unequal", cmd_unequal, "pairs with prescribed face counts")
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument("--targets", required=True, help="face counts s1,s2")

    p = add("decompose", cmd_decompose, "divisor decomposition of one size")
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument("--split", type=int, required=True, help="divisor a of m")

    p = add("verify", cmd_verify, "check a pair against standard dice")
    p.add_argument(
        "--die", action="append", required=True,
        help="comma-separated labels; give twice",
    )
    p.add_argument("--reference", type=int, required=True, help="standard size m")

    p = add("count", cmd_count, "closed-form counts of factor splits")
    p.add_argument("--dice", type=int, help="number of dice (omit for unbounded)")
    p.add_argument("--exponent", type=int, required=True, help="factor pairs k")

    p = add("identities", cmd_identities, "run the cyclotomic identity battery")
    p.add_argument("--bound", type=int, default=30, help="parameter bound (default 30)")

    p = add("oracle", cmd_oracle, "brute-force search without factorization")
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument(
        "--max-nodes", type=int, default=DEFAULT_MAX_NODES,
        help="node budget for the search",
    )

    p = add("certify", cmd_certify, "negative coefficients of excluded splits")
    p.add_argument("--case", choices=("p2q", "pqr"), required=True)
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SearchCapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificateMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, SolverError, DieError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
