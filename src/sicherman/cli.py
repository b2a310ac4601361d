"""Command line front end.

Each subcommand returns (parameters, results, exit code) and prints nothing.
`main` prints either a JSON envelope {"command", "parameters", "results",
"status"} with stable key order, so repeated runs are byte-identical, or
(by default) the subcommand's table, rendered from the parameters and
results alone; integers print in full, whatever their length.  Exit codes:
0 success, 1 a check failed, 2 bad usage, 3 a search cap or node budget was
exceeded, 141 the reader closed stdout before the output was written.  The
envelope's bytes are those of `json.dumps(envelope, indent=2,
sort_keys=True)`, written without that call as one list of pieces
(`_json_pieces`).  `main` writes the list only once every piece is
built, so the output is never copied whole and an error prints nothing
on stdout; a table's lines are written the same way.  Every die
in the results is a `Die` itself: the pair commands' dice, `decompose`'s
recipe and `oracle`'s pairs.  The writer writes each from its
coefficients: one join of a cached table of label texts, each text
repeated as often as its label, so no label tuple is built.  A plain list
of ints is one join of their `str`.  The tables read the labels.  The pair commands keep each `ExponentVector`
too, which the writer writes by filling one cached template per problem.

The argparse parser is built once per process, on the first call to
`main`, and reused: building it costs more than most small commands, and
each parse returns a fresh namespace, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache, lru_cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mul
from typing import Optional, Sequence

from .counting import count_n_dice, count_unbounded
from .cyclotomic import check_identity_suite
from .dice import Die, DieError, sum_histogram
from .oracle import DEFAULT_MAX_NODES, BudgetExceeded, brute_force_pairs
from .solver import (
    CASES,
    CertificateMissing,
    ExponentVector,
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
EXIT_PIPE = 128 + 13  # as a shell reports a process that SIGPIPE ended

SEARCH_CAP_ENV = "SICHERMAN_SEARCH_CAP"

# `verify` enumerates |d1| * |d2| + reference^2 face pairs, about 0.3 us each:
# reference 1414 with two 1414-faced dice, 3,998,792 pairs, took 1.2 s in
# process, and reference 4000 with two 2-faced dice 4.6 s (2 vCPU, CPython
# 3.11).
MAX_VERIFY_FACE_PAIRS = 4_000_000


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


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers") from None


def _pair_results(pairs: Sequence[SolutionPair]) -> dict:
    """The pairs' dice, their vectors and the counts.  Each die and each
    vector is kept as itself: `_json_text` writes a `Die` from its
    coefficients, and an `ExponentVector` as the dict of its entries with
    `str` keys."""
    dice = {side.die.coeffs for p in pairs for side in (p.left, p.right)}
    return {
        "pairs": [[p.left.die, p.right.die] for p in pairs],
        "vectors": [[p.left.vector, p.right.vector] for p in pairs],
        "pair_count": len(pairs),
        "die_count": len(dice),
    }


# -- subcommands: each returns (parameters, results, exit code) ---------------


def cmd_solve(args) -> tuple[dict, dict, int]:
    pairs = enumerate_pairs(args.sides, search_cap=_search_cap())
    return {"sides": args.sides}, _pair_results(pairs), EXIT_OK


def cmd_mixed(args) -> tuple[dict, dict, int]:
    m1, m2 = _int_pair(args.sides, "--sides")
    pairs = enumerate_mixed(m1, m2, search_cap=_search_cap())
    return {"sides": [m1, m2]}, _pair_results(pairs), EXIT_OK


def cmd_unequal(args) -> tuple[dict, dict, int]:
    s1, s2 = _int_pair(args.targets, "--targets")
    pairs = enumerate_unequal(args.sides, s1, s2, search_cap=_search_cap())
    return {"sides": args.sides, "targets": [s1, s2]}, _pair_results(pairs), EXIT_OK


def cmd_decompose(args) -> tuple[dict, dict, int]:
    pair = decompose(args.sides, args.split)
    recipe = decomposition_die_labels(args.sides, args.split)
    match = recipe == pair.right.die
    results = _pair_results([pair])
    results["recipe"] = recipe
    results["recipe_matches"] = match
    parameters = {"sides": args.sides, "split": args.split}
    return parameters, results, EXIT_OK if match else EXIT_FAIL


def cmd_verify(args) -> tuple[dict, dict, int]:
    if len(args.die) != 2:
        raise UsageError("verify needs exactly two --die arguments")
    dice = [Die.from_text(text) for text in args.die]
    face_pairs = len(dice[0].labels) * len(dice[1].labels) + args.reference**2
    if args.reference > 0 and face_pairs > MAX_VERIFY_FACE_PAIRS:
        raise UsageError(
            f"verify would enumerate {face_pairs} face pairs,"
            f" more than the maximum of {MAX_VERIFY_FACE_PAIRS}"
        )
    standard = Die.standard(args.reference)
    got = sum_histogram(dice).as_dict()
    want = sum_histogram([standard, standard]).as_dict()
    first_diff = None
    for s in sorted(set(got) | set(want)):
        if got.get(s, 0) != want.get(s, 0):
            first_diff = {"sum": s, "got": got.get(s, 0), "want": want.get(s, 0)}
            break
    match = first_diff is None
    return (
        {"die": [d.to_text() for d in dice], "reference": args.reference},
        {"match": match, "first_difference": first_diff},
        EXIT_OK if match else EXIT_FAIL,
    )


def cmd_count(args) -> tuple[dict, dict, int]:
    if args.dice is None:
        value = count_unbounded(args.exponent)
    else:
        value = count_n_dice(args.dice, args.exponent)
    return {"dice": args.dice, "exponent": args.exponent}, {"count": value}, EXIT_OK


def cmd_identities(args) -> tuple[dict, dict, int]:
    report = check_identity_suite(args.bound)
    results = {
        "all_passed": report.all_passed,
        "checks": [c._asdict() for c in report.checks],
    }
    return {"bound": args.bound}, results, EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_oracle(args) -> tuple[dict, dict, int]:
    pairs = brute_force_pairs(args.sides, max_nodes=args.max_nodes)
    results = {
        "pairs": [list(pair) for pair in pairs],
        "pair_count": len(pairs),
    }
    return {"sides": args.sides, "max_nodes": args.max_nodes}, results, EXIT_OK


def cmd_certify(args) -> tuple[dict, dict, int]:
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
    return {"case": args.case, "primes": list(primes)}, results, EXIT_OK


# -- tables: each renders (parameters, results) as lines ----------------------


def _labels_text(labels: Sequence[int]) -> str:
    return ",".join(map(str, labels))


def render_pairs(title: str, parameters: dict, results: dict) -> list[str]:
    """The pair table, headed by `title` filled in from `parameters`."""
    lines = [
        f"{title.format(**parameters)}: {results['pair_count']} pairs, "
        f"{results['die_count']} distinct dice"
    ]
    for i, ((a, b), vectors) in enumerate(zip(results["pairs"], results["vectors"]), 1):
        left, right = (" ".join(f"{d}:{c}" for d, c in v.entries) for v in vectors)
        lines.append(f"pair {i}: {_labels_text(a.labels)} | {_labels_text(b.labels)}")
        lines.append(f"        [{left}] | [{right}]")
    return lines


def render_decompose(parameters: dict, results: dict) -> list[str]:
    return [
        *render_pairs("m={sides} split a={split}", parameters, results),
        f"recipe: {_labels_text(results['recipe'].labels)}",
        f"recipe matches expansion: {'yes' if results['recipe_matches'] else 'NO'}",
    ]


def render_verify(parameters: dict, results: dict) -> list[str]:
    diff = results["first_difference"]
    if diff is None:
        return ["MATCH"]
    return [f"MISMATCH at sum {diff['sum']}: got {diff['got']}, want {diff['want']}"]


def render_count(parameters: dict, results: dict) -> list[str]:
    return [str(results["count"])]


def render_identities(parameters: dict, results: dict) -> list[str]:
    return [
        f"{c['name']}: {c['cases']} cases, "
        + ("pass" if c["passed"] else f"FAIL at {c['counterexample']}")
        for c in results["checks"]
    ]


def render_oracle(parameters: dict, results: dict) -> list[str]:
    lines = [f"m={parameters['sides']}: {results['pair_count']} pairs (brute force)"]
    for i, (a, b) in enumerate(results["pairs"], 1):
        lines.append(f"pair {i}: {_labels_text(a.labels)} | {_labels_text(b.labels)}")
    return lines


def render_certify(parameters: dict, results: dict) -> list[str]:
    lines = [f"case {results['case']}, primes {_labels_text(results['primes'])}:"]
    for c in results["certificates"]:
        vector, power, coefficient = tuple(c["vector"]), c["power"], c["coefficient"]
        lines.append(f"vector {vector}: coefficient {coefficient} at x^{power}")
    return lines


# -- parser ------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call only."""
    parser = argparse.ArgumentParser(
        prog="sicherman",
        description="Relabeled dice with standard sum frequencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default table)",
        )
        return p

    p = add("solve", "all pairs of equal-size dice for one size")
    p.set_defaults(func=cmd_solve, render=partial(render_pairs, "m={sides}"))
    p.add_argument("--sides", type=int, required=True, help="die size m")

    p = add("mixed", "pairs matching two different standard sizes")
    p.set_defaults(
        func=cmd_mixed, render=partial(render_pairs, "m={sides[0]},{sides[1]}")
    )
    p.add_argument("--sides", required=True, help="sizes m1,m2")

    p = add("unequal", "pairs with prescribed face counts")
    p.set_defaults(
        func=cmd_unequal,
        render=partial(render_pairs, "m={sides} as {targets[0]}x{targets[1]}"),
    )
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument("--targets", required=True, help="face counts s1,s2")

    p = add("decompose", "divisor decomposition of one size")
    p.set_defaults(func=cmd_decompose, render=render_decompose)
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument("--split", type=int, required=True, help="divisor a of m")

    p = add("verify", "check a pair against standard dice")
    p.set_defaults(func=cmd_verify, render=render_verify)
    p.add_argument(
        "--die", action="append", required=True,
        help="comma-separated labels; give twice",
    )
    p.add_argument("--reference", type=int, required=True, help="standard size m")

    p = add("count", "closed-form counts of factor splits")
    p.set_defaults(func=cmd_count, render=render_count)
    p.add_argument("--dice", type=int, help="number of dice (omit for unbounded)")
    p.add_argument("--exponent", type=int, required=True, help="factor pairs k")

    p = add("identities", "run the cyclotomic identity battery")
    p.set_defaults(func=cmd_identities, render=render_identities)
    p.add_argument("--bound", type=int, default=30, help="parameter bound (default 30)")

    p = add("oracle", "brute-force search without factorization")
    p.set_defaults(func=cmd_oracle, render=render_oracle)
    p.add_argument("--sides", type=int, required=True, help="die size m")
    p.add_argument(
        "--max-nodes", type=int, default=DEFAULT_MAX_NODES,
        help="node budget for the search",
    )

    p = add("certify", "negative coefficients of excluded splits")
    p.set_defaults(func=cmd_certify, render=render_certify)
    p.add_argument("--case", choices=tuple(CASES), required=True)
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")

    return parser


@contextmanager
def _any_length_integers():
    """Lift the interpreter's limit on the digits of an int printed as text
    (CPython 3.10.7 and later) for the block, and restore it after: a count
    such as `count --exponent 10000` has more digits than the default 4300.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# A die whose labels are all below TEXT_TABLE_LIMIT is written from a cached
# table of label texts in place of calling `str` on each label.
TEXT_TABLE_LIMIT = 1 << 16


@cache
def _label_texts(size: int, pad: str) -> tuple[str, ...]:
    """`pad + str(j) + ","` for j in 0 .. size - 1, built once per size and
    nesting: the text of one label j of a die's JSON list.  A table is never
    changed once built, so no caller sees one half made."""
    return tuple([f"{pad}{j}," for j in range(size)])


@lru_cache(maxsize=64)
def _vector_template(divisors: tuple[int, ...], pad: str) -> tuple[str, itemgetter]:
    """The JSON text of an exponent vector over `divisors`, at the nesting
    whose line break and indent are `pad`, as a %-template, and the getter
    that takes its exponents, given in divisor order, into the template's
    order: that of the keys sorted as strings, as `sort_keys` sorts them.
    Every vector of one problem has the same divisors, so one template
    serves them all; the last 64 templates are kept."""
    order = sorted(range(len(divisors)), key=lambda i: str(divisors[i]))
    inner = pad + "  "
    body = ("," + inner).join([f'"{divisors[i]}": %d' for i in order])
    return "{" + inner + body + pad + "}", itemgetter(*order)


def _json_pieces(obj, out: list[str], pad: str = "\n") -> None:
    """Append to `out` the pieces of `obj` as `json.dumps(obj, indent=2,
    sort_keys=True)` writes it, at the nesting whose line break and indent
    are `pad`.  A dict, or a list or tuple that holds more than ints, is
    written piece by piece: each opening or separator with the key that
    follows it, each item's own pieces, and the closing.  Anything else is
    one piece, `_json_text`.  So no text holds more than one leaf, and the
    output is never copied whole."""
    if isinstance(obj, dict) and obj:
        opening, closing = "{}"
        items = ((f"{encode_basestring_ascii(k)}: ", v) for k, v in sorted(obj.items()))
    elif (
        isinstance(obj, (list, tuple))
        and type(obj) is not ExponentVector
        and obj
        and set(map(type, obj)) != {int}
    ):
        opening, closing = "[]"
        items = zip(repeat(""), obj)
    else:
        out.append(_json_text(obj, pad))
        return
    inner = pad + "  "
    separator = opening + inner
    for key, value in items:
        out.append(separator + key)
        _json_pieces(value, out, inner)
        separator = "," + inner
    out.append(pad + closing)


def _json_text(obj, pad: str = "\n") -> str:
    """The text of one piece of `_json_pieces`: `obj` as `json.dumps(obj,
    indent=2, sort_keys=True)` writes it, at the nesting whose line break
    and indent are `pad`.  That call runs the pure-Python encoder; here an
    int is its `str`, and a list of ints one join of their `str`: the long
    int lists, dice labels, come as `Die`s and are written from their
    coefficients, below.  A bool is not exactly an int, so it is not
    written as one.

    A `Die` is written as `json.dumps` writes the list of its labels, but
    from its coefficients, so no label tuple is built: label j, repeated
    coefficient-of-x^j times, is the text `_label_texts` holds at j, and the
    whole list is one join of those texts times the coefficients.  A die
    with a label at or above TEXT_TABLE_LIMIT is written from its labels.

    An `ExponentVector` is written as `json.dumps` writes the dict of its
    entries with `str` keys, by filling `_vector_template` with its
    exponents."""
    if type(obj) is int:
        return str(obj)
    if type(obj) is ExponentVector:
        if not obj.entries:
            return "{}"
        divisors, exponents = zip(*obj.entries)
        template, in_key_order = _vector_template(divisors, pad)
        # itemgetter of one index returns the exponent itself, not a tuple
        return template % in_key_order(exponents)
    if type(obj) is Die:
        coeffs = obj.coeffs
        if len(coeffs) > TEXT_TABLE_LIMIT:
            return _json_text(list(obj.labels), pad)
        texts = _label_texts(1 << (len(coeffs) - 1).bit_length(), pad + "  ")
        # the last text's comma is dropped
        return f"[{''.join(map(mul, texts, coeffs))[:-1]}{pad}]"
    if isinstance(obj, (list, tuple)) and obj:  # only ints, as `_json_pieces` calls it
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(map(str, obj)) + pad + "]"
    return json.dumps(obj)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parameters, results, code = args.func(args)
        with _any_length_integers():
            if args.format == "json":
                envelope = {
                    "command": args.command,
                    "parameters": parameters,
                    "results": results,
                    "status": "ok" if code == EXIT_OK else "fail",
                }
                out: list[str] = []
                _json_pieces(envelope, out)
                out.append("\n")
            else:
                # the table's lines, each followed by a line break, unjoined
                out = [
                    piece
                    for line in args.render(parameters, results)
                    for piece in (line, "\n")
                ]
    except (SearchCapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificateMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, SolverError, DieError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.writelines(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so its fd is pointed at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
