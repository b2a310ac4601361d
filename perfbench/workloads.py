"""Workload definitions: the op lists each benchmark pass runs.

An op is a `sicherman` command line without `--format json`, which the
runner appends.  `solve-large` and `oracle` are fixed lists.  `cli-mix` is
drawn from the recorded draw domain in `data/domain.json` with a seeded
generator, so the program only ever receives the generated argv lists.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DOMAIN_FILE = DATA / "domain.json"

# Three divisor shapes: 60 = p^2*q*r, 72 = p^3*q^2, 96 = p^5*q.  Nearly all
# the time is the solver's per-candidate loop and polynomial products.
SOLVE_LARGE = [["solve", "--sides", str(m)] for m in (60, 72, 96)]

# Brute-force label search; it never reaches polyint, cyclotomic or solver.
ORACLE = [["oracle", "--sides", str(m)] for m in range(12, 21)]

# Entries per stratum when drawing `cli-mix`.  Each command's domain is
# sorted by cost at the recording commit and cut into strata of about this
# many entries; one entry is drawn from each stratum.  A stratum also ends
# where the cost halves, so one slow entry (solve 36, the identity battery
# above bound 12) is never swapped for a cheap one.  That keeps the pass
# time nearly independent of the seed while every entry stays reachable.
STRATUM_SIZE = {
    "solve": 2,
    "mixed": 6,
    "unequal": 4,
    "decompose": 8,
    "verify": 3,
    "count": 6,
    "certify": 5,
    "identities": 8,
}

WORKLOADS = ("solve-large", "cli-mix", "oracle")


def op_key(argv: list[str]) -> str:
    """Golden-table key of one op."""
    return " ".join(argv)


def strata(entries: list[dict], size: int) -> list[list[dict]]:
    """Cut cost-sorted (slowest first) entries into strata."""
    out: list[list[dict]] = []
    current: list[dict] = []
    for entry in entries:
        if current and (
            len(current) >= size or entry["ref_ms"] < current[0]["ref_ms"] / 2
        ):
            out.append(current)
            current = []
        current.append(entry)
    if current:
        out.append(current)
    return out


def draw_mix(domain: dict[str, list[dict]], seed: int) -> list[list[str]]:
    """One entry from every stratum of every command, in a seeded order."""
    rng = random.Random(seed)
    ops = []
    for command, size in STRATUM_SIZE.items():
        for stratum in strata(domain[command], size):
            ops.append(list(rng.choice(stratum)["argv"]))
    rng.shuffle(ops)
    return ops


def load_domain() -> dict[str, list[dict]]:
    with open(DOMAIN_FILE) as fh:
        return json.load(fh)


def workload_ops(name: str, seed: int) -> list[list[str]]:
    if name == "solve-large":
        return [list(op) for op in SOLVE_LARGE]
    if name == "oracle":
        return [list(op) for op in ORACLE]
    if name == "cli-mix":
        return draw_mix(load_domain(), seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
