#!/usr/bin/env python3
"""Record the `cli-mix` draw domain and the golden outputs of every op.

    python3 perfbench/record_goldens.py

Run it, from the repository root, only at a commit whose outputs are the
reference: it overwrites `data/domain.json` and `data/goldens.json`.  Each
domain op runs three times; its outputs must agree, its pairs must pass
the face-enumeration referee, and the median latency becomes the cost the
`cli-mix` draw stratifies by (so re-recording changes which ops a seed
draws).  The coprime sweep to 12 must show the 14 nonstandard pairs the
solver really finds; they are recorded as correct.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import subprocess
import sys

from gate import GOLDEN_FILE, Referee, digest
from run import ROOT, import_program, run_op
from workloads import DOMAIN_FILE, ORACLE, SOLVE_LARGE, op_key

REPEATS = 3
PRIMES = (2, 3, 5, 7, 11, 13)
EXPECTED_COPRIME_NONSTANDARD = 14


def build_domain(sicherman) -> dict[str, list[list[str]]]:
    divisors = sys.modules["sicherman.cyclotomic"].divisors
    domain = {
        "solve": [["solve", "--sides", str(m)] for m in range(1, 41)],
        "mixed": [
            ["mixed", "--sides", f"{r},{s}"] for r in range(1, 21) for s in range(1, 21)
        ],
        "unequal": [
            ["unequal", "--sides", str(m), "--targets", f"{a},{m * m // a}"]
            for m in range(1, 25)
            for a in divisors(m * m)
        ],
        "decompose": [
            ["decompose", "--sides", str(m), "--split", str(a)]
            for m in range(1, 121)
            for a in divisors(m)
        ],
        "count": [
            ["count", "--dice", str(n), "--exponent", str(k)]
            for n in range(1, 6)
            for k in range(1, 81)
        ],
        "certify": [
            ["certify", "--case", "p2q", "--primes", ",".join(map(str, ps))]
            for ps in itertools.permutations(PRIMES, 2)
        ]
        + [
            ["certify", "--case", "pqr", "--primes", ",".join(map(str, ps))]
            for ps in itertools.permutations(PRIMES, 3)
        ],
        "identities": [["identities", "--bound", str(b)] for b in range(2, 31)],
    }
    # Matching pairs are every pair the solver returns for m <= 20; each is
    # followed by a mismatching twin whose largest label is raised by one.
    verify = []
    for m in range(1, 21):
        for pair in sicherman.enumerate_pairs(m):
            left, right = (list(d.labels) for d in pair.dice)
            for r in (right, right[:-1] + [right[-1] + 1]):
                verify.append(
                    [
                        "verify",
                        "--die",
                        ",".join(map(str, left)),
                        "--die",
                        ",".join(map(str, r)),
                        "--reference",
                        str(m),
                    ]
                )
    domain["verify"] = verify
    return domain


def record(cli, referee, argv, repeats):
    runs = [run_op(cli, argv + ["--format", "json"]) for _ in range(repeats)]
    codes = {code for _, code, _ in runs}
    texts = {text for _, _, text in runs}
    if len(codes) != 1 or len(texts) != 1 or None in codes:
        raise SystemExit(f"{op_key(argv)}: outputs differ between runs or it raised")
    (_, code, text) = runs[0]
    reason = referee.check(argv, code, text)
    if reason:
        raise SystemExit(f"{op_key(argv)}: referee: {reason}")
    ms = 1000 * statistics.median(dt for dt, _, _ in runs)
    return {"code": code, "sha256": digest(text), "bytes": len(text.encode())}, ms, text


def main() -> int:
    sicherman = import_program()
    cli = sicherman.cli
    referee = Referee(sicherman.dice.Die, sicherman.dice.sum_histogram)
    goldens: dict[str, dict] = {}
    domain_out: dict[str, list[dict]] = {}
    coprime_nonstandard = []

    for command, ops in build_domain(sicherman).items():
        entries = []
        for i, argv in enumerate(ops):
            golden, ms, text = record(cli, referee, argv, REPEATS)
            expected = i % 2 if command == "verify" else 0
            if golden["code"] != expected:
                raise SystemExit(f"{op_key(argv)}: exit {golden['code']}, want {expected}")
            goldens[op_key(argv)] = golden
            entries.append({"argv": argv, "ref_ms": round(ms, 3)})
            if command == "mixed":
                r, s = (int(v) for v in argv[2].split(","))
                if r < s <= 12 and math.gcd(r, s) == 1:
                    standard = [list(range(1, r + 1)), list(range(1, s + 1))]
                    for pair in json.loads(text)["results"]["pairs"]:
                        if pair != standard:
                            coprime_nonstandard.append(pair)
        entries.sort(key=lambda e: -e["ref_ms"])
        domain_out[command] = entries
        print(f"{command}: {len(entries)} ops recorded", flush=True)

    if len(coprime_nonstandard) != EXPECTED_COPRIME_NONSTANDARD:
        raise SystemExit(
            f"coprime sweep to 12 found {len(coprime_nonstandard)} nonstandard "
            f"pairs, expected {EXPECTED_COPRIME_NONSTANDARD}"
        )
    for argv in SOLVE_LARGE + ORACLE:
        golden, ms, _ = record(cli, referee, argv, 1)
        goldens[op_key(argv)] = golden
        print(f"{op_key(argv)}: recorded ({ms:.0f} ms)", flush=True)

    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    with open(DOMAIN_FILE, "w") as fh:
        json.dump(domain_out, fh, indent=1)
        fh.write("\n")
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(
            {
                "recorded_at": commit or "unknown",
                "coprime_nonstandard_pairs_to_12": coprime_nonstandard,
                "ops": dict(sorted(goldens.items())),
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print(f"{len(goldens)} goldens written; {len(coprime_nonstandard)} nonstandard "
          "coprime pairs recorded as correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
