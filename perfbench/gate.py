"""Correctness gate: golden JSON digests and the face-enumeration referee.

Every op's exit code and stdout are compared byte for byte, through their
SHA-256 digest, with the goldens recorded by `record_goldens.py`.  Every
pair an op returns is also re-checked with `sicherman.dice.sum_histogram`,
which tallies sums by walking every face combination.  The referee runs
once per distinct output, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Optional

from workloads import DATA, op_key

GOLDEN_FILE = DATA / "goldens.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def pair_problem(argv: list[str]) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """(reference sizes, face counts) for ops that return dice pairs."""
    command, flags = argv[0], _flags(argv)
    if command in ("solve", "oracle"):
        m = int(flags["--sides"])
        return (m, m), (m, m)
    if command == "mixed":
        m1, m2 = (int(v) for v in flags["--sides"].split(","))
        return (m1, m2), (m1, m2)
    if command == "unequal":
        m = int(flags["--sides"])
        s1, s2 = (int(v) for v in flags["--targets"].split(","))
        return (m, m), (s1, s2)
    if command == "decompose":
        m, a = int(flags["--sides"]), int(flags["--split"])
        return (m, m), (a, m * m // a)
    return None


class Referee:
    """Checks returned pairs against standard dice by face enumeration."""

    def __init__(self, die_cls, sum_histogram):
        self._die = die_cls
        self._sum_histogram = sum_histogram
        self._standard: dict[tuple[int, int], object] = {}

    def _reference(self, sizes: tuple[int, int]):
        hist = self._standard.get(sizes)
        if hist is None:
            hist = self._sum_histogram([self._die.standard(m) for m in sizes])
            self._standard[sizes] = hist
        return hist

    def check(self, argv: list[str], code: Optional[int], text: str) -> Optional[str]:
        """A reason the output is wrong, or None."""
        problem = pair_problem(argv)
        if problem is None or code != 0:
            return None
        sizes, faces = problem
        try:
            pairs = json.loads(text)["results"]["pairs"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        want = self._reference(sizes)
        for left, right in pairs:
            if (len(left), len(right)) != faces:
                return f"pair {left} | {right} has the wrong face counts"
            got = self._sum_histogram([self._die(tuple(left)), self._die(tuple(right))])
            if got != want:
                return f"pair {left} | {right} does not match standard {sizes}"
        return None


class Gate:
    """Collects op outcomes during the passes and judges them at the end."""

    def __init__(self, referee: Referee):
        self.referee = referee
        self.attempted = 0
        self.outcomes: Counter = Counter()
        self.rejected: dict[tuple[str, str], str] = {}
        self.errors: list[str] = []

    def record(self, argv: list[str], code: Optional[int], text: str) -> None:
        self.attempted += 1
        key = op_key(argv)
        if code is None:
            self.errors.append(f"{key}: {text}")
            return
        d = digest(text)
        if (key, d) not in self.rejected:
            reason = self.referee.check(argv, code, text)
            self.rejected[(key, d)] = reason or ""
        self.outcomes[(key, code, d)] += 1

    def failures(self) -> list[tuple[int, str]]:
        """(occurrences, reason) for every kind of failed op."""
        goldens = load_goldens()["ops"]
        out = [(1, f"raised: {e}") for e in self.errors]
        for (key, code, d), n in sorted(self.outcomes.items()):
            golden = goldens.get(key)
            if golden is None:
                out.append((n, f"{key}: no golden"))
            elif golden["code"] != code:
                out.append((n, f"{key}: exit {code}, golden {golden['code']}"))
            elif golden["sha256"] != d:
                out.append((n, f"{key}: output differs from the golden"))
            elif self.rejected[(key, d)]:
                out.append((n, f"{key}: referee: {self.rejected[(key, d)]}"))
        return out


def load_goldens() -> dict:
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)
