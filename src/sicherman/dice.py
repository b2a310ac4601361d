"""Dice as label multisets, and the face-enumeration sum oracle.

A die is the multiset of labels on its faces.  Its generating polynomial has
the multiplicity of label j as the coefficient of x^j.  `sum_histogram`
deliberately avoids polynomial arithmetic: it walks every combination of
faces and tallies the sums, so it can serve as an independent check on
anything computed by convolution.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .polyint import IntPoly


class DieError(Exception):
    pass


class NegativeCoefficient(DieError):
    """A polynomial with a negative coefficient is not a die."""


class NonzeroConstantTerm(DieError):
    """A die has no label 0, so its polynomial has constant term 0."""


class Die:
    """An ordered tuple of face labels, each a positive integer."""

    __slots__ = ("labels",)

    labels: tuple[int, ...]

    def __init__(self, labels: Iterable[int]):
        labels = tuple(sorted(map(index, labels)))
        if not labels:
            raise DieError("a die needs at least one face")
        if labels[0] < 1:
            raise DieError("labels must be positive integers")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("Die is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Die) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Die(labels={self.labels!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return Die, (self.labels,)

    @classmethod
    def standard(cls, m: int) -> Die:
        if m < 1:
            raise DieError(f"die size must be positive, got {m}")
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def from_text(cls, text: str) -> Die:
        """Parse a comma-separated label list such as ``1,2,2,3,3,4``."""
        try:
            labels = [int(part) for part in text.split(",")]
        except ValueError:
            raise DieError(f"bad die text {text!r}") from None
        return cls(labels)

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return self.to_text()


def die_to_poly(die: Die) -> IntPoly:
    """Generating polynomial: coefficient of x^j counts faces labeled j."""
    out = [0] * (die.labels[-1] + 1)
    for v in die.labels:
        out[v] += 1
    return IntPoly(out)


def poly_to_die(poly: IntPoly) -> Die:
    """Inverse of `die_to_poly`; rejects polynomials that are not dice."""
    coeffs = poly.coeffs
    # min runs in C; the first negative is located only once one is known
    if min(coeffs, default=0) < 0:
        power, value = poly.first_negative()
        raise NegativeCoefficient(f"coefficient {value} at power {power}")
    if poly[0] != 0:
        raise NonzeroConstantTerm("constant term must be 0")
    labels: list[int] = []
    for j in itertools.compress(range(len(coeffs)), coeffs):
        labels += [j] * coeffs[j]
    return Die(labels)


class SumHistogram(NamedTuple):
    """Frequency of each attainable sum, as a sorted tuple of (sum, count)."""

    entries: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def sum_histogram(dice: Sequence[Die]) -> SumHistogram:
    """Tally sums by enumerating every face combination (no convolution)."""
    if not dice:
        raise DieError("need at least one die")
    counts = Counter(
        sum(faces) for faces in itertools.product(*(d.labels for d in dice))
    )
    return SumHistogram(tuple(sorted(counts.items())))
