"""Dice as label multisets, and the face-enumeration sum oracle.

A die is the multiset of labels on its faces.  Its generating polynomial has
the multiplicity of label j as the coefficient of x^j.  A `Die` holds either
form: its sorted labels, or the polynomial's coefficient tuple, as every
die the solver and the oracle find holds (`Die.from_coeffs`); the form a
die lacks is built only when it is first read.
`sum_histogram` deliberately avoids polynomial arithmetic: it walks every
combination of faces and tallies the sums, so it can serve as an
independent check on anything computed by convolution.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, product, repeat
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .polyint import IntPoly, first_negative


class DieError(Exception):
    pass


class NegativeCoefficient(DieError):
    """A polynomial with a negative coefficient is not a die."""


class NonzeroConstantTerm(DieError):
    """A die has no label 0, so its polynomial has constant term 0."""


class Die:
    """An ordered tuple of face labels, each a positive integer.

    A die holds one of two forms of the same multiset: its sorted labels, as
    `Die(labels)`, `standard` and `from_text` keep them, or the coefficient
    tuple of its generating polynomial, as `from_coeffs` keeps it.  The form
    it lacks is built the first time it is read (`labels` or `coeffs`) and
    kept; two threads that build it at once build equal tuples.  Equality,
    hashing, `repr`, copies and pickles are those of the labels, whichever
    form is held; two dice that both hold coefficients are compared by
    them, without building labels.

    `Die(labels)` counts no coefficients up front: a die given as text, such
    as ``1,1000000000``, may have a coefficient tuple of gigabytes, while
    comparing, hashing, printing and `sum_histogram` need only its labels.
    """

    __slots__ = ("_labels", "_coeffs")

    def __init__(self, labels: Iterable[int]):
        labels = tuple(sorted(map(index, labels)))
        if not labels:
            raise DieError("a die needs at least one face")
        if labels[0] < 1:
            raise DieError("labels must be positive integers")
        _set_labels(self, labels)
        _set_coeffs(self, None)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> Die:
        """The die of these coefficients, indexed by power, trailing zeros
        dropped; raises NegativeCoefficient, NonzeroConstantTerm or DieError,
        checked in that order, when they are not a die's."""
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        # min runs in C; the first negative is located only once one is known
        if min(cs, default=0) < 0:
            power, value = first_negative(cs)
            raise NegativeCoefficient(f"coefficient {value} at power {power}")
        if cs and cs[0] != 0:
            raise NonzeroConstantTerm("constant term must be 0")
        if not cs:
            raise DieError("a die needs at least one face")
        die = object.__new__(cls)
        _set_labels(die, None)
        _set_coeffs(die, tuple(cs))
        return die

    @property
    def labels(self) -> tuple[int, ...]:
        labels = self._labels
        if labels is None:
            # label j repeated coefficient-of-x^j times, ascending
            labels = tuple(chain.from_iterable(map(repeat, count(), self._coeffs)))
            _set_labels(self, labels)
        return labels

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of the generating polynomial, indexed by power."""
        coeffs = self._coeffs
        if coeffs is None:
            counts = [0] * (self._labels[-1] + 1)
            for v in self._labels:
                counts[v] += 1
            coeffs = tuple(counts)
            _set_coeffs(self, coeffs)
        return coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Die is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Die):
            return False
        if self._coeffs is not None and other._coeffs is not None:
            return self._coeffs == other._coeffs
        return self.labels == other.labels

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
        if self._labels is None:
            return sum(self._coeffs)
        return len(self._labels)

    def __str__(self) -> str:
        return self.to_text()


# The slots' own setters, since Die.__setattr__ refuses every assignment.
_set_labels = Die._labels.__set__
_set_coeffs = Die._coeffs.__set__


def die_to_poly(die: Die) -> IntPoly:
    """Generating polynomial: coefficient of x^j counts faces labeled j."""
    return IntPoly(die.coeffs)


def poly_to_die(poly: IntPoly) -> Die:
    """Inverse of `die_to_poly`; rejects polynomials that are not dice."""
    return Die.from_coeffs(poly.coeffs)


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
        sum(faces) for faces in product(*(d.labels for d in dice))
    )
    return SumHistogram(tuple(sorted(counts.items())))
