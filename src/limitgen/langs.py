"""Infinite languages over the integers, with decidable membership and a
canonical injective enumeration.

A language here is always an infinite subset of Z built from two parts: a
finite set and one ray, either an upward tail {j, j+1, ...} or all negative
integers. That closed form is enough to express every language any strategy
or adversary in this package constructs, while keeping membership O(log n)
and enumeration lazy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


def is_int(v: object) -> bool:
    """An int and not a bool, which is an int to Python but `true` to JSON."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class ClosedFormLanguage:
    """finite_part | [tail_start, inf), or finite_part | Z_{<0} when
    `include_negatives`; exactly one of the two rays."""

    finite_part: frozenset[int] = frozenset()
    tail_start: int | None = None
    include_negatives: bool = False

    def __post_init__(self) -> None:
        # the header writes a language as given, so a bool (written `true`)
        # or a float is refused rather than recorded; a plain int passes
        # the cheap `type` test, and anything else takes the full one
        finite = self.finite_part
        if type(finite) is not frozenset:
            finite = frozenset(finite)
            object.__setattr__(self, "finite_part", finite)
        for v in finite:
            if type(v) is not int and not is_int(v):
                raise TypeError(f"a finite part member must be an int, got {v!r}")
        tail = self.tail_start
        if not (tail is None or type(tail) is int or is_int(tail)):
            raise TypeError(f"tail_start must be an int or None, got {tail!r}")
        if type(self.include_negatives) is not bool:
            raise TypeError(f"include_negatives must be a bool, got {self.include_negatives!r}")
        if (tail is None) != self.include_negatives:
            raise ValueError("a language has exactly one ray: a tail or the negatives")

    def __contains__(self, x: int) -> bool:
        if x in self.finite_part:
            return True
        return x < 0 if self.include_negatives else x >= self.tail_start

    def elements(self) -> Iterator[int]:
        """Canonical order: the finite part ascending, then the ray less the
        finite part, an iterator of C builtins only; with no finite part,
        the bare ray."""
        finite = self.finite_part
        if self.include_negatives:
            ray = itertools.count(-1, -1)
        else:
            ray = itertools.count(self.tail_start)
        if not finite:
            return ray
        return itertools.chain(sorted(finite), itertools.filterfalse(finite.__contains__, ray))

    def normalized(self) -> "ClosedFormLanguage":
        """Minimal representation of the same set (for set equality checks)."""
        tail = self.tail_start
        if tail is None:
            finite = {v for v in self.finite_part if v >= 0}
        else:
            finite = {v for v in self.finite_part if v < tail}
            while tail - 1 in finite:
                tail -= 1
                finite.discard(tail)
        return ClosedFormLanguage(frozenset(finite), tail, self.include_negatives)

    def same_set(self, other: "ClosedFormLanguage") -> bool:
        return self.normalized() == other.normalized()

    def to_record(self) -> dict:
        return {
            "finite_part": sorted(self.finite_part),
            "tail_start": self.tail_start,
            "include_negatives": self.include_negatives,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ClosedFormLanguage":
        """The language `to_record` wrote: each of the three keys is read as
        given, so a missing one is a KeyError and a bad value is refused as
        `__post_init__` refuses it."""
        return cls(rec["finite_part"], rec["tail_start"], rec["include_negatives"])


def suffix_from(j: int) -> ClosedFormLanguage:
    """The upward ray {j, j+1, j+2, ...}."""
    return ClosedFormLanguage(tail_start=j)


NEGATIVES = ClosedFormLanguage(include_negatives=True)


def zigzag_encode(n: int) -> int:
    """Bijection N -> Z: 0, -1, 1, -2, 2, ..."""
    if n < 0:
        raise ValueError("encode takes a natural number")
    return n // 2 if n % 2 == 0 else -(n + 1) // 2

