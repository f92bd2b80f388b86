"""Infinite languages over the integers, with decidable membership and a
canonical injective enumeration.

A language here is always an infinite subset of Z built from three parts:
a finite set, an optional upward tail {j, j+1, ...}, and optionally all
negative integers. That closed form is enough to express every language any
strategy or adversary in this package constructs, while keeping membership
O(log n) and enumeration lazy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

IN = "In"
OUT = "Out"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ClosedFormLanguage:
    """finite_part | [tail_start, inf) | Z_{<0}; at least one infinite part."""

    finite_part: frozenset[int] = frozenset()
    tail_start: int | None = None
    include_negatives: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "finite_part", frozenset(self.finite_part))
        if self.tail_start is None and not self.include_negatives:
            raise ValueError("language must be infinite: add a tail or the negatives")

    def __contains__(self, x: int) -> bool:
        if x in self.finite_part:
            return True
        if self.tail_start is not None and x >= self.tail_start:
            return True
        return self.include_negatives and x < 0

    def elements(self) -> Iterator[int]:
        """Canonical order: finite part ascending, then tail and negatives
        interleaved (tail first), skipping anything already produced.

        With one infinite part the order is the finite part, then the ray
        less the finite part, an iterator of C builtins only. With both,
        `_both_rays` interleaves them.
        """
        finite = self.finite_part
        if self.tail_start is None:
            ray = itertools.count(-1, -1)
        elif not self.include_negatives:
            ray = itertools.count(self.tail_start)
        else:
            return _both_rays(finite, self.tail_start)
        return itertools.chain(sorted(finite), itertools.filterfalse(finite.__contains__, ray))

    def normalized(self) -> "ClosedFormLanguage":
        """Minimal representation of the same set (for set equality checks)."""
        finite = set(self.finite_part)
        tail = self.tail_start
        negs = self.include_negatives
        if negs:
            finite = {v for v in finite if v >= 0}
            if tail is not None and tail <= 0:
                tail = 0  # negatives plus a tail reaching 0 cover everything upward
        if tail is not None:
            finite = {v for v in finite if v < tail}
            while tail - 1 in finite:
                tail -= 1
                finite.discard(tail)
        return ClosedFormLanguage(frozenset(finite), tail, negs)

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
        return cls(
            frozenset(rec.get("finite_part", ())),
            rec.get("tail_start"),
            bool(rec.get("include_negatives", False)),
        )


def _both_rays(finite: frozenset[int], tail_start: int) -> Iterator[int]:
    """`ClosedFormLanguage.elements` for a truth with a tail and the
    negatives: the finite part ascending, then the two rays interleaved,
    tail first. Only finite-part members and the values both rays reach,
    those in [tail_start, -1], can come again, so only the latter are
    remembered: at most |tail_start| values."""
    yield from sorted(finite)
    streams = (itertools.count(tail_start), itertools.count(-1, -1))
    shared_from = min(tail_start, 0)  # both rays reach [shared_from, -1]
    shared: set[int] = set()  # the values of that range produced so far
    while True:
        for stream in streams:
            for v in stream:
                if v in finite:
                    continue
                if shared_from <= v < 0:
                    if v in shared:
                        continue
                    shared.add(v)
                yield v
                break


def suffix_from(j: int) -> ClosedFormLanguage:
    """The upward ray {j, j+1, j+2, ...}."""
    return ClosedFormLanguage(tail_start=j)


NEGATIVES = ClosedFormLanguage(include_negatives=True)


def zigzag_encode(n: int) -> int:
    """Bijection N -> Z: 0, -1, 1, -2, 2, ..."""
    if n < 0:
        raise ValueError("encode takes a natural number")
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


class TranscriptLimitLanguage:
    """The limit language of an adaptive run, known only through certificates.

    `seen` holds members enumerated so far, `excluded` holds elements the
    adversary has committed never to enumerate, and `promised`, the negative
    ray, is guaranteed to end up in the limit.
    """

    promised = NEGATIVES

    def __init__(self, excluded: Iterable[int] = ()) -> None:
        self.seen: set[int] = set()
        self.excluded: set[int] = set(excluded)
        if any(x in self.promised for x in self.excluded):
            raise ValueError("excluded element lies in the promised part")

    def status(self, x: int) -> str:
        if x in self.seen or x in self.promised:
            return IN
        if x in self.excluded:
            return OUT
        return UNKNOWN
