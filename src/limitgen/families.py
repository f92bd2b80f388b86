"""Parameterized families of languages and their analytic oracles.

A collection is either closed-form or listed. The closed-form families are
intensional: an uncountable family like {A u Z_{<0} | A subset of Z} is
represented by its parameters (required and forbidden finite sets), and the
rays {P_k} by an optional top index, never by materializing members; their
consistency, closure, closure dimension and common intersection are answered
in closed form. A listed collection is a short tuple of languages, answered
by exact intersection. Tests cross-check both against brute-force
enumeration on bounded windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import UnboundedClosureDimension
from .langs import ClosedFormLanguage, suffix_from

FINITE = "finite"
INFINITE = "infinite"
NO_CONSISTENT = "no_consistent"


@dataclass(frozen=True)
class ClosureResult:
    """Intersection of all consistent languages: finite set, infinite
    closed-form language, or nothing consistent at all."""

    kind: str
    finite_set: frozenset[int] = frozenset()
    language: ClosedFormLanguage | None = None

    @classmethod
    def finite(cls, members: Iterable[int]) -> "ClosureResult":
        return cls(FINITE, finite_set=frozenset(members))

    @classmethod
    def infinite(cls, language: ClosedFormLanguage) -> "ClosureResult":
        return cls(INFINITE, language=language)

    @classmethod
    def no_consistent(cls) -> "ClosureResult":
        return cls(NO_CONSISTENT)

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE

    def __contains__(self, x: int) -> bool:
        if self.kind == FINITE:
            return x in self.finite_set
        if self.kind == INFINITE:
            return x in self.language
        return False


def language_intersection(
    a: ClosedFormLanguage, b: ClosedFormLanguage
) -> ClosedFormLanguage | frozenset[int]:
    """Exact intersection of two closed-form languages; a frozenset when the
    result is finite."""
    tail = None
    if a.tail_start is not None and b.tail_start is not None:
        tail = max(a.tail_start, b.tail_start)
    negatives = a.include_negatives and b.include_negatives
    finite = {v for v in a.finite_part if v in b}
    finite |= {v for v in b.finite_part if v in a}
    # a tail dipping below zero meets the other side's negative ray
    for lo, hi in ((a, b), (b, a)):
        if lo.tail_start is not None and lo.tail_start < 0 and hi.include_negatives:
            finite.update(range(lo.tail_start, 0))
    if tail is not None:
        finite = {v for v in finite if v < tail}
    if negatives:
        finite = {v for v in finite if v >= 0}
    if tail is None and not negatives:
        return frozenset(finite)
    return ClosedFormLanguage(frozenset(finite), tail, negatives)


def closure_intersection(a: ClosureResult, b: ClosureResult) -> ClosureResult:
    if a.kind == NO_CONSISTENT or b.kind == NO_CONSISTENT:
        raise ValueError("cannot intersect with an inconsistent closure")
    if a.kind == FINITE or b.kind == FINITE:
        fin, other = (a, b) if a.kind == FINITE else (b, a)
        return ClosureResult.finite(x for x in fin.finite_set if x in other)
    merged = language_intersection(a.language, b.language)
    if isinstance(merged, frozenset):
        return ClosureResult.finite(merged)
    return ClosureResult.infinite(merged)


class CollectionSpec:
    """Common oracle surface for every family variant. A sample is consistent
    unless its closure finds no consistent language."""

    def consistent(self, sample: Iterable[int]) -> bool:
        return self.closure(sample).kind != NO_CONSISTENT

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        raise NotImplementedError

    def closure_dimension(self) -> int:
        raise NotImplementedError

    def intersection(self) -> ClosureResult:
        return self.closure(())


@dataclass(frozen=True)
class SuffixFamily(CollectionSpec):
    """Languages required u A u P_j with A avoiding the forbidden set.

    `offset` pins j; offset=None ranges over all j >= 0.
    """

    required: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    offset: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.required & self.forbidden:
            raise ValueError("required and forbidden sets must be disjoint")
        if self.offset is not None and self.offset < 0:
            raise ValueError("suffix offsets are natural numbers")

    def _offset_cap(self, sample: frozenset[int]) -> int | None:
        """Largest admissible j for the sample, or None when unbounded.

        Raises ValueError when no j works (inconsistent sample).
        """
        blocked = sample & self.forbidden
        low = self.offset if self.offset is not None else 0
        if blocked:
            # forbidden sample elements must be swept up by the tail
            cap = min(blocked)
            if cap < low:
                raise ValueError("no admissible offset")
            return self.offset if self.offset is not None else cap
        return self.offset  # None means unbounded when offsets are free

    def consistent(self, sample: Iterable[int]) -> bool:
        try:
            self._offset_cap(frozenset(sample))
        except ValueError:
            return False
        return True

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        sample = frozenset(sample)
        try:
            cap = self._offset_cap(sample)
        except ValueError:
            return ClosureResult.no_consistent()
        core = sample | self.required
        if cap is None:
            return ClosureResult.finite(core)
        return ClosureResult.infinite(ClosedFormLanguage(core, cap, False))

    def closure_dimension(self) -> int:
        if self.offset is None:
            raise UnboundedClosureDimension(
                "free-offset suffix families admit arbitrarily large finite-closure sets"
            )
        return -1


@dataclass(frozen=True)
class NegFamily(CollectionSpec):
    """Languages required u A u Z_{<0} with A avoiding the forbidden set."""

    required: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.required & self.forbidden:
            raise ValueError("required and forbidden sets must be disjoint")
        if any(v < 0 for v in self.forbidden):
            raise ValueError("forbidding a negative is vacuous: every member has them all")

    def consistent(self, sample: Iterable[int]) -> bool:
        return all(x < 0 or x in self.required or x not in self.forbidden for x in sample)

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        sample = frozenset(sample)
        if not self.consistent(sample):
            return ClosureResult.no_consistent()
        core = frozenset(v for v in (sample | self.required) if v >= 0)
        return ClosureResult.infinite(ClosedFormLanguage(core, None, True))

    def closure_dimension(self) -> int:
        return -1  # every closure contains the negative ray


@dataclass(frozen=True)
class RayFamily(CollectionSpec):
    """The rays P_k for 0 <= k <= top, or for every k when top is None."""

    top: int | None = None

    def __post_init__(self) -> None:
        if self.top is not None and self.top < 0:
            raise ValueError("ray indices are natural numbers")

    def consistent(self, sample: Iterable[int]) -> bool:
        return all(x >= 0 for x in sample)

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        sample = frozenset(sample)
        if not self.consistent(sample):
            return ClosureResult.no_consistent()
        # the consistent rays are those starting at or below the least
        # sample value; the one starting highest is their intersection
        lows = sample if self.top is None else sample | {self.top}
        if not lows:
            return ClosureResult.finite(())
        return ClosureResult.infinite(suffix_from(min(lows)))

    def closure_dimension(self) -> int:
        # without a top the empty sample has an empty closure; with one,
        # every closure contains the top ray
        return 0 if self.top is None else -1


@dataclass(frozen=True)
class ExplicitCountable(CollectionSpec):
    """A finite, explicitly listed collection of languages, answered by
    exact intersection of the listed members."""

    languages: tuple[ClosedFormLanguage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "languages", tuple(self.languages))

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        sample = frozenset(sample)
        consistent = [
            lang for lang in self.languages if all(x in lang for x in sample)
        ]
        if not consistent:
            return ClosureResult.no_consistent()
        result = ClosureResult.infinite(consistent[0])
        for lang in consistent[1:]:
            result = closure_intersection(result, ClosureResult.infinite(lang))
        return result


@dataclass(frozen=True)
class UnionSpec(CollectionSpec):
    """Union of component families."""

    parts: tuple[CollectionSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("union of nothing")

    def consistent(self, sample: Iterable[int]) -> bool:
        sample = frozenset(sample)
        return any(part.consistent(sample) for part in self.parts)

    def closure(self, sample: Iterable[int]) -> ClosureResult:
        sample = frozenset(sample)
        live = [part for part in self.parts if part.consistent(sample)]
        if not live:
            return ClosureResult.no_consistent()
        result = live[0].closure(sample)
        for part in live[1:]:
            result = closure_intersection(result, part.closure(sample))
        return result


@dataclass(frozen=True)
class ChainSpec:
    """A monotone chain C_0 within C_1 within ..., given by a rule i -> C_i.

    Chain play reads each link once, in order, and asks it only for its
    common intersection, so links are built when asked for and not kept.
    """

    rule: Callable[[int], CollectionSpec]

    def at(self, i: int) -> CollectionSpec:
        return self.rule(i)

    def intersection_at(self, i: int) -> ClosureResult:
        return self.at(i).intersection()


def uniform_without_samples_check(spec: CollectionSpec) -> bool:
    """True iff the intersection of all members is infinite."""
    return spec.intersection().is_infinite


# --- the standing cast of collections -------------------------------------


def suffix_union() -> SuffixFamily:
    """All of {A u P_j}: non-uniformly generatable, empty common core."""
    return SuffixFamily()


def neg_union() -> NegFamily:
    """All of {A u Z_{<0}}: uniformly generatable without samples."""
    return NegFamily()


def marked_suffix_union(i: int) -> SuffixFamily:
    """{A u P_j} with markers {0..i} required in every member."""
    return SuffixFamily(required=frozenset(range(i + 1)))


def marked_neg_union(i: int) -> NegFamily:
    """{A u Z_{<0}} with markers {0..i} forbidden in every member."""
    return NegFamily(forbidden=frozenset(range(i + 1)))


def marked_union(i: int) -> UnionSpec:
    """Union of the two marked families: members either carry all markers
    (suffix side) or none of them (negatives side)."""
    return UnionSpec((marked_suffix_union(i), marked_neg_union(i)))


def ray_family() -> RayFamily:
    """The countable family of rays {P_k | k in N}."""
    return RayFamily()


def sensitivity_collection() -> UnionSpec:
    """Rays joined with the negative-ray family; generatable at any fixed
    noise level, not with unknown noise."""
    return UnionSpec((ray_family(), neg_union()))


def ray_prefix_chain() -> ChainSpec:
    """C_t = {P_0, ..., P_t}: the canonical growing chain of ray families.

    Link t is answered in closed form, so it holds no rays and costs the same
    at every t.
    """
    return ChainSpec(lambda t: RayFamily(top=t))
