"""Parameterized families of languages and their analytic oracles.

A collection is either closed-form or listed. The closed-form families are
intensional: an uncountable family like {A u Z_{<0} | A subset of Z} is
represented by its parameters (a suffix family's required finite set and
optional offset, a negatives family's forbidden finite set), and the rays
{P_k} by an optional top index, never by materializing members; their
closure, closure dimension and common intersection are answered in closed
form (a family's common intersection is the closure of the empty sample,
and the rays answer it without building that closure), and a sample is
consistent exactly when its closure is not None. A
listed collection is a short tuple of languages, answered by exact
intersection. Tests cross-check both against brute-force enumeration on
bounded windows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import UnboundedClosureDimension
from .langs import NEGATIVES, ClosedFormLanguage, suffix_from


def language_intersection(
    a: ClosedFormLanguage | frozenset[int], b: ClosedFormLanguage | frozenset[int]
) -> ClosedFormLanguage | frozenset[int]:
    """Exact intersection of two closed-form languages or finite sets; a
    frozenset when the result is finite."""
    if isinstance(a, frozenset):
        return frozenset(x for x in a if x in b)
    if isinstance(b, frozenset):
        return frozenset(x for x in b if x in a)
    common = {v for v in a.finite_part if v in b} | {v for v in b.finite_part if v in a}
    if a.include_negatives != b.include_negatives:
        # opposite rays meet only in the dip [tail, 0) of the upward one,
        # so the common finite members and that dip are all there is
        tail = b.tail_start if a.include_negatives else a.tail_start
        return frozenset(common.union(range(tail, 0)))
    # the same ray: the narrower one, plus the common members outside it
    ray = NEGATIVES if a.include_negatives else suffix_from(max(a.tail_start, b.tail_start))
    outside = frozenset(v for v in common if v not in ray)
    return ClosedFormLanguage(outside, ray.tail_start, ray.include_negatives)


class CollectionSpec:
    """Common oracle surface for every family variant.

    `closure(sample)` is the intersection of the members consistent with the
    sample, as a plain value: a `ClosedFormLanguage` when it is infinite, a
    frozenset when it is finite (the empty frozenset included), and None
    when no member is consistent. A sample is consistent exactly when its
    closure is not None.
    """

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | frozenset[int] | None:
        raise NotImplementedError

    def closure_dimension(self) -> int:
        raise NotImplementedError

    def intersection(self) -> ClosedFormLanguage | frozenset[int]:
        return self.closure(())


@dataclass(frozen=True)
class SuffixFamily(CollectionSpec):
    """Languages required u A u P_j.

    `offset` pins j; offset=None ranges over all j >= 0.
    """

    required: frozenset[int] = frozenset()
    offset: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        if self.offset is not None and self.offset < 0:
            raise ValueError("suffix offsets are natural numbers")

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | frozenset[int]:
        # every sample is consistent; the tail is the largest admissible j
        core = frozenset(sample) | self.required
        return core if self.offset is None else ClosedFormLanguage(core, self.offset, False)

    def closure_dimension(self) -> int:
        if self.offset is None:
            raise UnboundedClosureDimension(
                "free-offset suffix families admit arbitrarily large finite-closure sets"
            )
        return -1


@dataclass(frozen=True)
class NegFamily(CollectionSpec):
    """Languages A u Z_{<0} with A avoiding the forbidden set."""

    forbidden: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if any(v < 0 for v in self.forbidden):
            raise ValueError("forbidding a negative is vacuous: every member has them all")

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | None:
        sample = frozenset(sample)
        if not sample.isdisjoint(self.forbidden):
            return None
        return ClosedFormLanguage(frozenset(v for v in sample if v >= 0), None, True)

    def closure_dimension(self) -> int:
        return -1  # every closure contains the negative ray


@dataclass(frozen=True)
class RayFamily(CollectionSpec):
    """The rays P_k for 0 <= k <= top, or for every k when top is None.

    The common intersection is the top ray P_top (empty without a top),
    given directly: it is what the closure of the empty sample returns.
    """

    top: int | None = None

    def __post_init__(self) -> None:
        if self.top is not None and self.top < 0:
            raise ValueError("ray indices are natural numbers")

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | frozenset[int] | None:
        sample = frozenset(sample)
        # the consistent rays are those starting at or below the least
        # sample value; the one starting highest is their intersection
        lows = sample if self.top is None else sample | {self.top}
        if not lows:
            return frozenset()
        low = min(lows)
        return None if low < 0 else suffix_from(low)

    def intersection(self) -> ClosedFormLanguage | frozenset[int]:
        return frozenset() if self.top is None else suffix_from(self.top)

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

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | frozenset[int] | None:
        sample = frozenset(sample)
        consistent = [lang for lang in self.languages if all(x in lang for x in sample)]
        return functools.reduce(language_intersection, consistent) if consistent else None


@dataclass(frozen=True)
class UnionSpec(CollectionSpec):
    """Union of component families."""

    parts: tuple[CollectionSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("union of nothing")

    def closure(self, sample: Iterable[int]) -> ClosedFormLanguage | frozenset[int] | None:
        sample = frozenset(sample)
        closures = [c for c in (part.closure(sample) for part in self.parts) if c is not None]
        return functools.reduce(language_intersection, closures) if closures else None


@dataclass(frozen=True)
class ChainSpec:
    """A monotone chain C_0 within C_1 within ..., given by a rule i -> C_i.

    Chain play reads each link once, in order, and asks it only for its
    common intersection, so links are built when asked for and not kept; a
    link that answers its intersection in closed form (a `RayFamily`) costs
    the same at every index.
    """

    rule: Callable[[int], CollectionSpec]

    def at(self, i: int) -> CollectionSpec:
        return self.rule(i)

    def intersection_at(self, i: int) -> ClosedFormLanguage | frozenset[int]:
        return self.at(i).intersection()


def uniform_without_samples_check(spec: CollectionSpec) -> bool:
    """True iff the intersection of all members is infinite."""
    return isinstance(spec.intersection(), ClosedFormLanguage)


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
