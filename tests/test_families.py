import itertools

import pytest
from hypothesis import given, strategies as st

from limitgen.errors import IndexBoundExceeded, UnboundedClosureDimension
from limitgen.families import (
    INFINITE,
    NO_CONSISTENT,
    ClosureResult,
    ExplicitCountable,
    NegFamily,
    SuffixFamily,
    UnionSpec,
    collection_by_name,
    intersection_stream,
    language_intersection,
    marked_neg_union,
    marked_suffix_union,
    marked_union,
    neg_union,
    ray_family,
    ray_prefix_chain,
    sensitivity_collection,
    suffix_union,
    uniform_without_samples_check,
)
from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from

from oracles import (
    TINY_HI,
    TINY_LO,
    brute_closure,
    brute_consistent,
    literal_traces,
    naive_ray_prefix_link,
    window,
)

TINY_FAMILIES = [
    suffix_union(),
    neg_union(),
    marked_suffix_union(1),
    marked_neg_union(1),
    marked_union(0),
    SuffixFamily(offset=2),
    SuffixFamily(required=frozenset({-3}), forbidden=frozenset({1}), offset=None),
    ExplicitCountable(languages=(suffix_from(0), suffix_from(5))),
    ExplicitCountable(
        languages=(suffix_from(0), ClosedFormLanguage(frozenset({5}), None, True))
    ),
]

SAMPLES = [
    frozenset(),
    frozenset({0}),
    frozenset({-5, 3}),
    frozenset({2, 4}),
    frozenset({-1}),
    frozenset({0, 1, -2}),
    frozenset({1}),
    frozenset({5, -6, 2}),
]


@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_consistency_matches_literal_brute_force(family):
    traces = literal_traces(family)
    for sample in SAMPLES:
        assert family.consistent(sample) == brute_consistent(traces, sample), sample


@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_closure_matches_literal_brute_force(family):
    traces = literal_traces(family)
    pts = window(TINY_LO, TINY_HI)
    for sample in SAMPLES:
        expected = brute_closure(traces, sample)
        got = family.closure(sample)
        if expected is None:
            assert got.kind == NO_CONSISTENT, sample
        else:
            assert got.kind != NO_CONSISTENT, sample
            assert got.members_in(pts) == expected, sample


@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_intersection_matches_literal_brute_force(family):
    traces = literal_traces(family)
    expected = brute_closure(traces, frozenset())
    got = family.intersection()
    assert got.members_in(window(TINY_LO, TINY_HI)) == expected


def test_consistency_examples():
    assert neg_union().consistent({-5, 3})
    assert not marked_neg_union(0).consistent({0})
    assert not ray_family().consistent({-1})


def test_closure_examples():
    got = neg_union().closure({-5, 3})
    assert got.kind == INFINITE
    assert got.language.same_set(ClosedFormLanguage(frozenset({3}), None, True))

    got = suffix_union().closure({2, 9})
    assert got == ClosureResult.finite({2, 9})

    pair = ExplicitCountable(languages=(suffix_from(0), suffix_from(5)))
    got = pair.closure({6})
    assert got.kind == INFINITE and got.language.same_set(suffix_from(5))


def test_closure_dimension_values():
    assert ray_family().closure_dimension() == 0
    assert neg_union().closure_dimension() == -1
    assert SuffixFamily(offset=5).closure_dimension() == -1
    with pytest.raises(UnboundedClosureDimension):
        suffix_union().closure_dimension()
    with pytest.raises(UnboundedClosureDimension):
        marked_union(1).closure_dimension()
    # computed for finite lists: {5} u negatives meets the ray P0 in exactly {5}
    pair = ExplicitCountable(
        languages=(suffix_from(0), ClosedFormLanguage(frozenset({5}), None, True))
    )
    assert pair.closure_dimension() == 1
    assert ExplicitCountable(languages=(suffix_from(0), suffix_from(5))).closure_dimension() == -1


def test_ray_family_dimension_witnesses_by_brute_force():
    fam = ray_family()
    traces = literal_traces(fam)
    assert brute_closure(traces, frozenset()) == frozenset()
    for sample in [frozenset({0}), frozenset({2, 4})]:
        trace = brute_closure(traces, sample)
        assert min(sample) in trace
        assert TINY_HI in trace  # window-filling tail: infinite closure


def test_intersection_stream_examples():
    stream = intersection_stream(neg_union())
    assert list(itertools.islice(stream, 3)) == [-1, -2, -3]

    prefix = ExplicitCountable(languages=tuple(suffix_from(k) for k in range(6)))
    assert list(itertools.islice(intersection_stream(prefix), 3)) == [5, 6, 7]

    assert intersection_stream(suffix_union()) == frozenset()


def test_uniform_without_samples_examples():
    assert uniform_without_samples_check(neg_union())
    assert not uniform_without_samples_check(suffix_union())
    assert uniform_without_samples_check(
        ExplicitCountable(languages=(suffix_from(0), suffix_from(1)))
    )


def test_projection_identity_on_marked_union():
    for level in range(3):
        removed = frozenset(range(level + 1))
        projected = marked_union(level).project(removed)
        suffix_part, neg_part = projected.parts
        assert suffix_part == SuffixFamily(
            frozenset(), removed, None, level + 1
        )
        assert neg_part == NegFamily(frozenset(), removed)
        # oracle-level agreement with the directly-constructed projection
        direct = UnionSpec(
            (SuffixFamily(forbidden=removed, min_offset=level + 1), NegFamily(forbidden=removed))
        )
        pts = window(-10, 10)
        for sample in SAMPLES:
            assert projected.consistent(sample) == direct.consistent(sample)
            a, b = projected.closure(sample), direct.closure(sample)
            assert (a.kind == NO_CONSISTENT) == (b.kind == NO_CONSISTENT)
            if a.kind != NO_CONSISTENT:
                assert a.members_in(pts) == b.members_in(pts)


def test_projection_simple_cases():
    got = ExplicitCountable(languages=(suffix_from(0),)).project({0})
    assert got.languages == (suffix_from(1),)
    got = NegFamily(required=frozenset({0})).project({0})
    assert got == NegFamily(frozenset(), frozenset({0}))
    with pytest.raises(ValueError):
        neg_union().project({-1})


def test_projection_closure_commutes_on_neg_families():
    fam = neg_union()
    removed = frozenset({0, 3})
    projected = fam.project(removed)
    pts = window(-10, 10)
    for sample in [frozenset(), frozenset({-5, 4}), frozenset({1})]:
        before = fam.closure(sample)
        after = projected.closure(sample)
        if after.kind == NO_CONSISTENT:
            assert sample & removed
            continue
        expect = {x for x in before.members_in(pts) if x not in removed}
        assert after.members_in(pts) == frozenset(expect)


def test_chain_links_shrink_and_stay_infinite():
    chain = ray_prefix_chain()
    pts = window(0, 40)
    previous = None
    for i in range(12):
        core = chain.intersection_at(i)
        assert core.kind == INFINITE
        members = core.members_in(pts)
        if previous is not None:
            assert members <= previous
        previous = members


LINK_LO, LINK_HI = -3, 15


@given(
    t=st.integers(0, 11),
    sample=st.frozensets(st.integers(LINK_LO, LINK_HI), max_size=3),
)
def test_chain_links_match_materialized_rays(t, sample):
    link = ray_prefix_chain().at(t)
    naive = naive_ray_prefix_link(t)
    pts = window(LINK_LO, LINK_HI)
    traces = literal_traces(naive, LINK_LO, LINK_HI)
    assert link.consistent(sample) == naive.consistent(sample) == brute_consistent(traces, sample)
    got, want = link.closure(sample), naive.closure(sample)
    assert got.kind == want.kind
    assert got.members_in(pts) == want.members_in(pts)
    if want.kind != NO_CONSISTENT:
        assert got.members_in(pts) == brute_closure(traces, sample)
    assert link.intersection() == naive.intersection()
    assert link.closure_dimension() == naive.closure_dimension()
    assert literal_traces(link, LINK_LO, LINK_HI) == traces


def test_chain_consistency_search():
    chain = ray_prefix_chain(index_bound=50)
    assert chain.consistent({3})
    with pytest.raises(IndexBoundExceeded):
        chain.consistent({-1})


def test_rule_based_bounds():
    fam = ExplicitCountable(rule=suffix_from, index_bound=40)
    assert fam.consistent({3})
    with pytest.raises(IndexBoundExceeded):
        fam.consistent({-1})
    with pytest.raises(IndexBoundExceeded):
        fam.closure({3})
    with pytest.raises(IndexBoundExceeded):
        fam.closure_dimension()


def test_language_intersection_shapes():
    assert language_intersection(suffix_from(-5), NEGATIVES) == frozenset(range(-5, 0))
    got = language_intersection(suffix_from(-5), ClosedFormLanguage(frozenset(), 3, True))
    assert got == ClosedFormLanguage(frozenset(range(-5, 0)), 3, False)
    assert language_intersection(NEGATIVES, suffix_from(0)) == frozenset()
    got = language_intersection(
        ClosedFormLanguage(frozenset({1, -9}), None, True),
        ClosedFormLanguage(frozenset({1, 4}), 8, False),
    )
    assert got == frozenset({1})


@given(
    fin_a=st.frozensets(st.integers(-8, 8), max_size=3),
    fin_b=st.frozensets(st.integers(-8, 8), max_size=3),
    tail_a=st.one_of(st.none(), st.integers(-6, 8)),
    tail_b=st.one_of(st.none(), st.integers(-6, 8)),
    negs_a=st.booleans(),
    negs_b=st.booleans(),
)
def test_language_intersection_matches_membership(fin_a, fin_b, tail_a, tail_b, negs_a, negs_b):
    if tail_a is None and not negs_a:
        negs_a = True
    if tail_b is None and not negs_b:
        negs_b = True
    a = ClosedFormLanguage(fin_a, tail_a, negs_a)
    b = ClosedFormLanguage(fin_b, tail_b, negs_b)
    got = language_intersection(a, b)
    for x in range(-40, 41):
        assert (x in got) == (x in a and x in b)


def test_collection_names_resolve():
    assert collection_by_name("C1") == suffix_union()
    assert collection_by_name("C2") == neg_union()
    assert collection_by_name("C^i:2") == marked_union(2)
    assert collection_by_name("P:3").languages == (suffix_from(3),)
    with pytest.raises(ValueError):
        collection_by_name("nope")


def test_sensitivity_collection_has_finite_core():
    assert not uniform_without_samples_check(sensitivity_collection())
