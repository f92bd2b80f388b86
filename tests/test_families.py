import pytest
from hypothesis import given, strategies as st

from limitgen.errors import UnboundedClosureDimension
from limitgen.families import (
    ExplicitCountable,
    RayFamily,
    SuffixFamily,
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
from limitgen.generators import intersection_generator
from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from

from oracles import (
    TINY_HI,
    TINY_LO,
    brute_closure,
    brute_consistent,
    literal_traces,
    members_in,
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
    SuffixFamily(required=frozenset({-3}), offset=4),
    ExplicitCountable(languages=(suffix_from(0), suffix_from(5))),
    ExplicitCountable(
        languages=(suffix_from(0), ClosedFormLanguage(frozenset({5}), None, True))
    ),
    ray_family(),
    ray_prefix_chain().at(3),
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
        assert (family.closure(sample) is not None) == brute_consistent(traces, sample), sample


@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_closure_matches_literal_brute_force(family):
    traces = literal_traces(family)
    pts = window(TINY_LO, TINY_HI)
    for sample in SAMPLES:
        expected = brute_closure(traces, sample)
        got = family.closure(sample)
        if expected is None:
            assert got is None, sample
        else:
            assert got is not None, sample
            assert members_in(got, pts) == expected, sample


@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_intersection_matches_literal_brute_force(family):
    traces = literal_traces(family)
    expected = brute_closure(traces, frozenset())
    got = family.intersection()
    assert members_in(got, window(TINY_LO, TINY_HI)) == expected


def test_consistency_examples():
    assert neg_union().closure({-5, 3}) is not None
    assert marked_neg_union(0).closure({0}) is None
    assert ray_family().closure({-1}) is None


def test_closure_examples():
    got = neg_union().closure({-5, 3})
    assert isinstance(got, ClosedFormLanguage)
    assert got.same_set(ClosedFormLanguage(frozenset({3}), None, True))

    got = suffix_union().closure({2, 9})
    assert got == frozenset({2, 9})

    pair = ExplicitCountable(languages=(suffix_from(0), suffix_from(5)))
    got = pair.closure({6})
    assert isinstance(got, ClosedFormLanguage) and got.same_set(suffix_from(5))


def test_closure_dimension_values():
    assert ray_family().closure_dimension() == 0
    assert ray_prefix_chain().at(3).closure_dimension() == -1
    assert neg_union().closure_dimension() == -1
    assert SuffixFamily(offset=5).closure_dimension() == -1
    with pytest.raises(UnboundedClosureDimension):
        suffix_union().closure_dimension()


def test_ray_family_dimension_witnesses_by_brute_force():
    fam = ray_family()
    traces = literal_traces(fam)
    assert brute_closure(traces, frozenset()) == frozenset()
    for sample in [frozenset({0}), frozenset({2, 4})]:
        trace = brute_closure(traces, sample)
        assert min(sample) in trace
        assert TINY_HI in trace  # window-filling tail: infinite closure


def test_intersection_generator_examples():
    stream = intersection_generator(neg_union())
    assert [stream.step(None) for _ in range(3)] == [-1, -2, -3]

    prefix = ExplicitCountable(languages=tuple(suffix_from(k) for k in range(6)))
    stream = intersection_generator(prefix)
    assert [stream.step(None) for _ in range(3)] == [5, 6, 7]

    assert suffix_union().intersection() == frozenset()
    with pytest.raises(ValueError):
        intersection_generator(suffix_union())


def test_uniform_without_samples_examples():
    assert uniform_without_samples_check(neg_union())
    assert not uniform_without_samples_check(suffix_union())
    assert uniform_without_samples_check(
        ExplicitCountable(languages=(suffix_from(0), suffix_from(1)))
    )


def test_chain_links_shrink_and_stay_infinite():
    chain = ray_prefix_chain()
    pts = window(0, 40)
    previous = None
    for i in range(12):
        core = chain.intersection_at(i)
        assert isinstance(core, ClosedFormLanguage)
        members = members_in(core, pts)
        if previous is not None:
            assert members <= previous
        previous = members


LINK_LO, LINK_HI = -3, 42


@given(
    t=st.integers(0, 40),
    sample=st.frozensets(st.integers(LINK_LO, LINK_HI), max_size=3),
)
def test_chain_links_match_materialized_rays(t, sample):
    link = ray_prefix_chain().at(t)
    naive = naive_ray_prefix_link(t)
    pts = window(LINK_LO, LINK_HI)
    traces = literal_traces(naive, LINK_LO, LINK_HI)
    got, want = link.closure(sample), naive.closure(sample)
    assert (got is not None) == (want is not None) == brute_consistent(traces, sample)
    assert type(got) is type(want)  # both None, both finite or both infinite
    if want is not None:
        assert members_in(got, pts) == members_in(want, pts)
        assert members_in(got, pts) == brute_closure(traces, sample)
    assert link.intersection() == naive.intersection()
    assert literal_traces(link, LINK_LO, LINK_HI) == traces


BUILT_COLLECTIONS = (
    [RayFamily(top=k) for k in range(41)]
    + [ray_family(), neg_union(), suffix_union(), sensitivity_collection()]
    + [make(i) for make in (marked_suffix_union, marked_neg_union, marked_union) for i in range(4)]
    + [
        SuffixFamily(offset=0),
        SuffixFamily(offset=9),
        ExplicitCountable(languages=(suffix_from(5),)),
        ExplicitCountable(languages=(suffix_from(0), suffix_from(5))),
        ExplicitCountable(
            languages=(suffix_from(0), ClosedFormLanguage(frozenset({5}), None, True))
        ),
    ]
)


@pytest.mark.parametrize("family", BUILT_COLLECTIONS, ids=repr)
def test_intersection_is_the_closure_of_no_sample(family):
    # a family that answers its common intersection directly must give what
    # the closure of the empty sample gives
    got, want = family.intersection(), family.closure(())
    assert type(got) is type(want)
    assert got == want


def test_language_intersection_shapes():
    assert language_intersection(suffix_from(-5), NEGATIVES) == frozenset(range(-5, 0))
    got = language_intersection(suffix_from(2), ClosedFormLanguage(frozenset({0, 5}), 4, False))
    assert got == suffix_from(4)
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
    as_sets=st.tuples(st.booleans(), st.booleans()),
)
def test_language_intersection_matches_membership(fin_a, fin_b, tail_a, tail_b, as_sets):
    # a side drawn as a set is its finite part alone: a finite closure
    a = fin_a if as_sets[0] else ClosedFormLanguage(fin_a, tail_a, tail_a is None)
    b = fin_b if as_sets[1] else ClosedFormLanguage(fin_b, tail_b, tail_b is None)
    got = language_intersection(a, b)
    if any(as_sets):
        assert isinstance(got, frozenset)
    for x in range(-40, 41):
        assert (x in got) == (x in a and x in b)


def test_sensitivity_collection_has_finite_core():
    assert not uniform_without_samples_check(sensitivity_collection())
