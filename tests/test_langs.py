import itertools
import json
import re

import pytest
from hypothesis import given, strategies as st

from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from, zigzag_encode

from oracles import TRUTHS, TranscriptLimitLanguage, naive_elements, zigzag_decode

SAMPLE_LANGUAGES = [
    suffix_from(0),
    suffix_from(3),
    suffix_from(-2),
    NEGATIVES,
    ClosedFormLanguage(frozenset({7}), None, True),
    ClosedFormLanguage(frozenset({0, -1}), 3, False),
    ClosedFormLanguage(frozenset({0, 5}), 8, False),
    ClosedFormLanguage(frozenset({-4, 2, 9}), None, True),  # -4 lies inside the ray
]


def test_member_on_rays_and_negatives():
    assert 3 in suffix_from(3)
    assert 2 not in suffix_from(3)
    assert -7 in ClosedFormLanguage(frozenset({5}), None, True)


def test_finite_only_language_rejected():
    with pytest.raises(ValueError):
        ClosedFormLanguage(frozenset({1, 2}), None, False)


def test_two_ray_language_rejected():
    with pytest.raises(ValueError, match="exactly one ray"):
        ClosedFormLanguage(frozenset({0, -1}), 3, True)
    with pytest.raises(ValueError, match="exactly one ray"):
        ClosedFormLanguage.from_record({"finite_part": [], "tail_start": 3, "include_negatives": True})


def test_enumeration_examples():
    assert next(itertools.islice(suffix_from(0).elements(), 4, None)) == 4
    lang = ClosedFormLanguage(frozenset({7}), None, True)
    assert [next(itertools.islice(lang.elements(), k, None)) for k in range(4)] == [7, -1, -2, -3]
    lang = ClosedFormLanguage(frozenset({-4, 2, 9}), None, True)
    assert [next(itertools.islice(lang.elements(), k, None)) for k in range(7)] == [
        -4, 2, 9, -1, -2, -3, -5
    ]


@pytest.mark.parametrize("lang", SAMPLE_LANGUAGES)
def test_enumeration_injective_and_sound(lang):
    prefix = list(itertools.islice(lang.elements(), 10_000))
    assert len(set(prefix)) == len(prefix)
    for v in prefix[:500]:
        assert v in lang


@pytest.mark.parametrize("lang", SAMPLE_LANGUAGES)
def test_enumeration_complete_on_window(lang):
    prefix = set(itertools.islice(lang.elements(), 4_000))
    for x in range(-1_000, 1_001):
        if x in lang:
            assert x in prefix


LANGUAGES = st.builds(
    lambda finite, tail: ClosedFormLanguage(finite, tail, tail is None),
    st.frozensets(st.integers(-15, 15), max_size=6),
    st.one_of(st.none(), st.integers(-12, 12)),
)


@given(lang=LANGUAGES)
def test_enumeration_matches_remember_everything_reference(lang):
    assert list(itertools.islice(lang.elements(), 200)) == list(
        itertools.islice(naive_elements(lang), 200)
    )


@given(lang=TRUTHS)
def test_record_round_trips_through_json(lang):
    assert ClosedFormLanguage.from_record(json.loads(json.dumps(lang.to_record()))) == lang


@pytest.mark.parametrize(
    "record, error",
    [
        # no key gets a default, and no value is coerced
        ({"finite_part": [1], "include_negatives": 1}, KeyError),
        ({"tail_start": 3, "include_negatives": False}, KeyError),
        ({"finite_part": [1], "tail_start": 3}, KeyError),
        ({"finite_part": [1], "tail_start": None, "include_negatives": 1}, TypeError),
        ({"finite_part": [], "tail_start": 3, "include_negatives": 0}, TypeError),
        ({"finite_part": [True], "tail_start": 3, "include_negatives": False}, TypeError),
        ({"finite_part": [], "tail_start": 3.0, "include_negatives": False}, TypeError),
    ],
)
def test_from_record_refuses_a_record_that_to_record_never_writes(record, error):
    with pytest.raises(error):
        ClosedFormLanguage.from_record(record)


class _Int(int):
    pass


@pytest.mark.parametrize("make", [set, list, tuple, frozenset])
def test_finite_part_is_frozen_once(make):
    given_part = make([3, -1, 3])
    lang = ClosedFormLanguage(given_part, 5, False)
    assert type(lang.finite_part) is frozenset
    assert lang.finite_part == frozenset({3, -1})
    # a frozenset is kept as the same object, anything else is frozen
    assert (lang.finite_part is given_part) == (make is frozenset)


def test_int_subclasses_are_members_and_tails():
    lang = ClosedFormLanguage(frozenset({_Int(2)}), _Int(7), False)
    assert 2 in lang and 7 in lang and 6 not in lang


@pytest.mark.parametrize(
    "finite, tail, negatives, message",
    [
        (frozenset({True}), 5, False, "a finite part member must be an int, got True"),
        ({1.5}, 5, False, "a finite part member must be an int, got 1.5"),
        ([None], 5, False, "a finite part member must be an int, got None"),
        (frozenset(), True, False, "tail_start must be an int or None, got True"),
        (frozenset(), 2.0, False, "tail_start must be an int or None, got 2.0"),
    ],
)
def test_refused_members_and_tails_keep_their_messages(finite, tail, negatives, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        ClosedFormLanguage(finite, tail, negatives)


@pytest.mark.parametrize("lang", [suffix_from(0), suffix_from(-3), NEGATIVES])
def test_bare_ray_enumeration_matches_reference(lang):
    assert list(itertools.islice(lang.elements(), 200)) == list(
        itertools.islice(naive_elements(lang), 200)
    )


def test_zigzag_examples():
    assert zigzag_encode(0) == 0
    assert zigzag_encode(3) == -2
    assert zigzag_decode(2) == 4
    with pytest.raises(ValueError):
        zigzag_encode(-1)


def test_zigzag_round_trip_exhaustive():
    for n in range(100_000):
        assert zigzag_decode(zigzag_encode(n)) == n
    for z in range(-50_000, 50_001):
        assert zigzag_encode(zigzag_decode(z)) == z


def test_normalized_absorbs_overlaps():
    assert ClosedFormLanguage(frozenset({2}), 3, False).normalized() == suffix_from(2)
    assert ClosedFormLanguage(frozenset({-5, 1}), None, True).normalized() == ClosedFormLanguage(
        frozenset({1}), None, True
    )
    assert ClosedFormLanguage(frozenset({-1, 0}), 1, False).normalized() == suffix_from(-1)


# the limit language of an adaptive run: the reference `naive_run` judges
# staged adversaries against


def test_transcript_limit_status():
    limit = TranscriptLimitLanguage(excluded={1})
    limit.seen.update((0, -1))
    assert limit.status(1) == "Out"
    assert limit.status(-5) == "In"
    assert limit.status(42) == "Unknown"


def test_transcript_limit_invariants():
    with pytest.raises(ValueError):
        TranscriptLimitLanguage(excluded={-1})
