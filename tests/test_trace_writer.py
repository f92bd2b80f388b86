"""Differential tests: the trace writer, which formats the transcript's
columns, and `Transcript.asked` against the `StepRecord` decoder and the
dict-per-step `json.dumps` reference in `tests/oracles.py`. The writer's
chunks are checked at their boundaries, and its memory against the horizon."""

import io
import os
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, strategies as st
from oracles import StepRecord, naive_write_trace, steps, transcript_of

from limitgen import engine
from limitgen.engine import _CHUNK, CORRECT, MISTAKE, UNKNOWN_VERDICT, RunResult, Transcript
from limitgen.experiments import EXPERIMENTS, run_experiment

VERDICTS = (CORRECT, MISTAKE, UNKNOWN_VERDICT)
INT64_EDGES = (-(2**63), 2**63 - 1)


def _both(header, records, result) -> tuple[str, str]:
    fast, naive = io.StringIO(), io.StringIO()
    engine.write_trace(fast, header, records, result)
    naive_write_trace(naive, header, records, result)
    return fast.getvalue(), naive.getvalue()


def _result(records) -> RunResult:
    return RunResult(
        mistake_times=tuple(r.t for r in records if r.verdict == MISTAKE),
        observed_convergence=0,
        unknown_count=0,
        validity_violations=("repeat@1:2",),
    )


int64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(INT64_EDGES)


@st.composite
def step_lists(draw):
    """Steps 0..n-1 that a transcript can hold: every step reveals a sample
    or none does (sampleless play), and a query comes with its answer."""
    sampleless = draw(st.booleans())
    records = []
    for t in range(draw(st.integers(0, 20))):
        a = draw(st.sampled_from([None, True, False]))
        x = None if sampleless else draw(int64)
        y = None if a is None else draw(int64)
        records.append(StepRecord(t, x, y, a, draw(int64), draw(st.sampled_from(VERDICTS))))
    return records


def _every_code(sampleless: bool) -> list[StepRecord]:
    """All nine answer/verdict codes, with every value at an int64 edge."""
    codes = [(a, v) for a in (None, True, False) for v in VERDICTS]
    return [
        StepRecord(
            t,
            None if sampleless else INT64_EDGES[t % 2],
            None if a is None else INT64_EDGES[(t + 1) % 2],
            a,
            INT64_EDGES[t % 2],
            v,
        )
        for t, (a, v) in enumerate(codes)
    ]


@given(step_lists())
@example(_every_code(sampleless=False))
@example(_every_code(sampleless=True))
def test_writer_matches_json_dumps_reference(records):
    transcript = transcript_of(records)
    assert steps(transcript) == records
    fast, naive = _both({"run": "x", "seed": 0}, transcript, _result(records))
    assert fast == naive


@given(step_lists())
@example(_every_code(sampleless=False))
def test_asked_matches_the_reference_decoder(records):
    transcript = transcript_of(records)
    assert list(transcript.asked()) == [(r.t, r.y, r.a) for r in records if r.y is not None]


def test_writer_matches_reference_on_every_experiment():
    compared = 0
    for ident in EXPERIMENTS:
        _, subs = run_experiment(ident, horizon=100, seed=0)
        for sub in subs:
            fast, naive = _both(sub.header, sub.records, sub.result)
            assert fast == naive, sub.name
            assert list(sub.records.asked()) == [
                (r.t, r.y, r.a) for r in steps(sub.records) if r.y is not None
            ], sub.name
            compared += 1
    assert compared == 252


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("sampleless", [False, True])
@pytest.mark.parametrize("asks", [(), (_CHUNK - 1, _CHUNK)])
def test_writer_matches_reference_across_chunk_boundaries(n, sampleless, asks):
    # the queries straddle the first boundary, and every value is an int64 edge
    records = [
        StepRecord(
            t,
            None if sampleless else INT64_EDGES[t % 2],
            INT64_EDGES[(t + 1) % 2] if t in asks else None,
            (t == _CHUNK - 1) if t in asks else None,
            INT64_EDGES[(t + 1) % 2],
            VERDICTS[t % 3],
        )
        for t in range(n)
    ]
    transcript = transcript_of(records)
    fast, naive = _both({"run": "x", "seed": 0}, transcript, _result(records))
    assert fast == naive
    assert fast.count("\n") == n + 2


def _long_transcript(n: int) -> Transcript:
    """n steps that reveal samples, asking a query at every third step."""
    transcript = Transcript()
    transcript.reveals = array("q", range(n))
    transcript.outputs = array("q", range(-n, 0))
    transcript.queries = array("q", range(0, n, 3))
    transcript.codes = bytearray(3 + t % 6 if t % 3 == 0 else t % 3 for t in range(n))
    return transcript


@pytest.mark.parametrize("n", [20_000, 80_000])
def test_writer_memory_is_flat_in_the_horizon(n):
    transcript = _long_transcript(n)
    result = RunResult(array("q"), 0, 0, ())
    with open(os.devnull, "w") as fp:
        tracemalloc.start()
        try:
            engine.write_trace(fp, {"run": "x", "seed": 0}, transcript, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000, f"{peak} B at {n} steps"
