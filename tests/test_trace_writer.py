"""Differential tests: the hand-formatted trace writer against the
dict-per-step `json.dumps` reference in `tests/oracles.py`."""

import io

from hypothesis import given, strategies as st
from oracles import naive_write_trace

from limitgen import engine
from limitgen.engine import CORRECT, MISTAKE, UNKNOWN_VERDICT, RunResult, StepRecord
from limitgen.experiments import EXPERIMENTS, run_experiment


def _both(header, records, result) -> tuple[str, str]:
    fast, naive = io.StringIO(), io.StringIO()
    engine.write_trace(fast, header, records, result)
    naive_write_trace(naive, header, records, result)
    return fast.getvalue(), naive.getvalue()


maybe_int = st.none() | st.integers() | st.integers(min_value=2**63, max_value=2**200)
step_records = st.builds(
    StepRecord,
    t=st.integers(min_value=0),
    x=maybe_int,
    y=maybe_int,
    a=st.sampled_from([None, True, False]),
    z=st.integers() | st.integers(min_value=-(2**200), max_value=-(2**63)),
    verdict=st.sampled_from([CORRECT, MISTAKE, UNKNOWN_VERDICT]),
)


@given(st.lists(step_records, max_size=20))
def test_writer_matches_json_dumps_reference(records):
    result = RunResult(
        mistake_times=tuple(r.t for r in records if r.verdict == MISTAKE),
        observed_convergence=0,
        unknown_count=0,
        validity_violations=("repeat@1:2",),
    )
    fast, naive = _both({"run": "x", "seed": 0}, records, result)
    assert fast == naive


def test_writer_matches_reference_on_every_experiment():
    compared = 0
    for ident in EXPERIMENTS:
        _, subs = run_experiment(ident, horizon=100, seed=0)
        for sub in subs:
            fast, naive = _both(sub.header, sub.records, sub.result)
            assert fast == naive, sub.name
            compared += 1
    assert compared == 252
