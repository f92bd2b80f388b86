"""Every adversary trace of the suite is re-verified by replay.

A staged adversary is deterministic given the strategy's outputs, so its
trace header names it, `{"kind": "staged", "construction": ..., "level":
...}`, rather than copying the sets it played and certified. Each test here
reads a trace from its lines alone: it rebuilds the adversary that the
header names, hands a fresh one's `play` the recorded `z` column, and
requires the trace's `x` column, every verdict, `certified_mistake_times`
and `final_stage_mistakes` back, with the summary's mistake times,
convergence and unknown count as the verdicts give them. The strategy is
not rerun.
"""

import io
import json

import pytest

from limitgen import engine
from limitgen.experiments import EXPERIMENTS, run_experiment
from limitgen.sources import StagedAdversary

# the suite's adversary traces at the default horizons, seed 0
ADVERSARY_TRACES = [
    "thm3.1[max_plus_one]",
    "thm3.1[follow_suffix]",
    "thm3.1[omission:0]",
    *(f"thm4.8-adv[i={i}]" for i in range(3)),
    *(f"thm5.2-adv[i={i}]" for i in range(3)),
    *(f"thm5.4-adv[i={i}]" for i in range(5)),
]
VERDICTS = (engine.CORRECT, engine.MISTAKE, engine.UNKNOWN_VERDICT)  # by code
MARKED = ("omission", "noise_prefix")  # the constructions that take a level


@pytest.fixture(scope="module")
def traces() -> dict[str, tuple[dict, list[dict], dict]]:
    """Each adversary trace of the suite as (header, step lines, summary),
    read back from the bytes `write_trace` writes."""
    found = {}
    for ident in EXPERIMENTS:
        for sub in run_experiment(ident, seed=0)[1]:
            if sub.header["source"]["kind"] == "staged":
                buf = io.StringIO()
                engine.write_trace(buf, sub.header, sub.records, sub.result)
                header, *steps, summary = map(json.loads, buf.getvalue().splitlines())
                found[sub.name] = (header["header"], steps, summary["summary"])
    return found


def replay(header: dict, outputs: list[int]) -> tuple:
    """(x column, verdicts, certified mistake times, final-stage mistakes)
    of the adversary the header names, played against `outputs`."""
    source, horizon = header["source"], header["horizon"]
    adversary = StagedAdversary(source["construction"], source["level"])
    records, zs = engine.Transcript(horizon), iter(outputs)
    adversary.play(lambda x: next(zs), records, horizon)
    verdicts = [VERDICTS[code] for code in records.codes]
    times = list(adversary.trigger_times)
    return list(records.reveals), verdicts, times, adversary.final_stage_mistakes(horizon)


def recorded(steps: list[dict], summary: dict) -> tuple:
    """What the trace says `replay` gives back."""
    verdicts = [step["verdict"] for step in steps]
    certified = summary["certified_mistake_times"]
    return [step["x"] for step in steps], verdicts, certified, summary["final_stage_mistakes"]


def test_every_adversary_trace_of_the_suite_is_replayed(traces):
    assert sorted(traces) == sorted(ADVERSARY_TRACES)


@pytest.mark.parametrize("name", ADVERSARY_TRACES)
def test_an_adversary_trace_is_its_adversary_replayed(traces, name):
    header, steps, summary = traces[name]
    # the header names the adversary, not the sets it played or its promise
    assert set(header) == {"run", "mode", "horizon", "source", "experiment", "seed"}
    assert set(header["source"]) == {"kind", "construction", "level"}
    assert header["mode"]["kind"] == engine.STANDARD
    assert [step["t"] for step in steps] == list(range(header["horizon"]))
    assert all(step["a"] is None and step["y"] is None for step in steps)
    xs, verdicts, certified, final = replay(header, [step["z"] for step in steps])
    assert (xs, verdicts, certified, final) == recorded(steps, summary)
    mistakes = [t for t, v in enumerate(verdicts) if v == engine.MISTAKE]
    assert summary["mistake_times"] == mistakes
    assert summary["observed_convergence"] == (mistakes[-1] + 1 if mistakes else 0)
    assert summary["unknown_count"] == verdicts.count(engine.UNKNOWN_VERDICT)


@pytest.mark.parametrize("name", ADVERSARY_TRACES)
def test_a_changed_output_fails_the_replay(traces, name):
    header, steps, summary = traces[name]
    outputs = [step["z"] for step in steps]
    certified = summary["certified_mistake_times"]
    if certified:  # the first trigger's output becomes the value just played
        outputs[certified[0]] = steps[certified[0]]["x"]
    else:  # a value far above every stage's ray triggers at step 0
        outputs[0] = 10**9
    got = replay(header, outputs)
    assert got[2] != certified
    assert got != recorded(steps, summary)


@pytest.mark.parametrize("name", ADVERSARY_TRACES)
def test_a_header_naming_another_level_fails_the_replay(traces, name):
    header, steps, summary = traces[name]
    source = header["source"]
    other = {**header, "source": {**source, "level": source["level"] + 1}}
    outputs = [step["z"] for step in steps]
    if source["construction"] in MARKED:
        assert replay(other, outputs)[0] != recorded(steps, summary)[0]
    else:  # union and sensitivity take level 0 only
        with pytest.raises(ValueError, match="takes level 0 only"):
            replay(other, outputs)
