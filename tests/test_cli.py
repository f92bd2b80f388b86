import dataclasses
import errno
import json
import re
import weakref

import pytest

from limitgen import cli, engine, experiments
from limitgen.cli import main
from limitgen.engine import Mode
from limitgen.errors import DuplicateSubRun
from limitgen.experiments import EXPERIMENTS, SummaryRow, emit_summary
from limitgen.generators import FollowSuffix, Generator
from limitgen.langs import suffix_from
from limitgen.sources import ScriptedSource, ScriptedSpec, StagedAdversary

from oracles import FaultyStagedAdversary

SPEC_IDS = [
    "thm3.1",
    "alg1-2-equiv",
    "alg3-chain",
    "thm4.3-check",
    "thm4.5-omissions",
    "thm4.8-omit-i",
    "thm5.2-noise-i",
    "thm5.4-sensitivity",
    "alg4-feedback",
    "alg5-queries",
    "alg6-identify",
    "appendixA-repetition",
]


def test_registry_covers_all_ids():
    for ident in SPEC_IDS:
        assert ident in EXPERIMENTS


def test_list_and_describe(capsys):
    assert main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert set(SPEC_IDS) <= set(listed)
    assert main(["--describe"]) == 0
    described = capsys.readouterr().out
    for ident in SPEC_IDS:
        assert ident in described


def test_unknown_experiment_is_config_error(capsys):
    assert main(["--experiment", "nonsense"]) == 2


def test_no_selection_is_config_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "c.json", "--experiment", "thm4.3-check"],
        ["--list", "--experiment", "alg3-chain"],
        ["--describe", "--list"],
    ],
)
def test_selection_flags_are_mutually_exclusive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_single_experiment_with_artifacts(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    summary = tmp_path / "summary.json"
    code = main(
        [
            "--experiment",
            "alg3-chain",
            "--trace",
            str(trace_dir),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    traces = list(trace_dir.glob("*.trace"))
    assert traces
    lines = traces[0].read_text().splitlines()
    assert "header" in lines[0] and "summary" in lines[-1]
    step = json.loads(lines[1])
    assert set(step) == {"t", "x", "y", "a", "z", "verdict"}
    rows = json.loads(summary.read_text())["rows"]
    assert rows and rows[0]["experiment"] == "alg3-chain"


def test_config_matrix_expansion(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "experiments": [
                    {"id": "thm4.8-omit-i", "params": {"i": [0, 1]}, "horizon": 1500}
                ]
            }
        )
    )
    assert main(["--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "thm4.8-omit-i[i=0]" in out and "thm4.8-omit-i[i=1]" in out


def test_invalid_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiments": [{"id": "nope"}]}))
    assert main(["--config", str(config)]) == 2
    config.write_text("not json")
    assert main(["--config", str(config)]) == 2


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and err.count("\n") == 1
    # nested inside a row's parameters, past the JSON decoder's depth
    generators = "[" * 995 + "]" * 995
    config.write_text('{"experiments": [{"id": "thm3.1", "params": {"generators": %s}}]}' % generators)
    assert main(["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config:") and err.count("\n") == 1


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_non_positive_horizon_flag_exits_2(horizon, capsys):
    assert main(["--experiment", "alg3-chain", "--horizon", horizon]) == 2
    assert "--horizon must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [0, -5, 2.5, "100", True, None])
def test_non_positive_integer_config_horizon_exits_2(horizon, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": "alg3-chain", "horizon": horizon}]}))
    assert main(["--config", str(config)]) == 2
    assert "horizon of alg3-chain must be a positive integer" in capsys.readouterr().err


# 2**62 steps cannot be allocated, and 2**63 is no index-sized integer at
# all; both fail before any memory is touched
HUGE_HORIZONS = [(2**62, "does not fit in memory"), (2**63, "must be at most")]


def _one_invalid_config_line(err: str, horizon: int, message: str) -> bool:
    return err.startswith("invalid config:") and err.count("\n") == 1 and (
        str(horizon) in err and message in err
    )


@pytest.mark.parametrize("horizon, message", HUGE_HORIZONS)
def test_unallocatable_horizon_flag_exits_2(horizon, message, capsys):
    assert main(["--experiment", "alg3-chain", "--horizon", str(horizon)]) == 2
    assert _one_invalid_config_line(capsys.readouterr().err, horizon, message)


@pytest.mark.parametrize("horizon, message", HUGE_HORIZONS)
def test_unallocatable_config_horizon_exits_2(horizon, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": "alg3-chain", "horizon": horizon}]}))
    assert main(["--config", str(config)]) == 2
    assert _one_invalid_config_line(capsys.readouterr().err, horizon, message)


def _repeating_adversary():
    # a noise prefix that plays 4 twice
    return FaultyStagedAdversary(prefix=(4, 4))


def test_adversary_repeat_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "staged_union_adversary", _repeating_adversary)
    assert main(["--experiment", "thm3.1"]) == 3
    assert "adversary repeated 4" in capsys.readouterr().err


def test_broken_certificate_exits_3(monkeypatch, capsys):
    # each next stage ramps up from the output that triggered it, which the
    # trigger has just certified never to be played
    monkeypatch.setattr(
        experiments, "staged_union_adversary", lambda: FaultyStagedAdversary(shift=0)
    )
    assert main(["--experiment", "thm3.1", "--horizon", "50"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "internal invariant breach: 1 was committed as never-enumerated"
    ]


class _MinusThree(Generator):
    def step(self, revealed):
        return -3


def test_certificate_in_the_promised_part_exits_3(monkeypatch, capsys):
    # the first stage's ray reaches down to -10, so the strategy's -3 is an
    # unseen stage member: a trigger whose certificate would be a negative
    monkeypatch.setattr(
        experiments, "staged_union_adversary", lambda: FaultyStagedAdversary(start=-10)
    )
    monkeypatch.setattr(experiments, "union_generator", lambda _name: _MinusThree())
    assert main(["--experiment", "thm3.1", "--horizon", "50"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "internal invariant breach: -3 lies in the promised part"
    ]


class _StoppingAdversary(StagedAdversary):
    """The staged union construction, playing two steps only."""

    def play(self, outputs, codes, horizon):
        return super().play(outputs, codes, 2)


def test_stream_that_stops_before_the_horizon_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "staged_union_adversary", lambda: _StoppingAdversary("union"))
    assert main(["--experiment", "thm3.1"]) == 3
    assert "stopped revealing at step 2 of" in capsys.readouterr().err


def _quiet_union_config(tmp_path, horizon):
    config = tmp_path / "config.json"
    entry = {"id": "thm3.1", "horizon": horizon, "params": {"generators": ["min_minus_one"]}}
    config.write_text(json.dumps({"experiments": [entry]}))
    return config


def test_failed_assertion_exits_1(tmp_path, capsys):
    # a quiet strategy never triggers, and 5 final-stage steps are too few
    # to show a defeat
    assert main(["--config", str(_quiet_union_config(tmp_path, 5))]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "only 5 certified/stage mistakes" in out


def test_quiet_strategy_needs_no_negatives_it_never_triggered(tmp_path, capsys):
    # never triggered, the adversary owes no negative; its final stage
    # alone defeats the strategy
    assert main(["--config", str(_quiet_union_config(tmp_path, 400))]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "negatives not all emitted" not in out


def test_positive_case_with_t_star_past_its_horizon_fails(tmp_path, capsys):
    # no step is left to check, so the case must not pass
    assert main(["--experiment", "alg3-chain", "--horizon", "5"]) == 1
    assert "alg3[P7]: t*=7 is not below the horizon 5" in capsys.readouterr().out
    config = tmp_path / "config.json"
    entry = {"id": "alg3-chain", "horizon": 50, "params": {"target_ray": 100000}}
    config.write_text(json.dumps({"experiments": [entry]}))
    assert main(["--config", str(config)]) == 1
    assert "t*=100000 is not below the horizon 50" in capsys.readouterr().out
    assert main(["--experiment", "appendixA-repetition", "--horizon", "1"]) == 1
    assert "appendixA-base[follow_suffix]: t*=1 is not below the horizon 1" in capsys.readouterr().out


def test_stream_violation_fails_a_row_other_than_thm31(monkeypatch, capsys):
    pos = EXPERIMENTS["thm3.1-pos"]

    def repeating_case(horizon, seed, params, play):
        # repeats break Mode.standard(); the case has no other check
        src = ScriptedSource(ScriptedSpec(suffix_from(0), repeat_seed=0))
        play(experiments.Case("repeats", FollowSuffix(), src, Mode.standard(), horizon))

    monkeypatch.setitem(EXPERIMENTS, "thm3.1-pos", dataclasses.replace(pos, cases=repeating_case))
    rows, subs = experiments.run_experiment("thm3.1-pos", horizon=50)
    assert any(v.startswith("repeat@") for v in subs[0].result.validity_violations)
    assert not rows[0].passed
    assert rows[0].detail.startswith("repeats: stream violations: ('repeat@")
    assert main(["--experiment", "thm3.1-pos", "--horizon", "50"]) == 1


def test_emit_summary_requires_rows():
    with pytest.raises(ValueError):
        emit_summary([])
    table = emit_summary(
        [SummaryRow("b", True, 0, 0, 0.1), SummaryRow("a", False, 2, 5, 0.2, "boom")]
    )
    lines = table.splitlines()
    assert lines[1].startswith("a") and "FAIL" in lines[1] and "boom" in lines[1]
    assert lines[2].startswith("b") and "PASS" in lines[2]


def test_traces_are_written_as_each_experiment_finishes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiments, "staged_union_adversary", _repeating_adversary)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": "alg3-chain"}, {"id": "thm3.1"}]}))
    trace_dir = tmp_path / "traces"
    assert main(["--config", str(config), "--trace", str(trace_dir)]) == 3
    names = sorted(p.name for p in trace_dir.iterdir())
    assert names and all(name.startswith("alg3") for name in names)


def _must_not_run(*args, **kwargs):
    raise AssertionError("an experiment ran")


def test_trace_path_that_is_a_file_exits_2_before_running(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    not_a_dir = tmp_path / "traces"
    not_a_dir.write_text("")
    assert main(["--experiment", "alg3-chain", "--trace", str(not_a_dir)]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("thm3.1", "config entry must be an object"),
        ({"id": "thm4.8-omit-i", "params": {"i": "x"}}, "i of thm4.8-omit-i must be a non-negative integer"),
        ({"id": "thm4.8-omit-i", "params": {"i": -3}}, "i of thm4.8-omit-i must be a non-negative integer"),
        ({"id": "thm5.2-noise-i", "params": {"i": [0, True]}}, "i of thm5.2-noise-i must be a non-negative integer"),
        ({"id": "thm5.4-sensitivity", "params": {"i": []}}, "i of thm5.4-sensitivity is an empty list"),
        ({"id": "thm3.1", "params": {"generators": ["nope"]}}, "unknown baseline 'nope'"),
        ({"id": "thm3.1", "params": {"generators": ["omission:x"]}}, "omission level must be"),
        ({"id": "thm3.1", "params": {"generators": []}}, "generators of thm3.1 must be a non-empty list"),
        ({"id": "alg3-chain", "params": [1]}, "params of alg3-chain must be an object"),
        ({"id": "alg3-chain", "seed": "abc"}, "seed of alg3-chain must be an integer"),
        ({"id": "alg3-chain", "horizon": 0}, "horizon of alg3-chain must be a positive integer"),
        ({"id": "alg3-chain", "params": {"target_ray": "x"}}, "target_ray of alg3-chain must be a non-negative integer"),
        ({"id": "alg3-chain", "params": {"target_ray": True}}, "target_ray of alg3-chain must be a non-negative integer"),
        ({"id": "alg3-chain", "params": {"target_ray": -4}}, "target_ray of alg3-chain must be a non-negative integer"),
        ({"id": "alg3-chain", "params": {"taget_ray": 3}}, "unknown params ['taget_ray'] for alg3-chain"),
        ({"id": "thm3.1-pos", "params": {"i": 3, "bogus": 1}}, "unknown params ['bogus', 'i'] for thm3.1-pos"),
        ({"id": "thm4.8-omit-i", "params": {"i": 2, "bogus": 1}}, "unknown params ['bogus'] for thm4.8-omit-i"),
        ({"id": "alg4-feedback", "params": {"i": 1}}, "unknown params ['i'] for alg4-feedback"),
        ({"id": "alg3-chain", "horizn": 5}, "unknown keys ['horizn'] in the config entry of alg3-chain"),
        ({"id": "thm4.8-omit-i", "params": {"i": 2**64}}, "i of thm4.8-omit-i must be below 998"),
        ({"id": "thm5.2-noise-i", "params": {"i": [1, 2000]}}, "i of thm5.2-noise-i must be below 999"),
        ({"id": "thm5.4-sensitivity", "params": {"i": 2**64}}, "i of thm5.4-sensitivity must be below 1998"),
        ({"id": "thm3.1", "params": {"generators": [3]}}, "generator name must be a string, got 3"),
    ],
)
def test_bad_config_entry_exits_2_before_running(entry, message, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": "alg3-chain"}, entry]}))
    trace_dir = tmp_path / "traces"
    assert main(["--config", str(config), "--trace", str(trace_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not trace_dir.exists()


def _largest_t_star(ident, level):
    """The largest t* of the row's scripted cases at `level`, drawn without
    running them."""
    drawn = []
    for _ in EXPERIMENTS[ident].cases(3000, 0, {"i": level}, drawn.append) or ():
        pass  # the row's own checks read runs that were never played
    return max(c.t_star for c in drawn if c.t_star is not None)


@pytest.mark.parametrize(
    "ident, bound", [("thm4.8-omit-i", 998), ("thm5.2-noise-i", 999), ("thm5.4-sensitivity", 1998)]
)
def test_level_below_the_row_bound_passes_and_the_bound_exits_2(
    ident, bound, monkeypatch, tmp_path, capsys
):
    rows, _ = experiments.run_experiment(ident, 3000, params={"i": bound - 1})
    assert [row.passed for row in rows] == [True], rows[0].detail
    # the bound is the least level whose scripted t* reaches the scripted horizon
    horizon = experiments.SCRIPTED_HORIZON
    assert _largest_t_star(ident, bound - 1) < horizon <= _largest_t_star(ident, bound)
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": ident, "params": {"i": bound}}]}))
    assert main(["--config", str(config)]) == 2
    assert f"i of {ident} must be below {bound}, got {bound}" in capsys.readouterr().err


def test_unknown_top_level_config_key_exits_2_before_running(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [{"id": "alg3-chain"}], "horizon": 5}))
    assert main(["--config", str(config)]) == 2
    assert "unknown top-level config keys ['horizon']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ident, params, message",
    [
        ("alg3-chain", {"target_ray": "3"}, "target_ray of alg3-chain must be a non-negative integer"),
        ("thm4.8-omit-i", {"i": "x"}, "i of thm4.8-omit-i must be a non-negative integer"),
        ("alg3-chain", {"taget_ray": 3}, "unknown params ['taget_ray'] for alg3-chain"),
        ("alg3-chain", [1], "params of alg3-chain must be an object"),
        ("thm4.8-omit-i", {"i": [1, 1]}, "config runs thm4.8-omit-i[i=1] twice"),
    ],
)
def test_run_experiment_checks_params_before_running(ident, params, message, monkeypatch):
    monkeypatch.setattr(engine, "run", _must_not_run)
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.run_experiment(ident, params=params)


@pytest.mark.parametrize(
    "entries, row",
    [
        ([{"id": "thm4.8-omit-i", "horizon": 100, "params": {"i": [1, 1]}}], "thm4.8-omit-i[i=1]"),
        ([{"id": "alg3-chain"}, {"id": "alg3-chain", "seed": 1}], "alg3-chain"),
        ([{"id": "thm5.2-noise-i"}, {"id": "thm5.2-noise-i", "params": {"i": 2}}], "thm5.2-noise-i[i=2]"),
        (
            [{"id": "thm3.1", "params": {"generators": ["omission:0"]}}, {"id": "thm3.1"}],
            "thm3.1[omission:0]",
        ),
        ([], None),  # no row at all
    ],
)
def test_config_that_repeats_a_row_exits_2_before_running(entries, row, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": entries}))
    trace_dir = tmp_path / "traces"
    assert main(["--config", str(config), "--trace", str(trace_dir)]) == 2
    if row is None:
        message = "config must contain a non-empty 'experiments' list"
    else:
        message = f"config runs {row} twice"
    assert message in capsys.readouterr().err
    assert not trace_dir.exists()


def test_summary_path_in_missing_directory_exits_2_before_running(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    summary = tmp_path / "missing" / "s.json"
    assert main(["--experiment", "alg3-chain", "--summary", str(summary)]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not summary.parent.exists()


def test_unwritable_trace_file_exits_2(tmp_path, capsys):
    # a directory where a trace file would go: opening it fails
    blocked = tmp_path / "traces" / "alg3[P7].trace"
    blocked.mkdir(parents=True)
    assert main(["--experiment", "alg3-chain", "--trace", str(blocked.parent)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid config: {blocked}: Is a directory\n"


def test_failed_trace_or_summary_write_exits_2(monkeypatch, tmp_path, capsys):
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    trace = tmp_path / "traces" / "alg3[P7].trace"
    monkeypatch.setattr(engine, "write_trace", disk_full)
    assert main(["--experiment", "alg3-chain", "--trace", str(trace.parent)]) == 2
    assert capsys.readouterr().err == f"invalid config: {trace}: No space left on device\n"
    monkeypatch.setattr(json, "dump", disk_full)
    summary = tmp_path / "s.json"
    assert main(["--experiment", "alg3-chain", "--summary", str(summary)]) == 2
    assert capsys.readouterr().err == f"invalid config: {summary}: No space left on device\n"


def test_finished_experiments_subruns_are_freed_before_the_next_runs(monkeypatch, tmp_path, capsys):
    inner = cli.run_experiment
    refs = []
    alive = []

    def watched(*args, **kwargs):
        alive.extend(ref().name for ref in refs if ref() is not None)
        rows, subs = inner(*args, **kwargs)
        refs.extend(weakref.ref(sub) for sub in subs)
        return rows, subs

    monkeypatch.setattr(cli, "run_experiment", watched)
    assert main(["--experiment", "all", "--horizon", "100", "--trace", str(tmp_path)]) == 0
    assert len(refs) == len(list(tmp_path.iterdir()))
    assert alive == []


def test_duplicate_subrun_name_exits_3(monkeypatch, capsys):
    chain = experiments.EXPERIMENTS["alg3-chain"]

    def cases_twice(*args):
        chain.cases(*args)
        chain.cases(*args)

    monkeypatch.setitem(
        experiments.EXPERIMENTS, "alg3-chain", dataclasses.replace(chain, cases=cases_twice)
    )
    with pytest.raises(DuplicateSubRun):
        experiments.run_experiment("alg3-chain")
    assert main(["--experiment", "alg3-chain"]) == 3
    assert "two sub-runs named 'alg3[P7]'" in capsys.readouterr().err


def test_subruns_sharing_a_trace_file_exit_3(monkeypatch, tmp_path, capsys):
    # "alg3[a b]" and "alg3[ab]" are two names but one trace file
    chain = experiments.EXPERIMENTS["alg3-chain"]

    def cases_under_two_names(horizon, seed, params, play):
        for name in ("alg3[a b]", "alg3[ab]"):
            chain.cases(horizon, seed, params, lambda case: play(case._replace(name=name)))

    monkeypatch.setitem(
        experiments.EXPERIMENTS, "alg3-chain", dataclasses.replace(chain, cases=cases_under_two_names)
    )
    assert main(["--experiment", "alg3-chain", "--trace", str(tmp_path)]) == 3
    assert "two sub-runs named 'alg3[ab]'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_case_over_its_level_budget_exits_3(monkeypatch, capsys):
    noise_sources = experiments._noise_sources

    def one_noise_string_past_the_level(level, horizon):
        sources = noise_sources(level, horizon)
        src, t_star = next(sources)  # a marked suffix: every negative is noise
        noise = tuple((2 * k, -40 - k) for k in range(level + 1))
        yield ScriptedSource(dataclasses.replace(src.spec, noise=noise)), t_star
        yield from sources

    monkeypatch.setattr(experiments, "_noise_sources", one_noise_string_past_the_level)
    assert main(["--experiment", "thm5.2-noise-i"]) == 3
    err = capsys.readouterr().err
    assert "thm5.2[i=0,src0] breaks its level's noise budget: 1 > i=0" in err
