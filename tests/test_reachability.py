"""Every function in the package is reached by the experiment suite.

Runs `limitgen --experiment all --horizon 100 --trace DIR --summary FILE`
under cProfile and requires each function defined in `src/limitgen/` to
have been called at least once. The exceptions are listed in `ALLOWED`, one
reason each, and every entry must still be unreached. Code that no
experiment reaches either earns an entry there or is deleted, so dead code
cannot come back unnoticed.
"""

import ast
import cProfile
import pstats
from pathlib import Path

import limitgen
from limitgen import cli

PACKAGE = Path(limitgen.__file__).parent

ALLOWED = {
    # abstract stubs: subclasses override them
    "families.CollectionSpec.consistent": "abstract stub",
    "families.CollectionSpec.closure": "abstract stub",
    "families.CollectionSpec.closure_dimension": "abstract stub",
    "generators.Generator.step": "abstract stub",
    "generators.Generator.fresh": "abstract stub",
    "generators._PoolGenerator._decide": "abstract stub",
    "feedback.FeedbackGenerator.step_query": "abstract stub",
    "feedback.FeedbackGenerator.step_output": "abstract stub",
    "feedback.FeedbackGenerator.fresh": "abstract stub",
    "sources.Source.emit": "abstract stub",
    "sources.Source.truth_view": "abstract stub",
    # cli config and error paths; test_cli.py covers them
    "cli._load_configs": "--config files only; test_cli.py covers them",
    "generators.MinMinusOne._decide": "thm3.1 plays it only when a config names min_minus_one",
    # oracle answers no experiment asks for; acceptance criterion 4 and
    # test_families.py check them against brute force
    "families.ClosureResult.no_consistent": "no experiment closes an inconsistent sample",
    "families.UnionSpec.consistent": "no strategy plays a union as one part",
    # the inverse of to_record, kept so that a trace header's truth can be read back
    "langs.ClosedFormLanguage.from_record": "reads a trace header's truth back",
    # probed by the benchmark's scaling runs, not by any experiment
    "generators.PrefixedGenerator.__init__": "the benchmark probes reduce_by_prefix",
    "generators.PrefixedGenerator.step": "the benchmark probes reduce_by_prefix",
    "generators.reduce_by_prefix": "the benchmark probes it",
    # declared dimension of an explicit list; only test_feedback.py plays one
    "families.ExplicitCountable.closure_dimension": "test_feedback.py plays the ray family as a union part",
    # replay bases whose fresh() only tests' StripQueries replays reach
    "generators._PoolGenerator.fresh": "StripQueries replays of PlainAsFeedback in tests",
    "feedback.PlainAsFeedback.fresh": "StripQueries replays in tests",
}


def _definitions():
    """(name, file name, first line) of every function in the package; the
    first line is that of the first decorator, as the profiler records it."""
    found = []

    def visit(node, prefix, file_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((f"{prefix}.{child.name}", file_name, first))
                visit(child, f"{prefix}.{child.name}", file_name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", file_name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.name)
    return found


def test_every_function_is_reached_by_the_suite(tmp_path, capsys):
    profiler = cProfile.Profile()
    argv = [
        "--experiment", "all",
        "--horizon", "100",
        "--trace", str(tmp_path / "traces"),
        "--summary", str(tmp_path / "s.json"),
    ]
    code = profiler.runcall(cli.main, argv)
    capsys.readouterr()
    assert code == 0
    called = {
        (Path(file).name, line)
        for file, line, _ in pstats.Stats(profiler).stats
        if Path(file).parent.name == "limitgen"
    }
    unreached = {name for name, file, line in _definitions() if (file, line) not in called}
    assert sorted(unreached - set(ALLOWED)) == []
    # an entry whose function the suite reaches, or that names no function, is stale
    assert sorted(set(ALLOWED) - unreached) == []
