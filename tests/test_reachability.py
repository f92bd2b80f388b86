"""Every function in the package is reached by the experiment suite.

Runs `limitgen --experiment all --horizon 100 --trace DIR --summary FILE`
under cProfile and requires each function and lambda defined in
`src/limitgen/` to have been called at least once. The exceptions are
listed in `ALLOWED`, one reason each, and every entry must still be
unreached. Code that no
experiment reaches either earns an entry there or is deleted, so dead code
cannot come back unnoticed.
"""

import ast
import cProfile
from collections import Counter
import pstats
from pathlib import Path

import limitgen
from limitgen import cli

PACKAGE = Path(limitgen.__file__).parent

ALLOWED = {
    # abstract stubs: subclasses override them
    "families.CollectionSpec.closure": "abstract stub",
    "families.CollectionSpec.closure_dimension": "abstract stub",
    "generators.Generator.step": "abstract stub",
    "generators._MarkerBranchGenerator._goes_high": "abstract stub",
    "feedback.FeedbackGenerator.step_query": "abstract stub",
    "feedback.FeedbackGenerator.step_output": "abstract stub",
    "sources.Source.emit": "abstract stub",
    "sources.Source.reveals": "abstract stub",
    "sources.Source.truth_view": "abstract stub",
    # a stub no source defines, kept for the benchmark's tracer
    "sources.Source.observe": "bench/tracer.py wraps StagedAdversary.observe by name (ROADMAP item 7 retires it)",
    # cli config and error paths; test_cli.py covers them
    "cli._load_configs": "--config files only; test_cli.py covers them",
    # the string-valued verdict rule: the reference each run's bound judge
    # is tested against; the game loop itself reads the judge's codes
    "engine.verdict": "the reference rule test_engine.py checks every bound judge against",
    # the membership rule each run's `ask` is tested against; the loop answers inline
    "engine.oracle_answer": "the reference rule test_engine.py checks every bound ask against",
    # the inverse of to_record, kept so that a scripted trace's truth can be read back
    "langs.ClosedFormLanguage.from_record": "reads a trace header's source.truth back",
    # probed by the benchmark's scaling runs, not by any experiment
    "generators.reduce_by_prefix": "the benchmark probes it",
    # only test_feedback.py plays the ray family as a union part
    "families.RayFamily.closure_dimension": "test_feedback.py plays the ray family as a union part",
    # the budget-0 wrapper no experiment plays
    "feedback.PlainAsFeedback.__init__": "the engine no longer wraps plain strategies; `bench/child.py`'s probe and the StripQueries budget-0 tests construct it",
    "feedback.PlainAsFeedback.step_query": "the engine no longer wraps plain strategies; `bench/child.py`'s probe and the StripQueries budget-0 tests construct it",
    "feedback.PlainAsFeedback.step_output": "the engine no longer wraps plain strategies; `bench/child.py`'s probe and the StripQueries budget-0 tests construct it",
}


def _slot(parent, node) -> str:
    """Where `node` sits in `parent`: the keyword it is passed as, or its
    field and position there (`args[0]`, `elts[1]`, `value`)."""
    if isinstance(parent, ast.keyword):
        return parent.arg
    for name, value in ast.iter_fields(parent):
        if value is node:
            return name
        if isinstance(value, list) and node in value:
            return f"{name}[{value.index(node)}]"
    raise AssertionError("node is not a child of parent")


def _definitions():
    """(name, file name, first line) of every function and lambda in the
    package; the first line is that of the first decorator, as the profiler
    records it. A lambda is named by its enclosing function and its slot,
    `cli._run.<lambda key>`, so that names stay
    stable when lines move; `#2`, `#3`, ... tell apart lambdas that would
    share a name."""
    found = []

    def visit(node, prefix, file_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((f"{prefix}.{child.name}", file_name, first))
                visit(child, f"{prefix}.{child.name}", file_name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", file_name)
            else:
                if isinstance(child, ast.Lambda):
                    found.append((f"{prefix}.<lambda {_slot(node, child)}>", file_name, child.lineno))
                visit(child, prefix, file_name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.name)
    seen = Counter()
    named = []
    for name, file_name, line in found:
        seen[name] += 1
        named.append((name if seen[name] == 1 else f"{name}#{seen[name]}", file_name, line))
    return named


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
