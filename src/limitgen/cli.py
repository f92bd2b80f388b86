"""Command-line experiment runner.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 invalid
config (a horizon too large to allocate, an empty trace or summary path, and
a trace or summary file that cannot be written, included), 3 internal
invariant breach (exhausted searches and the like).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import IO, Iterator

from . import engine
from .errors import LimitGenError
from .experiments import (
    EXPERIMENTS,
    SummaryRow,
    emit_summary,
    matrix_rows,
    run_experiment,
    trace_file,
)
from .langs import is_int


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="limitgen",
        description="Run adversarial language-generation experiments.",
    )
    select = p.add_mutually_exclusive_group()
    select.add_argument("--experiment", default=None, help="experiment id or 'all'")
    select.add_argument("--config", default=None, help="JSON config file (may define a matrix)")
    select.add_argument("--list", action="store_true", help="list experiment ids")
    select.add_argument("--describe", action="store_true", help="describe experiments")
    p.add_argument("--horizon", type=int, help="step horizon; a config entry's own wins")
    p.add_argument("--seed", type=int, default=0, help="seed of shuffled orders; an entry's own wins")
    p.add_argument("--trace", default=None, help="directory for per-run trace files")
    p.add_argument("--summary", default=None, help="path for the machine-readable summary")
    return p


def _load_configs(path: str) -> list[dict]:
    """Read and check a config file, so that no bad entry is found after
    experiments have run. An entry takes `id`, `horizon`, `seed` and
    `params`; its row's schema checks the params (`matrix_rows`). No summary
    row may come twice: its traces would overwrite each other."""
    with open(path) as fp:
        data = json.load(fp)
    entries = data.get("experiments") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError("config must contain a non-empty 'experiments' list")
    unknown = sorted(set(data) - {"experiments"})
    if unknown:
        raise ValueError(f"unknown top-level config keys {unknown}")
    rows: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"config entry must be an object, got {entry!r}")
        ident = entry.get("id")
        if not isinstance(ident, str) or ident not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id in config: {ident!r}")
        unknown = sorted(set(entry) - {"id", "horizon", "seed", "params"})
        if unknown:
            raise ValueError(f"unknown keys {unknown} in the config entry of {ident}")
        if "horizon" in entry:
            _check_horizon(entry["horizon"], f"horizon of {ident}")
        if "seed" in entry:
            _check_seed(entry["seed"], f"seed of {ident}")
        for row, _ in matrix_rows(EXPERIMENTS[ident], entry.get("params", {})):
            if row in rows:
                raise ValueError(f"config runs {row} twice, so its traces would overwrite each other")
            rows.add(row)
    return entries


def _check_horizon(value: object, origin: str) -> None:
    if not is_int(value) or value < 1:
        raise ValueError(f"{origin} must be a positive integer, got {value!r}")
    if value > sys.maxsize:  # a run's transcript could not even be indexed
        raise ValueError(f"{origin} must be at most {sys.maxsize}, got {value}")


def _check_seed(value: object, origin: str) -> None:
    if not is_int(value):
        raise ValueError(f"{origin} must be an integer, got {value!r}")
    if value < 0:  # random.Random seeds with abs(n), so -n would replay n's orders
        raise ValueError(f"{origin} must be non-negative, got {value}")


class _Invalid(Exception):
    """Invalid config (exit 2): a bad input, a horizon whose transcript
    cannot be allocated, or a trace or summary file that cannot be written."""


@contextlib.contextmanager
def _writing(path: Path | str) -> Iterator[IO[str]]:
    """`path` opened for writing. An OSError from opening or writing it is
    raised as `_Invalid`, naming the path, since a failed write names no
    file of its own."""
    try:
        with open(path, "w") as fp:
            yield fp
    except OSError as exc:
        raise _Invalid(f"{path}: {exc.strerror or exc}") from exc


def _entries(args: argparse.Namespace) -> list[dict]:
    """The entries that `args` selects. Every input, the trace directory and
    the summary path included, is checked before anything runs, and the
    summary file is left empty until the run that fills it finishes."""
    try:
        if args.config:
            entries = _load_configs(args.config)
        elif args.experiment == "all":
            entries = [{"id": ident} for ident in sorted(EXPERIMENTS)]
        elif args.experiment in EXPERIMENTS:
            entries = [{"id": args.experiment}]
        else:
            raise ValueError(f"unknown experiment {args.experiment!r}")
        if args.horizon is not None:
            _check_horizon(args.horizon, "--horizon")
        _check_seed(args.seed, "--seed")
        for flag, path in (("--trace", args.trace), ("--summary", args.summary)):
            if path == "":
                raise ValueError(f"{flag} must name a path, got ''")
        for flag, path in (("--summary", args.summary), ("--config", args.config)):
            # a trace written over the file, or the summary over a trace, is lost unsaid
            if args.trace and path and Path(path).suffix == ".trace":
                if Path(path).resolve().parent == Path(args.trace).resolve():
                    raise ValueError(f"{flag} {path} is a trace file in the --trace directory")
        if args.trace:
            Path(args.trace).mkdir(parents=True, exist_ok=True)
        if args.summary:
            # a bad path fails before anything runs, and a run that fails
            # leaves no earlier run's rows behind
            open(args.summary, "w").close()
    except (ValueError, OSError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise _Invalid(exc) from exc
    return entries


def _run(args: argparse.Namespace, unfinished: list[str]) -> list[SummaryRow]:
    """Run the selected entries, writing each experiment's traces as soon as
    it finishes; print the table, write the summary and return its rows. An
    experiment that stops the run says in `unfinished` how many traces it wrote."""
    rows: list[SummaryRow] = []
    for entry in _entries(args):
        horizon = entry.get("horizon", args.horizon)
        written = 0
        try:
            try:
                entry_rows, subruns = run_experiment(
                    entry["id"],
                    horizon=horizon,
                    seed=entry.get("seed", args.seed),
                    params=entry.get("params"),
                )
            except MemoryError:  # a run's transcript is allocated up front
                raise _Invalid(f"horizon {horizon} of {entry['id']} does not fit in memory") from None
            # on a failed write, `written` is the count of the traces before it
            for written, sub in enumerate(subruns if args.trace else ()):
                with _writing(Path(args.trace) / trace_file(sub.name)) as fp:
                    engine.write_trace(fp, sub.header, sub.records, sub.result)
        except (_Invalid, LimitGenError):
            if args.trace:
                wrote = f"{entry['id']} did not finish: this run wrote {written or 'none'}"
                unfinished.append(f"{wrote} of its traces in {args.trace}")
            raise
        rows.extend(entry_rows)
        subruns = sub = None  # free this experiment's records before the next one runs
    print(emit_summary(rows))
    if args.summary:
        with _writing(args.summary) as fp:
            json.dump(
                {"rows": [r.to_record() for r in sorted(rows, key=lambda r: r.experiment)]},
                fp,
                indent=2,
                sort_keys=True,
            )
            fp.write("\n")
    return rows


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        for ident in sorted(EXPERIMENTS):
            print(ident)
        return 0
    if args.describe:
        width = max(len(i) for i in EXPERIMENTS)
        for ident in sorted(EXPERIMENTS):
            print(f"{ident.ljust(width)}  {EXPERIMENTS[ident].description}")
        return 0
    if not (args.config or args.experiment):
        print("nothing to do: pass --experiment, --config, --list, or --describe")
        return 2
    unfinished: list[str] = []
    try:
        rows = _run(args, unfinished)
    except _Invalid as exc:
        print(f"invalid config: {exc}", *unfinished, sep="\n", file=sys.stderr)
        return 2
    except LimitGenError as exc:
        print(f"internal invariant breach: {exc}", *unfinished, sep="\n", file=sys.stderr)
        return 3
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
