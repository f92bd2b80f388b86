"""Command-line experiment runner.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 invalid
config, 3 internal invariant breach (exhausted searches and the like).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine
from .errors import LimitGenError
from .experiments import EXPERIMENTS, SubRun, SummaryRow, emit_summary, run_experiment


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="limitgen",
        description="Run adversarial language-generation experiments.",
    )
    p.add_argument("--experiment", default=None, help="experiment id or 'all'")
    p.add_argument("--config", default=None, help="JSON config file (may define a matrix)")
    p.add_argument("--horizon", type=int, default=None, help="override the step horizon")
    p.add_argument("--seed", type=int, default=0, help="base seed for shuffled orders")
    p.add_argument("--trace", default=None, help="directory for per-run trace files")
    p.add_argument("--summary", default=None, help="path for the machine-readable summary")
    p.add_argument("--list", action="store_true", help="list experiment ids")
    p.add_argument("--describe", action="store_true", help="describe experiments")
    return p


def _load_configs(path: str) -> list[dict]:
    with open(path) as fp:
        data = json.load(fp)
    entries = data.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ValueError("config must contain a non-empty 'experiments' list")
    expanded: list[dict] = []
    for entry in entries:
        if "id" not in entry or entry["id"] not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id in config: {entry.get('id')!r}")
        params = dict(entry.get("params", {}))
        key = EXPERIMENTS[entry["id"]].matrix_key
        if key is not None and isinstance(params.get(key), list):
            for value in params[key]:
                sub = dict(entry)
                sub["params"] = {**params, key: value}
                expanded.append(sub)
        else:
            expanded.append(entry)
    return expanded


def _check_horizon(value: object, origin: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{origin} must be a positive integer, got {value!r}")


def _write_traces(directory: str, subruns: list[SubRun]) -> None:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for sub in subruns:
        safe = sub.name.replace("/", "_").replace(" ", "")
        with open(root / f"{safe}.trace", "w") as fp:
            engine.write_trace(fp, sub.header, sub.records, sub.result)


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

    try:
        if args.config:
            entries = _load_configs(args.config)
        elif args.experiment:
            if args.experiment == "all":
                entries = [{"id": ident} for ident in sorted(EXPERIMENTS)]
            elif args.experiment in EXPERIMENTS:
                entries = [{"id": args.experiment}]
            else:
                raise ValueError(f"unknown experiment {args.experiment!r}")
        else:
            print("nothing to do: pass --experiment, --config, --list, or --describe")
            return 2
        if args.horizon is not None:
            _check_horizon(args.horizon, "--horizon")
        for entry in entries:
            if "horizon" in entry:
                _check_horizon(entry["horizon"], f"horizon of {entry['id']}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    rows: list[SummaryRow] = []
    subruns: list[SubRun] = []
    try:
        for entry in entries:
            entry_rows, entry_subs = run_experiment(
                entry["id"],
                horizon=entry.get("horizon", args.horizon),
                seed=entry.get("seed", args.seed),
                params=entry.get("params"),
            )
            rows.extend(entry_rows)
            subruns.extend(entry_subs)
    except LimitGenError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3

    try:
        table = emit_summary(rows)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(table)
    if args.trace:
        _write_traces(args.trace, subruns)
    if args.summary:
        with open(args.summary, "w") as fp:
            json.dump(
                {"rows": [r.to_record() for r in sorted(rows, key=lambda r: r.experiment)]},
                fp,
                indent=2,
                sort_keys=True,
            )
            fp.write("\n")
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
