"""Rewrite reference.json from the program as it stands.

    python3 bench/make_reference.py

For every workload and for seeds 0 and 1 it records each summary row's
(passed, mistakes, convergence), the engine step count and the sub-run count
per experiment. `run.py` compares every repeat against it. Regenerate it only
in a change that means to alter those results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, BenchError, Session
from spec import WORKLOADS

SEEDS = (0, 1)


def main() -> int:
    reference: dict = {}
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                session = Session(tiny=False)
                try:
                    result = session.repeat("run", workload, seed)
                finally:
                    session.cleanup()
                if result["rc"] != 0 or not all(row[0] for row in result["rows"].values()):
                    raise BenchError(f"{workload} seed {seed} has FAIL rows; not a reference")
                reference.setdefault(workload, {})[str(seed)] = {
                    key: result[key] for key in ("rows", "steps", "subruns")
                }
                print(f"{workload} seed {seed}: {result['steps']} steps, {len(result['rows'])} rows")
    except BenchError as exc:
        print(f"reference not written: {exc}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
