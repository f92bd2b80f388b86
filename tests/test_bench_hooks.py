"""The names under `src/` that the benchmark reaches still work.

`bench/` wraps `engine.run`, `engine.write_trace`, `engine.validate_stream`,
`cli.run_experiment` and the strategy classes by name, builds its probes
from the strategy constructors (`reduce_by_prefix` among them) and counts
`sub.records` of what `run_experiment` returns. A refactor that renames or
drops one of them breaks the benchmark; this test runs the benchmark's own
hooks at a tiny size so that tier-1 catches it. It runs in a subprocess,
because the tracer patches module globals for good.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HOOKS = """
import sys
from pathlib import Path

root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "bench"), str(root / "src")]
import child, spec, tracer
from limitgen import engine

tracer.Tracer().install()
for name in spec.PROBE_HORIZONS:
    engine.run(*child.probe_case(name)(), 20)
for workload in spec.WORKLOADS:
    (work / workload).mkdir()
    rc = child.run_workload(workload, 0, True, work / workload, False)["rc"]
    if rc != 0:
        raise SystemExit(f"{workload} exited {rc}")
"""


def test_bench_probes_and_workloads_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", HOOKS, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
