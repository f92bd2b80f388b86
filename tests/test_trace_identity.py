"""Trace byte-identity guards.

`SUITE_DIGESTS` cover every registered experiment (default horizons, seed
0): one SHA-256 per experiment over each sub-run's name and trace bytes, in
order, taken when every experiment still had its own hand-written runner.
`SUITE_ROWS` pin the summary rows of the same runs, apart from `runtime`.
Every line of every trace is hashed, each header line included.

The `alg3-chain` digests were retaken when sampleless play stopped
reporting coverage misses: only the summary line of `alg3[P7]` changed
(its `validity_violations` list is now empty); its header and step lines
are as before.

The `thm3.1`, `thm4.8-omit-i`, `thm5.2-noise-i` and `thm5.4-sensitivity`
suite digests were retaken when an adversary trace's header stopped copying
the adversary's played and certified sets: its `truth` record keeps only
the kind and the promise, and its new `source` record names the construction
and the level, from which `tests/test_trace_replay.py` replays the trace.
Only the header lines of the 14 adversary traces changed; their step and
summary lines, and every scripted trace, are as before.

Every digest was retaken again when the trace format dropped two keys that
no check read: the header's `mode` record lost its constant `noise_known`,
and the summary line lost `no_trigger`, which restated an empty
`certified_mistake_times`. With those two keys removed from the old traces
and each line written again as `engine._dump` writes it, every trace is as
before, byte for byte; no step line changed.

Every digest was retaken once more when each trace fact came to be stated
once: the header lost its `truth` record, which restated a scripted
source's `source.truth` under a constant `kind`, or held an adversary's one
constant promise, and the summary line lost `distinct_at_convergence`,
which `appendixA-repetition` now reads from its run's reveals. With those
two keys removed from the old traces and each line written again as
`engine._dump` writes it, every trace is as before, byte for byte; no step
line changed. From then on `alg4-feedback`'s header lines are hashed too:
until then they were left out, since its sub-run names (and so the header's
`run` field) gained the case index to make every trace file name unique.
Before that retake, a separate table also hashed the `alg3-chain`,
`alg5-queries` and `alg6-identify` traces as written when `StripQueries`,
`IndexIdentifier` and the ray-prefix chain links still recomputed
everything from scratch on each step; `SUITE_DIGESTS` covers the same runs.

A faster or simpler path must leave every byte as it was; a deliberate trace
format change updates these and says so.
"""

import hashlib
import io

import pytest

from limitgen import engine
from limitgen.experiments import EXPERIMENTS, run_experiment

SUITE_DIGESTS = {
    "alg1-2-equiv": "5d7f24af8e42a4f78e23e3d838bf07c718d826216332812b2b9b41f92d9381b8",
    "alg3-chain": "48a816ebc28380cde0731492937719aee0e8e5b05cc680cc3b233c91c1f9cb33",
    "alg4-feedback": "25d9e116afeb26eec6386de343b1921e0d2335ae5129afef0365e7f9f2bb87e8",
    "alg5-queries": "bb29c739acc90527d86158bc3fb05b8864ed21a358fb00c10f1e3b9866f13061",
    "alg6-identify": "af9c90f780e64f701de5b0eed67d07e90458f3d6ec08995bb5d3a5b4893b52a7",
    "appendixA-repetition": "b42be38cff25f41bdc77236bd002a62dd608c90932b41522966b7a3d45cf6340",
    "thm3.1": "8642b5ff7c7756997317775e99d1d5e9d831a9115cee207b2808d41588a7fed7",
    "thm3.1-pos": "a476a3e2ae5335ffb683921be1c8db2de440b370724907b967d7206177b79bbd",
    "thm4.3-check": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "thm4.5-omissions": "8470d3c48e7aa4771238b0e01c02bdac6eb4585c87c0899b7a28e20b1d4aa9e2",
    "thm4.8-omit-i": "e7ead38a36b82b27bcd3a1d5e075d3e0be5f928af3207ca52951e7e23679772e",
    "thm5.2-noise-i": "765e06cd12a79633e20faebc47e76bb0ed989beb5e1a4a894fde6c415f58c8c2",
    "thm5.4-sensitivity": "b3c3f2f74508ccdeb4d29a8a492d634820a738b5426d856733fb1cb4f37aa7df",
}

# (experiment, passed, mistakes, convergence, detail) per summary row
SUITE_ROWS = {
    "alg1-2-equiv": [("alg1-2-equiv", True, 36, 15, "")],
    "alg3-chain": [("alg3-chain", True, 7, 7, "")],
    "alg4-feedback": [("alg4-feedback", True, 82, 18, "")],
    "alg5-queries": [("alg5-queries", True, 1, 1, "")],
    "alg6-identify": [("alg6-identify", True, 6, 5, "")],
    "appendixA-repetition": [("appendixA-repetition", True, 31, 5, "")],
    "thm3.1": [
        ("thm3.1[max_plus_one]", True, 5000, 9999, ""),
        ("thm3.1[follow_suffix]", True, 5000, 9999, ""),
        ("thm3.1[omission:0]", True, 5000, 9999, ""),
    ],
    "thm3.1-pos": [("thm3.1-pos", True, 8, 3, "")],
    "thm4.3-check": [("thm4.3-check", True, 0, 0, "")],
    "thm4.5-omissions": [("thm4.5-omissions", True, 0, 0, "")],
    "thm4.8-omit-i": [
        ("thm4.8-omit-i[i=0]", True, 9, 3, ""),
        ("thm4.8-omit-i[i=1]", True, 31, 4, ""),
        ("thm4.8-omit-i[i=2]", True, 33, 5, ""),
    ],
    "thm5.2-noise-i": [
        ("thm5.2-noise-i[i=0]", True, 5007, 10000, ""),
        ("thm5.2-noise-i[i=1]", True, 5014, 9999, ""),
        ("thm5.2-noise-i[i=2]", True, 5021, 10000, ""),
    ],
    "thm5.4-sensitivity": [
        ("thm5.4-sensitivity[i=0]", True, 4, 2, ""),
        ("thm5.4-sensitivity[i=1]", True, 10, 3, ""),
        ("thm5.4-sensitivity[i=2]", True, 15, 5, ""),
        ("thm5.4-sensitivity[i=3]", True, 20, 7, ""),
        ("thm5.4-sensitivity[i=4]", True, 25, 9, ""),
    ],
}


def _trace_text(sub) -> str:
    buf = io.StringIO()
    engine.write_trace(buf, sub.header, sub.records, sub.result)
    return buf.getvalue()


def test_suite_digests_cover_every_experiment():
    assert sorted(SUITE_DIGESTS) == sorted(EXPERIMENTS) == sorted(SUITE_ROWS)


@pytest.mark.parametrize("ident", sorted(SUITE_DIGESTS))
def test_experiment_traces_and_rows_unchanged(ident):
    rows, subs = run_experiment(ident, seed=0)
    digest = hashlib.sha256()
    for sub in subs:
        digest.update(sub.name.encode() + b"\0")
        digest.update(_trace_text(sub).encode())
    assert digest.hexdigest() == SUITE_DIGESTS[ident]
    assert [(r.experiment, r.passed, r.mistakes, r.convergence, r.detail) for r in rows] == SUITE_ROWS[ident]
