"""Trace byte-identity guards.

`DIGESTS` are SHA-256 sums of the traces written by `alg3-chain`,
`alg5-queries` and `alg6-identify` (default horizons, seed 0) when
`StripQueries`, `IndexIdentifier` and the ray-prefix chain links still
recomputed everything from scratch on each step.

`SUITE_DIGESTS` cover every registered experiment (default horizons, seed
0): one SHA-256 per experiment over each sub-run's name and trace bytes, in
order, taken when every experiment still had its own hand-written runner.
For `alg4-feedback` only the step and summary lines are hashed, because its
sub-run names (and so the header's `run` field) gained the case index to
make every trace file name unique. `SUITE_ROWS` pin the summary rows of the
same runs, apart from `runtime`.

The two `alg3-chain` digests were retaken when sampleless play stopped
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

A faster or simpler path must leave every byte as it was; a deliberate trace
format change updates these and says so.
"""

import hashlib
import io

import pytest

from limitgen import engine
from limitgen.experiments import EXPERIMENTS, run_experiment

DIGESTS = [
    ("alg3-chain", "alg3[P7]", "0f0f3a087e1e344357c940ffff8c436d42b3f4513ccec27775f46750277f31f8"),
    ("alg5-queries", "alg5-oracle[0]", "4a468d90f5ef701db1329915406a1c5dd5df9fda9d520a924607214331ee5ebc"),
    ("alg5-queries", "alg5-stripped[0]", "a484dc53a43adcddb52bf181db6ed14f39365607d1ae3ae4bfdc3308052a4e63"),
    ("alg5-queries", "alg5-oracle[1]", "879dbb737489eca4ca2ee4022e5348c759ebbc5907b3b4710926a4ce72f58d63"),
    ("alg5-queries", "alg5-stripped[1]", "2b5b94fe1ade0723a17915d3c9d06f2d1e2cdb741b08efa9a43366398b09da4c"),
    ("alg5-queries", "alg5-oracle[2]", "2798ed0c2c19d01b1def75a970c5fb13124209cb5b0415ebbee745d0dc48cb1f"),
    ("alg5-queries", "alg5-stripped[2]", "4a17dfbaf4570673e24f19a9342cb5f8ee2f8723329371c6a205892f9b3b3d02"),
    ("alg5-queries", "alg5-oracle[3]", "d0b2fe186b60a969aa2a0ff8c02427b226627a0459b467c82b896acd7260883c"),
    ("alg5-queries", "alg5-stripped[3]", "0123486a0c5cb1146dc96c8d536a497b5badec0a3f01600ba6379c0f7ae706d9"),
    ("alg6-identify", "alg6[k=0]", "311008557bff4b6139a24a9eaa4c4b225b59bcf98c24c70f8b8276fde0cba83d"),
    ("alg6-identify", "alg6[k=1]", "6a1176114188ea5f0ed8fdead4ef46998c2f40fd101718636f5b12dccdfccb28"),
    ("alg6-identify", "alg6[k=2]", "ccb485ba4aa32fb1a4cfde0279d11aa95eb833effdd68cd4dd2c3570ce4a6407"),
]

SUITE_DIGESTS = {
    "alg1-2-equiv": "7a09b42b83876ab37e40b449fa826912f31461659280a32c73cf79ccd2955e63",
    "alg3-chain": "81320024dc5ead0921be918456a6fded21adc15f8bc4ac0a902f7b918f17bf05",
    "alg4-feedback": "ee4dcea98addc4803d3cfdff1f7be8bc81dec45f395a00c63d3049a16876c3f6",
    "alg5-queries": "38dadaa7e04c3a22cbe756fb465a0d7ad74927363c8b5bf184342905eb725c3e",
    "alg6-identify": "83d65c8895ffb8a975dafca123367bb4d78b20c2864e5a9b1204def6b95bcf54",
    "appendixA-repetition": "e0488d669bb5bbe34f3d8fa4c902ed0e8cf1063ffc395686513f3b6b1434229e",
    "thm3.1": "235b2001ecea7af34119134497d47d551bfe059ed7f64e7a95277a932e985a1d",
    "thm3.1-pos": "3823378c89625973e2e307433ac516e5bac7449cd162d6bb8287ed23e3b76b83",
    "thm4.3-check": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "thm4.5-omissions": "9f6d0f909f59a42b298db2157ffd6c18ff2aae8c4dd5a1d65e1bfe606958f860",
    "thm4.8-omit-i": "a9b18ec3276a72decc2512ac1423d1bda0add16a9d0c9d36c7f5a33219b2d494",
    "thm5.2-noise-i": "56722118bfec805bb2dab248f861819860a855b4e753eb3eb00ed6bb97d03083",
    "thm5.4-sensitivity": "e1bf57c800382e999729b6154b6cb660a0f150955b6b786a07db11fd1bcb3046",
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


def test_traces_byte_identical_to_from_scratch_versions():
    got = []
    for ident in dict.fromkeys(ident for ident, _, _ in DIGESTS):
        _, subs = run_experiment(ident, seed=0)
        for sub in subs:
            got.append((ident, sub.name, hashlib.sha256(_trace_text(sub).encode()).hexdigest()))
    assert got == DIGESTS


def test_suite_digests_cover_every_experiment():
    assert sorted(SUITE_DIGESTS) == sorted(EXPERIMENTS) == sorted(SUITE_ROWS)


@pytest.mark.parametrize("ident", sorted(SUITE_DIGESTS))
def test_experiment_traces_and_rows_unchanged(ident):
    rows, subs = run_experiment(ident, seed=0)
    digest = hashlib.sha256()
    for sub in subs:
        text = _trace_text(sub)
        if ident == "alg4-feedback":
            text = text.split("\n", 1)[1]  # drop the header line
        else:
            digest.update(sub.name.encode() + b"\0")
        digest.update(text.encode())
    assert digest.hexdigest() == SUITE_DIGESTS[ident]
    assert [(r.experiment, r.passed, r.mistakes, r.convergence, r.detail) for r in rows] == SUITE_ROWS[ident]
