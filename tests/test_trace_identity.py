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

A faster or simpler path must leave every byte as it was; a deliberate trace
format change updates these and says so.
"""

import hashlib
import io

import pytest

from limitgen import engine
from limitgen.experiments import EXPERIMENTS, run_experiment

DIGESTS = [
    ("alg3-chain", "alg3[P7]", "7e9fefea29a3fff05e8934c2c2b7b71ba5c1df49e656c009804abb69f3605aa9"),
    ("alg5-queries", "alg5-oracle[0]", "e031021bc0003205723390cf8443d4c2056606d04d74e1b44085ce21f784e36f"),
    ("alg5-queries", "alg5-stripped[0]", "1a6ec4efe228db0b89c4658c43160e03fc964c003d61323801dc59a7678874ed"),
    ("alg5-queries", "alg5-oracle[1]", "bf6c6411f8efedd11a390b0cf51a479f5ffe92606bc39167d029d3515f44c148"),
    ("alg5-queries", "alg5-stripped[1]", "cdf729994644572ddab0034561c68708fe5ca58476f151ca533761bef11b2fdf"),
    ("alg5-queries", "alg5-oracle[2]", "5b5c49caf2a04a29ada9ee0dd365d99036bca8b2f0917ede5280b234a1a466e4"),
    ("alg5-queries", "alg5-stripped[2]", "ad5abd5bb00c1c5b46c67e808f79f52fdb3c76bb6c32f0a8a3ed51787ee72907"),
    ("alg5-queries", "alg5-oracle[3]", "65a679f98d56a4e606b9849b0ce527633cbba75b56f1f8df0c8dd43d3c5d2d69"),
    ("alg5-queries", "alg5-stripped[3]", "586186fd3e0e32bf7cbfae9a35791194921a193e4d2ac43a57a7b16ea202f357"),
    ("alg6-identify", "alg6[k=0]", "68b3bca02b660f25be735a543b353666e8167289e7edfe015494e929dd50705b"),
    ("alg6-identify", "alg6[k=1]", "637f1aae740ddd08bf11f4f87b37cca3b4d85dcfd7a9f9ac2306cb67c96b6632"),
    ("alg6-identify", "alg6[k=2]", "eeafa05096a6cacdb6945617e4d2e468aef353ca55c333712c7a6b10e23967a0"),
]

SUITE_DIGESTS = {
    "alg1-2-equiv": "e8c9c1b5ba8823cbf066811b9e8f07a6d5f2b8bbedf9d2766d21c97d1375e993",
    "alg3-chain": "a0b49b8200cfd6f35feeda68bdf66c6b31a910d2b0c3687bc3750e7a635f5b2b",
    "alg4-feedback": "319448019cbdbc3f3ff354d7d180fb7451fad30cbd480f24fd513618884b4432",
    "alg5-queries": "a5d7cc8eb6d8e738106c19775920ba4bf21d95f15e3b6dc1e41e89cd6bae5e9f",
    "alg6-identify": "80fbadfc4399e4134a49988a4557e86403186f3f5ac15a6ca12a01c5c34b099d",
    "appendixA-repetition": "30e6fd87ecafadd8a33df4cddcecf6b66a93bada30a28ea9d1a1142085b24e1a",
    "thm3.1": "56f02b5008ca169f6449af3ebddb0fd6de84204e473601896f70217f61897373",
    "thm3.1-pos": "62435b6f7b4cecd36220cef163605051852e1bae9f2c75decaedc1bfb6965cf0",
    "thm4.3-check": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "thm4.5-omissions": "eba35d5259690f05b684bdef4e56a288a92fbd59ee5f68bd402886021798f4f8",
    "thm4.8-omit-i": "7e6fe6484f758869ebb58d8454bc20abbd221a5acafcce52dee353c3886148bb",
    "thm5.2-noise-i": "17e103fdf6ad3bd271904cd10f2a56b6d5018036f1013af3ceabb00bb5febfb6",
    "thm5.4-sensitivity": "82583afeabca4db538263287eb82eb2f86d01a4ae274cf4616049f051ab163db",
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
