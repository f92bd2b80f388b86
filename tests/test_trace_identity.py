"""Trace byte-identity guard for the incrementally computed strategies.

The digests below are SHA-256 sums of the traces written by `alg3-chain`,
`alg5-queries` and `alg6-identify` (default horizons, seed 0) when
`StripQueries`, `IndexIdentifier` and the ray-prefix chain links still
recomputed everything from scratch on each step. A faster path must leave
every byte as it was; a deliberate trace format change updates them and says
so.
"""

import hashlib
import io

from limitgen import engine
from limitgen.experiments import run_experiment

DIGESTS = [
    ("alg3-chain", "alg3[P7]", "b5f373d22b90edc027f89474ee85e9ec6ac64f5d674ad5a21370600b5a7a1ea0"),
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


def test_traces_byte_identical_to_from_scratch_versions():
    got = []
    for ident in dict.fromkeys(ident for ident, _, _ in DIGESTS):
        _, subs = run_experiment(ident, seed=0)
        for sub in subs:
            buf = io.StringIO()
            engine.write_trace(buf, sub.header, sub.records, sub.result)
            got.append((ident, sub.name, hashlib.sha256(buf.getvalue().encode()).hexdigest()))
    assert got == DIGESTS
