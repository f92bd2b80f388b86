"""What the benchmark runs: workload plans, probe horizons and sizes.

Data only, so that the parent process (`run.py`) can read it without
importing limitgen; the child processes (`child.py`) turn it into calls.
"""

# Each plan is a list of (experiment id, horizon). The horizons are fixed
# here rather than derived from the registry's defaults, so a later change to
# a default horizon cannot silently resize a workload. `suite` has no plan: it
# is the CLI command `limitgen --experiment all --trace DIR --summary FILE`
# at the registry's default horizons, exactly as users run it.
PLANS: dict[str, list[tuple[str, int]]] = {
    "suite": [],
    # 4x the default horizons: the plain game loop, scripted and staged
    # sources and plain strategies dominate; no queries, no serialisation.
    # alg1-2-equiv is left out because its chain half alone takes 121 MB at 4x.
    "plain-long": [
        ("thm3.1", 40_000),
        ("thm3.1-pos", 4_000),
        ("thm4.5-omissions", 1_200),
        ("thm4.8-omit-i", 40_000),
        ("thm5.2-noise-i", 40_000),
        ("thm5.4-sensitivity", 40_000),
        ("appendixA-repetition", 4_000),
    ],
    # Horizons at which each superlinear path stands out: StripQueries'
    # prefix replay (alg5), IndexIdentifier's re-tests (alg6), the two-phase
    # feedback engine branch (alg4) and ray_prefix_chain's memoised links (alg3).
    "query-replay": [
        ("alg5-queries", 1_000),
        ("alg6-identify", 2_000),
        ("alg4-feedback", 1_600),
        ("alg3-chain", 4_000),
    ],
}

WORKLOADS = tuple(PLANS)

# wall_s is the wall time at the host speed at which the calibration kernel
# (`child._kernel`) takes KERNEL_REF_S: about the quietest speed of a shared
# 2-vCPU Intel Xeon host, where the kernel takes 0.1 to 0.25 ms depending
# on the neighbours' load. KERNEL_WINDOW kernel times on each side of a
# segment give the speed it ran at.
KERNEL_REF_S = 100e-6
KERNEL_WINDOW = 2

# The self-test's tiny size: every experiment at this horizon (the suite via
# `--horizon`), and every probe horizon divided by TINY_PROBE_DIVISOR.
TINY_HORIZON = 100
TINY_PROBE_DIVISOR = 20

# Horizon-scaling probe: one representative sub-run per strategy, timed and
# measured at T and at 4T. T is chosen so that the run at T takes tens of
# milliseconds on a desk machine; the superlinear strategies get a smaller T
# so that their 4T run stays near one second.
PROBE_HORIZONS: dict[str, int] = {
    "FollowSuffix": 5_000,
    "MaxPlusOne": 5_000,
    "MinMinusOne": 5_000,
    "OmissionTolerantGenerator": 5_000,
    "NoiseTolerantGenerator": 5_000,
    "SensitivityGenerator": 5_000,
    "StreamGenerator": 5_000,
    "NoisyFromStream": 5_000,
    "SamplelessFromNoisy": 5_000,
    "DedupWrapper": 5_000,
    "PrefixedGenerator": 5_000,
    "ChainGenerator": 1_000,
    "UnionFeedbackGenerator": 5_000,
    "PlainAsFeedback": 5_000,
    "OneShotProbeGenerator": 5_000,
    "StripQueries": 200,
    "IndexIdentifier": 1_000,
}
PROBE_FACTOR = 4

# Plain strategy classes whose `step` the traced run times. These are the
# ones the three workloads reach.
TRACED_GENERATORS = (
    "FollowSuffix",
    "MaxPlusOne",
    "OmissionTolerantGenerator",
    "NoiseTolerantGenerator",
    "SensitivityGenerator",
    "NoisyFromStream",
    "StreamGenerator",
    "ChainGenerator",
    "DedupWrapper",
    "SamplelessFromNoisy",
)

# The layer -> metric -> workload map of the traced run: for each layer, its
# per-layer metrics, the end-to-end metrics they should move, the workloads
# they are mostly measured on, and the workloads on which they should read
# about nothing (there the prediction for a change to that layer is "no
# change"). There are no queues or threads, so no layer has a wait time.
LAYERS: list[dict] = [
    {
        "layer": "cli",
        "metrics": ["cli.self_s", "cli.trace_files", "cli.trace_files_lost"],
        "moves": ["wall_s", "success_rate"],
        "mostly_on": ["suite"],
        "none_on": ["plain-long", "query-replay"],
    },
    {
        "layer": "experiments",
        "metrics": ["experiments.self_s", "experiments.subruns"],
        "moves": ["wall_s"],
        "mostly_on": ["suite", "query-replay"],
        "none_on": ["plain-long"],
    },
    {
        "layer": "engine",
        "metrics": [
            "engine.steps",
            "engine.run_self_us_per_step",
            "engine.verdict_us_per_call",
            "engine.validate_us_per_step",
            "engine.oracle_calls",
        ],
        "moves": ["steps_per_s"],
        "mostly_on": ["plain-long"],
        "none_on": ["query-replay"],
    },
    {
        "layer": "engine (trace)",
        "metrics": ["engine.write_trace_us_per_step", "engine.trace_bytes"],
        "moves": ["wall_s", "peak_rss_mb"],
        "mostly_on": ["suite"],
        "none_on": ["plain-long", "query-replay"],
    },
    {
        "layer": "sources",
        "metrics": [
            "sources.scripted.emit_us_per_call",
            "sources.staged.emit_us_per_call",
            "sources.staged.observe_us_per_call",
            "sources.staged.certified_mistakes",
        ],
        "moves": ["steps_per_s"],
        "mostly_on": ["plain-long"],
        "none_on": ["query-replay"],
    },
    {
        "layer": "generators",
        "metrics": [
            f"generators.{name}.step_{kind}" for name in TRACED_GENERATORS for kind in ("us_per_call", "calls")
        ],
        "moves": ["steps_per_s", "wall_s (ChainGenerator)"],
        "mostly_on": ["plain-long", "query-replay (ChainGenerator)"],
        "none_on": [],
    },
    {
        "layer": "feedback",
        "metrics": [
            "feedback.StripQueries.step_us_per_call",
            "feedback.replay_steps",
            "feedback.replay_useful_ratio",
            "feedback.IndexIdentifier.step_output_us_per_call",
            "feedback.UnionFeedbackGenerator.step_query_us_per_call",
            "feedback.UnionFeedbackGenerator.step_output_us_per_call",
        ],
        "moves": ["wall_s"],
        "mostly_on": ["query-replay", "suite (alg5's share)"],
        "none_on": ["plain-long"],
    },
    {
        "layer": "families",
        "metrics": [
            "families.closure_calls",
            "families.closure_us_per_call",
            "families.consistent_calls",
            "families.chain_links",
            "families.intersection_at_us_per_call",
        ],
        "moves": ["peak_rss_mb", "wall_s"],
        "mostly_on": ["query-replay"],
        "none_on": ["plain-long"],
    },
    {
        "layer": "langs",
        "metrics": ["langs.contains_calls", "langs.elements_iters", "langs.elements_drawn"],
        "moves": ["wall_s (IndexIdentifier re-tests)", "peak_rss_mb (elements() emitted set)"],
        "mostly_on": ["query-replay", "plain-long"],
        "none_on": [],
    },
    {
        "layer": "tracing",
        "metrics": ["tracing.overhead_ratio", "tracing.span_violations"],
        "moves": [],
        "mostly_on": ["suite", "plain-long", "query-replay"],
        "none_on": [],
    },
    {
        "layer": "scaling probe",
        "metrics": [
            f"scaling.{name}.{kind}" for name in PROBE_HORIZONS for kind in ("T", "time_4x", "mem_4x")
        ],
        "moves": ["ROADMAP target: time_4x and mem_4x at most 5"],
        "mostly_on": ["traced run of every workload"],
        "none_on": [],
    },
]
