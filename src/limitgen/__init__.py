"""Deterministic simulation framework for language generation in the limit
over the integer universe: lazy infinite languages, collection oracles,
generator strategies, scripted and adaptive adversaries, a transcripted game
loop, and a CLI of named experiments."""

from .engine import Mode, RunResult, run, validate_stream, verdict
from .errors import (
    AdversaryRepeat,
    BudgetViolation,
    LimitGenError,
    ModeMismatch,
    SearchExhausted,
    StreamEnded,
    UnboundedClosureDimension,
)
from .families import (
    ChainSpec,
    CollectionSpec,
    ExplicitCountable,
    NegFamily,
    RayFamily,
    SuffixFamily,
    UnionSpec,
    language_intersection,
    marked_neg_union,
    marked_suffix_union,
    marked_union,
    neg_union,
    ray_family,
    ray_prefix_chain,
    sensitivity_collection,
    suffix_union,
    uniform_without_samples_check,
)
from .feedback import (
    FeedbackGenerator,
    IndexIdentifier,
    OneShotProbeGenerator,
    PlainAsFeedback,
    StripQueries,
    UnionFeedbackGenerator,
    preorder_index,
)
from .generators import (
    ChainGenerator,
    DedupWrapper,
    FollowSuffix,
    Generator,
    MaxPlusOne,
    MinMinusOne,
    NoiseTolerantGenerator,
    NoisyFromStream,
    OmissionTolerantGenerator,
    SamplelessFromNoisy,
    SensitivityGenerator,
    StreamGenerator,
    intersection_generator,
    noisy_from_sampleless,
    reduce_by_prefix,
)
from .langs import (
    NEGATIVES,
    ClosedFormLanguage,
    suffix_from,
    zigzag_encode,
)
from .sources import (
    ScriptedSource,
    ScriptedSpec,
    Source,
    StagedAdversary,
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
