"""Core contribution: temporal affinities, preferences, consensus and GRECA."""

from repro.core.affinity import (
    AffinityModel,
    ComputedAffinities,
    ContinuousAffinityModel,
    DiscreteAffinityModel,
    ExplicitAffinityModel,
    NoAffinityModel,
    TimeAgnosticAffinityModel,
    build_affinity_model,
    combine_continuous,
    combine_discrete,
)
from repro.core.baseline import BaselineResult, NaiveFullScan, ThresholdAlgorithmBaseline
from repro.core.bounds import Interval, PairwiseAffinityBounds
from repro.core.buffer import BufferedItem, ColumnarCandidateBuffer
from repro.core.consensus import (
    AVERAGE_PREFERENCE,
    LEAST_MISERY,
    PAIRWISE_DISAGREEMENT,
    PD_V1,
    PD_V2,
    ConsensusFunction,
    make_consensus,
)
from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory, GrecaResult
from repro.core.kernels import (
    KERNEL_FUSED,
    KERNEL_REFERENCE,
    FusedRoundKernel,
    ReferenceRoundKernel,
    RoundKernel,
    RoundState,
    kernel_names,
    register_kernel,
    resolve_kernel,
    validate_kernel_name,
)
from repro.core.lists import AccessCounter, ListEntry, SortedAccessList
from repro.core.preference import AbsolutePreferenceSource, PreferenceModel
from repro.core.recommender import GroupRecommendation, GroupRecommender
from repro.core.timeline import Period, Timeline, discretize, one_year_timeline, uniform_timeline

__all__ = [
    "AVERAGE_PREFERENCE",
    "AbsolutePreferenceSource",
    "AccessCounter",
    "AffinityModel",
    "BaselineResult",
    "BufferedItem",
    "ColumnarCandidateBuffer",
    "ComputedAffinities",
    "ConsensusFunction",
    "ContinuousAffinityModel",
    "DiscreteAffinityModel",
    "ExplicitAffinityModel",
    "FusedRoundKernel",
    "Greca",
    "GrecaIndex",
    "GrecaIndexFactory",
    "GrecaResult",
    "GroupRecommendation",
    "GroupRecommender",
    "Interval",
    "KERNEL_FUSED",
    "KERNEL_REFERENCE",
    "LEAST_MISERY",
    "ListEntry",
    "NaiveFullScan",
    "NoAffinityModel",
    "PAIRWISE_DISAGREEMENT",
    "PD_V1",
    "PD_V2",
    "PairwiseAffinityBounds",
    "Period",
    "PreferenceModel",
    "ReferenceRoundKernel",
    "RoundKernel",
    "RoundState",
    "SortedAccessList",
    "ThresholdAlgorithmBaseline",
    "TimeAgnosticAffinityModel",
    "Timeline",
    "build_affinity_model",
    "combine_continuous",
    "combine_discrete",
    "discretize",
    "kernel_names",
    "make_consensus",
    "one_year_timeline",
    "register_kernel",
    "resolve_kernel",
    "uniform_timeline",
    "validate_kernel_name",
]
