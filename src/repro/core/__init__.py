"""GLADIATOR's core: speculation policies, the graph model, and supporting tools."""

from .boolean_minimize import (
    Implicant,
    count_literals,
    evaluate,
    expression_to_string,
    quine_mccluskey,
)
from .calibration import CalibrationData
from .eraser import EraserMPolicy, EraserPolicy
from .gladiator import GladiatorMPolicy, GladiatorPolicy
from .gladiator_d import GladiatorDMPolicy, GladiatorDPolicy
from .graph_model import (
    GraphModelConfig,
    GroupInfo,
    QubitContext,
    TransitionModel,
    labels_for_qubit,
    qubit_context,
)
from .mobility import (
    MOBILITY_THRESHOLD,
    MobilityEstimate,
    MobilityEstimator,
    MobilityRecordingPolicy,
    classify_mobility,
)
from .patterns import (
    bits_to_int,
    count_eraser_patterns,
    eraser_flags_pattern,
    int_to_bits,
    pattern_to_string,
    popcount,
    string_to_int,
    tag_pattern,
    untag_pattern,
)
from .policies import (
    POLICY_NAMES,
    AlwaysLrcPolicy,
    MlrOnlyPolicy,
    NoLrcPolicy,
    OraclePolicy,
    StaggeredLrcPolicy,
    make_policy,
)
from .speculator import LeakagePolicy, LookupPolicy, SpeculationInput

__all__ = [
    # speculation framework
    "LeakagePolicy",
    "LookupPolicy",
    "SpeculationInput",
    "make_policy",
    "POLICY_NAMES",
    # policies
    "EraserPolicy",
    "EraserMPolicy",
    "GladiatorPolicy",
    "GladiatorMPolicy",
    "GladiatorDPolicy",
    "GladiatorDMPolicy",
    "NoLrcPolicy",
    "AlwaysLrcPolicy",
    "StaggeredLrcPolicy",
    "MlrOnlyPolicy",
    "OraclePolicy",
    # graph model
    "GraphModelConfig",
    "TransitionModel",
    "QubitContext",
    "GroupInfo",
    "qubit_context",
    "labels_for_qubit",
    "CalibrationData",
    # patterns & boolean minimisation
    "bits_to_int",
    "int_to_bits",
    "pattern_to_string",
    "string_to_int",
    "popcount",
    "eraser_flags_pattern",
    "count_eraser_patterns",
    "tag_pattern",
    "untag_pattern",
    "Implicant",
    "quine_mccluskey",
    "expression_to_string",
    "count_literals",
    "evaluate",
    # mobility
    "MobilityEstimator",
    "MobilityEstimate",
    "MobilityRecordingPolicy",
    "classify_mobility",
    "MOBILITY_THRESHOLD",
]
