"""Secrecy-distortion regions for state-dependent joint communication and
sensing channels with perfect output feedback.

The package computes, for finite-alphabet broadcast channels where one
receiver doubles as an eavesdropper whose state is still being sensed:

* inner/outer rate bounds and exact regions under physical or reverse
  degradedness, in both partial-secrecy and single-secure-message modes;
* optimal deterministic per-letter state estimators and their distortions;
* the closed-form binary multiplicative-Bernoulli example with a
  time-sharing separation baseline;
* seeded Monte-Carlo validation of the analytic quantities.
"""

from .binary_example import (
    BaselinePoint,
    CrosscheckReport,
    ExamplePoint,
    closed_form_point,
    closed_form_sweep,
    crosscheck,
    separation_baseline,
)
from .channel import (
    ChannelSpec,
    DegradednessClass,
    DegradednessKind,
    Finding,
    ValidationReport,
    classify_degradedness,
    hamming_distortion,
    make_binary_multiplicative,
    make_channel_spec,
    parse_channel_document,
    parse_channel_spec,
    serialize_channel_spec,
    swap_receivers,
    validate,
)
from .errors import (
    CardinalityExceeded,
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    JcasError,
    MixedArity,
    NegativeProbability,
    NotDegraded,
    OverlapError,
    SchemaError,
    StochasticityError,
    UnknownVariable,
)
from .estimators import EstimatorTable, expected_distortion, synthesize_estimator
from .info import (
    InputDesign,
    JointDistribution,
    binary_entropy,
    build_joint,
    entropy,
    marginalize,
    mutual_information,
    pos_part,
)
from .regions import (
    CardinalityCaps,
    RegionPoint,
    SearchConfig,
    cardinality_caps,
    exact_region_degraded_ps,
    exact_region_degraded_single,
    exact_region_reverse_ps,
    exact_region_reverse_single,
    inner_bound_ps,
    inner_bound_single,
    outer_bound_ps,
    outer_bound_single,
    pareto_filter,
    sweep_region,
)
from .simulator import DistortionReport, EmpiricalStats, sample_run, verify_distortion

__version__ = "0.1.0"

__all__ = [
    "BaselinePoint", "CardinalityCaps", "CardinalityExceeded", "ChannelSpec",
    "CrosscheckReport", "DegenerateInput", "DegradednessClass",
    "DegradednessKind", "DimensionMismatch", "DistortionReport", "DomainError",
    "EmptyGrid", "EmpiricalStats", "EstimatorTable", "ExamplePoint", "Finding",
    "InputDesign", "JcasError", "JointDistribution", "MixedArity",
    "NegativeProbability", "NotDegraded", "OverlapError", "RegionPoint",
    "SchemaError", "SearchConfig", "StochasticityError", "UnknownVariable",
    "ValidationReport",
    "binary_entropy", "build_joint", "cardinality_caps", "classify_degradedness",
    "closed_form_point", "closed_form_sweep", "crosscheck", "entropy",
    "exact_region_degraded_ps", "exact_region_degraded_single",
    "exact_region_reverse_ps", "exact_region_reverse_single",
    "expected_distortion", "hamming_distortion", "inner_bound_ps",
    "inner_bound_single", "make_binary_multiplicative", "make_channel_spec",
    "marginalize", "mutual_information", "outer_bound_ps", "outer_bound_single",
    "pareto_filter", "parse_channel_document", "parse_channel_spec", "pos_part",
    "sample_run", "separation_baseline", "serialize_channel_spec",
    "swap_receivers", "sweep_region", "synthesize_estimator", "validate",
    "verify_distortion",
]
