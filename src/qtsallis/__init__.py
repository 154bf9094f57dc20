"""Nonadditive (Tsallis) entropies, classical and quantum, and the
entanglement thresholds they locate in GHZ-diluted mixed states."""

from .classical import (ChainDecomposition, EntropicIndex, JointDist,
                        ProbDist, compose_pseudoadditive,
                        conditional_entropy_def, conditional_entropy_ratio,
                        escort, q_expectation, tripartite_chain,
                        tsallis_entropy)
from .errors import (CapacityError, MonotonicityError, NumericalError,
                     QTsallisError, SingularityError, ValidationError)
from .oracle import (Comparison, VerificationReport, default_family_grid,
                     default_order_grid, ghz_vector, verify_family,
                     verify_separable_witness, werner_density)
from .quantum import (DensityMatrix, SeparableDecomposition, Spectrum,
                      partial_trace, q_trace,
                      quantum_conditional, quantum_tsallis,
                      separable_conditional_direct, separable_state,
                      spectrum_of, tensor_product, von_neumann)
from .solver import (ThresholdCurve, ThresholdPoint, asymptotic_threshold,
                     entropy_sign, threshold_curve, threshold_for_q)
from .werner import (WernerParams, conditional_entropy_block, joint_spectrum,
                     marginal_spectrum)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChainDecomposition",
    "Comparison",
    "DensityMatrix",
    "EntropicIndex",
    "JointDist",
    "MonotonicityError",
    "NumericalError",
    "ProbDist",
    "QTsallisError",
    "SeparableDecomposition",
    "SingularityError",
    "Spectrum",
    "ThresholdCurve",
    "ThresholdPoint",
    "ValidationError",
    "VerificationReport",
    "WernerParams",
    "asymptotic_threshold",
    "compose_pseudoadditive",
    "conditional_entropy_block",
    "conditional_entropy_def",
    "conditional_entropy_ratio",
    "default_family_grid",
    "default_order_grid",
    "entropy_sign",
    "escort",
    "ghz_vector",
    "joint_spectrum",
    "marginal_spectrum",
    "partial_trace",
    "q_expectation",
    "q_trace",
    "quantum_conditional",
    "quantum_tsallis",
    "separable_conditional_direct",
    "separable_state",
    "spectrum_of",
    "tensor_product",
    "threshold_curve",
    "threshold_for_q",
    "tripartite_chain",
    "tsallis_entropy",
    "verify_family",
    "verify_separable_witness",
    "von_neumann",
    "werner_density",
]
