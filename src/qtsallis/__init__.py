"""Nonadditive (Tsallis) entropies, classical and quantum, and the
entanglement thresholds they locate in GHZ-diluted mixed states."""

import importlib

from ._index import Spectrum
from .errors import (CapacityError, MonotonicityError, NumericalError, QTsallisError,
                     ValidationError)
from .solver import ThresholdPoint, asymptotic_threshold, threshold_curve, threshold_for_q
from .werner import (WernerParams, conditional_entropy_block, joint_spectrum,
                     marginal_spectrum)

#: Names from the modules that import numpy -> that module; each module
#: loads on first use, so the closed-form path never imports numpy.
_LAZY = {
    **dict.fromkeys(("ChainDecomposition", "JointDist", "ProbDist",
                     "compose_pseudoadditive", "conditional_entropy_def",
                     "conditional_entropy_ratio", "escort", "q_expectation",
                     "tripartite_chain", "tsallis_entropy"), "classical"),
    **dict.fromkeys(("DensityMatrix", "partial_trace", "quantum_conditional",
                     "quantum_tsallis", "spectrum_of", "tensor_product"), "quantum"),
    **dict.fromkeys(("Comparison", "VerificationReport", "default_family_grid",
                     "default_order_grid", "verify_family", "verify_separable_witness",
                     "werner_density"), "oracle"),
}

__version__ = "0.1.0"

#: The eager names, by module as imported above, and every lazy one.
__all__ = sorted([
    "Spectrum", "CapacityError", "MonotonicityError", "NumericalError", "QTsallisError",
    "ValidationError", "ThresholdPoint",
    "asymptotic_threshold", "threshold_curve", "threshold_for_q",
    "WernerParams", "conditional_entropy_block", "joint_spectrum", "marginal_spectrum",
    *_LAZY,
])


def __getattr__(name: str):
    """Resolve a name of :data:`_LAZY`, or one of its modules, importing
    the module on first use; nothing is cached here, so the name always
    reads the module's current binding."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
