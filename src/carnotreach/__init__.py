"""Attainable set of the positive-control system on the free rank-3
step-2 Carnot group: exact group and word arithmetic, the adjoint
(Pontryagin) machinery, a second-order non-optimality test, an
attainability solver, and a boundary-face atlas with mesh export."""

from .adjoint import AdjointCovector, RegimeReport, casimir, synthesize, switching_times
from .attainability import FitResult, fit
from .group import DilationWeights, GroupElement, dilate, flow_const, identity, inverse, multiply
from .probability import DiscreteDistribution, dice_pqr, random_dice_check
from .second_order import SecondOrderReport, ag_test, conjugated_fields
from .words import (
    InvariantViolation,
    PqrPoint,
    Word,
    canonicalize,
    endpoint,
    pqr,
    random_word,
    reverse,
    to_section,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointCovector",
    "DilationWeights",
    "DiscreteDistribution",
    "FitResult",
    "GroupElement",
    "InvariantViolation",
    "PqrPoint",
    "RegimeReport",
    "SecondOrderReport",
    "Word",
    "ag_test",
    "canonicalize",
    "casimir",
    "conjugated_fields",
    "dice_pqr",
    "dilate",
    "endpoint",
    "fit",
    "flow_const",
    "identity",
    "inverse",
    "multiply",
    "pqr",
    "random_dice_check",
    "random_word",
    "reverse",
    "switching_times",
    "synthesize",
    "to_section",
]
