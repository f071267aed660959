"""Exact arithmetic on the free rank-3 step-2 Carnot group.

Points are pairs (x, y) where x is a 3-vector and y stores the strict
upper triangle (y12, y13, y23) of a skew-symmetric matrix.  All group
operations are low-degree polynomials, so everything here is exact up to
floating-point rounding; no integrators are involved.

The package's named input checks (`InvariantViolation`, `require_int`,
`require_real`) live here, at the bottom of the import graph, and `words`
re-exports them.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

__all__ = [
    "GroupElement",
    "DilationWeights",
    "identity",
    "multiply",
    "inverse",
    "dilate",
    "flow_const",
]


class InvariantViolation(ValueError):
    """A named domain invariant failed; `name` is machine-readable."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def require_int(name: str, value, minimum: int) -> int:
    """An integer argument of at least `minimum`, else InvariantViolation
    `name`; floats, bools and strings are rejected, numpy ints pass."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value < minimum:
                raise InvariantViolation(name, f"{name} must be >= {minimum}, got {value}")
            return value
    raise InvariantViolation(name, f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> float:
    """A real number as a float, else InvariantViolation `name`; bools,
    strings and integers too large for a float are rejected, numpy numbers pass.

    A float (numpy float64 and other float subclasses included) returns
    `float(value)` at once; every other value takes the slower `numbers.Real`
    check. Both paths accept and reject the same values."""
    if isinstance(value, float):
        return float(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvariantViolation(name, f"{name} must be a real number, got {value!r}")


def _three_reals(name: str, values) -> tuple[float, float, float]:
    """Three reals as floats, else InvariantViolation `name`; a float skips
    require_real, and a tuple of three floats comes back as the same object."""
    try:
        vec = tuple(v if type(v) is float else require_real(name, v) for v in values)
    except TypeError:  # values is not iterable
        vec = ()
    if len(vec) != 3:
        raise InvariantViolation(name, f"{name} must be 3 reals, got {values!r}")
    return values if type(values) is tuple and all(map(operator.is_, vec, values)) else vec


@dataclass(frozen=True)
class GroupElement:
    """A group point in exponential coordinates.

    ``y`` stores (y12, y13, y23); entries y_ji with j > i are never stored,
    only derived as negatives.
    """

    x: tuple[float, float, float]
    y: tuple[float, float, float]

    @staticmethod
    def of(x, y) -> "GroupElement":
        """The element of two iterables of three finite reals, kept as Python
        floats; the raw constructor, the result type of the group
        operations, checks nothing."""
        x, y = _three_reals("group-element", x), _three_reals("group-element", y)
        if not all(map(math.isfinite, x + y)):
            raise InvariantViolation("group-element", f"x and y must be finite, got {x} and {y}")
        return GroupElement(x, y)


@dataclass(frozen=True)
class DilationWeights:
    """Strictly positive anisotropic scaling weights (c1, c2, c3), in Python floats."""

    c: tuple[float, float, float]

    def __post_init__(self):
        c = _three_reals("dilation-weights", self.c)
        if not all(0.0 < ci < math.inf for ci in c):
            raise InvariantViolation("dilation-weights", f"weights must be finite and positive, got {self.c}")
        object.__setattr__(self, "c", c)


def identity() -> GroupElement:
    return GroupElement((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _product(ax, ay, bx, by) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """The group law on coordinate triples: first layers add, and the second
    picks up x x'^T - x' x^T.  `multiply` and `words.endpoint` both use it."""
    w12 = ax[0] * bx[1] - ax[1] * bx[0]
    w13 = ax[0] * bx[2] - ax[2] * bx[0]
    w23 = ax[1] * bx[2] - ax[2] * bx[1]
    return (
        (ax[0] + bx[0], ax[1] + bx[1], ax[2] + bx[2]),
        (ay[0] + by[0] + w12, ay[1] + by[1] + w13, ay[2] + by[2] + w23),
    )


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product: first layers add, second layer picks up x x'^T - x' x^T."""
    return GroupElement(*_product(a.x, a.y, b.x, b.y))


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse: componentwise negation (the commutator term cancels)."""
    return GroupElement(
        (-g.x[0], -g.x[1], -g.x[2]),
        (-g.y[0], -g.y[1], -g.y[2]),
    )


def dilate(w: DilationWeights, g: GroupElement) -> GroupElement:
    """Anisotropic scaling x_i -> c_i x_i, y_ij -> c_i c_j y_ij (an automorphism)."""
    c1, c2, c3 = w.c
    return GroupElement(
        (c1 * g.x[0], c2 * g.x[1], c3 * g.x[2]),
        (c1 * c2 * g.y[0], c1 * c3 * g.y[1], c2 * c3 * g.y[2]),
    )


def flow_const(g: GroupElement, u, t: float) -> GroupElement:
    """Endpoint of the constant-control trajectory from g with control u for time t.

    Equals right translation by (t*u, 0): along the flow the rates
    x_i u_j - x_j u_i are constant in time, so the endpoint is exact.
    """
    if type(t) is not float:
        t = require_real("flow-duration", t)
    if not 0.0 <= t < math.inf:
        raise InvariantViolation("flow-duration", f"duration must be finite and nonnegative, got {t}")
    u0, u1, u2 = _three_reals("flow-control", u)
    if not (0.0 <= u0 < math.inf and 0.0 <= u1 < math.inf and 0.0 <= u2 < math.inf):
        raise InvariantViolation("flow-control", f"controls must be finite and nonnegative, got {u}")
    return multiply(g, GroupElement((t * u0, t * u1, t * u2), (0.0, 0.0, 0.0)))
