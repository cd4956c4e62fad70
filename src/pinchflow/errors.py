"""Exception types shared across the package."""

from __future__ import annotations


class PinchflowError(Exception):
    """Base class for all package errors."""


class DomainError(PinchflowError):
    """Input outside the mathematical domain of an operation."""


class DerivativeAtZero(DomainError):
    """Derivative of the threshold function requested at x = 0, where the
    radical has a branch point."""


class RootMismatch(PinchflowError):
    """Closed-form constant and independent root bracketing disagree."""


class GeometryError(PinchflowError):
    """Hypersurface state violates its geometric invariants."""


class NonEmbedded(GeometryError):
    """Profile curve self-intersects."""


class FixedPointError(PinchflowError):
    """Flow started exactly at a stationary state with no motion to integrate."""


class StepUnderflow(PinchflowError):
    """Time step fell below its floor before a terminal event.

    The floor is dt_min on the profile route and 10 ulp(t) in the ODE integrator.
    """


class MeshDegenerate(PinchflowError):
    """Adjacent profile samples collapsed below the spacing floor."""


class DegenerateGamma(PinchflowError):
    """Traceless pinching margin became non-positive; signals an upstream bug."""


class CheckFailure(PinchflowError):
    """A verification check failed.

    Carries the worst offending abscissa and margin for diagnosis.
    """

    def __init__(self, check_id: str, worst_x: float, margin: float, message: str = ""):
        self.check_id = check_id
        self.worst_x = worst_x
        self.margin = margin
        text = f"check {check_id} failed at x={worst_x!r} with margin {margin!r}"
        if message:
            text = f"{text}: {message}"
        super().__init__(text)
