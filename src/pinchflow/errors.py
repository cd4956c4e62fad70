"""Exception types shared across the package, and the overflow guard that raises one."""

from __future__ import annotations

import contextlib

import numpy as np


class PinchflowError(Exception):
    """Base class for all package errors."""


class DomainError(PinchflowError):
    """Input outside the mathematical domain of an operation."""


@contextlib.contextmanager
def double_range(what: str, c: float):
    """Raise DomainError where numpy overflows inside the block: ``what`` leaves the range at c.

    A Python float power that overflows (OverflowError) raises it too.  A
    Python float product overflows to inf silently: a block that may see
    Python floats tests its results for finiteness as well.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise DomainError(f"{what} leaves the double range at c = {c!r}") from None


class DerivativeAtZero(DomainError):
    """Derivative of the threshold function requested at x = 0, where the
    radical has a branch point."""


class RootMismatch(PinchflowError):
    """Closed-form constant and independent root bracketing disagree."""


class GeometryError(PinchflowError):
    """Hypersurface state violates its geometric invariants."""


class NonEmbedded(GeometryError):
    """Profile curve self-intersects."""


class StepUnderflow(PinchflowError):
    """Time step fell below its floor before a terminal event.

    The floor is flow.DT_MIN on the profile route and 10 ulp(t) in the ODE integrator.
    """


class MeshDegenerate(PinchflowError):
    """Adjacent profile samples collapsed below the spacing floor."""


class DegenerateGamma(PinchflowError):
    """Traceless pinching margin became non-positive; signals an upstream bug."""

