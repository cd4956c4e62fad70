"""Curvature data of the supported hypersurface families and pinching classification.

Three families are supported: geodesic spheres (umbilic), product
hypersurfaces S^{n-1} x S^1 (two distinct principal curvatures), and
rotationally invariant hypersurfaces given by a torus-type profile curve
(curvature from the finite-difference engine in :mod:`pinchflow.axisym`).

Each family has two principal curvatures, kappa_orbit with multiplicity n-1
and kappa_profile with multiplicity 1 (:class:`pinchflow.axisym.CurvatureData`):
(k, k) on a sphere and (lam, -c/lam) on a product.

Normal orientation: the product family carries H = (n-1) lam - c/lam with
lam > 0, and geodesic spheres use the inward normal, so H > 0 for spheres
below the equator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import axisym
from .axisym import CurvatureData, curvature_data
from .errors import DomainError, GeometryError, double_range
from .thresholds import PinchingParams, family

__all__ = [
    "GeodesicSphere",
    "ProductSn1S1",
    "Axisymmetric",
    "HypersurfaceState",
    "CurvatureData",
    "PinchingClass",
    "PinchingVerdict",
    "product_lambda_for_mean_curvature",
    "curvature_of",
    "simons_W",
    "okumura_constant",
    "ricci_lower_bound",
    "classify_pinching",
]

WEAK_EQUALITY_RTOL = 1e-8


@dataclass(frozen=True)
class GeodesicSphere:
    """Geodesic sphere of radius rho, 0 < rho < pi/sqrt(c); an array rho is a trajectory."""

    rho: float | np.ndarray


@dataclass(frozen=True)
class ProductSn1S1:
    """Product hypersurface with (n-1)-fold principal curvature lam > 0.

    States built from a squared radius keep it verbatim for ``r1sq``, so that
    the numeric flow from the stationary minimal torus sees an exact fixed point
    (the lam round-trip would perturb the last ulp, which the unstable mode then
    amplifies).  Array fields are a trajectory: one state per entry.
    """

    lam: float | np.ndarray
    r1sq_exact: float | np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not np.all((self.lam > 0.0) & np.isfinite(self.lam)):
            raise GeometryError(f"product curvature lam must be positive, got {self.lam!r}")
        r1sq = 1.0 if self.r1sq_exact is None else self.r1sq_exact
        if not np.all((r1sq > 0.0) & np.isfinite(r1sq)):
            raise GeometryError(f"product r1sq_exact must be finite and positive, got {r1sq!r}")

    def r1sq(self, params: PinchingParams) -> float | np.ndarray:
        """r1^2 = 1/(c + lam^2): the kept squared radius, else from lam."""
        if self.r1sq_exact is not None:
            return self.r1sq_exact
        return (1.0 / np.sqrt(params.c + self.lam ** 2)) ** 2  # r1 = 1/sqrt(c + lam^2), squared

    @staticmethod
    def from_r1sq(r1sq, params: PinchingParams) -> "ProductSn1S1":
        c = params.c
        r1sq = np.asarray(r1sq, dtype=float)
        if not np.all((0.0 < r1sq) & (r1sq < 1.0 / c)):
            raise GeometryError(f"product state needs 0 < r1sq < 1/c, got {r1sq.tolist()!r}")
        with double_range("the product curvature", c):
            lam = np.sqrt(1.0 / r1sq - c)
        if r1sq.ndim == 0:
            return ProductSn1S1(lam=float(lam), r1sq_exact=float(r1sq))
        return ProductSn1S1(lam=lam, r1sq_exact=r1sq)


@dataclass
class Axisymmetric:
    """Torus-type profile samples (phi, xi) in the orbit space."""

    profile: np.ndarray

    def __post_init__(self):
        self.profile = np.atleast_2d(np.asarray(self.profile, dtype=float))
        if self.profile.shape[1] != 2:
            raise GeometryError("axisymmetric profile must have shape (N, 2)")

    @property
    def phi(self) -> np.ndarray:
        return self.profile[:, 0]

    @property
    def xi(self) -> np.ndarray:
        return self.profile[:, 1]


HypersurfaceState = Union[GeodesicSphere, ProductSn1S1, Axisymmetric]


class PinchingClass(enum.Enum):
    STRICT = "strict"
    WEAK_EQUALITY = "weak_equality"
    VIOLATED = "violated"


@dataclass(frozen=True)
class PinchingVerdict:
    kind: PinchingClass
    margin: float  # min over points of gamma(H^2) - |h|^2
    excess: float  # max(0, -margin)


def product_lambda_for_mean_curvature(params: PinchingParams, H: float) -> float:
    """Principal curvature of the product state with prescribed |H|.

    Positive root of (n-1) lam^2 - |H| lam - c = 0, always >= sqrt(c/(n-1)).
    """
    n, c = params.n, params.c
    return (abs(H) + np.sqrt(H * H + 4.0 * (n - 1.0) * c)) / (2.0 * (n - 1.0))


def check_sphere_radius(state: GeodesicSphere, params: PinchingParams) -> np.ndarray:
    """rho as a float array; GeometryError unless every entry lies in (0, pi/sqrt(c))."""
    rho = np.asarray(state.rho, dtype=float)
    if not np.all((0.0 < rho) & (rho < np.pi / np.sqrt(params.c))):
        raise GeometryError(
            f"geodesic sphere radius must lie in (0, pi/sqrt(c)), got {state.rho!r}"
        )
    return rho


def curvature_of(state: HypersurfaceState, params: PinchingParams) -> CurvatureData:
    """Curvature data of a state, one entry per time of a trajectory; DomainError on overflow."""
    n, c = params.n, params.c
    with double_range("the curvature", c):
        if isinstance(state, GeodesicSphere):
            rho = check_sphere_radius(state, params)
            root_c = np.sqrt(c)
            k = root_c * np.cos(root_c * rho) / np.sin(root_c * rho)
            return curvature_data(n, k, k)
        if isinstance(state, ProductSn1S1):
            lam = np.asarray(state.lam, dtype=float)
            return curvature_data(n, lam, -c / lam)
        if isinstance(state, Axisymmetric):
            axisym.validate_profile(state.phi, state.xi)
            return axisym.curvature_of_profile(state.phi, state.xi, params)
    raise GeometryError(f"unsupported hypersurface state {state!r}")


def simons_W(data: CurvatureData, params: PinchingParams) -> float | np.ndarray:
    """Reaction term W = H * tr(h^3) - |h|^4 + n c |h0|^2 from the principal curvatures."""
    n, c = params.n, params.c
    cube_sum = (n - 1.0) * data.kappa_orbit ** 3 + data.kappa_profile ** 3
    W = data.H * cube_sum - data.h_norm2 ** 2 + n * c * data.h0_norm2
    return float(W) if np.ndim(W) == 0 else W


def okumura_constant(n: int) -> float:
    """Okumura's sharp C in |tr h0^3| <= C |h0|^3 (1974), certified by verify.check_okumura."""
    return (n - 2.0) / np.sqrt(n * (n - 1.0))


def ricci_lower_bound(
    data: CurvatureData,
    params: PinchingParams,
    epsilon: float | None = None,
):
    """Lower bound for the Ricci curvature of the hypersurface.

    With epsilon given (finite and >= 0) and the state strictly pinched below
    gamma - eps*omega, also returns the positivity witness (n-1)/n * eps * omega
    as a second value.
    """
    n, c = params.n, params.c
    bound = (n - 1.0) / n * (
        n * c
        + 2.0 / n * data.H ** 2
        - data.h_norm2
        - okumura_constant(n) * np.abs(data.H) * np.sqrt(data.h0_norm2)
    )
    bound = float(bound) if np.ndim(bound) == 0 else bound
    if epsilon is None:
        return bound
    if not 0.0 <= epsilon < np.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    fam = family(params)
    x = np.asarray(data.H, dtype=float) ** 2
    g, _ = fam.gamma(x, order=0)
    (w,) = fam.omega(x, order=0)
    if not np.all(data.h_norm2 < g - epsilon * w):
        return bound, None
    witness = (n - 1.0) / n * epsilon * w
    witness = float(witness) if np.ndim(witness) == 0 else witness
    return bound, witness


def classify_pinching(data: CurvatureData, params: PinchingParams) -> PinchingVerdict:
    """Compare |h|^2 with gamma(H^2); the tolerance WEAK_EQUALITY_RTOL scales with H^2 + c."""
    fam = family(params)
    x = np.atleast_1d(np.asarray(data.H, dtype=float) ** 2)
    g, _ = fam.gamma(x, order=0)
    margin = g - np.atleast_1d(np.asarray(data.h_norm2, dtype=float))
    scale = WEAK_EQUALITY_RTOL * (x + params.c)
    m = float(margin.min())
    if np.any(margin < -scale):
        kind = PinchingClass.VIOLATED
    elif np.all(margin > scale):
        kind = PinchingClass.STRICT
    else:
        kind = PinchingClass.WEAK_EQUALITY
    return PinchingVerdict(kind=kind, margin=m, excess=max(0.0, -m))
