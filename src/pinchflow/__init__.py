"""Curvature-pinching thresholds and mean curvature flow in spherical space forms."""

__version__ = "0.1.0"

from .errors import (
    CheckFailure,
    DegenerateGamma,
    DerivativeAtZero,
    DomainError,
    FixedPointError,
    GeometryError,
    MeshDegenerate,
    NonEmbedded,
    PinchflowError,
    RootMismatch,
    StepUnderflow,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    TerminalEvent,
    TerminalKind,
    default_epsilon,
    flow_axisymmetric,
    flow_ode_numeric,
    flow_product_exact,
    monitors_update,
)
from .geometry import (
    Axisymmetric,
    CurvatureData,
    GeodesicSphere,
    HypersurfaceState,
    PinchingClass,
    PinchingVerdict,
    ProductSn1S1,
    classify_pinching,
    curvature_of,
    product_lambda_for_mean_curvature,
    ricci_lower_bound,
    simons_W,
)
from .thresholds import CriticalConstants, PinchingParams, ThresholdFamily, family
from .verify import CheckReport, default_suite
