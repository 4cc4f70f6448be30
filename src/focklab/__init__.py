"""focklab: weighted composition operators between Fock spaces.

Symbol algebra, Gaussian-weighted quadrature, norm and essential-norm
brackets, exact boundedness/compactness classification, compact-difference
and component/isolation decisions, with a CLI and a verification suite.
"""

from .symbols import (
    AffineMap,
    EntireFunction,
    PolyExpTerm,
    IDENTITY,
    ONE,
    ZERO,
    add,
    compose_affine,
    differentiate,
    evaluate,
    monomial,
    mul,
    scale,
    sub,
    variable,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    gaussian_integral,
)
from .fock import (
    NormValue,
    check_embedding,
    check_growth_inequalities,
    fock_distance,
    fock_norm,
    kernel,
    sup_norm,
)
from .operators import (
    FamilySpec,
    TruncatedMatrix,
    WeightedCompositionOperator,
    berezin,
    composition_operator,
    empirical_norm,
    f2_matrix,
    matrix_sigma_max,
)
from .criteria import (
    Classification,
    Decision,
    GaugeProfile,
    Verdict,
    classify,
    decide,
    dilation_compose,
    essential_norm_bracket,
    gauge_at,
    gauge_plane_norm,
    gauge_profile,
)
from .topology import (
    ComponentId,
    ComponentKind,
    DifferenceReason,
    DifferenceVerdict,
    compact_difference,
    component_id,
    distance_lower_bound,
    is_isolated,
    path_profile,
)
from .parsing import parse_affine, parse_complex, parse_symbol, render
from .config import RunConfig
from .report import Report, run

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
