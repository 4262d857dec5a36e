"""Formal solutions and uniqueness certificates for nonlinear equations
whose time derivative enters through the Euler operator t d/dt.

The package constructs the unique formal power-series solution when the
spectrum allows it, and certifies the uniqueness machinery numerically on
concrete instances: majorant norms, the barrier combination, its
differential inequality, and the backward flow it controls.
"""

__version__ = "0.1.0"

from .certificate import (
    BarrierParams,
    BarrierSystem,
    Decomposition,
    ProfileFamily,
    barrier_grid,
    build_shifted_rhs,
    choose_params,
    normal_form,
    profile_family,
    reconstruct,
    verify_barrier,
)
from .characteristics import (
    CharacteristicPath,
    check_radius_bounds,
    check_reaches_origin,
    check_weighted_decay,
    decay_profile,
    integrate,
    smallness_box,
)
from .builtin import (
    BUILTIN_NAMES,
    closed_form_eval,
    closed_form_series,
    load_equation,
    parse_equation,
)
from .equation import Applicability, CharData, FuchsianEquation, applicability
from .errors import (
    A2Violation,
    A3Violation,
    DimensionMismatch,
    HypothesisViolated,
    IndexOutOfLambda,
    IndicialZero,
    InexactRoots,
    InputError,
    MissingSubstitution,
    NegativeCoefficient,
    NonpositiveExponent,
    NotInvertible,
    SearchExhausted,
    ToolkitError,
    TruncationExhausted,
    UnsplittableTerm,
)
from .majorant import (
    NormProfileZ,
    RhoPoly,
    SectorMajorant,
    norm_x,
    norm_xz,
    weight,
)
from .rational import CRat, Frac, crat_sqrt_exact, frac_sqrt_exact, sqrt_upper
from .series import SeriesTX, SeriesTXZ, ZKey, alphas_of_degree, lambda_keys
from .solver import (
    FormalSolution,
    derivative_tuple,
    manufactured,
    residual,
    solve_formal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
