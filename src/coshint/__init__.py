"""coshint: trinomial-denominator power integrals, four independent ways.

Evaluates the family of integrals

    integral from 0 to X of
        (x**(n+p) - 2*x**n*cos(zeta) + x**(n-p))
        / (x**(2n) - 2*x**n*cos(theta) + 1) dx/x

(X = 1 or infinity in closed form, any X in (0, 1] constructively) and
its hyperbolic-kernel normal form, with every value reachable through a
closed formula, a partial-fraction construction, a double-exponential
quadrature oracle, and an accelerated series, so the routes can be
checked against one another.  The documented failure modes (full-turn
angle shifts, imaginary base exponents) ship as assertable paradox
reports rather than silently repaired inputs.
"""

from .closed_form import (
    ClosedValue,
    LimitApplied,
    eval_cosh_ratio,
    eval_master,
    eval_sec_case,
    eval_sech2_transform,
    eval_sech_transform,
    eval_split_cos_form,
    eval_split_form,
    eval_tan_case,
    eval_theta_pi_limit,
)
from .errors import (
    BranchError,
    BudgetExceededError,
    CoshintError,
    DegenerateBetaError,
    DomainError,
    ExcludedError,
    NearPoleError,
    NonIntegrableError,
    NotIntegerExponentsError,
    PoleTooCloseError,
    SingularThetaError,
    SlowConvergenceError,
    ToleranceUnreachableError,
)
from .params import (
    DomainKind,
    DomainStatus,
    IntegrandSpec,
    NormalizedForm,
    ScaleCheck,
    canonicalize_theta,
    classify_domain,
    denormalize,
    normalize,
    rescale,
)
from .partial_fractions import (
    Decomposition,
    PartialTerm,
    antiderivative_term,
    decompose,
    fraction_coefficient,
    integral_at,
    integral_closed,
    integrand_value,
    middle_term_integral,
    pf_value_many,
    reconstruct,
    root_angles,
    squared_denominator_identity,
)
from .quadrature import (
    QuadResult,
    quad_cos_log,
    quad_sec_antiderivative_check,
    quad_t_domain,
    quad_two_sided,
    quad_x_domain,
    quad_x_domain_infinite,
    quad_x_domain_infinite_many,
    quad_x_domain_many,
)
from .series import (
    SeriesResult,
    series_contracted,
    series_contracted_many,
    series_imaginary,
    series_one_sided,
    sine_series_partial,
)
from .trig_sums import (
    AssemblyParts,
    TrigSumSpec,
    arc_cosine_sum,
    arc_sum,
    arithmetic_cosine_sum,
    assemble,
    cosine_sum,
    sine_sum,
    weighted_cosine_sum,
)
from .verify import (
    EvalReport,
    Lcg64,
    ParadoxReport,
    Verdict,
    closed_value,
    paradox_imaginary_n,
    paradox_periodicity,
    pf_value,
    quad_value,
    random_specs,
    series_value,
    verify_point,
    verify_points,
)

__version__ = "0.1.0"
