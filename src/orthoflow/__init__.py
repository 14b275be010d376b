"""Roots of continuous Hahn, Wilson and Jacobi polynomials via globally
exponentially stable gradient flows, with independent verification."""

from .errors import (
    BranchCrossing,
    ComplexRoots,
    DegenerateParameters,
    DomainViolation,
    InsufficientSamples,
    MaxIterations,
    OrthoflowError,
    ParameterError,
    PrecisionLoss,
    SingularFactor,
    SingularHessian,
    StepUnderflow,
)
from .flow import (
    FlowSettings,
    Trajectory,
    default_start,
    embed,
    flow_rhs,
    integrate,
    newton_solve,
    solve_roots,
)
from .jacobi_baseline import equispaced_start, jacobi_kappa, electrostatic_rhs
from .oracle import (
    VerificationReport,
    bethe_residual_ch,
    bethe_residual_w,
    companion_roots,
    diff_eq_residual,
    full_verify,
    min_eigenvalue_symmetric,
)
from .params import ContinuousHahnParams, Family, JacobiParams, WilsonParams
from .polynomials import (
    MonicPoly,
    VariableKind,
    eval_poly,
    monic_continuous_hahn,
    monic_jacobi,
    monic_wilson,
)
from .potentials import (
    FlowFamily,
    PotentialKind,
    antideriv_arctan,
    gradient,
    hessian,
    pair_arctan,
    potential,
)
from .rates import (
    RateReport,
    kappa_bound,
    kappa_continuous_hahn,
    kappa_continuous_hahn_symmetric,
    kappa_wilson,
    measure_decay,
)

__version__ = "0.1.0"
