"""Numerical laboratory for the interface layer of a strongly segregated
two-component condensate.

The package computes the heteroclinic connection of the coupled system

    -v1'' + v1^3 - v1 + lam * v2^2 * v1 = 0
    -v2'' + v2^3 - v2 + lam * v1^2 * v2 = 0,
    (v1, v2) -> (0, 1) as z -> -inf,  (v1, v2) -> (1, 0) as z -> +inf,

for coupling strengths lam in (1, 1e6], together with the stretched core
profile (V1, V2) solving V1'' = V2^2 V1, V2'' = V1^2 V2 with linear growth,
and uses both to check the matched-expansion error laws, the spectral
nondegeneracy of the linearization, and the interface-tension expansion.
"""

from .banded import BandedLU, BandedMatrix, SingularSystemError
from .calculus import fit_loglog, golden_minimize, quadrature, resample
from .grids import Grid, differentiate, make_grid
from .newton import (
    NewtonResult,
    NonConvergenceError,
    SingularJacobianError,
    newton_solve,
)
from .profiles import (
    PSI0,
    BlowupProfile,
    extract_kappa,
    outer_derivative,
    outer_value,
    solve_blowup,
)
from .shooting import ShootingResult, kappa_shooting
from .heteroclinic import (
    ContinuationTrace,
    HeteroclinicSolution,
    SignViolationError,
    SolutionFlags,
    continue_in_lambda,
    default_domain_halfwidth,
    default_grid,
    essential_edge,
    explicit_lambda3,
    sigma_gradient_form,
    solve_coupling,
    solve_heteroclinic,
)
from .asymptotics import (
    CompositeApproximation,
    ErrorOrders,
    ErrorReport,
    build_composite,
    fit_error_orders,
    measure_errors,
    shift_estimate,
)
from .spectrum import (
    EigenCertificate,
    SpectrumReport,
    assemble_linearized,
    count_below,
    lowest_eigenpairs,
    nondegeneracy_report,
)
from .energy import (
    LEADING_TENSION,
    EnergyReport,
    blowup_energy_coefficient,
    expansion_residual,
    partition_constant,
    sigma_full_form,
)
from .verify import (
    CriterionVerdict,
    VerificationReport,
    default_sweep,
    run_verification,
)

__version__ = "0.1.0"
