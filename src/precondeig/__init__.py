"""precondeig: preconditioned eigensolvers on the sphere with diagnostics.

Targets the smallest eigenpair of an SPD matrix (or SPD pencil) with
preconditioned iterations, and quantifies preconditioner quality through
spectral equivalence and the distortion angle at the target eigenvector.
"""

from . import errors
from .diagnostics import (
    RateContext,
    build_rate_context,
    check_initial,
    compute_quality,
    distortion_angle,
    kappa_nu,
    success_probability,
    theta_shao,
    validate_properties,
    xi_inf,
)
from .geometry import (
    IterateState,
    make_state,
    sphere_dist,
    sphere_exp,
    sphere_log,
)
from .linalg import (
    CholFactor,
    Rng,
    chol_solve,
    cholesky,
    gaussian_vector,
    lanczos_extremal,
    pcg,
)
from .mmio import read_matrix
from .precond import (
    DdmPreconditioner,
    Preconditioner,
    apply_fwd_iterative,
    epsilon_l,
    make_identity,
    make_mp_cholesky,
    make_spd,
    spectral_scale,
)
from .problems import (
    EigenProblem,
    fem_p1,
    generalized_reduce,
    kernel_matrix,
    laplace_fd,
    laplace_fem,
    mesh_hierarchy,
    reference_eigs,
)
from .solvers import Route, SolveResult, StepPolicy, Trace, a_x, gamma_x, mu_x, rsd_solve

__version__ = "0.1.0"

__all__ = [
    "CholFactor",
    "DdmPreconditioner",
    "EigenProblem",
    "IterateState",
    "Preconditioner",
    "RateContext",
    "Rng",
    "Route",
    "SolveResult",
    "StepPolicy",
    "Trace",
    "a_x",
    "apply_fwd_iterative",
    "build_rate_context",
    "check_initial",
    "chol_solve",
    "cholesky",
    "compute_quality",
    "distortion_angle",
    "epsilon_l",
    "errors",
    "fem_p1",
    "gamma_x",
    "gaussian_vector",
    "generalized_reduce",
    "kappa_nu",
    "kernel_matrix",
    "lanczos_extremal",
    "laplace_fd",
    "laplace_fem",
    "make_identity",
    "make_mp_cholesky",
    "make_spd",
    "make_state",
    "mesh_hierarchy",
    "mu_x",
    "pcg",
    "read_matrix",
    "reference_eigs",
    "rsd_solve",
    "spectral_scale",
    "sphere_dist",
    "sphere_exp",
    "sphere_log",
    "success_probability",
    "theta_shao",
    "validate_properties",
    "xi_inf",
]
