"""Hierarchical Archimedean copulas: likelihood, sampling, and
boundary-aware likelihood-ratio tests for nesting structure."""

from .density import log_density, log_density_and_derivs
from .errors import (
    ConvergenceError,
    DomainError,
    HaclrtError,
    HypothesisError,
    NumericError,
    SingularSigmaError,
)
from .estimate import FitConfig, FitResult, loglik, mle
from .fisher import (
    FisherEstimate,
    determinant_scan,
    fd_hessian,
    sigma_hat,
)
from .generators import (
    Clayton,
    Frank,
    Gumbel,
    Joe,
    get_family,
    phi,
    phi_prime,
    psi,
    psi_t_deriv,
    tau,
    tau_inv,
)
from .lrt import (
    LimitLaw,
    LrtResult,
    conditional_test,
    lrt_statistic,
    power_curve,
    project,
    run_test,
)
from .sampler import pseudo_obs, sample
from .scenarios import ScenarioSpec, rejection_table, run_scenario
from .tree import Cone, HacTree, Hypothesis, local_cones

__version__ = "0.1.0"

__all__ = [
    "Clayton",
    "Cone",
    "ConvergenceError",
    "DomainError",
    "FisherEstimate",
    "FitConfig",
    "FitResult",
    "Frank",
    "Gumbel",
    "HacTree",
    "HaclrtError",
    "Hypothesis",
    "HypothesisError",
    "Joe",
    "LimitLaw",
    "LrtResult",
    "NumericError",
    "ScenarioSpec",
    "SingularSigmaError",
    "conditional_test",
    "determinant_scan",
    "fd_hessian",
    "get_family",
    "local_cones",
    "log_density",
    "log_density_and_derivs",
    "loglik",
    "lrt_statistic",
    "mle",
    "phi",
    "phi_prime",
    "power_curve",
    "project",
    "pseudo_obs",
    "rejection_table",
    "run_scenario",
    "run_test",
    "sample",
    "sigma_hat",
    "tau",
    "tau_inv",
    "__version__",
]
