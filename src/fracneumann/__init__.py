"""Desk-scale workbench for the fractional Laplacian with the nonlocal
Neumann condition: operator identities, mountain-pass solutions with the
small-energy law, and the norm-ladder sup-bound certificate."""

from .mesh import DomainMesh, build_interval_mesh, build_box_mesh
from .operators import (
    FormOperator,
    assemble,
    bilinear_form,
    check_identities,
    estimate_embedding_constant,
    estimate_sobolev_constant,
    exterior_extension,
    frac_laplacian,
    neumann_derivative,
    normalization_constant,
    seminorm_form,
    verify_scaling_identity,
)
from .problem import (
    HypothesisReport,
    NonlinearitySpec,
    ProblemSpec,
    F_eval,
    check_hypotheses,
    energy,
    energy_gradient,
    f_eval,
    power_nonlinearity,
    weak_residual,
)
from .tent import K_q, TentThresholds, g_of_t, g_prime, phi_eps, solve_sigma, thresholds
from .mountain_pass import (
    MPAConfig,
    SolveReport,
    apriori_norm_certificate,
    endpoint,
    euler_identity_residual,
    mountain_pass_solve,
)
from .moser import (
    MoserLadder,
    G_trunc,
    check_G_inequality,
    g_trunc,
    norm_ladder,
    verify_caccioppoli_step,
)

__version__ = "0.1.0"
