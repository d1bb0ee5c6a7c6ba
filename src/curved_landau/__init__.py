"""Bound states of a charged spin-1/2 particle in a uniform magnetic
field on the two curved 3-spaces of constant curvature.

Layers:

* :mod:`curved_landau.hyp2f1` — Gauss-series special functions on
  complex parameters (series, derivatives, connection coefficients).
* :mod:`curved_landau.model` — shared vocabulary: enums, solution
  forms, records, error taxonomy, and the per-space GeometryRecord
  (``Geometry.H3.record``): mu, quantization, radial and axial
  solutions and pairs, and the audit of each quantized level (unified
  formula and figure predicate), written once from kappa (which fixes
  the trig pair and the extents), the axial (p, lambda) -> (P, L) map
  and the space's variant and pair tables.
* :mod:`curved_landau.lobachevsky` — the hyperbolic (pseudosphere)
  model: variant and pair tables, axial data (its second Kummer basis
  U5 is the record's U1 algebra at -p), the flat limit of its
  quantized level, helicity link.
* :mod:`curved_landau.spherical` — the spherical model: variant and
  pair tables, axial data and quantization, total energy.
* :mod:`curved_landau.oracle` — independent numerics: a finite-volume
  eigensolver, ODE/system residuals, commutator convergence, series
  connection integration.
* :mod:`curved_landau.checks` — named verification suites.
* :mod:`curved_landau.cli` — the ``curved-landau`` command.
"""

__version__ = "1.0.0"

from .model import (
    Component,
    DomainError,
    EvaluationDomain,
    Geometry,
    InadmissibleVariant,
    LevelAudit,
    MasslessUnsupported,
    NegativeDiscriminant,
    NonPositiveLambda,
    NonTerminating,
    SigmaBranch,
    SolutionForm,
    SpectrumEntry,
    SubthresholdEnergy,
    SupportTooCloseToSingularity,
    TruncationTooSmall,
    Variable,
    Variant,
    ZeroLambda,
)
from .hyp2f1 import (
    ConnectionCoefficients,
    DegenerateConnection,
    Hyp2F1Error,
    Hyp2F1Params,
    InvalidC,
    KummerBranch,
    NonConvergent,
    PoleAtNonPositiveInteger,
    eval_2f1,
    kummer_connection,
    log_gamma,
    series_with_derivatives,
    u2_value,
    u6_value,
)
from .lobachevsky import (
    RadialPair as H3RadialPair,
    flat_limit,
    h3_axial_solution,
    h3_quantize,
    h3_radial_solution,
    helicity_link,
)
from .spherical import (
    RadialPair as S3RadialPair,
    s3_axial_quantize,
    s3_axial_solution,
    s3_quantize,
    s3_radial_solution,
    s3_total_energy,
)
from .oracle import (
    EigenReport,
    Grid1D,
    Grid2D,
    ResidualReport,
    axial_connection_check,
    commutator_residual,
    first_order_system_residual,
    gaussian_bump_spinor,
    ode_residual,
    radial_eigenvalues_h3,
    radial_eigenvalues_s3,
)
from .checks import CheckResult, SUITE_NAMES, run_suites

__all__ = [
    "__version__",
    # model
    "Component", "DomainError", "EvaluationDomain", "Geometry",
    "InadmissibleVariant", "LevelAudit", "MasslessUnsupported",
    "NegativeDiscriminant", "NonPositiveLambda", "NonTerminating",
    "SigmaBranch", "SolutionForm", "SpectrumEntry", "SubthresholdEnergy",
    "SupportTooCloseToSingularity", "TruncationTooSmall",
    "Variable", "Variant", "ZeroLambda",
    # hyp2f1
    "ConnectionCoefficients", "DegenerateConnection", "Hyp2F1Error",
    "Hyp2F1Params", "InvalidC", "KummerBranch", "NonConvergent",
    "PoleAtNonPositiveInteger", "eval_2f1", "kummer_connection",
    "log_gamma", "series_with_derivatives", "u2_value", "u6_value",
    # lobachevsky
    "H3RadialPair", "flat_limit", "h3_axial_solution", "h3_quantize",
    "h3_radial_solution", "helicity_link",
    # spherical
    "S3RadialPair", "s3_axial_quantize", "s3_axial_solution", "s3_quantize",
    "s3_radial_solution", "s3_total_energy",
    # oracle
    "EigenReport", "Grid1D", "Grid2D", "ResidualReport",
    "axial_connection_check",
    "commutator_residual", "first_order_system_residual",
    "gaussian_bump_spinor", "ode_residual", "radial_eigenvalues_h3",
    "radial_eigenvalues_s3",
    # checks
    "CheckResult", "SUITE_NAMES", "run_suites",
]
