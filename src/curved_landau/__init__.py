"""Bound states of a charged spin-1/2 particle in a uniform magnetic
field on the two curved 3-spaces of constant curvature.

The package root is the user API, each call under one name: the
model's vocabulary (``Geometry.H3.record.quantize`` and the other
record methods), the H3 U5 basis, the S3 axial quantization and energy,
and the Gauss-series special functions they are built from. Layers:

* :mod:`curved_landau.hyp2f1` — Gauss-series special functions on
  complex parameters (series, derivatives, connection coefficients).
* :mod:`curved_landau.model` — shared vocabulary: enums (one
  RadialPair for both spaces' pairs), solution forms, records, the
  closed-form layer's errors, and the per-space GeometryRecord
  (``Geometry.H3.record``): mu, quantization, radial and axial
  solutions and pairs, and the audits of each quantized level (unified
  formula and figure predicate), written once from kappa and two
  tables, the space's variant rows and its pairs. kappa fixes the trig
  pair, the extents, the coordinate maps, the axial (p, lambda) ->
  (P, L) map and the upper axial component.
* :mod:`curved_landau.lobachevsky` — the hyperbolic (pseudosphere)
  model: variant table and pairs, the second Kummer basis U5 (the
  record's U1 algebra at -p), the flat limit of its quantized level,
  helicity link.
* :mod:`curved_landau.spherical` — the spherical model: variant table
  and pairs, axial quantization, total energy.
* :mod:`curved_landau.cli` — the ``curved-landau`` command.

The verification layer is not imported here and is reached by module:

* :mod:`curved_landau.oracle` — independent numerics: the radial
  pair's eigensolver, ODE/system residuals, commutator convergence, series
  connection integration, and the two errors only they raise.
* :mod:`curved_landau.checks` — named verification suites. Only the
  radial, axial, commutator and pairs suites load the oracle.
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
    RadialPair,
    SigmaBranch,
    SolutionForm,
    SpectrumEntry,
    SubthresholdEnergy,
    Variable,
    Variant,
    ZeroLambda,
)
from .hyp2f1 import (
    DegenerateConnection,
    Hyp2F1Error,
    Hyp2F1Params,
    InvalidC,
    KummerBranch,
    NonConvergent,
    PoleAtNonPositiveInteger,
    eval_2f1,
    log_gamma,
    series_with_derivatives,
)
from .lobachevsky import flat_limit, h3_axial_solution, helicity_link
from .spherical import s3_axial_quantize, s3_total_energy

__all__ = [
    "__version__",
    # model
    "Component", "DomainError", "EvaluationDomain", "Geometry",
    "InadmissibleVariant", "LevelAudit", "MasslessUnsupported",
    "NegativeDiscriminant", "NonPositiveLambda", "NonTerminating",
    "RadialPair", "SigmaBranch", "SolutionForm", "SpectrumEntry",
    "SubthresholdEnergy", "Variable", "Variant", "ZeroLambda",
    # hyp2f1
    "DegenerateConnection", "Hyp2F1Error", "Hyp2F1Params", "InvalidC",
    "KummerBranch", "NonConvergent", "PoleAtNonPositiveInteger",
    "eval_2f1", "log_gamma", "series_with_derivatives",
    # lobachevsky
    "flat_limit", "h3_axial_solution", "helicity_link",
    # spherical
    "s3_axial_quantize", "s3_total_energy",
]
