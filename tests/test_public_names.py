"""The package's public names, and the one RadialPair table that the two
spaces' records split between them."""

import enum

import curved_landau
from curved_landau import lobachevsky, spherical
from curved_landau.model import Geometry, RadialPair

# Every public name, sorted. A change to the package's public surface
# edits this list.
PUBLIC_NAMES = [
    "CheckResult", "Component", "ConnectionCoefficients",
    "DegenerateConnection", "DomainError", "EigenReport", "EvaluationDomain",
    "Geometry", "Grid1D", "Grid2D", "Hyp2F1Error", "Hyp2F1Params",
    "InadmissibleVariant", "InvalidC", "KummerBranch", "LevelAudit",
    "MasslessUnsupported", "NegativeDiscriminant", "NonConvergent",
    "NonPositiveLambda", "NonTerminating", "PoleAtNonPositiveInteger",
    "RadialPair", "ResidualReport", "SUITE_NAMES", "SigmaBranch",
    "SolutionForm", "SpectrumEntry", "SubthresholdEnergy",
    "SupportTooCloseToSingularity", "TruncationTooSmall", "Variable",
    "Variant", "ZeroLambda", "__version__", "axial_connection_check",
    "commutator_residual", "eval_2f1", "first_order_system_residual",
    "flat_limit", "gaussian_bump_spinor", "h3_axial_solution", "h3_quantize",
    "h3_radial_solution", "helicity_link", "kummer_connection", "log_gamma",
    "ode_residual", "radial_eigenvalues_h3", "radial_eigenvalues_s3",
    "run_suites", "s3_axial_quantize", "s3_axial_solution", "s3_quantize",
    "s3_radial_solution", "s3_total_energy", "series_with_derivatives",
    "u2_value", "u6_value",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(curved_landau.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(curved_landau, name), name


def test_radial_pair_rows_are_distinct():
    # Enum makes a member whose value equals an earlier one an alias of
    # it, so a duplicated row would silently drop a pair
    members = list(RadialPair.__members__.values())
    assert len(members) == 5
    assert members == list(RadialPair)
    assert len({pair.value for pair in RadialPair}) == 5


def test_the_records_split_the_pairs():
    h3, s3 = Geometry.H3.record, Geometry.S3.record
    assert len(set(h3.pairs)) == len(h3.pairs) == 2
    assert len(set(s3.pairs)) == len(s3.pairs) == 3
    assert not set(h3.pairs) & set(s3.pairs)
    assert set(h3.pairs) | set(s3.pairs) == set(RadialPair)
    for rec in (h3, s3):  # each pair's variants are rows of its space
        for pair in rec.pairs:
            rec.row(pair.value.r1)
            rec.row(pair.value.r2)


def test_the_space_modules_define_no_enum():
    for module in (lobachevsky, spherical):
        assert not [value for value in vars(module).values()
                    if isinstance(value, enum.EnumMeta)
                    and value.__module__ == module.__name__], module.__name__
