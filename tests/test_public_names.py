"""The package's public names, and the one RadialPair table that the two
spaces' records split between them."""

import enum

import curved_landau
from curved_landau import checks, hyp2f1, lobachevsky, model, oracle, spherical
from curved_landau.model import Geometry, RadialPair

# Every name the package root exports, sorted: the user API. A change to
# the package's public surface edits this list.
PUBLIC_NAMES = [
    "Component", "DegenerateConnection", "DomainError", "EvaluationDomain",
    "Geometry", "Hyp2F1Error", "Hyp2F1Params", "InadmissibleVariant",
    "InvalidC", "KummerBranch", "LevelAudit", "MasslessUnsupported",
    "NegativeDiscriminant", "NonConvergent", "NonPositiveLambda",
    "NonTerminating", "PoleAtNonPositiveInteger", "RadialPair",
    "SigmaBranch", "SolutionForm", "SpectrumEntry", "SubthresholdEnergy",
    "Variable", "Variant", "ZeroLambda", "__version__", "eval_2f1",
    "flat_limit", "h3_axial_solution", "helicity_link", "log_gamma",
    "s3_axial_quantize", "s3_total_energy", "series_with_derivatives",
]

# Calls the package root offers once, in the record's spelling
# (Geometry.H3.record.quantize and so on), and the errors only the
# oracle raises: none of them is an attribute of the root.
NOT_AT_ROOT = [
    "h3_quantize", "s3_quantize", "h3_radial_solution",
    "s3_radial_solution", "s3_axial_solution", "TruncationTooSmall",
    "SupportTooCloseToSingularity",
]

# The verification layer, its two errors and the connection helpers it
# uses stay in their own modules (and in each module's __all__, by which
# the benchmark's tracer wraps them), not at the package root.
MODULE_NAMES = {
    oracle: ["EigenReport", "Grid1D", "Grid2D", "ResidualReport",
             "SupportTooCloseToSingularity", "TruncationTooSmall",
             "axial_connection_check", "commutator_residual",
             "first_order_system_residual", "gaussian_bump_spinor",
             "ode_residual", "radial_eigenvalues_h3",
             "radial_eigenvalues_s3"],
    checks: ["CheckResult", "SUITE_NAMES", "run_suites"],
    hyp2f1: ["ConnectionCoefficients", "kummer_connection", "u2_value",
             "u6_value"],
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(curved_landau.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(curved_landau, name), name
    for name in NOT_AT_ROOT:
        assert not hasattr(curved_landau, name), name


def test_verification_names_live_in_their_modules():
    assert sum(map(len, MODULE_NAMES.values())) == 20
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert hasattr(module, name), (module.__name__, name)
            assert name in module.__all__, (module.__name__, name)
            assert name not in curved_landau.__all__, name


def test_the_oracle_owns_its_errors():
    for name in ("TruncationTooSmall", "SupportTooCloseToSingularity"):
        assert name not in model.__all__ and not hasattr(model, name), name
        assert issubclass(getattr(oracle, name), ValueError), name


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
