"""quantize's R1 and R2 levels are the two members of one radial pair.

Each (two_m, B) column selects one pair of the record's `pairs`: the
first whose R1 form builds, by radial_solution's rule (m-range and, on
S3, A, C > 0), and whose R2 variant is in its m-range. R1 reads that
pair's R1 row and R2 its R2 row. So both components read the same
admissible lambda^2, float for float, and every admissible level's two
variants are one pair, reflected at B < 0 (R1's row is then the pair's
R2 row). The pair taken is also held to a hand-written statement of
R1's variant (_expected_r1), and in every column with an admissible
level radial_solution builds both variants, save 1' at S3's tie
m = 2B (A = 0). The scan is B from -6 to 6 in steps of 0.1, odd
|two_m| <= 41 and n <= 30 on both spaces, 10,164 columns, non-half-
integer B and S3's strip columns (|m - 2B| < 1/2) included, plus the
tie columns (B, two_m) = (0.25, 1), (0.75, 3), (1.25, 5), (2.75, 11)
and their reflections, which the 0.1 grid misses. Pure Python:
quantize loads no numpy.
"""

import pytest

from curved_landau.model import Component, Geometry, InadmissibleVariant, Variant

_FIELDS = [k / 10 for k in range(-60, 61)]
_TWO_MS = range(-41, 42, 2)
_NS = range(31)
_TIES = [(0.25, 1), (0.75, 3), (1.25, 5), (2.75, 11)]
_COLUMNS = ([(B, two_m) for B in _FIELDS for two_m in _TWO_MS]
            + _TIES + [(-B, -two_m) for B, two_m in _TIES])


def _expected_r1(geometry, two_m, B):
    """R1's variant at B >= 0, as the pair rule reads on each space: on
    H3 1 for m >= 1/2, else 2 above m = 1/2 - B, else none; on S3 1 for
    m < 0, else 2 below m = 2B, else 3."""
    if geometry is Geometry.H3:
        return (Variant.V1 if two_m >= 1
                else Variant.V2 if two_m / 2.0 > 0.5 - B else None)
    return (Variant.V1 if two_m <= -1
            else Variant.V2 if two_m / 2.0 < 2 * B else Variant.V3)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_r1_and_r2_read_one_pair_in_every_column(geometry):
    rec = geometry.record
    members = {(pair.value.r1, pair.value.r2) for pair in rec.pairs}
    columns, levels, built, bad = 0, 0, 0, []
    for B, two_m in _COLUMNS:
        columns += 1
        r1 = [rec.quantize(two_m, B, n, Component.R1) for n in _NS]
        r2 = [rec.quantize(two_m, B, n, Component.R2) for n in _NS]
        # the pair's R1 variant: R1's at B >= 0, R2's at B < 0, where
        # the B >= 0 table answers at the reflected point (-two_m, -B)
        if B < 0.0:
            selected, expected = r2[0].variant, _expected_r1(geometry, -two_m, -B)
        else:
            selected, expected = r1[0].variant, _expected_r1(geometry, two_m, B)
        if selected is not expected:
            bad.append((two_m, B, "selection", selected))
            continue
        # a pair's zero mode (lambda^2 = 0, not admissible) shifts
        # one member's n by 1, so one list may run one level longer
        short, long = sorted(([e.lambda_sq for e in r1 if e.admissible],
                              [e.lambda_sq for e in r2 if e.admissible]),
                             key=len)
        if long[:len(short)] != short or len(long) - len(short) > 1:
            bad.append((two_m, B, "levels", short[:3], long[:3]))
            continue
        for e1, e2 in zip(r1, r2):
            if not (e1.admissible or e2.admissible):
                continue
            levels += 1
            pair = (e2.variant, e1.variant) if B < 0.0 else (e1.variant, e2.variant)
            if pair not in members:
                bad.append((two_m, B, "pair", pair))
                break
        if not long:
            continue
        tie = geometry is Geometry.S3 and abs(two_m) == 4 * abs(B)
        for component, entry in ((Component.R1, r1[0]), (Component.R2, r2[0])):
            if tie and entry.variant is Variant.V1P:
                with pytest.raises(InadmissibleVariant, match="exponents A = 0.0"):
                    rec.radial_solution(two_m, B, long[0], component, entry.variant)
                continue
            rec.radial_solution(two_m, B, long[0], component, entry.variant)
            built += 1
    assert columns == 5082 + 2 * len(_TIES)
    assert levels > 0 and built > 0
    assert not bad, f"{len(bad)} columns, first {bad[:3]}"
