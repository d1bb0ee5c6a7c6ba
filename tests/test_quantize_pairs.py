"""quantize's R1 and R2 levels are the two members of one radial pair.

Each (two_m, B) column selects one pair of the record's `pairs`: R1's
row by the selection predicates, R2's as that row's partner. So both
components read the same admissible lambda^2, float for float, and
every admissible level's two variants are one pair, reflected at B < 0
(R1's row is then the pair's R2 row). The scan is B from -6 to 6 in
steps of 0.1, odd |two_m| <= 41 and n <= 30 on both spaces, 10,164
columns, non-half-integer B and S3's strip columns (|m - 2B| < 1/2)
included. Pure Python: quantize loads no numpy.
"""

import pytest

from curved_landau.model import Component, Geometry

_FIELDS = [k / 10 for k in range(-60, 61)]
_TWO_MS = range(-41, 42, 2)
_NS = range(31)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_r1_and_r2_read_one_pair_in_every_column(geometry):
    rec = geometry.record
    members = {(pair.value.r1, pair.value.r2) for pair in rec.pairs}
    columns, levels, bad = 0, 0, []
    for B in _FIELDS:
        for two_m in _TWO_MS:
            columns += 1
            r1 = [rec.quantize(two_m, B, n, Component.R1) for n in _NS]
            r2 = [rec.quantize(two_m, B, n, Component.R2) for n in _NS]
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
    assert columns == 5082
    assert levels > 0
    assert not bad, f"{len(bad)} columns, first {bad[:3]}"
