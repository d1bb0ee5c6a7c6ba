"""GeometryRecord.audits: one pass of the level rule over a (two_m, B)
column gives every field of the one-level audits,
[audits(two_m, B, (n,))[0] for n in ns], with the same float bits, and
refuses what a one-level audit refuses with the same DomainError."""

import math

import numpy as np
import pytest

from curved_landau.model import Component, DomainError, Geometry

FIELDS = (0.0, -0.0, 1.0, 2.5, -2.5, 5.0, -4.0)
NS = list(range(12))


def _switch_two_ms(geometry, B):
    """2m at the points where the R1 row changes, at the reflected |B|:
    H3 m = 1/2 and m = 1/2 - B; S3 m = +-1/2, 2B - 1/2 and 2B + 1/2."""
    b = abs(B)
    if geometry is Geometry.H3:
        return [1, 1 - 2 * b]
    return [1, -1, 4 * b - 1, 4 * b + 1]


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("B", FIELDS, ids=repr)
def test_audits_equal_audit_bit_for_bit(geometry, B):
    rec = geometry.record
    switches = _switch_two_ms(geometry, B)
    two_ms = [t for t in range(int(min(switches)) - 5, int(max(switches)) + 6)
              if t % 2]
    assert all(any(abs(t - s) <= 1 for t in two_ms) for s in switches)
    zero_modes = 0
    for two_m in two_ms:
        column = rec.audits(two_m, B, NS)
        single = [rec.audits(two_m, B, (n,))[0] for n in NS]
        # repr spells every field, so signed zeros and last bits count
        assert repr(column) == repr(single), two_m
        for n, audit in zip(NS, column):
            assert repr(audit.entry) == repr(
                rec.quantize(two_m, B, n, Component.R1)), (two_m, n)
        zero_modes += sum(a.entry.lambda_sq == 0.0 for a in column)
    # the lambda^2 = 0 zero modes are in the column, except on S3 where
    # only variant 2 at n = 0 has them, and only for B > 0
    assert zero_modes > 0 or (geometry is Geometry.S3 and not B > 0.0)


@pytest.mark.parametrize("geometry", list(Geometry))
def test_audits_take_the_integers_audit_takes(geometry):
    rec = geometry.record
    ns = [True, np.int32(2), np.int64(3)]
    assert repr(rec.audits(np.int64(3), 1.0, ns)) == repr(
        [rec.audits(np.int64(3), 1.0, (n,))[0] for n in ns])
    assert rec.audits(1, 1.0, []) == []
    # a numpy integer's 2n does not wrap at the int64 edge
    edge = rec.audits(-1, 0.5, [np.int64(2 ** 62)])[0]
    assert edge.predicate == rec.audits(-1, 0.5, (2 ** 62,))[0].predicate > 0


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("make", [iter, lambda ns: (n for n in ns)],
                         ids=["iterator", "generator"])
def test_audits_read_ns_once(geometry, make):
    # the level rule consumed an iterator, and audits then zipped over
    # nothing and returned []
    rec = geometry.record
    for two_m, B in ((1, 5.0), (-1, 0.5), (3, -2.5)):
        column = rec.audits(two_m, B, make(NS))
        assert len(column) == len(NS)
        assert repr(column) == repr(rec.audits(two_m, B, NS))


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("two_m, B, n", [
    (1, math.nan, 0), (1, math.inf, 0), (1, -math.inf, 0),
    (2, 1.0, 0), (3.0, 1.0, 0),
    (1, 1.0, -1), (1, 1.0, 1.5), (1, 1.0, 10 ** 400),
    # H3 has no row here, so 2n reached the predicate and overflowed
    (-1, 0.5, 10 ** 308),
], ids=repr)
def test_audits_refuse_what_audit_refuses(geometry, two_m, B, n):
    rec = geometry.record
    with pytest.raises(DomainError) as single:
        rec.audits(two_m, B, (n,))[0]
    with pytest.raises(DomainError) as column:
        rec.audits(two_m, B, [0, 1, n])
    assert str(column.value) == str(single.value)
