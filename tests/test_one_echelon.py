"""Each placement is eliminated once.

A placement's cached echelon (`FieldMatrix._echelon`) is its user's span
in `verify`, `prune_signal` and the invariance test, and a consumer that
grows a span grows a copy.  So verifying a built OrbitScheme makes one new
RowSpan per full check, the span of the sent rows, and no transform or
check changes a cached echelon.
"""

from fractions import Fraction

import pytest

from conftest import cached_2rr1s, cached_kuser, verify_mod
from d2dcache.adapters import adapt_request_random, prune_signal, rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.model import OrbitScheme, enumerate_demands, enumerate_patterns, requesters_of
from d2dcache.sharing import memory_share

SCHEMES = {
    "kuser/man 3,5,2": lambda: cached_kuser(CornerPointId.KU_MAN, 3, 5, 2),
    "half-rate N=4": lambda: cached_2rr1s(CornerPointId.HALF_RATE, 4),
    "half-rate/man-2-3 share N=3": lambda: memory_share(
        cached_2rr1s(CornerPointId.HALF_RATE, 3), cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 3),
        Fraction(2, 5)),
}


@pytest.mark.parametrize("label", list(SCHEMES))
def test_verify_makes_one_span_per_full_check(label, full_checks):
    scheme = SCHEMES[label]()
    assert isinstance(scheme, OrbitScheme)
    full_checks.clear()
    assert verify_mod.verify(scheme).passed
    assert full_checks.frames == enumerate_patterns(scheme.model, scheme.N, scheme.K, scheme.s)
    assert full_checks.spans == len(full_checks.frames)


def _pivots(schemes):
    return [(P._echelon, dict(P._echelon.pivots)) for s in schemes for P in s.placement]


@pytest.mark.parametrize("point,N", [
    (CornerPointId.MDS_HALF, 3),
    (CornerPointId.HALF_RATE, 2),
    (CornerPointId.N2_SEVEN_EIGHTHS, 2),
])
def test_cached_echelons_survive_every_consumer(point, N):
    base = cached_2rr1s(point, N)
    before = _pivots([base])
    verify_mod.verify(base)
    for d in enumerate_demands(base.model, N, 3, 1):
        prune_signal(base, d, requesters_of(d))
    rotated = rotate_2rr1s(base)
    adapted = adapt_request_random(base).scheme
    derived = _pivots([rotated, adapted])
    verify_mod.verify(rotated)
    verify_mod.verify(adapted)
    for echelon, pivots in before + derived:
        assert echelon.pivots == pivots
    assert all(P._echelon is echelon for P, (echelon, _) in zip(base.placement, before))
