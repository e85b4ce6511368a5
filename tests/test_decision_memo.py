"""Within one `verify` call, each (requester, file, sent rows) is decided once.

`verify` keeps every requester verdict in a memo that lives for the call.
Each report here must equal the one computed with the memo bypassed
(`conftest.unmemoized_decide`), with and without the decodability check:
for every catalog base, every 2rr1s rotation and adaptation, one share, a
loaded export, a file permutation, explicit copies (one whose placement
fails the invariance test), and a broken copy of each that keeps the
base's placement objects.  A full check builds the span of its sent
rows exactly when one of its requesters' checks is new to the call, so a
second call, or a broken copy verified after its base, reuses nothing.
"""

from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    TWO_RR_POINTS,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    explicit_kuser_mds,
    unmemoized_decide,
    verify_mod,
    with_file_one_reversed,
)
from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.field import GF2, FieldMatrix
from d2dcache.io import dump_scheme, load_scheme_text
from d2dcache.model import (
    LinearScheme,
    SenderSignal,
    canonical_file_pattern,
    enumerate_demands,
    permute_scheme,
    requesters_of,
)
from d2dcache.sharing import memory_share, symmetrize


def _bases():
    out = [(f"{p.value}/N={N}", lambda p=p, N=N: cached_2rr1s(p, N))
           for N in range(2, 5) for p in TWO_RR_POINTS]
    out.append(("n2-7-8/N=2", lambda: cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)))
    return out


TWO_RR = _bases()
SCHEMES = {
    **dict(TWO_RR),
    **{f"rotate({label})": lambda make=make: rotate_2rr1s(make()) for label, make in TWO_RR},
    **{f"adapt({label})": lambda make=make: adapt_request_random(make()).scheme
       for label, make in TWO_RR},
    "trad/coded-1-1": cached_traditional,
    **{f"{p.value}/{N},{K},{s}": lambda p=p, N=N, K=K, s=s: cached_kuser(p, N, K, s)
       for p in (CornerPointId.KU_MDS, CornerPointId.KU_MAN, CornerPointId.KU_FULL)
       for N, K, s in ((2, 3, 1), (3, 5, 2))},
    "half-rate/man-2-3 share N=3": lambda: memory_share(
        cached_2rr1s(CornerPointId.HALF_RATE, 3), cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 3),
        Fraction(2, 5)),
    "loaded kuser/man 3,5,2 export": lambda: load_scheme_text(
        dump_scheme(cached_kuser(CornerPointId.KU_MAN, 3, 5, 2))),
    "permute_scheme(half-rate N=3)": lambda: permute_scheme(
        cached_2rr1s(CornerPointId.HALF_RATE, 3), (2, 3, 1), (3, 1, 2)),
    "explicit kuser/mds 4,5,2": lambda: explicit_kuser_mds(4, 5, 2),
    "half-rate N=3, file 1 reversed": lambda: with_file_one_reversed(
        cached_2rr1s(CornerPointId.HALF_RATE, 3)),
    "symmetrize(half-rate N=2), explicit": lambda: symmetrize(
        cached_2rr1s(CornerPointId.HALF_RATE, 2)).to_explicit(),
}



def _emptied(scheme):
    """A copy sharing the placement objects, with every row of one demand removed.

    The demand is the last pattern's own, so in a file-symmetric copy its
    orbit loses its representative's verdict.
    """
    demands = [d for d in enumerate_demands(scheme.model, scheme.N, scheme.K, scheme.s)
               if requesters_of(d)]
    patterns = [d for d in demands if canonical_file_pattern(d) == d]
    demand = patterns[-1]
    delivery = dict(scheme.delivery)
    delivery[demand] = {k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
                        for k in delivery[demand]}
    broken = LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                          scheme.placement, delivery)
    assert all(a is b for a, b in zip(broken.placement, scheme.placement))
    return broken


def _spied(scheme, full_checks):
    """(report JSON; per full check: frame, sorted sent images, RowSpans it built)."""
    full_checks.clear()
    doc = verify_mod.verify(scheme).to_json_dict()
    return doc, list(full_checks.checks)


def _unmemoized(scheme, monkeypatch, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_decide", unmemoized_decide)
        return verify_mod.verify(scheme, **kwargs).to_json_dict()


def _assert_one_span_per_new_check(checks):
    """A full check builds one span if a (requester, file, sent rows) is new to the call."""
    assert checks
    seen = set()
    for d, sent, spans in checks:
        new = {(r, d[r - 1], sent) for r in requesters_of(d)} - seen
        assert spans == (1 if new else 0), d
        seen |= new


@pytest.mark.parametrize("label", list(SCHEMES))
def test_memoized_verdicts_equal_fresh_eliminations(label, monkeypatch, full_checks):
    scheme = SCHEMES[label]()
    first, checks = _spied(scheme, full_checks)
    assert first == _unmemoized(scheme, monkeypatch)
    assert (verify_mod.verify(scheme, check_decodability=False).to_json_dict()
            == _unmemoized(scheme, monkeypatch, check_decodability=False))
    _assert_one_span_per_new_check(checks)
    again, checks_again = _spied(scheme, full_checks)
    assert (again, checks_again) == (first, checks)

    # the base's verdicts do not reach a copy that shares its placements
    broken = _emptied(scheme)
    doc, checks = _spied(broken, full_checks)
    assert doc == _unmemoized(broken, monkeypatch)
    _assert_one_span_per_new_check(checks)


def test_the_key_carries_the_requester_and_the_file():
    """One memo, placement and row set over N*L = 4 symbols.  At N=4 L=1 user 1
    caches file 1, file 2 is neither cached nor sent and file 3 is sent; user
    2 caches nothing."""
    P, Q = FieldMatrix.from_rows(GF2, [[1, 0, 0, 0]]), FieldMatrix.from_rows(GF2, [[0, 0, 0, 0]])
    scheme = SimpleNamespace(N=4, L=1, field=GF2, symbol_count=4, placement=(P, Q))
    sent = [0b0100]
    verdicts = defaultdict(dict)
    assert verify_mod._failing(scheme, verdicts, (1, 1), [1, 2], sent) == (2,)
    assert verify_mod._failing(scheme, verdicts, (2, 3), [1, 2], sent) == (1,)
    assert verify_mod._failing(scheme, verdicts, (3, 2), [1], sent) == ()
    assert verify_mod._failing(scheme, verdicts, (1, 1), [1, 2], sent) == (2,)
    assert verdicts == {(1, 1): {(0b0100,): True}, (2, 1): {(0b0100,): False},
                        (1, 2): {(0b0100,): False}, (2, 3): {(0b0100,): True},
                        (1, 3): {(0b0100,): True}}


def test_a_verdict_depends_on_L():
    """File 1 is one symbol at N=4 L=1 and two at N=2 L=2; only the cached one is held."""
    P = FieldMatrix.from_rows(GF2, [[1, 0, 0, 0]])
    one = SimpleNamespace(N=4, L=1, field=GF2, symbol_count=4, placement=(P,))
    two = SimpleNamespace(N=2, L=2, field=GF2, symbol_count=4, placement=(P,))
    assert verify_mod._failing(one, defaultdict(dict), (1,), [1], [0b0100]) == ()
    assert verify_mod._failing(two, defaultdict(dict), (1,), [1], [0b0100]) == (1,)
