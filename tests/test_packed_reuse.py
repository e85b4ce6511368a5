"""Explicit verify: one product per distinct encoding and a packed reuse test.

Each scheme is verified twice: as the package does it, and with
`_demand_entries` swapped for the oracle `conftest.multiset_rule_entries`,
which multiplies out every demand on its own and applies the sorted
multiset rule.  Both must give the full check to the same demands, in the
same order, and produce identical reports.
"""

import importlib

import pytest

import conftest
from conftest import cached_2rr1s, cached_kuser, explicit_kuser_mds, multiset_rule_entries
from d2dcache.adapters import rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.field import FieldMatrix, solve_in_rowspace
from d2dcache.model import (
    LinearScheme,
    SenderSignal,
    canonical_file_pattern,
    enumerate_demands,
    file_relabelling,
    move_files,
    permute_scheme,
)

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")

MDS, MAN = CornerPointId.KU_MDS, CornerPointId.KU_MAN


def _explicit(scheme, delivery=None) -> LinearScheme:
    return LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                        scheme.placement, dict(scheme.delivery if delivery is None else delivery))


def _member(scheme, pattern, i):
    """The i-th demand of the pattern's orbit in enumeration order; 0 is the pattern."""
    return sorted(d for d in scheme.delivery if canonical_file_pattern(d) == pattern)[i]


def _without_rows(scheme, d) -> LinearScheme:
    """The kuser/mds broken copy of the benchmark: every delivery row of d removed."""
    delivery = dict(scheme.delivery)
    delivery[d] = {k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
                   for k in delivery[d]}
    return _explicit(scheme, delivery)


def _rows_changed(scheme, change):
    """A copy whose first non-pattern demand with two rows at one sender sends change(images)."""
    for d, per in scheme.delivery.items():
        for k, sig in per.items():
            if canonical_file_pattern(d) != d and sig.matrix.nrows > 1:
                images = change(sig.matrix.images)
                moved = FieldMatrix(scheme.field, len(images), sig.matrix.ncols, images)
                return _explicit(scheme, {**scheme.delivery, d: {**per, k: SenderSignal(moved)}}), d
    raise AssertionError("no sender with two rows")


def _row_moved(scheme):
    """(copy, d): a non-pattern demand d with one row sent by another sender that caches it.

    The moved row goes last in the other sender's rows.
    """
    for d, per in scheme.delivery.items():
        if canonical_file_pattern(d) == d:
            continue
        for a, b in ((a, b) for a in per for b in per if a != b):
            rows = per[a].matrix.matmul(scheme.placement[a - 1]).rows
            for i, row in enumerate(rows):
                coeffs = solve_in_rowspace(row, scheme.placement[b - 1])
                if coeffs is None:
                    continue
                kept = [r for j, r in enumerate(per[a].matrix.rows) if j != i]
                width_a, width_b = per[a].matrix.ncols, per[b].matrix.ncols
                moved = {**per,
                         a: SenderSignal(FieldMatrix.from_rows(scheme.field, kept, width_a)),
                         b: SenderSignal(FieldMatrix.from_rows(
                             scheme.field, [*per[b].matrix.rows, coeffs], width_b))}
                return _explicit(scheme, {**scheme.delivery, d: moved}), d
    raise AssertionError("no row cached by two senders")


def _sent(scheme, d) -> list[int]:
    """d's transmitted row images, sender by sender."""
    return [image for mat in scheme.transmitted_rows(d).values() for image in mat.images]


def _pattern_rows_moved(scheme, d) -> list[int]:
    """The transmitted images of d's pattern, each moved onto d."""
    pattern = _member(scheme, canonical_file_pattern(d), 0)
    perm = file_relabelling(pattern, d, scheme.N)
    return [move_files(image, perm, scheme.L * scheme.field.m) for image in _sent(scheme, pattern)]


def _broken(pattern, i):
    scheme = cached_kuser(MDS, 4, 5, 2)
    return _without_rows(scheme, _member(scheme, pattern, i)), None


# label -> (scheme, the demand that must reuse its orbit's verdict, or None)
CASES = {
    "kuser/mds broken copy, a member removed": lambda: _broken((0, 0, 1, 2, 1), 2),
    "kuser/mds broken copy, a pattern removed": lambda: _broken((0, 1, 0, 2, 2), 0),
    "kuser/mds ascending export": lambda: (explicit_kuser_mds(4, 5, 2), None),
    "permute_scheme(kuser/man)": lambda: (
        permute_scheme(cached_kuser(MAN, 3, 4, 1), (2, 4, 1, 3), (3, 1, 2)), None),
    "rotate_2rr1s(half-rate), raw rows": lambda: (
        _explicit(rotate_2rr1s(cached_2rr1s(CornerPointId.HALF_RATE, 3))), None),
    "rotate_2rr1s(man-2-3), expanded": lambda: (
        _explicit(rotate_2rr1s(cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 3))), None),
    "kuser/mds, one demand's rows reversed": lambda: _rows_changed(
        cached_kuser(MDS, 4, 5, 2), lambda images: images[::-1]),
    # a zero row leaves the packed int unchanged but not the row multiset
    "kuser/mds, one demand sends an extra zero row": lambda: (_rows_changed(
        cached_kuser(MDS, 4, 5, 2), lambda images: images + (0,))[0], None),
    "kuser/man, one row moved to another sender": lambda: _row_moved(cached_kuser(MAN, 4, 5, 2)),
}


def _verify(scheme, monkeypatch, demand_entries=None, **kwargs):
    """(demands given the full check, in order; the report's JSON document).

    A full check is a call of `verify._decide`, or of the oracle's
    `conftest.unmemoized_decide`.
    """
    decided = []

    def spy(decide):
        def full_check(scheme, verdicts, d, sent):
            decided.append(d)
            return decide(scheme, verdicts, d, sent)
        return full_check

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_decide", spy(verify_mod._decide))
        patch.setattr(conftest, "unmemoized_decide", spy(conftest.unmemoized_decide))
        if demand_entries is not None:
            patch.setattr(verify_mod, "_demand_entries", demand_entries)
        report = verify_mod.verify(scheme, **kwargs)
    return decided, report.to_json_dict()


@pytest.mark.parametrize("label", list(CASES))
def test_full_checks_and_reports_match_the_multiset_rule(label, monkeypatch):
    scheme, reuses = CASES[label]()
    assert isinstance(scheme, LinearScheme)
    decided, doc = _verify(scheme, monkeypatch)
    assert (decided, doc) == _verify(scheme, monkeypatch, multiset_rule_entries), label
    assert (_verify(scheme, monkeypatch, check_decodability=False)
            == _verify(scheme, monkeypatch, multiset_rule_entries, check_decodability=False))
    if reuses is not None:
        assert reuses not in decided
        assert _member(scheme, canonical_file_pattern(reuses), 0) in decided


def test_cases_reach_reuse_fallback_and_failure(monkeypatch):
    """The cases exercise what they are named for."""
    def run(label):
        scheme, _ = CASES[label]()
        decided, doc = _verify(scheme, monkeypatch)
        return scheme, decided, doc

    # orbits are reused, but a removed pattern's orbit members are checked in full
    scheme, decided, doc = run("kuser/mds broken copy, a pattern removed")
    orbit = [d for d in scheme.delivery if canonical_file_pattern(d) == (0, 1, 0, 2, 2)]
    assert set(orbit) <= set(decided) and len(decided) < len(scheme.delivery)
    assert sum(not e["decodable"] for e in doc["demands"]) == 1
    # demands that list their moved rows in another order still reuse the verdict
    scheme, decided, doc = run("kuser/mds ascending export")
    assert len(decided) < len(scheme.delivery)
    assert any(_sent(scheme, d) != _pattern_rows_moved(scheme, d)
               for d in scheme.delivery if d not in decided)
    scheme, decided, doc = run("kuser/mds, one demand sends an extra zero row")
    (d,) = [d for d in scheme.delivery if 0 in _sent(scheme, d)]
    assert d in decided
    scheme, decided, doc = run("rotate_2rr1s(half-rate), raw rows")
    assert not scheme.encoding_clean
    scheme, decided, doc = run("rotate_2rr1s(man-2-3), expanded")
    assert {e["demand"] for e in doc["demands"] if not e["decodable"]} == {
        ",".join(map(str, d)) for d in enumerate_demands(scheme.model, 3, 3, 0) if d[0] == d[2]}


def test_explicit_verify_multiplies_each_distinct_encoding_once(monkeypatch):
    scheme, _ = _broken((0, 0, 1, 2, 1), 2)
    distinct = {(k, sig.matrix.images) for per in scheme.delivery.values()
                for k, sig in per.items()}
    products = []
    matmul = FieldMatrix.matmul

    def spy(self, other):
        products.append(self)
        return matmul(self, other)

    monkeypatch.setattr(FieldMatrix, "matmul", spy)
    verify_mod.verify(scheme)
    assert len(products) == len(distinct) == 202
    assert len(scheme.delivery) == 640


def test_sender_rows_are_read_only_and_shared():
    orbit = cached_kuser(MAN, 3, 4, 1)
    for scheme in (orbit, _explicit(orbit)):
        for check in (True, False):
            entries = verify_mod.verify(scheme, check_decodability=check).demands
            with pytest.raises(TypeError):
                entries[0].sender_rows[1] = 0
            by_counts = {}
            for e in entries:
                assert by_counts.setdefault(tuple(e.sender_rows.items()), e.sender_rows) \
                    is e.sender_rows
