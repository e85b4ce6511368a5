import importlib
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from d2dcache.catalog import (
    CornerPointId,
    build_2rr1s_scheme,
    build_kuser_scheme,
    build_traditional_scheme,
)
from d2dcache.errors import ConfigurationError
from d2dcache.field import FieldMatrix, FieldSpec, RowSpan, mds_generator, min_extension_degree
from d2dcache.model import (
    LinearScheme,
    ModelKind,
    SenderSignal,
    canonical_file_pattern,
    enumerate_demands,
    file_order,
    move_files,
    requesters_of,
    senders_of,
    symbol_col,
    unit_image,
)
from d2dcache.verify import DemandReport, _file_decodable

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")

TWO_RR_POINTS = (
    CornerPointId.FULL,
    CornerPointId.MDS_HALF,
    CornerPointId.MAN_TWO_THIRDS,
    CornerPointId.HALF_RATE,
)

KUSER_CASES = ((2, 3, 1), (4, 5, 2), (3, 4, 1), (4, 6, 3))

_cache = {}


def cached_2rr1s(point, N):
    key = ("2rr1s", point, N)
    if key not in _cache:
        _cache[key] = build_2rr1s_scheme(point, N)
    return _cache[key]


def cached_traditional():
    key = ("trad",)
    if key not in _cache:
        _cache[key] = build_traditional_scheme(CornerPointId.TRAD_CODED_ONE_ONE, 2)
    return _cache[key]


def cached_kuser(point, N, K, s):
    key = ("kuser", point, N, K, s)
    if key not in _cache:
        _cache[key] = build_kuser_scheme(point, N, K, s)
    return _cache[key]


def all_2rr1s_schemes(Ns=range(2, 9)):
    """(label, scheme) for every catalog design in the one-sender model."""
    out = []
    for N in Ns:
        for point in TWO_RR_POINTS:
            out.append((f"{point.value}/N={N}", cached_2rr1s(point, N)))
        if N == 2:
            out.append((f"n2-7-8/N=2", cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)))
    return out


@pytest.fixture(scope="session")
def catalog_2rr1s():
    return all_2rr1s_schemes


@pytest.fixture(scope="session")
def trad_scheme():
    return cached_traditional()


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------

def decodes_demand(scheme, d, users, signals=None):
    """True when every listed user decodes its request under demand d."""
    if signals is None:
        signals = scheme.transmitted_rows(d)
    for r in users:
        span = RowSpan(scheme.field, scheme.symbol_count)
        span.add_matrix(scheme.placement[r - 1])
        for mat in signals.values():
            span.add_matrix(mat)
        if not _file_decodable(span, scheme.N, scheme.L, d[r - 1]):
            return False
    return True


def placement_with_file_one_reversed(scheme):
    """The scheme's placement with the subfiles of file 1 listed in reverse order.

    Relabelling symbols inside one file moves every cache and transmitted
    row and the file's unit selectors alike, so every verdict and rate is
    unchanged; the cache spans, however, stop being file-symmetric.
    """
    N, L = scheme.N, scheme.L
    col_map = [L - 1 - c if c < L else c for c in range(N * L)]
    return tuple(P.map_columns(col_map, N * L) for P in scheme.placement)


def with_file_one_reversed(scheme) -> LinearScheme:
    """The scheme with `placement_with_file_one_reversed` and the same delivery."""
    return LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                        placement_with_file_one_reversed(scheme), scheme.delivery)


def rational_grid(lo, hi, step):
    """lo, lo+step, ... up to hi, with hi always the last point."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if step <= 0 or hi < lo:
        raise ConfigurationError("need step > 0 and hi >= lo")
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x += step
    if out[-1] != hi:
        out.append(hi)
    return out


def transpose(mat):
    rows = mat.rows
    return FieldMatrix.from_rows(mat.spec, [[r[j] for r in rows] for j in range(mat.ncols)],
                                 ncols=mat.nrows)


def row_set(mat):
    return frozenset(mat.rows)


def unit_row(N, L, n, l):
    """The tuple row that selects subfile l of file n: an oracle for unit_image."""
    row = [0] * (N * L)
    row[symbol_col(N, L, n, l)] = 1
    return tuple(row)


def xor_rows(*rows):
    """Entrywise GF(2) sum of tuple rows: an oracle for XOR of images."""
    out = [0] * len(rows[0])
    for r in rows:
        for i, v in enumerate(r):
            out[i] ^= v
    return tuple(out)


def explicit_kuser_mds(N, K, s):
    """kuser/mds written demand by demand, rows in ascending file order: an oracle.

    The builtin writes one delivery per file pattern, so a moved demand sends
    the same rows in first-appearance order of its files instead.
    """
    spec = FieldSpec(min_extension_degree(K))
    L = s + 1
    G = mds_generator(K, L, spec)
    placement = tuple(
        FieldMatrix(spec, N, N * L, tuple(g * unit_image(N, L, n, 1, spec.m)
                                          for n in range(1, N + 1)))
        for g in G.images
    )
    cache_row = {f: unit_image(N, 1, f, 1, spec.m) for f in range(1, N + 1)}
    delivery = {}
    for d in enumerate_demands(ModelKind.K_USER_S_SENDERS, N, K, s):
        units = tuple(cache_row[f] for f in sorted({v for v in d if v}))
        signal = SenderSignal(FieldMatrix(spec, len(units), N, units))
        delivery[d] = {k: signal for k in senders_of(d)}
    return LinearScheme(ModelKind.K_USER_S_SENDERS, N, K, s, L, spec, placement, delivery)


def unmemoized_decide(scheme, verdicts, d, sent):
    """`verify._decide` with its verdict memo bypassed: an oracle.

    verdicts is ignored.  Every requester's verdict comes from the
    elimination (`verify._decodes`) on its placement's echelon and the span
    of the sent rows.
    """
    span = RowSpan(scheme.field, scheme.symbol_count)
    for image in sent:
        span.add(image)
    failed = tuple(r for r in requesters_of(d)
                   if not verify_mod._decodes(scheme.placement[r - 1]._echelon, span,
                                              scheme.N, scheme.L, d[r - 1]))
    return not failed, failed


def frame_rule_entries(scheme, demands, covered, verdicts, symmetric):
    """`verify._entries` for an explicit scheme, one product and move per row: an oracle.

    Every demand is multiplied out on its own.  Its frame is its file
    pattern when symmetric, else itself, and each transmitted image is
    moved onto the frame by `move_files` with the inverse of d's
    `file_order`.  The first demand with a given frame and moved images,
    in order, is decided by `unmemoized_decide`, looked up at call time so
    a spy sees it, and every later one takes that verdict.
    """
    block = scheme.L * scheme.field.m
    decided = {}
    entries = []
    worst = Fraction(0)
    for d in demands:
        if covered is not None and d not in covered:
            entries.append(DemandReport(d, None, {}, False if verdicts is not None else None))
            continue
        sender_rows = scheme.delivery_row_counts(d)
        rate = Fraction(sum(sender_rows.values()), scheme.L)
        worst = max(worst, rate)
        verdict = (None, ())
        if verdicts is not None:
            frame = canonical_file_pattern(d) if symmetric else d
            order = file_order(d, scheme.N) if symmetric else range(scheme.N)
            perm = [0] * scheme.N  # the inverse of order: d's files onto the frame's
            for i, n in enumerate(order):
                perm[n] = i
            moved = tuple(move_files(image, perm, block)
                          for mat in scheme.transmitted_rows(d).values() for image in mat.images)
            if (frame, moved) not in decided:
                decided[frame, moved] = unmemoized_decide(scheme, verdicts, frame, moved)
            verdict = decided[frame, moved]
        entries.append(DemandReport(d, rate, sender_rows, *verdict))
    return entries, worst


@dataclass
class FullChecks:
    """What `verify` decided while the `full_checks` fixture was active.

    A full check is a call of `verify._decide` or of the oracle
    `unmemoized_decide`.  Each is recorded as (frame, sorted sent images,
    RowSpans built during the check).
    """

    checks: list = field(default_factory=list)
    spans: int = 0  # every RowSpan built, inside a full check or not

    @property
    def frames(self) -> list:
        """The demand each full check decided, in order."""
        return [frame for frame, _, _ in self.checks]

    @property
    def check_spans(self) -> int:
        """The RowSpans the full checks built."""
        return sum(spans for _, _, spans in self.checks)

    def clear(self) -> None:
        self.checks.clear()
        self.spans = 0


@pytest.fixture
def full_checks(monkeypatch):
    """Record every full check and every RowSpan construction of the test."""
    record = FullChecks()
    init = RowSpan.__init__

    def spy_init(span, *args):
        record.spans += 1
        init(span, *args)

    def spy(decide):
        def full_check(scheme, verdicts, frame, sent):
            sent = list(sent)
            before = record.spans
            verdict = decide(scheme, verdicts, frame, sent)
            record.checks.append((frame, tuple(sorted(sent)), record.spans - before))
            return verdict
        return full_check

    monkeypatch.setattr(RowSpan, "__init__", spy_init)
    monkeypatch.setattr(verify_mod, "_decide", spy(verify_mod._decide))
    monkeypatch.setitem(globals(), "unmemoized_decide", spy(unmemoized_decide))
    return record
