"""Scheme interchange format and built-in scheme resolution.

A scheme serializes to a single JSON document::

    {"model": "2rr1s", "N": 2, "K": 3, "s": 1, "L": 8, "field_m": 1,
     "placement": [[[row ints] ...] per user],
     "delivery": {"d1,d2,...": {"<sender>": [[row ints] ...]}}}

Placement rows are symbol-space vectors; delivery rows are encoding
coefficients over the sender's cache rows.  All entries are decimal
integers below 2^field_m.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from . import catalog
from .errors import ConfigurationError, InterchangeError
from .field import _EXHAUSTIVE_CHECK_LIMIT, FieldMatrix, FieldSpec, mat_rank
from .model import Demand, LinearScheme, ModelKind, SenderSignal

BUILTIN_PREFIX = "builtin:"

# Largest N*L a document may name.  A row span's masks are N*L*m bits wide,
# so an empty placement would otherwise make a tiny document cost gigabytes.
_SYMBOL_LIMIT = 10 ** 6

_BUILTINS = {
    "2rr1s/full": (catalog.build_2rr1s_scheme, catalog.CornerPointId.FULL),
    "2rr1s/mds-half": (catalog.build_2rr1s_scheme, catalog.CornerPointId.MDS_HALF),
    "2rr1s/man-2-3": (catalog.build_2rr1s_scheme, catalog.CornerPointId.MAN_TWO_THIRDS),
    "2rr1s/half-rate": (catalog.build_2rr1s_scheme, catalog.CornerPointId.HALF_RATE),
    "2rr1s/n2-7-8": (catalog.build_2rr1s_scheme, catalog.CornerPointId.N2_SEVEN_EIGHTHS),
    "trad/coded-1-1": (catalog.build_traditional_scheme, catalog.CornerPointId.TRAD_CODED_ONE_ONE),
    "kuser/mds": (catalog.build_kuser_scheme, catalog.CornerPointId.KU_MDS),
    "kuser/man": (catalog.build_kuser_scheme, catalog.CornerPointId.KU_MAN),
}


def builtin_names() -> list[str]:
    return [BUILTIN_PREFIX + name for name in sorted(_BUILTINS)]


def resolve_scheme(source: str, N: Optional[int] = None, K: Optional[int] = None,
                   s: Optional[int] = None) -> catalog.Scheme:
    """Build a named builtin or load a scheme document from a file path.

    Each of N, K and s that is given must equal the resolved scheme's own.
    """
    scheme = _builtin(source, N, K, s) if source.startswith(BUILTIN_PREFIX) \
        else load_scheme_file(source)
    for name, given, own in (("N", N, scheme.N), ("K", K, scheme.K), ("s", s, scheme.s)):
        if given is not None and given != own:
            raise InterchangeError(f"{source} has {name}={own}, not --{name} {given}")
    return scheme


def _builtin(source: str, N: Optional[int], K: Optional[int],
             s: Optional[int]) -> catalog.Scheme:
    """The named builtin, built at the given sizes where it takes them."""
    name = source[len(BUILTIN_PREFIX):]
    entry = _BUILTINS.get(name)
    if entry is None:
        raise InterchangeError(
            f"unknown builtin {source!r}; available: {', '.join(builtin_names())}",
            field="source",
        )
    builder, point = entry
    if builder is catalog.build_kuser_scheme:
        if N is None or K is None or s is None:
            raise InterchangeError(f"{source} needs --N, --K and --s", field="source")
        return builder(point, N, K, s)
    if (builder is catalog.build_traditional_scheme
            or point is catalog.CornerPointId.N2_SEVEN_EIGHTHS):
        return builder(point, 2 if N is None else N)
    if N is None:
        raise InterchangeError(f"{source} needs --N", field="source")
    return builder(point, N)


def scheme_to_dict(scheme: catalog.Scheme) -> dict:
    if not scheme.encoding_clean:
        raise InterchangeError(
            "scheme holds raw transmissions that violate cache encodability "
            "and cannot be expressed in the interchange format",
            field="delivery",
        )
    return {
        "model": scheme.model.value,
        "N": scheme.N,
        "K": scheme.K,
        "s": scheme.s,
        "L": scheme.L,
        "field_m": scheme.field.m,
        "placement": [[list(row) for row in P.rows] for P in scheme.placement],
        "delivery": {
            ",".join(str(v) for v in d): {
                str(k): [list(row) for row in sig.matrix.rows]
                for k, sig in sorted(per.items())
            }
            for d, per in sorted(scheme.delivery.items())
        },
    }


def dump_scheme(scheme: catalog.Scheme) -> str:
    return json.dumps(scheme_to_dict(scheme), indent=2)


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise InterchangeError("missing required field", field=key)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InterchangeError(f"expected {kind.__name__}, got {type(value).__name__}", field=key)
    return value


def _matrix(spec: FieldSpec, rows: object, ncols: int, field: str) -> FieldMatrix:
    """A document matrix: a list of rows, each a list of field elements."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InterchangeError("expected a list of rows of integers", field=field)
    try:
        return FieldMatrix.from_rows(spec, rows, ncols=ncols)
    except ConfigurationError as exc:
        raise InterchangeError(str(exc), field=field) from exc


def _parse_demand(key: str, K: int) -> Demand:
    """The demand a key names.

    Only the canonical spelling "d1,...,dK" is accepted, so no two keys can
    name one demand.
    """
    try:
        d = tuple(int(v) for v in key.split(","))
    except ValueError as exc:
        raise InterchangeError(f"bad demand key {key!r}", field="delivery") from exc
    canonical = ",".join(str(v) for v in d)
    if key != canonical:
        raise InterchangeError(f"demand key {key!r} is not written as {canonical!r}",
                               field="delivery")
    if len(d) != K:
        raise InterchangeError(f"demand key {key!r} has {len(d)} entries, expected {K}",
                               field="delivery")
    return d


def scheme_from_dict(doc: dict) -> LinearScheme:
    model_name = _require(doc, "model", str)
    try:
        model = ModelKind(model_name)
    except ValueError as exc:
        raise InterchangeError(f"unknown model {model_name!r}", field="model") from exc
    N = _require(doc, "N", int)
    K = _require(doc, "K", int)
    s = doc.get("s")
    if s is not None and (not isinstance(s, int) or isinstance(s, bool)):
        raise InterchangeError(f"expected an integer or null, got {s!r}", field="s")
    L = _require(doc, "L", int)
    for name, value in (("N", N), ("K", K), ("L", L)):
        if value < 1:
            raise InterchangeError(f"{name} must be positive, got {value}", field=name)
    if N * L > _SYMBOL_LIMIT:
        raise InterchangeError(f"N*L = {N * L} symbols exceed the limit of {_SYMBOL_LIMIT}",
                               field="L")
    field_m = _require(doc, "field_m", int)
    if not 1 <= field_m <= _EXHAUSTIVE_CHECK_LIMIT:
        # larger degrees make the modulus search by trial division exponential
        raise InterchangeError(f"field_m must lie in 1..{_EXHAUSTIVE_CHECK_LIMIT}, got {field_m}",
                               field="field_m")
    try:
        spec = FieldSpec(field_m)
    except ConfigurationError as exc:
        raise InterchangeError(str(exc), field="field_m") from exc

    placement_doc = _require(doc, "placement", list)
    if len(placement_doc) != K:
        raise InterchangeError(f"placement must list {K} matrices", field="placement")
    placement = []
    for k, rows in enumerate(placement_doc, start=1):
        matrix = _matrix(spec, rows, N * L, f"placement[{k}]")
        if mat_rank(matrix) != matrix.nrows:
            # memory accounting is rows/L and only exact for full row rank
            raise InterchangeError(
                f"user {k} placement has linearly dependent rows", field=f"placement[{k}]"
            )
        placement.append(matrix)
    placement = tuple(placement)

    delivery_doc = _require(doc, "delivery", dict)
    delivery: dict[Demand, dict[int, SenderSignal]] = {}
    # one signal per distinct (sender width, rows); repr tells 1 from True and 1.0
    signals: dict[tuple[int, str], SenderSignal] = {}
    for key, per_doc in delivery_doc.items():
        d = _parse_demand(key, K)
        if not isinstance(per_doc, dict):
            raise InterchangeError(f"delivery[{key}] must map senders to matrices",
                                   field="delivery")
        per = {}
        for sender_key, rows in per_doc.items():
            try:
                sender = int(sender_key)
            except ValueError as exc:
                raise InterchangeError(f"bad sender key {sender_key!r}",
                                       field=f"delivery[{key}]") from exc
            if sender_key != str(sender):
                raise InterchangeError(f"sender key {sender_key!r} is not written as "
                                       f"{str(sender)!r}", field=f"delivery[{key}]")
            if not 1 <= sender <= K:
                raise InterchangeError(f"sender {sender} outside 1..{K}",
                                       field=f"delivery[{key}]")
            width = placement[sender - 1].nrows
            shared = (width, repr(rows))
            sig = signals.get(shared)
            if sig is None:
                sig = signals[shared] = SenderSignal(
                    _matrix(spec, rows, width, f"delivery[{key}][{sender}]"))
            per[sender] = sig
        delivery[d] = per

    try:
        return LinearScheme(model, N, K, s, L, spec, placement, delivery)
    except ConfigurationError as exc:
        raise InterchangeError(str(exc), field="scheme") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys all differ; json.loads would keep only the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InterchangeError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def load_scheme_text(text: str) -> LinearScheme:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InterchangeError(f"not valid JSON: {exc}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise InterchangeError("JSON nests too deeply to load") from exc
    if not isinstance(doc, dict):
        raise InterchangeError("scheme document must be a JSON object")
    return scheme_from_dict(doc)


def load_scheme_file(path: Union[str, Path]) -> LinearScheme:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InterchangeError(f"cannot read scheme file {path}: {exc}") from exc
    return load_scheme_text(text)
