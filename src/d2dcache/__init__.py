"""Linear D2D coded-caching schemes with exact rate-memory verification."""

from .adapters import (
    FakeAssignment,
    PrunedSignal,
    RequestRandomAdaptation,
    adapt_request_random,
    average_rate,
    prune_signal,
    rotate_2rr1s,
)
from .bounds import (
    BoundLine,
    converse_2rr1s,
    converse_traditional_n2,
    load_external_curve,
    paper_corner_points,
    prop2_bound,
    shipped_curve,
)
from .catalog import (
    CornerPointId,
    build_2rr1s_scheme,
    build_kuser_scheme,
    build_traditional_scheme,
    corner_value,
)
from .curves import RatePoint, TradeoffCurve, envelope, first_crossing
from .field import (
    GF2,
    FieldMatrix,
    FieldSpec,
    mat_rank,
    mds_generator,
    solve_in_rowspace,
)
from .io import builtin_names, dump_scheme, load_scheme_file, resolve_scheme, scheme_to_dict
from .model import (
    Demand,
    LinearScheme,
    ModelKind,
    OrbitScheme,
    SenderSignal,
    enumerate_demands,
    permute_scheme,
    requesters_of,
    senders_of,
)
from .sharing import SymmetrizedScheme, concatenate_blocks, memory_share, symmetrize
from .verify import VerificationReport, verify

__version__ = "0.1.0"

__all__ = [
    "BoundLine", "CornerPointId", "Demand", "FakeAssignment", "FieldMatrix",
    "FieldSpec", "GF2", "LinearScheme", "ModelKind", "OrbitScheme", "PrunedSignal",
    "RatePoint", "RequestRandomAdaptation",
    "SenderSignal", "SymmetrizedScheme", "TradeoffCurve",
    "VerificationReport", "adapt_request_random", "average_rate",
    "build_2rr1s_scheme", "build_kuser_scheme", "build_traditional_scheme",
    "builtin_names", "concatenate_blocks", "converse_2rr1s",
    "converse_traditional_n2", "corner_value", "dump_scheme",
    "enumerate_demands", "envelope", "first_crossing", "load_external_curve",
    "load_scheme_file", "mat_rank", "mds_generator", "memory_share",
    "paper_corner_points", "permute_scheme", "prop2_bound", "prune_signal",
    "requesters_of", "resolve_scheme", "rotate_2rr1s", "scheme_to_dict",
    "senders_of", "shipped_curve", "solve_in_rowspace", "symmetrize",
    "verify",
]
