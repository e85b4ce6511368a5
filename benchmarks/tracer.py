"""In-process spans and counters around d2dcache's public functions.

The tracer wraps each function below at every name it is bound to in the
loaded d2dcache modules (`catalog` and `adapters` import
`solve_in_rowspace` by name, `cli` imports `verify` and `dump_scheme`),
and the catalog builders inside `io._BUILTINS`. Calls into layer entry
points become spans (name, start, end, parent span, job id). Hot kernel
calls (row-space operations, matrix products) are only counted and timed,
since one span each would not fit in memory. Every call's duration is
charged to its caller, so self time is a call's duration minus its
children's. Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, attribute path, metric, kind)
TARGETS = (
    ("d2dcache.field", "solve_in_rowspace", "field.solve", LEAF),
    ("d2dcache.field", "RowSpan.add", "field.rowspan", LEAF),
    ("d2dcache.field", "RowSpan.contains", "field.rowspan", LEAF),
    ("d2dcache.field", "FieldMatrix.__post_init__", "field.matrix_builds", COUNT),
    ("d2dcache.field", "FieldMatrix.stack", "field.stack", LEAF),
    ("d2dcache.field", "FieldMatrix.matmul", "field.matmul", LEAF),
    ("d2dcache.model", "LinearScheme.transmitted_rows", "model.transmitted_rows", LEAF),
    ("d2dcache.catalog", "build_2rr1s_scheme", "catalog.build", SPAN),
    ("d2dcache.catalog", "build_kuser_scheme", "catalog.build", SPAN),
    ("d2dcache.catalog", "build_traditional_scheme", "catalog.build", SPAN),
    ("d2dcache.sharing", "memory_share", "sharing.memory_share", SPAN),
    ("d2dcache.sharing", "SymmetrizedScheme.to_explicit", "sharing.to_explicit", SPAN),
    ("d2dcache.adapters", "rotate_2rr1s", "adapters.rotate", SPAN),
    ("d2dcache.adapters", "adapt_request_random", "adapters.adapt", SPAN),
    ("d2dcache.verify", "verify", "verify", SPAN),
    ("d2dcache.io", "dump_scheme", "io.dump", SPAN),
    ("d2dcache.io", "load_scheme_file", "io.load", SPAN),
    ("d2dcache.io", "load_scheme_text", "io.load", SPAN),
)


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)     # outermost calls only
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.job = None
        self._frames: list[list] = []        # [time charged by children, span id or None]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []      # (owner, name, original)
        self._probes: list = []
        self._verify = None
        self._after = {
            "verify": self._after_verify,
            "dump_scheme": lambda args, kwargs, text, _: self._add_bytes(len(text)),
            "load_scheme_text": lambda args, kwargs, scheme, _: self._add_bytes(len(args[0])),
        }

    def _add_bytes(self, n: int) -> None:
        self.counts["io.scheme_bytes"] += n

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        import d2dcache.io
        import d2dcache.sharing

        self._sym_class = d2dcache.sharing.SymmetrizedScheme
        wrapped = {}     # id(original) -> wrapper; module functions only
        for module_name, path, metric, kind in TARGETS:
            owner = sys.modules[module_name]
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            if metric == "verify":
                self._verify = original
            wrapper = self.wrap(original, metric, kind, self._after.get(name))
            if outer:
                self._patch(owner, name, wrapper)
            else:
                wrapped[id(original)] = wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "d2dcache" or mod_name.startswith("d2dcache."):
                for name, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._patch(module, name, wrapped[id(value)])
        # resolve_scheme compares builders by identity with catalog's names
        builtins = d2dcache.io._BUILTINS
        for name, (builder, point) in list(builtins.items()):
            if id(builder) in wrapped:
                self._patches.append((builtins, name, (builder, point)))
                builtins[name] = (wrapped[id(builder)], point)
        return self

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, metric: str, kind: str, after=None):
        """`fn` recorded under `metric` as a span, a timed leaf or a count."""
        counts, times, self_s, frames, depth = (
            self.counts, self.times, self.self_s, self._frames, self._depth)
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_id = None
            if kind == SPAN:
                span_id = len(self.spans)
                self.spans.append(None)     # reserve the id; filled in on exit
            frame = [0.0, span_id]
            frames.append(frame)
            depth[metric] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                depth[metric] -= 1
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                counts[metric] += 1
                if depth[metric] == 0:
                    times[metric] += duration
                self_s[metric] += duration - frame[0]
                if span_id is not None:
                    self.spans[span_id] = {
                        "id": span_id, "name": metric, "start": start, "end": end,
                        "parent": self._parent_span(), "job": self.job,
                        "self_s": duration - frame[0],
                    }
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return timed

    def _parent_span(self):
        for frame in reversed(self._frames):
            if frame[1] is not None:
                return frame[1]
        return None

    def _after_verify(self, args, kwargs, report, duration) -> None:
        scheme = args[0]
        if isinstance(scheme, self._sym_class):
            self.times["sharing.sym_verify"] += duration
        if not kwargs.get("check_decodability", True):
            self.times["verify.accounting"] += duration
            return
        entries = report.demands
        self.counts["verify.demands"] += len(entries)
        self.counts["verify.requester_checks"] += sum(
            sum(1 for v in e.demand if v) for e in entries if e.rate is not None)
        self.counts["verify.failed_demands"] += sum(1 for e in entries if e.decodable is False)
        self._probes.append(scheme)

    def flush_probes(self) -> None:
        """Time accounting-only verification of every scheme verified in full.

        Runs outside the timed job, through the unwrapped function, so that
        verify.decode_s = verify.s - verify.accounting_s.
        """
        for scheme in self._probes:
            start = perf_counter()
            self._verify(scheme, check_decodability=False)
            self.times["verify.accounting"] += perf_counter() - start
        self._probes.clear()

    # -- output ----------------------------------------------------------------

    def merge(self, dump: dict, prefix: str) -> None:
        """Add a child process's dump; its span ids get `prefix`."""
        for key, value in dump["counts"].items():
            self.counts[key] += value
        for key, value in dump["times"].items():
            self.times[key] += value
        for key, value in dump["self_s"].items():
            self.self_s[key] += value
        for span in dump["spans"]:
            parent = span["parent"]
            self.spans.append(dict(span, id=f"{prefix}{span['id']}", job=self.job,
                                   parent=self._parent_span() if parent is None
                                   else f"{prefix}{parent}"))

    def dump(self) -> dict:
        return {"counts": dict(self.counts), "times": dict(self.times),
                "self_s": dict(self.self_s), "spans": self.spans}

