"""The benchmark tracer's hooks name functions that exist in the package.

`benchmarks/tracer.py` wraps each TARGETS entry by looking it up in its
owner's `__dict__`, so a rename in the package breaks `run.py --trace 1`.
This check keeps such a rename from passing the package's own tests, and
so does the check of the names `benchmarks/tests/test_benchmark.py` reads.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("d2dcache_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_defined_where_it_is_hooked():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, path, _, _ in targets:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


# Package names that benchmarks/tests/test_benchmark.py reads directly, as
# (module, attribute): test_tracer_restores_the_program compares them before
# and after a traced pass.
BENCHMARK_READS = (
    ("d2dcache.catalog", "solve_in_rowspace"),
    ("d2dcache.io", "_BUILTINS"),
    ("d2dcache.field", "RowSpan"),
)


def test_every_name_the_benchmark_tests_read_is_defined():
    missing = [f"{module_name}.{name}" for module_name, name in BENCHMARK_READS
               if name not in vars(importlib.import_module(module_name))]
    assert missing == []
