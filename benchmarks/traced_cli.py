"""Run the d2dcache CLI under the benchmark's tracer.

    python3 benchmarks/traced_cli.py <trace-out.json> <d2dcache arguments...>

Behaves like `python3 -m d2dcache.cli <arguments>` (same output and exit
code) and writes the tracer's counters and spans to <trace-out.json>,
with the time taken to import the CLI as `cli.import`.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import d2dcache.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.times["cli.import"] += import_s
    with tracer:
        code = d2dcache.cli.main(argv)
    tracer.flush_probes()
    sys.stdout.flush()
    Path(trace_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
