"""One repetition of one workload, in a fresh process with cold caches.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/rep.py WORKLOAD SEED SPAWN_MONOTONIC TRACED SPEC_JSON

Prints one JSON object as its last stdout line: the end-to-end timings of
this repetition, its checked ops, and — when ``TRACED`` is 1 — the
per-layer metrics and the raw spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, spawned, traced, spec_json = argv
    seed, spawned, traced, spec = int(seed), float(spawned), traced == "1", json.loads(spec_json)

    t0 = time.perf_counter()
    import repro
    import_s = time.perf_counter() - t0

    src = Path("src").resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from spans import FirstCall, Tracer

    from repro.sim.dem import visit_counts

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    first = FirstCall(*workloads.FIRST_WORK[workload])
    clock = workloads.Clock(tracer)
    expected = workloads.load_expected()

    visited0 = sum(visit_counts().values())
    t_start = time.perf_counter()
    items, ops = workloads.WORKLOADS[workload](spec, seed, clock, expected)
    t_end = time.perf_counter()
    t_end_mono = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    visited = sum(visit_counts().values()) - visited0

    if first.t is None:
        print(f"{workload} never reached its first unit of work", file=sys.stderr)
        return 2
    wall_s = t_end - t_start - clock.excluded
    # Untimed blocks all run after the first unit of work has started.
    busy_s = t_end_mono - first.t - clock.excluded
    out = {
        "setup_s": first.t - spawned,
        "wall_s": wall_s,
        "items_per_s": items / busy_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, import_s, visited)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
