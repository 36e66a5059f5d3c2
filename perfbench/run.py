"""Benchmark of the TISCC reproduction: end-to-end and per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload lfr_decode --seed 1 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh child process (``rep.py``)
with cold caches; repetitions are spawned one after another for as long as
the next one should still end within ``--seconds`` (at least
:data:`MIN_REPS` of them), and every metric is the median over
repetitions.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` alternates traced and untraced repetitions,
reports the per-layer metrics of the traced ones, the tracing overhead
(median traced ``wall_s`` minus median untraced ``wall_s``), and writes
every span to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the run's environment.  Any failed repetition
(including a tree without ``src/repro``) exits non-zero with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "import_s": "s",
    "core.compile_s": "s",
    "core.instructions": "count",
    "hardware.simd_s": "s",
    "hardware.beam_passes": "count",
    "hardware.validity_s": "s",
    "hardware.resources_s": "s",
    "sim.dem.fault_table_s": "s",
    "sim.dem.instructions_visited": "count",
    "sim.dem.periodic_frac": "ratio",
    "sim.dem.build_dem_s": "s",
    "sim.frame.init_s": "s",
    "sim.frame.sample_s": "s",
    "sim.batch.replay_s": "s",
    "decode.experiment_init_s": "s",
    "decode.graph_s": "s",
    "decode.decoder_build_s": "s",
    "decode.decode_s": "s",
    "decode.shots_per_s": "1/s",
    "decode.nontrivial_frac": "ratio",
    "decode.distinct_frac": "ratio",
    "decode.syndromes_s": "s",
    "estimator.run_cells_self_s": "s",
    "estimator.cells_executed": "count",
    "estimator.cache_put_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

MIN_REPS = 3
MIN_TRACE_REPS = 2  # one traced and one untraced, for the overhead
#: No repetition starts later than this into a run, and none outlives
#: :data:`DEADLINE_S`, so a run ends well within three minutes.
LAST_START_S = 120.0
DEADLINE_S = 170.0


class RepFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload: str, seed: int, traced: bool, spec: dict, env: dict, timeout: float) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "rep.py"), workload, str(seed), repr(spawned),
        "1" if traced else "0", json.dumps(spec),
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median_of(reps: list[dict], key: str, field: str | None = None) -> float:
    return statistics.median((r[field] if field else r)[key] for r in reps)


def summarize(reps: list[dict], trace: bool) -> dict:
    untraced = [r for r in reps if "layers" not in r]
    if not trace:
        return {k: median_of(untraced, k) for k in END_TO_END}
    traced = [r for r in reps if "layers" in r]
    out = {k: median_of(traced, k, "layers") for k in PER_LAYER if k != "trace_overhead_s"}
    out["trace_overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    return out


def main(argv: list[str] | None = None, specs: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = (specs or workloads.SPECS)[args.workload]
    trace = bool(args.trace)

    if not Path("src/repro/__init__.py").is_file():
        print("run from the repository root: src/repro not found", file=sys.stderr)
        return 2

    env = child_env()
    reps: list[dict] = []
    start = time.monotonic()
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            # Start a repetition only if it should end within --seconds.
            if len(reps) >= min_reps and (
                elapsed + longest > args.seconds or elapsed >= LAST_START_S
            ):
                break
            traced = trace and len(reps) % 2 == 0
            reps.append(run_rep(
                args.workload, args.seed, traced, spec, env, max(1.0, DEADLINE_S - elapsed)
            ))
            longest = max(longest, time.monotonic() - start - elapsed)
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        print(f"FAILED {args.workload}: {name}: {detail}", file=sys.stderr)

    values = summarize(reps, trace)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spec": spec,
        "reps": [dict({k: r[k] for k in END_TO_END}, traced="layers" in r) for r in reps],
    }
    if trace:
        out_dir = Path(".perfbench")
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        spans = [
            {"rep": i, "spans": [
                {"name": n, "start_ns": t0, "end_ns": t1, "parent": p}
                for n, t0, t1, p in r["spans"]
            ]}
            for i, r in enumerate(reps) if "spans" in r
        ]
        path.write_text(json.dumps({"record": record, "metrics": values, "reps": spans}))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
